import ast
import importlib
import inspect
import pkgutil

import pytest

import catmin

MODULES = sorted(m.name for m in pkgutil.iter_modules(catmin.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"catmin.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from catmin.{name} import *", namespace)


def test_package_reexports_resolve():
    tree = ast.parse(inspect.getsource(catmin))
    names = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert names
    assert [n for n in names if not hasattr(catmin, n)] == []


def _euclidean_checks(tree) -> int:
    return sum(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and isinstance(node.args[1], ast.Name)
        and node.args[1].id == "EuclideanSpace"
        for node in ast.walk(tree)
    )


def test_target_model_is_decided_in_three_guards():
    # array fast paths live in the targets' own primitives; a module asks
    # whether the target is Euclidean only to refuse what it cannot do:
    # relaxation and certification, the R^3 saddle predicate, and the
    # instance format's target declaration
    checks = {
        name: _euclidean_checks(ast.parse(inspect.getsource(importlib.import_module(f"catmin.{name}"))))
        for name in MODULES
    }
    assert {name: k for name, k in checks.items() if k} == {"minimize": 1, "saddle": 1, "instances": 1}


def _shortest_path_backend(tree: ast.AST) -> list[str]:
    """scipy's Dijkstra and CSR constructor, as imported or read off a module."""
    wanted = {"dijkstra", "csr_matrix"}
    imported = {
        alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in wanted
    }
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr in wanted}
    return sorted(imported | attributes)


def test_only_graphs_runs_dijkstra():
    # the refined mesh, the intrinsic quotient and W's surface graph are all
    # catmin.graphs.PathGraph: one module builds the matrix and runs Dijkstra
    uses = {
        name: _shortest_path_backend(ast.parse(inspect.getsource(importlib.import_module(f"catmin.{name}"))))
        for name in MODULES
    }
    assert {name: u for name, u in uses.items() if u} == {"graphs": ["csr_matrix", "dijkstra"]}


def _validation_methods(tree: ast.AST) -> list[str]:
    """Definitions of, and attribute calls to, ``validate``/``require_valid``."""
    wanted = {"validate", "require_valid"}
    defined = [
        f"def {node.name}" for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name in wanted
    ]
    called = [
        f"call .{node.func.attr}" for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in wanted
    ]
    return defined + called


def test_objects_are_checked_when_built():
    # MappedDisc, GraphInTarget and PolyhedralDisc check themselves in their
    # constructors, so no module asks an existing object whether it is valid
    # (the instance format's validate_instance and the CLI's cmd_validate
    # check documents, not objects)
    found = {
        name: _validation_methods(ast.parse(inspect.getsource(importlib.import_module(f"catmin.{name}"))))
        for name in MODULES
    }
    assert {name: f for name, f in found.items() if f} == {}
