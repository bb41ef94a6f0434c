import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


# Reached only from outside the package: the fixture generators and writers
# that tests, the benchmark and users call to make inputs, and three named
# below.  Every other definition is used somewhere in catmin itself.
USED_FROM_OUTSIDE = {
    "fields.bilinear_saddle_patch",
    "fields.difference_saddle_patch",
    "instances.fixture_path",
    "instances.save_instance",
    "instances.patch_instance",
    "majorize.cone_disc",
    "majorize.strip_disc",
    "meshgen.random_height_disc",
    "meshgen.paraboloid_cap_disc",
    "saddle.hexagon_graph",
    "targets.EuclideanSpace.point",
    # the acceptance criteria and the keylemma_grid benchmark call it
    "majorize.thin_triangle_test",
    # ROADMAP item 5 decides whether it becomes the Euler-Lagrange operator or goes
    "fields.laplacian",
    # goes with W's exact geodesics, ROADMAP item 4
    "majorize.SurfaceGraph.distance_with_bound",
}


def _definitions(tree: ast.Module):
    """(qualified name, name, node) of each top-level function and class and
    of each non-dunder method of a top-level class."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, kinds[:2]) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def test_every_definition_is_used_in_the_package():
    # a use is a Name or Attribute outside the definition itself; imports,
    # the package's re-exports and __all__ strings are no uses
    trees = {name: ast.parse(inspect.getsource(importlib.import_module(f"catmin.{name}"))) for name in MODULES}
    uses: dict[str, list[tuple[str, ast.AST]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                uses.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append((module, node))
    unused = set()
    for module, tree in trees.items():
        for qualified, name, node in _definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if all(m == module and id(n) in inside for m, n in uses.get(name, [])):
                unused.add(f"{module}.{qualified}")
    # reached only from outside: call it in the package, list it, or delete it
    assert sorted(unused - USED_FROM_OUTSIDE) == []
    # used in the package now: drop it from the list
    assert sorted(USED_FROM_OUTSIDE - unused) == []


# Keyword parameters with a default that no call in src/catmin, bench/ or
# tools/ sets, each with the reason it stays.  Every other one is a setting
# some caller chooses; a default that nothing overrides is a constant.
_FIXTURE_SHAPE = "a shape parameter of a fixture generator"
_INSTANCE_CONTENT = "what an instance builder writes besides the object"
_DRAWING_STYLE = "a drawing default of the private SVG canvas"
UNSET_ON_PURPOSE = {
    "induced.connecting_on_graph(exact_limit)":
        "the oracle comparisons force the exact or the bracketed search through it (ROADMAP item 11)",
    "fields.energy(values)": "tests/oracles.py and the energy tests evaluate perturbed values through it",
    "pseudometric.verify_pseudometric(tol)": "the oracle comparison checks it at other tolerances",
    "fields.difference_saddle_patch(half_width)": _FIXTURE_SHAPE,
    "fields.difference_saddle_patch(n)": _FIXTURE_SHAPE,
    "majorize.cone_disc(radius)": _FIXTURE_SHAPE,
    "meshgen.random_height_disc(dim)": _FIXTURE_SHAPE,
    "meshgen.random_height_disc(height_scale)": _FIXTURE_SHAPE,
    "meshgen.paraboloid_cap_disc(n_rim)": _FIXTURE_SHAPE,
    "meshgen.paraboloid_cap_disc(rings)": _FIXTURE_SHAPE,
    "instances.mapped_disc_instance(sample)": _INSTANCE_CONTENT,
    "instances.mapped_disc_instance(tolerances)": _INSTANCE_CONTENT,
    "instances.graph_instance(tolerances)": _INSTANCE_CONTENT,
    "instances.graph_instance(metadata)": _INSTANCE_CONTENT,
    "instances.patch_instance(tolerances)": _INSTANCE_CONTENT,
    "instances.patch_instance(metadata)": _INSTANCE_CONTENT,
    "instances.poly_disc_instance(tolerances)": _INSTANCE_CONTENT,
    "instances.poly_disc_instance(metadata)": _INSTANCE_CONTENT,
    "svgout._Canvas.polygon(stroke)": _DRAWING_STYLE,
    "svgout._Canvas.polygon(width)": _DRAWING_STYLE,
    "svgout._Canvas.text(fill)": _DRAWING_STYLE,
}

def _call_name(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def _sets(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` sets the parameter ``name`` (at ``position`` among
    the positional arguments it receives, None for keyword-only)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(a, ast.Starred) for a in call.args) or len(call.args) > position


def _defaulted_parameters(tree: ast.Module):
    """(qualified function name, call name, parameter, position) of each
    parameter with a default, in every function and method; a method's
    position skips self, and ``__init__`` is called by its class's name."""
    def visit(node, cls, prefix):
        for sub in ast.iter_child_nodes(node):
            if isinstance(sub, ast.ClassDef):
                yield from visit(sub, sub.name, f"{prefix}{sub.name}.")
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = sub.args
                positional = args.posonlyargs + args.args
                skip = 1 if cls and positional and positional[0].arg in ("self", "cls") else 0
                called = cls if cls and sub.name == "__init__" else sub.name
                for arg in positional[len(positional) - len(args.defaults):]:
                    yield f"{prefix}{sub.name}", called, arg.arg, positional.index(arg) - skip
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield f"{prefix}{sub.name}", called, arg.arg, None
                yield from visit(sub, None, f"{prefix}{sub.name}.")
            else:
                yield from visit(sub, cls, prefix)

    yield from visit(tree, None, "")


def test_every_keyword_default_is_set_by_some_caller():
    # calls are matched by bare name, as uses are above
    root = Path(__file__).resolve().parents[1]
    trees = {name: ast.parse(inspect.getsource(importlib.import_module(f"catmin.{name}"))) for name in MODULES}
    callers = list(trees.values()) + [
        ast.parse(path.read_text(encoding="utf-8"))
        for folder in ("bench", "tools") for path in sorted((root / folder).glob("*.py"))
    ]
    calls: dict[str, list[ast.Call]] = {}
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _call_name(node):
                calls.setdefault(_call_name(node), []).append(node)
    unset = {
        f"{module}.{qualified}({name})"
        for module, tree in trees.items()
        for qualified, called, name, position in _defaulted_parameters(tree)
        if not any(_sets(call, name, position) for call in calls.get(called, []))
    }
    # set by no caller: set it somewhere, make it a constant, or list it
    assert sorted(unset - set(UNSET_ON_PURPOSE)) == []
    # set by a caller now: drop it from the list
    assert sorted(set(UNSET_ON_PURPOSE) - unset) == []


def _fresh_python(code: str, *args: str) -> str:
    """Standard output of ``python -c code args`` in a new interpreter that
    imports catmin from this tree."""
    src = str(Path(catmin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                          check=True).stdout


def test_cli_import_loads_no_optional_heavy_module():
    # a fresh `catmin` process pays for every module its imports load, and
    # the benchmark's set-up time is mostly that; scipy loads with the
    # first shortest path
    heavy = ("networkx", "hypothesis", "scipy")
    loaded = _fresh_python("import sys, catmin, catmin.cli; print(*sorted(sys.modules))").split()
    assert [m for m in loaded if m in heavy or m.startswith(tuple(h + "." for h in heavy))] == []


# each command once in one fresh process, then the scipy modules it left loaded
RUN_COMMANDS = """import json, sys
from catmin.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))]))"""


def test_only_shortest_path_commands_load_scipy(tmp_path):
    from catmin.instances import fixture_path, graph_instance, save_instance
    from catmin.saddle import hexagon_graph

    graph = str(tmp_path / "hexagon_graph.json")
    save_instance(graph_instance(hexagon_graph()), graph)

    def fixture(name):
        return str(fixture_path(f"{name}.json"))

    # the link condition, the saddle predicate, the field system, validation
    # and the graph stages take no shortest path
    without = [
        (0, ["validate", "--in", fixture("hexagon")]),
        (0, ["check-saddle", "--in", fixture("hexagon")]),
        (0, ["check-cat0", "--in", fixture("cone_5pi2")]),
        (1, ["check-cat0", "--in", fixture("cone_3pi2")]),
        (0, ["solve-fields", "--in", fixture("saddle_patch")]),
        (0, ["perturb", "--in", fixture("saddle_patch"), "--trials", "10"]),
        (0, ["counterexample"]),
        (0, ["build-disc", "--in", graph]),
        (0, ["minimize-graph", "--in", graph]),
    ]
    argvs = [argv + ["--out", str(tmp_path / f"{k}.json")] for k, (_, argv) in enumerate(without)]
    codes, scipy_modules = json.loads(_fresh_python(RUN_COMMANDS, json.dumps(argvs)))
    assert codes == [code for code, _ in without]
    assert scipy_modules == []
    # the induced pseudometrics run Dijkstra on the refined mesh
    argv = ["metrics", "--in", fixture("hexagon"), "--out", str(tmp_path / "metrics.json")]
    codes, scipy_modules = json.loads(_fresh_python(RUN_COMMANDS, json.dumps([argv])))
    assert codes == [0]
    assert "scipy.sparse.csgraph" in scipy_modules
