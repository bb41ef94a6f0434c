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
