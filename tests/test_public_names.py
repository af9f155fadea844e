"""Every public name of the package resolves: each name a module lists in
`__all__` exists on it, and each name `confein/__init__` re-exports is the
object of the module it is imported from."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import confein

MODULES = sorted(m.name for m in pkgutil.iter_modules(confein.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    mod = importlib.import_module(f"confein.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, (name, missing)


def test_package_reexports_resolve():
    tree = ast.parse(inspect.getsource(confein))
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    for module, name in reexports:
        mod = importlib.import_module(f"confein.{module}")
        assert name in mod.__all__, (module, name)
        assert getattr(confein, name) is getattr(mod, name), (module, name)
