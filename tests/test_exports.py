"""Public names: every name a covlab module exports resolves, and every
name the package re-exports is exported by its module."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import covlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(covlab.__path__, "covlab."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A name left in __all__ after its definition is gone breaks
    # `from module import *`.
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _package_imports():
    # (module, names) for each `from .module import names` in covlab/__init__.py
    # whose module declares __all__.
    for node in ast.parse(inspect.getsource(covlab)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module("covlab." + node.module)
            if hasattr(module, "__all__"):
                names = [alias.name for alias in node.names]
                yield pytest.param(module, names, id=module.__name__)


@pytest.mark.parametrize("module, imported", _package_imports())
def test_package_imports_only_exported_names(module, imported):
    # The package re-exports these, so the module's __all__ must list them.
    assert [n for n in imported if n not in module.__all__] == []
