"""Public names: every name a covlab module exports resolves."""

import importlib
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
