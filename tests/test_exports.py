"""Every exported name resolves, in the package and in each submodule."""

import importlib
import pkgutil

import pytest

import sl2t

MODULES = ["sl2t"] + [f"sl2t.{m.name}" for m in pkgutil.iter_modules(sl2t.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
