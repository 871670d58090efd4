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


def test_package_exports_are_the_submodules_exports():
    """Each public name is declared once, in its module; the package re-exports them all."""
    declared = [
        n for name in MODULES[1:] for n in getattr(importlib.import_module(name), "__all__", [])
    ]
    assert len(declared) == len(set(declared))
    assert sorted(sl2t.__all__) == sorted(["__version__", *declared])
