"""Every exported name resolves, in the package and in each submodule; importing is cheap."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_does_not_load_openssl():
    # hashlib (and its OpenSSL binding _hashlib) loads only when spec_digest runs
    env = dict(os.environ, PYTHONPATH=str(Path(sl2t.__file__).resolve().parents[1]))
    code = "import sys, sl2t; print('_hashlib' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
