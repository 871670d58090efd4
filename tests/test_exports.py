"""Every exported name resolves, in the package and in each submodule; importing is cheap.

The runtime needs numpy alone, and the README's library example runs as written.
"""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sl2t

MODULES = ["sl2t"] + [f"sl2t.{m.name}" for m in pkgutil.iter_modules(sl2t.__path__)]
SRC = Path(sl2t.__file__).resolve().parents[1]
ROOT = Path(__file__).resolve().parents[1]


def _python(code: str, **kwargs) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter from the repository root, with the package importable."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, cwd=ROOT,
                          **kwargs)


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
    # hashlib (and its OpenSSL binding _hashlib) loads only when spec_digest
    # runs; numpy.random loads at no point (next test)
    code = ("import sys, sl2t, sl2t.cli; "
            "print('_hashlib' in sys.modules, 'numpy.random' in sys.modules)")
    run = _python(code, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False False"


def test_verify_does_not_load_numpy_random():
    # verify draws its seeded inputs with the standard library's random.Random
    code = ("import sys, sl2t.cli; code = sl2t.cli.main(['verify', 'configs/s0.json']); "
            "print('numpy.random' in sys.modules, file=sys.stderr); sys.exit(code)")
    run = _python(code, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines()[-1] == "False"


#: installed for the tests, not needed at run time
_DEV_ONLY = ("scipy", "mpmath", "hypothesis")


def test_verify_runs_without_the_test_only_packages():
    # numpy is the one runtime dependency (pyproject.toml); a finder that
    # refuses the test-only packages must leave verify's stdout unchanged
    code = f"""
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in {_DEV_ONLY!r}:
            raise ModuleNotFoundError(f"{{name}} is not a runtime dependency")
        return None

sys.meta_path.insert(0, Refuse())
for name in {_DEV_ONLY!r}:
    try:
        __import__(name)
    except ImportError:
        continue
    sys.exit(99)
import sl2t.cli
sys.exit(sl2t.cli.main(["verify", "configs/s0.json"]))
"""
    run = _python(code)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (ROOT / "tests" / "data" / "verify_s0.txt").read_bytes()


def test_readme_library_example_runs():
    # the first python block under "## Library use", run as a script from the repository root
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library use\n.*?^```python\n(.*?)^```", readme, re.S | re.M)
    assert block is not None
    run = _python(block.group(1), text=True)
    assert run.returncode == 0, run.stderr
    assert "PASS" in run.stdout.splitlines()
