"""Every exported name resolves, in the package and in each submodule; importing is cheap.

The runtime needs numpy alone, the README's library example runs as written,
and its command-line examples show what the command prints.
"""

import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import sl2t
from sl2t import cli
from sl2t.problem import load_config, spec_digest

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


#: modules an sl2t process never loads: OpenSSL's binding (spec_digest uses the
#: interpreter's own SHA-256), numpy.random (verify draws its seeded inputs with
#: random.Random) and numpy.polynomial (problem._polyval, hilbert._legendre_rule)
_NEVER_LOADED = ("_hashlib", "numpy.random", "numpy.polynomial")


def test_import_does_not_load_openssl():
    code = f"import sys, sl2t, sl2t.cli; print([m for m in {_NEVER_LOADED!r} if m in sys.modules])"
    run = _python(code, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_verify_does_not_load_numpy_random():
    # nor OpenSSL nor numpy.polynomial: a verify run hashes its spec and
    # builds its Gauss rule too
    code = ("import sys, sl2t.cli; code = sl2t.cli.main(['verify', 'configs/s0.json']); "
            f"print([m for m in {_NEVER_LOADED!r} if m in sys.modules], file=sys.stderr); "
            "sys.exit(code)")
    run = _python(code, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stderr.splitlines()[-1] == "[]"


def test_digest_without_the_interpreters_sha256_module_falls_back_to_hashlib():
    # a finder that refuses the lean SHA-256 modules leaves hashlib's, with the same digests
    code = """
import sys

class Refuse:
    def find_spec(self, name, path=None, target=None):
        if name in ("_sha2", "_sha256"):
            raise ModuleNotFoundError(f"{name} is refused")
        return None

sys.meta_path.insert(0, Refuse())
import hashlib
from sl2t import problem
assert problem._sha256 is hashlib.sha256
for name in ("s0", "case1", "indefinite"):
    print(problem.spec_digest(problem.load_config(f"configs/{name}.json")))
"""
    run = _python(code, text=True)
    assert run.returncode == 0, run.stderr
    lean = [spec_digest(load_config(ROOT / "configs" / f"{name}.json"))
            for name in ("s0", "case1", "indefinite")]
    assert run.stdout.split() == lean


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


def _readme_cli_blocks():
    """Each README code block whose first line is ``$ sl2t ...``: its argv and shown lines."""
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```\n\$ sl2t (.*?)\n(.*?)^```", readme, re.S | re.M)
    return [pytest.param(shlex.split(cmd), shown.splitlines(), id=cmd) for cmd, shown in blocks]


@pytest.mark.parametrize("argv, shown", _readme_cli_blocks())
def test_readme_cli_example_shows_what_the_command_prints(argv, shown, capsys, monkeypatch):
    # every shown line is a line of stdout; a line ending in "..." is a prefix of one
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    for line in shown:
        if line.endswith("..."):
            assert any(p.startswith(line[:-3]) for p in printed), line
        else:
            assert line in printed, line


def test_readme_shows_the_solve_compare_and_verify_examples():
    commands = [argv[0] for (argv, _) in (p.values for p in _readme_cli_blocks())]
    assert commands == ["solve", "compare", "verify"]
