"""End-to-end behavior of the command-line interface."""

import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CONFIG_DIR, airy_spec, mixed_spec
import sl2t
from sl2t.charfn import _piece_wronskians, char_value
from sl2t import cli, hilbert, spectrum, verification
from sl2t.asymptotics import REFLECTING
from sl2t.cli import main
from sl2t.problem import NumericalError, load_config
from sl2t.verification import VerifyRun

VERIFY_STAGES = ("consistency", "wronskian-constancy", "symmetry",
                 "interface-wronskians", "orthogonality", "decay")
S0 = str(CONFIG_DIR / "s0.json")
CASE1 = str(CONFIG_DIR / "case1.json")
INDEFINITE = str(CONFIG_DIR / "indefinite.json")
DATA_DIR = Path(__file__).resolve().parent / "data"


def _rows(text):
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve


def test_solve_table(capsys):
    code, out, _ = _run(capsys, "solve", S0, "--n-max", "5")
    assert code == 0
    rows = _rows(out)
    assert len(rows) == 5
    first = rows[0].split(",")
    assert first[0] == "1"
    assert float(first[2]) == pytest.approx(0.538, abs=2e-3)
    lo, hi = float(first[3]), float(first[4])
    assert lo < float(first[1]) < hi
    header = [ln for ln in out.splitlines() if ln.startswith("#")]
    assert any("digest" in ln for ln in header)
    assert any("columns: n,lambda_n,mu_n,bracket_lo,bracket_hi,abs_delta" in ln for ln in header)


def test_solve_output_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["solve", S0, "--n-max", "4", "--out", str(a)]) == 0
    assert main(["solve", S0, "--n-max", "4", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert len(_rows(a.read_text())) == 4


def test_solve_out_keeps_stdout_clean(tmp_path, capsys):
    out_file = tmp_path / "t.csv"
    code, out, _ = _run(capsys, "solve", S0, "--n-max", "2", "--out", str(out_file))
    assert code == 0
    assert out == ""
    assert out_file.exists()


@pytest.mark.parametrize("target, reason", [(".", "Is a directory"),
                                            ("missing/x.txt", "No such file or directory")])
def test_unwritable_out_is_a_usage_error(target, reason, tmp_path, capsys):
    # a directory and a file under a missing parent: one stderr line, exit 1
    path = tmp_path / target
    code, out, err = _run(capsys, "asym", S0, "--n-max", "3", "--out", str(path))
    assert code == 1
    assert out == ""
    assert err == f"sl2t asym: error: cannot write --out {path}: {reason}\n"


def test_solve_rejects_nonpositive_count(capsys):
    code, _, err = _run(capsys, "solve", S0, "--n-max", "0")
    assert code == 1
    assert "--n-max" in err


def test_solve_accepts_tolerance_override(capsys):
    code, out, _ = _run(capsys, "solve", S0, "--n-max", "1",
                        "--tol-override", "rk_tol=1e-10",
                        "--tol-override", "quad_nodes=65")
    assert code == 0
    assert float(_rows(out)[0].split(",")[2]) == pytest.approx(0.5384369932, abs=1e-6)


def test_bad_override_key_is_usage_error(capsys):
    code, _, err = _run(capsys, "solve", S0, "--n-max", "1", "--tol-override", "bogus=1")
    assert code == 1
    assert "tol-override" in err
    code, _, err = _run(capsys, "solve", S0, "--n-max", "1", "--tol-override", "rk_tol=abc")
    assert code == 1


@pytest.mark.parametrize("pair", ["quad_nodes=1e3", "bracket_subdiv=8.0"])
def test_integer_override_refuses_a_float_and_says_so(capsys, pair):
    # the message said "not numeric" of a number that the key cannot take
    code, out, err = _run(capsys, "solve", S0, "--n-max", "2", "--tol-override", pair)
    assert (code, out) == (1, "")
    assert err == f"sl2t: error: --tol-override value is not an integer: {pair!r}\n"


def test_solve_notes_a_partial_scan_on_stderr(monkeypatch, capsys):
    real = cli.locate_eigenvalues
    monkeypatch.setattr(cli, "locate_eigenvalues",
                        lambda spec, n: dataclasses.replace(real(spec, 2), exhausted=True))
    code, out, err = _run(capsys, "solve", S0, "--n-max", "5")
    assert code == 0
    assert len(_rows(out)) == 2
    assert re.search(r"^  note: partial scan: 2 of 5 roots, stopped at lambda=\S+$", err, re.M)


def test_eigenfunction_index_past_a_partial_scan_is_a_numerical_failure(monkeypatch, capsys):
    real = cli.locate_eigenvalues
    monkeypatch.setattr(cli, "locate_eigenvalues",
                        lambda spec, n: dataclasses.replace(real(spec, 3), exhausted=True))
    code, out, err = _run(capsys, "eigenfunction", S0, "--index", "5")
    assert code == 3
    assert out == ""
    assert "numerical failure: scan found only 3 eigenvalues before exhausting its budget" in err


def test_eigenfunction_past_the_quadrature_ceiling_is_a_numerical_failure(capsys):
    # on s0 the norm of index 3898 needs 4097 Gauss nodes per piece
    code, out, err = _run(capsys, "eigenfunction", S0, "--index", "3898")
    assert code == 3
    assert out == ""
    assert "needs 4097 quadrature nodes per piece, more than 4096" in err


def test_eigenfunction_normalization_at_a_high_index(capsys):
    # the H-norm needs 1088 nodes per piece, more than the default 257
    code, out, _ = _run(capsys, "eigenfunction", S0, "--index", "1000")
    assert code == 0
    [line] = [ln for ln in out.splitlines() if ln.startswith("# normalization:")]
    assert float(line.split(":")[1]) == pytest.approx(1569.2263270391, rel=1e-12)


# ---------------------------------------------------------------------------
# the table writer, shared by every table command

TABLE_ARGS = {
    "solve": ("--n-max", "6"),
    "asym": ("--n-max", "6"),
    "compare": ("--n-lo", "5", "--n-hi", "12"),
    "eigenfunction": ("--index", "2", "--samples", "3"),
}


@pytest.mark.parametrize("command", list(TABLE_ARGS))
def test_table_out_file_holds_the_stdout_bytes(command, tmp_path, capsys):
    argv = (command, CASE1, *TABLE_ARGS[command])
    code, out, err = _run(capsys, *argv)
    path = tmp_path / f"{command}.txt"
    code_to_file, out_to_file, err_to_file = _run(capsys, *argv, "--out", str(path))
    assert code == code_to_file == 0
    assert out_to_file == ""
    assert path.read_bytes() == out.encode()
    assert f"\n  wrote {path}\n" in err_to_file
    assert "wrote" not in err
    # the header order, and one digest for the table and the stderr report
    lines = out.splitlines()
    assert [ln.split(" ")[1] for ln in lines[:4]] == ["sl2t", "digest:", "command:", "params:"]
    assert lines[2] == f"# command: {command}"
    columns = next(i for i, ln in enumerate(lines) if ln.startswith("# columns: "))
    assert not lines[columns + 1].startswith("#")
    digest = lines[1].removeprefix("# digest: ")
    assert err.startswith(f"sl2t {command}: digest {digest} (")
    assert err_to_file.startswith(f"sl2t {command}: digest {digest} (")


# ---------------------------------------------------------------------------
# asym


def test_asym_table(capsys):
    code, out, _ = _run(capsys, "asym", S0, "--n-max", "3")
    assert code == 0
    rows = [r.split(",") for r in _rows(out)]
    assert [r[1] for r in rows] == ["CASE4"] * 3
    want = [math.pi / 2, math.pi, 1.5 * math.pi]
    for row, mu in zip(rows, want):
        assert float(row[2]) == pytest.approx(mu, abs=1e-14)


@pytest.mark.parametrize("name", ["s0", "case1", "indefinite"])
def test_asym_table_matches_golden_file(name, capsys):
    # tests/data/asym_<name>.txt pins mu_asym and the case column, byte for byte
    code, out, _ = _run(capsys, "asym", str(CONFIG_DIR / f"{name}.json"), "--n-max", "100")
    assert code == 0
    assert out.encode() == (DATA_DIR / f"asym_{name}.txt").read_bytes()


def test_asym_cases_two_and_three_coincide(tmp_path, capsys):
    base = json.loads((CONFIG_DIR / "s0.json").read_text())
    case2 = dict(base, alpha=0.0, beta=[-1.0, 0.0], beta_prime=[0.0, 1.0])
    case3 = dict(base, alpha=math.pi / 2, beta=[0.0, 1.0], beta_prime=[1.0, 0.0])
    outs = []
    for name, cfg in (("c2.json", case2), ("c3.json", case3)):
        path = tmp_path / name
        path.write_text(json.dumps(cfg))
        code, out, _ = _run(capsys, "asym", str(path), "--n-max", "6")
        assert code == 0
        outs.append([r.split(",")[2] for r in _rows(out)])
    assert outs[0] == outs[1]


# ---------------------------------------------------------------------------
# compare


def test_compare_passes_on_baseline(capsys):
    code, out, _ = _run(capsys, "compare", S0, "--n-lo", "5", "--n-hi", "12")
    assert code == 0
    assert out.rstrip().endswith("# verdict: PASS")
    rows = [r.split(",") for r in _rows(out)]
    assert [r[0] for r in rows] == [str(n) for n in range(5, 13)]
    for r in rows:
        assert abs(float(r[1]) - float(r[2])) == pytest.approx(float(r[3]), abs=1e-15)
        assert float(r[4]) <= 1.0


def test_compare_phase_override_negative_control(capsys):
    code, out, _ = _run(capsys, "compare", S0, "--n-lo", "5", "--n-hi", "12",
                        "--phase-override", repr(7.0 / 3.0))
    assert code == 3
    assert out.rstrip().endswith("# verdict: FAIL")


def test_compare_refuses_reflecting_interfaces(capsys):
    code, out, err = _run(capsys, "compare", INDEFINITE, "--n-lo", "5", "--n-hi", "40")
    assert code == 3
    assert out == ""
    assert f"numerical failure: {REFLECTING}" in err


def test_compare_window_validation(capsys):
    code, _, err = _run(capsys, "compare", S0, "--n-lo", "9", "--n-hi", "5")
    assert code == 1
    assert "--n-hi" in err
    code, out, err = _run(capsys, "compare", S0, "--n-lo", "0", "--n-hi", "5")
    assert code == 1
    assert out == ""
    assert "--n-lo must be >= 1" in err


@pytest.mark.parametrize("flag", ["--bound", "--phase-override"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_compare_rejects_flags_that_are_not_finite(flag, value, capsys):
    code, out, err = _run(capsys, "compare", S0, "--n-lo", "5", "--n-hi", "12", flag, value)
    assert code == 1
    assert out == ""
    assert f"{flag} must be positive and finite" in err


# ---------------------------------------------------------------------------
# eigenfunction


def test_eigenfunction_row_layout(capsys):
    code, out, _ = _run(capsys, "eigenfunction", S0, "--index", "1", "--samples", "2")
    assert code == 0
    rows = [r.split(",") for r in _rows(out)]
    assert len(rows) == 10  # 3 * 2 interior + 4 one-sided breakpoint rows
    xs = [float(r[0]) for r in rows]
    assert xs == sorted(xs)
    assert -1.0 < xs[0] and xs[-1] < 1.0
    pieces = [int(r[1]) for r in rows]
    assert pieces == sorted(pieces)
    header = out.splitlines()
    assert any(ln.startswith("# lambda_n:") for ln in header)
    assert any(ln.startswith("# normalization:") for ln in header)


def test_eigenfunction_onesided_rows_match_under_unit_jumps(capsys):
    code, out, _ = _run(capsys, "eigenfunction", S0, "--index", "2", "--samples", "3")
    assert code == 0
    rows = [r.split(",") for r in _rows(out)]
    h1_rows = [r for r in rows if float(r[0]) == pytest.approx(-1.0 / 3.0, abs=1e-15)]
    h2_rows = [r for r in rows if float(r[0]) == pytest.approx(1.0 / 3.0, abs=1e-15)]
    assert [int(r[1]) for r in h1_rows] == [1, 2]
    assert [int(r[1]) for r in h2_rows] == [2, 3]
    assert float(h1_rows[0][2]) == pytest.approx(float(h1_rows[1][2]), abs=1e-8)
    assert float(h2_rows[0][2]) == pytest.approx(float(h2_rows[1][2]), abs=1e-8)


def test_eigenfunction_flag_validation(capsys):
    assert _run(capsys, "eigenfunction", S0, "--index", "0")[0] == 1
    assert _run(capsys, "eigenfunction", S0, "--index", "1", "--samples", "0")[0] == 1


# ---------------------------------------------------------------------------
# count ceilings


@pytest.mark.parametrize(
    "command, flags",
    [("solve", ["--n-max"]), ("asym", ["--n-max"]), ("eigenfunction", ["--index"]),
     ("eigenfunction", ["--index", "1", "--samples"]), ("compare", ["--n-lo", "5", "--n-hi"])],
    ids=["solve-n-max", "asym-n-max", "eigenfunction-index", "eigenfunction-samples",
         "compare-n-hi"],
)
def test_count_flag_past_its_ceiling_is_refused_before_the_config_is_read(
    command, flags, tmp_path, capsys
):
    # a config that does not exist: the flag's refusal comes before any read
    missing = str(tmp_path / "missing.json")
    code, out, err = _run(capsys, command, missing, *flags, str(cli._MAX_COUNT + 1))
    assert code == 1
    assert out == ""
    assert err == f"sl2t {command}: error: {flags[-1]} must be <= 100000\n"
    # the ceiling itself passes the flag checks
    args = cli._build_parser().parse_args([command, missing, *flags, str(cli._MAX_COUNT)])
    assert cli._flag_problem(args) is None


# ---------------------------------------------------------------------------
# verify


def test_verify_baseline_all_pass(capsys):
    code, out, _ = _run(capsys, "verify", S0)
    assert code == 0
    for stage in ("consistency", "wronskian-constancy", "symmetry",
                  "interface-wronskians", "orthogonality", "decay"):
        assert f"{stage}: PASS" in out
    assert "verify: PASS" in out
    assert "SKIPPED" not in out


def test_verify_indefinite_config_skips_form_stages(capsys):
    code, out, _ = _run(capsys, "verify", INDEFINITE)
    assert code == 0
    assert "symmetry: SKIPPED" in out
    assert "orthogonality: SKIPPED" in out
    assert "decay: SKIPPED" in out
    assert "consistency: PASS" in out
    assert "wronskian-constancy: PASS" in out
    assert "verify: PASS" in out


def test_verify_times_each_stage_on_stderr_only(capsys):
    code, out, err = _run(capsys, "verify", S0)
    assert code == 0
    statuses = [ln.split(": ", 1)[1].split(" ", 1)[0]
                for ln in out.splitlines() if ln.split(":", 1)[0] in VERIFY_STAGES]
    timed = re.findall(r"^  stage ([\w-]+): (PASS|FAIL|SKIPPED) in (\d+\.\d{4}) s$", err, re.M)
    assert [t[0] for t in timed] == list(VERIFY_STAGES)
    assert [t[1] for t in timed] == statuses
    assert all(float(t[2]) >= 0.0 for t in timed)
    assert " s)" not in out and "stage " not in out
    assert _run(capsys, "verify", S0)[1] == out


def test_verify_runs_share_no_state(capsys):
    # s0, then case1, then s0 again in one process, each against a fresh process
    env = dict(os.environ, PYTHONPATH=str(Path(sl2t.__file__).resolve().parents[1]))
    outs = []
    for path in (S0, CASE1, S0):
        code, out, _ = _run(capsys, "verify", path)
        fresh = subprocess.run(
            [sys.executable, "-m", "sl2t.cli", "verify", path],
            capture_output=True, text=True, env=env,
        )
        assert code == fresh.returncode == 0
        assert out == fresh.stdout
        outs.append(out)
    assert outs[0] == outs[2] != outs[1]


@pytest.mark.parametrize("name", ["s0", "case1", "indefinite"])
def test_verify_stdout_matches_golden_file(name, capsys):
    # tests/data/verify_<name>.txt pins every stage line and the verdict, byte for byte
    code, out, _ = _run(capsys, "verify", str(CONFIG_DIR / f"{name}.json"))
    assert code == 0
    assert out.encode() == (DATA_DIR / f"verify_{name}.txt").read_bytes()


def test_verify_matches_the_goldens_on_a_first_and_a_later_run_in_one_process(capsys):
    # the first run draws the build lambda and each seed stack's table; later runs read them
    verification._build_lams.cache_clear()
    hilbert._seed_table.cache_clear()
    for _ in range(2):
        for name in ("s0", "case1", "indefinite"):
            code, out, _ = _run(capsys, "verify", str(CONFIG_DIR / f"{name}.json"))
            assert code == 0
            assert out.encode() == (DATA_DIR / f"verify_{name}.txt").read_bytes()
    # two tables: the symmetry stage's seeds 0-11, read by the two definite
    # runs of each round, and the interface stage's 8 seeds, read by every run
    info = hilbert._seed_table.cache_info()
    assert (info.misses, info.hits) == (2, 8)


@pytest.mark.parametrize(
    "make",
    [lambda: load_config(S0), lambda: load_config(INDEFINITE), mixed_spec, airy_spec],
    ids=["s0", "indefinite", "mixed_spec", "airy_spec"],
)
def test_verify_consistency_reads_char_grid_values_from_the_builds(make):
    # the 27-lam builds' anchors give char_value's Wronskians and residuals on its 24 lam
    spec = make()
    run = VerifyRun(spec)
    left, right = run.builds
    rows = run.CONSISTENCY
    d, resid = _piece_wronskians(spec, left.ends, right.ends)
    want = [char_value(spec, lam) for lam in left.lam[rows].tolist()]
    assert len(want) == 24
    assert resid[rows].tolist() == [cv.consistency_residual for cv in want]
    assert [tuple(w[rows].tolist()) for w in d] == [
        tuple(cv.on_piece[i] for cv in want) for i in range(3)
    ]
    assert right.lam[run.CONSTANCY].tolist() == [-7.5, 3.7, 61.3]


def test_verify_check_over_its_bound_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(verification, "_CONSISTENCY_TOL", 0.0)
    code, out, err = _run(capsys, "verify", S0)
    assert code == 3
    assert re.search(r"^consistency: FAIL \(max scaled residual \S+ over 24 random lam \(tol 0e\+00\)\)$",
                     out, re.M)
    assert out.rstrip().endswith("verify: FAIL")
    assert "  stage consistency: FAIL in " in err
    assert out.count(": PASS (") == 5


def test_verify_scan_failure_shows_in_both_stages_that_read_it(monkeypatch, capsys):
    def broken(spec, n_max):
        raise NumericalError("scan exhausted its budget")

    monkeypatch.setattr(spectrum, "locate_eigenvalues", broken)
    code, out, _ = _run(capsys, "verify", S0)
    assert code == 3
    for stage in ("orthogonality", "decay"):
        assert f"{stage}: FAIL (stage raised: scan exhausted its budget)" in out
    assert out.count(": PASS (") == 4
    assert "verify: FAIL" in out


def test_verify_nan_measurement_fails(monkeypatch, capsys):
    monkeypatch.setattr(hilbert, "interface_wronskian_residuals", lambda spec, F, G: [float("nan")])
    code, out, _ = _run(capsys, "verify", INDEFINITE)
    assert code == 3
    assert "interface-wronskians: FAIL (max identity residual nan over 4 seeded pairs (tol 1e-10))" in out
    assert "verify: FAIL" in out


def test_verify_rejects_inadmissible_config(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "s0.json").read_text())
    cfg["beta"] = [1.0, 0.0]
    cfg["beta_prime"] = [0.0, 1.0]  # rho = -1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "verify", str(path))
    assert code == 2
    assert "config error" in err
    assert "PASS" not in out


# ---------------------------------------------------------------------------
# config and argument failure modes


def test_integer_past_the_float_range_is_a_config_error(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "s0.json").read_text())
    cfg["h1"] = 10**400
    path = tmp_path / "huge_h1.json"
    path.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "verify", str(path))
    assert code == 2
    assert out == ""
    assert "config error: h1: must be finite" in err.splitlines()


def test_malformed_json_is_validation_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, "solve", str(path), "--n-max", "1")
    assert code == 2
    assert "JSON" in err


@pytest.mark.parametrize("solver", ["ab", [], None])
def test_tolerance_override_leaves_malformed_solver_to_validation(solver, tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "s0.json").read_text())
    cfg["solver"] = solver
    path = tmp_path / "bad_solver.json"
    path.write_text(json.dumps(cfg))
    for extra in ([], ["--tol-override", "root_tol=1e-10"]):
        code, _, err = _run(capsys, "solve", str(path), "--n-max", "1", *extra)
        assert code == 2, extra
        assert "config error: solver: expected an object" in err


def test_missing_config_file(capsys):
    code, _, err = _run(capsys, "solve", "/no/such/file.json", "--n-max", "1")
    assert code == 2
    assert "cannot read" in err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_console_script_entry_point(tmp_path):
    exe = shutil.which("sl2t")
    assert exe is not None, "console script should be installed with the package"
    ver = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert ver.returncode == 0
    assert ver.stdout.strip() == "sl2t 0.1.0"
    out_file = tmp_path / "roots.csv"
    run = subprocess.run(
        [exe, "solve", S0, "--n-max", "1", "--out", str(out_file)],
        capture_output=True, text=True,
    )
    assert run.returncode == 0
    assert len(_rows(out_file.read_text())) == 1
