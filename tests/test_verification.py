"""The verification suite as records: ``verify(spec)`` and its ``StageResult``s."""

import dataclasses
import gc
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import CONFIG_DIR, airy_spec, mixed_spec
from sl2t import asymptotics, hilbert, shooting, spectrum, verification
from sl2t.problem import NumericalError, load_config
from sl2t.verification import StageResult, VerifyReport, verify

DATA_DIR = Path(__file__).resolve().parent / "data"

#: each stage's bounds, in the order of its checks
BOUNDS = {
    "consistency": (1e-7,),
    "wronskian-constancy": (1e-8,),
    "symmetry": (1e-7,),
    "interface-wronskians": (1e-10,),
    "orthogonality": (1e-6, 1e-8),
    "decay": (1.0,),
}
#: the bound constant behind each check, in the order of ``BOUNDS``
BOUND_NAMES = {
    "consistency": ("_CONSISTENCY_TOL",),
    "wronskian-constancy": ("_CONSTANCY_TOL",),
    "symmetry": ("_SYMMETRY_TOL",),
    "interface-wronskians": ("_INTERFACE_TOL",),
    "orthogonality": ("_OFF_DIAGONAL_TOL", "_DIAGONAL_TOL"),
    "decay": ("_DECAY_BOUND",),
}
#: stages that do not apply, per spec
SKIPPED = {
    "s0": (),
    "case1": (),
    "indefinite": ("symmetry", "orthogonality", "decay"),
    "mixed_spec": ("decay",),
    "airy_spec": ("decay",),
}
SPECS = {
    "s0": lambda: load_config(CONFIG_DIR / "s0.json"),
    "case1": lambda: load_config(CONFIG_DIR / "case1.json"),
    "indefinite": lambda: load_config(CONFIG_DIR / "indefinite.json"),
    "mixed_spec": mixed_spec,
    "airy_spec": airy_spec,
}


@pytest.fixture(scope="module")
def reports():
    return {name: verify(make()) for name, make in SPECS.items()}


def _stage(report, name):
    return next(s for s in report.stages if s.name == name)


def _statuses(report):
    return {s.name: s.status for s in report.stages}


def test_report_holds_one_frozen_record_per_stage_in_order(reports):
    report = reports["s0"]
    assert isinstance(report, VerifyReport)
    assert [s.name for s in report.stages] == list(BOUNDS)
    assert all(isinstance(s, StageResult) and s.seconds >= 0.0 for s in report.stages)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.stages[0].status = "FAIL"
    assert report.status == "PASS"


@pytest.mark.parametrize("name", ["s0", "case1", "indefinite"])
def test_records_format_to_the_golden_stage_lines(name, reports):
    golden = (DATA_DIR / f"verify_{name}.txt").read_text().splitlines()
    lines = [f"{s.name}: {s.status} ({s.detail})" for s in reports[name].stages]
    assert lines == golden[2:-1]
    assert golden[-1] == f"verify: {reports[name].status}"


@pytest.mark.parametrize("stage", list(BOUNDS))
@pytest.mark.parametrize("name", list(SPECS))
def test_stage_record_status_and_checks(name, stage, reports):
    result = _stage(reports[name], stage)
    if stage in SKIPPED[name]:
        assert result.status == "SKIPPED"
        assert result.checks == ()
        assert "not applicable" in result.detail
        return
    assert result.status == "PASS"
    assert tuple(b for _, b in result.checks) == BOUNDS[stage]
    assert all(0.0 <= m <= b for m, b in result.checks)
    # the message prints each measured value and each bound the check used
    shown = "{:.3f}" if stage == "decay" else "{:.2e}"
    for m, b in result.checks:
        assert shown.format(m) in result.detail
        assert (f"(bound {b})" if stage == "decay" else f"(tol {b:.0e})") in result.detail


@pytest.mark.parametrize("stage", ["consistency", "wronskian-constancy", "symmetry",
                                   "interface-wronskians", "orthogonality", "decay"])
def test_a_check_over_its_bound_fails_its_stage_alone(stage, reports, monkeypatch):
    # each bound at half its measured value (below a measured 0)
    bounds = [m / 2.0 if m > 0.0 else -1.0 for m, _ in _stage(reports["s0"], stage).checks]
    for attr, bound in zip(BOUND_NAMES[stage], bounds):
        monkeypatch.setattr(verification, attr, bound)
    report = verify(SPECS["s0"]())
    result = _stage(report, stage)
    assert result.status == "FAIL"
    assert [b for _, b in result.checks] == bounds
    assert all(m > b for m, b in result.checks)
    assert {n: s for n, s in _statuses(report).items() if n != stage} == {
        n: "PASS" for n in BOUNDS if n != stage
    }
    assert report.status == "FAIL"


def test_one_failed_check_of_two_fails_the_stage(monkeypatch):
    monkeypatch.setattr(verification, "_DIAGONAL_TOL", -1.0)
    result = _stage(verify(SPECS["s0"]()), "orthogonality")
    (off, off_tol), (diag, diag_tol) = result.checks
    assert off <= off_tol and diag > diag_tol
    assert result.status == "FAIL"


def test_scan_error_is_raised_again_in_each_stage_that_reads_it(monkeypatch):
    calls = []

    def broken(spec, n_max):
        calls.append(n_max)
        raise NumericalError("scan exhausted its budget")

    monkeypatch.setattr(spectrum, "locate_eigenvalues", broken)
    report = verify(SPECS["s0"]())
    assert calls == [46]
    for stage in ("orthogonality", "decay"):
        result = _stage(report, stage)
        assert (result.status, result.detail, result.checks) == (
            "FAIL", "stage raised: scan exhausted its budget", ()
        )
    assert [s.status for s in report.stages[:4]] == ["PASS"] * 4


def test_orthogonality_fails_when_the_scan_found_fewer_than_five(monkeypatch):
    # an exhausted scan returns a verified prefix: three roots are no Gram matrix of five
    original = spectrum.locate_eigenvalues

    def short(spec, n_max):
        return dataclasses.replace(original(spec, 3), exhausted=True)

    monkeypatch.setattr(spectrum, "locate_eigenvalues", short)
    result = _stage(verify(SPECS["s0"]()), "orthogonality")
    assert (result.status, result.detail, result.checks) == (
        "FAIL", "stage raised: scan found only 3 of 5 eigenvalues", ()
    )


def test_build_lams_are_drawn_once_and_read_only():
    lams = verification._build_lams()
    assert verification._build_lams() is lams
    rng = random.Random(93)
    assert lams.tolist() == [*(rng.uniform(-20.0, 200.0) for _ in range(24)), -7.5, 3.7, 61.3]
    with pytest.raises(ValueError):
        lams[0] = 0.0
    for sol in verification.VerifyRun(SPECS["s0"]()).builds:
        assert np.array_equal(sol.lam, lams)


def test_a_value_error_in_a_stage_fails_it(monkeypatch):
    def broken(spec, element):
        raise ValueError("operator refused the stack")

    monkeypatch.setattr(hilbert, "apply_operator", broken)
    result = _stage(verify(SPECS["s0"]()), "symmetry")
    assert (result.status, result.detail, result.checks) == (
        "FAIL", "stage raised: operator refused the stack", ()
    )


@pytest.mark.parametrize(
    "stage, module, attr, fake",
    [
        ("symmetry", hilbert, "symmetry_residual", lambda spec, F, G, AF, AG: np.full(6, np.nan)),
        ("interface-wronskians", hilbert, "interface_wronskian_residuals",
         lambda spec, F, G: [np.nan, 0.0]),
    ],
)
def test_a_nan_measurement_fails(stage, module, attr, fake, monkeypatch):
    monkeypatch.setattr(module, attr, fake)
    result = _stage(verify(SPECS["s0"]()), stage)
    assert result.status == "FAIL"
    assert np.isnan(result.checks[0][0])
    assert " nan " in result.detail


def test_nan_drift_on_the_last_piece_fails_constancy(monkeypatch):
    original = shooting._query

    def nan_on_piece_3(pieces, xs):
        # the stage's one query: pieces 1-3 of the left solution, then of the right
        out = original(pieces, xs)
        for i in (2, 5):
            out[i] = (np.full_like(out[i][0], np.nan), out[i][1])
        return out

    monkeypatch.setattr(shooting, "_query", nan_on_piece_3)
    result = _stage(verify(SPECS["indefinite"]()), "wronskian-constancy")
    assert result.status == "FAIL"
    assert np.isnan(result.checks[0][0])


def test_decay_check_reads_the_decay_report(monkeypatch):
    seen = []
    original = asymptotics.decay_check

    def spy(records, spec, n_lo, n_hi, bound, **kw):
        seen.append((len(records), n_lo, n_hi, bound))
        report = original(records, spec, n_lo, n_hi, bound, **kw)
        seen.append(report.max_product)
        return report

    monkeypatch.setattr(asymptotics, "decay_check", spy)
    result = _stage(verify(SPECS["s0"]()), "decay")
    assert seen[0] == (46, 5, 40, 1.0)
    assert result.checks == ((seen[1], 1.0),)


@pytest.mark.parametrize("name", list(SPECS))
def test_interface_pairs_give_the_shared_stack_residuals_bit_for_bit(name, monkeypatch):
    # the stage samples seeds 1-4 and 51-54 on the 2-node grid; their end
    # data are those of rows 1-4 and 12-15 of one default-grid stack of
    # seeds 0-11 and 51-54
    spec = SPECS[name]()
    stack = hilbert.sample_domain_element(
        spec, (*range(12), 51, 52, 53, 54), grid=hilbert.QuadratureGrid.build(spec)
    )
    want = hilbert.interface_wronskian_residuals(
        spec, stack.take(slice(1, 5)), stack.take(slice(12, 16))
    )
    seen = []
    original = hilbert.interface_wronskian_residuals

    def spy(spec, F, G):
        seen.append(((F.grid.nodes_per_piece, G.grid.nodes_per_piece), original(spec, F, G)))
        return seen[-1][1]

    monkeypatch.setattr(hilbert, "interface_wronskian_residuals", spy)
    built = []
    build = hilbert.QuadratureGrid.build

    def spy_build(cls, spec, nodes_per_piece=None):
        grid = build(spec, nodes_per_piece)
        built.append(grid.nodes_per_piece)
        return grid

    monkeypatch.setattr(hilbert.QuadratureGrid, "build", classmethod(spy_build))
    run = verification.VerifyRun(spec)
    for stage in verification._STAGES:
        verification._run_stage(*stage, run)
    [(grids, got)] = seen
    assert grids == (2, 2)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # the symmetry stage and the first five eigenfunctions take the default
    # grid; an indefinite form skips both
    assert built == ([257, 2, 257] if spec.is_definite else [2])


@pytest.mark.parametrize("name", ["s0", "case1"])
def test_a_finished_run_keeps_less_than_the_heap_trim_threshold(name):
    # a run that holds its seeded elements keeps about 350 KiB, which glibc
    # gives back and takes again on every run past its 128 KiB trim threshold
    spec = SPECS[name]()
    verify(spec)  # the per-process draws, the Gauss rule and the imports
    tracemalloc.start()
    try:
        run = verification.VerifyRun(spec)
        results = [verification._run_stage(*stage, run) for stage in verification._STAGES]
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.status == "PASS" for r in results)
    assert kept < 128 * 1024
    assert not any(isinstance(v, hilbert.HilbertElement) for v in vars(run).values())
