"""Acceptance checks.

Each test prints exactly one ``acceptance NN [label]: PASS/FAIL`` line (and
fails the run if the verdict is FAIL).  Tolerances and runtime budgets are
stated inline next to each check.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from conftest import baseline_spec, indefinite_spec, mixed_spec, random_spec, steep_spec, CONFIG_DIR
from oracles import baseline_mu_roots
from sl2t.asymptotics import decay_check, delta_leading
from sl2t.charfn import char_batch, char_value
from sl2t.cli import main
from sl2t.hilbert import (
    QuadratureGrid,
    apply_operator,
    norm,
    sample_domain_element,
    symmetry_residual,
)
from sl2t.problem import phase, piece_bounds
from sl2t.shooting import build_left, build_right
from sl2t.spectrum import (
    eigenfunction,
    eigenfunction_residuals,
    locate_eigenvalues,
    orthogonality_matrix,
)


@pytest.fixture
def announce(capsys):
    def _announce(num, label, ok, extra=""):
        tail = f" ({extra})" if extra else ""
        with capsys.disabled():
            print(f"\nacceptance {num:02d} [{label}]: {'PASS' if ok else 'FAIL'}{tail}")
    return _announce


@lru_cache(maxsize=None)
def _records(name, n):
    spec = {"baseline": baseline_spec, "steep": steep_spec,
            "mixed": mixed_spec, "indefinite": indefinite_spec}[name]()
    return spec, locate_eigenvalues(spec, n).records


def test_criterion_01_closed_form_root_oracle(announce):
    # first 20 frequencies vs independent bisection roots; <= 1e-9, <= 5 s
    t0 = time.perf_counter()
    _, records = _records("baseline", 20)
    elapsed = time.perf_counter() - t0
    oracle = baseline_mu_roots(20)
    worst = max(abs(r.mu_n - want) for r, want in zip(records, oracle))
    ok = worst <= 1e-9 and elapsed <= 5.0
    announce(1, "closed-form root oracle", ok, f"max err {worst:.2e}, {elapsed:.2f} s")
    assert worst <= 1e-9
    assert elapsed <= 5.0


def test_criterion_02_characteristic_value_consistency(announce):
    # one random lam in [-20, 200] on each of 100 random admissible specs;
    # scaled dual-route residual <= 1e-7; <= 30 s
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        spec = random_spec(rng)
        lam = float(rng.uniform(-20.0, 200.0))
        cv = char_value(spec, lam)
        worst = max(worst, cv.consistency_residual / (1.0 + abs(cv.value)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and elapsed <= 30.0
    announce(2, "piece consistency of the characteristic value", ok,
             f"max scaled residual {worst:.2e}, {elapsed:.1f} s")
    assert worst <= 1e-7
    assert elapsed <= 30.0


def test_criterion_03_wronskian_constancy(announce):
    # W(phi, chi) constant on each piece: relative spread over 100 points
    # <= 1e-8, across 20 random specs
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(20):
        spec = random_spec(rng)
        lam = float(rng.uniform(-15.0, 120.0))
        left, right = build_left(spec, lam), build_right(spec, lam)
        for i in (1, 2, 3):
            a, b = piece_bounds(spec, i)
            xs = np.linspace(a, b, 100)
            uf, vf = left.pieces[i - 1].eval(xs)
            ug, vg = right.pieces[i - 1].eval(xs)
            w = uf * vg - vf * ug
            worst = max(worst, float((w.max() - w.min()) / (1.0 + np.abs(w).max())))
    ok = worst <= 1e-8
    announce(3, "per-piece Wronskian constancy", ok, f"max relative spread {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_04_operator_symmetry(announce):
    # 20 seeded domain pairs on definite specs: scaled residual <= 1e-7;
    # plus >= 4x decrease under grid halving
    worst = 0.0
    for spec in (baseline_spec(), mixed_spec()):
        grid = QuadratureGrid.build(spec)
        for s in range(10):
            F = sample_domain_element(spec, 2 * s, grid=grid)
            G = sample_domain_element(spec, 2 * s + 1, grid=grid)
            AF, AG = apply_operator(spec, F), apply_operator(spec, G)
            scale = 1.0 + norm(spec, AF) * norm(spec, G) + norm(spec, F) * norm(spec, AG)
            worst = max(worst, symmetry_residual(spec, F, G) / scale)
    spec = baseline_spec()
    coarse = QuadratureGrid.build(spec, nodes_per_piece=6)
    fine = QuadratureGrid.build(spec, 2 * coarse.nodes_per_piece)
    worst_ratio = 0.0
    for seed in (31, 32, 33):
        rc = symmetry_residual(spec, sample_domain_element(spec, seed, grid=coarse),
                               sample_domain_element(spec, seed + 100, grid=coarse))
        rf = symmetry_residual(spec, sample_domain_element(spec, seed, grid=fine),
                               sample_domain_element(spec, seed + 100, grid=fine))
        assert rc > 1e-12
        worst_ratio = max(worst_ratio, rf / rc)
    ok = worst <= 1e-7 and worst_ratio <= 0.25
    announce(4, "operator symmetry on domain pairs", ok,
             f"max scaled residual {worst:.2e}, refinement ratio {worst_ratio:.2e}")
    assert worst <= 1e-7
    assert worst_ratio <= 0.25


def test_criterion_05_eigenfunction_orthogonality(announce):
    # Gram matrix of the first 5 normalized eigenfunctions of the baseline
    spec, records = _records("baseline", 20)
    fns = [eigenfunction(spec, rec, samples_per_piece=4) for rec in records[:5]]
    gram = orthogonality_matrix(spec, fns)
    off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    diag = float(np.max(np.abs(np.diag(gram) - 1.0)))
    ok = off <= 1e-6 and diag <= 1e-8
    announce(5, "eigenfunction orthogonality", ok,
             f"off-diagonal {off:.2e}, diagonal defect {diag:.2e}")
    assert off <= 1e-6
    assert diag <= 1e-8


def test_criterion_06_frequency_decay_with_negative_control(announce):
    # n*|mu_n - prediction| <= 1.0 for n in [5, 40] on the baseline and the
    # slope-type variant; a wrong phase denominator must FAIL
    spec_b, rec_b = _records("baseline", 46)
    spec_s, rec_s = _records("steep", 46)
    rep_b = decay_check(rec_b, spec_b, 5, 40, 1.0)
    rep_s = decay_check(rec_s, spec_s, 5, 40, 1.0)
    control = decay_check(rec_b, spec_b, 5, 40, 1.0, phase_total=7.0 / 3.0)
    ok = rep_b.verdict and rep_s.verdict and not control.verdict
    announce(6, "frequency defect decay + negative control", ok,
             f"max n*err {rep_b.max_product:.3f} / {rep_s.max_product:.3f}, "
             f"control {control.max_product:.1f}")
    assert rep_b.verdict
    assert rep_s.verdict
    assert not control.verdict


def test_criterion_07_leading_term_ratio(announce):
    # numeric characteristic value over its leading term within 0.05 of 1
    # at extremal probes mu = (k + 1/2) pi / Theta(1) in [40, 80]
    spec = steep_spec()
    total = phase(spec, 1.0)
    ks = range(math.ceil(40.0 * total / math.pi - 0.5), math.floor(80.0 * total / math.pi - 0.5) + 1)
    mus = [(k + 0.5) * math.pi / total for k in ks]
    assert mus and all(40.0 <= m <= 80.0 for m in mus)
    vals = char_batch(spec, np.array([m * m for m in mus]))
    worst = max(abs(v / delta_leading(spec, m) - 1.0) for m, v in zip(mus, vals))
    ok = worst <= 0.05
    announce(7, "leading-term ratio at probe frequencies", ok,
             f"max |ratio - 1| {worst:.2e} over {len(mus)} probes")
    assert worst <= 0.05


def test_criterion_08_eigenfunction_residuals(announce):
    # boundary/transmission residuals <= 1e-8 scaled for every computed
    # eigenfunction across the whole spec suite
    worst = 0.0
    for name in ("baseline", "steep", "mixed", "indefinite"):
        spec, records = _records(name, 4)
        for rec in records[:4]:
            ef = eigenfunction(spec, rec, samples_per_piece=6)
            res = eigenfunction_residuals(spec, ef)
            scale = 1.0 + res["max_abs_u"]
            for key in ("left_bc", "right_bc", "h1_value", "h1_slope", "h2_value", "h2_slope"):
                worst = max(worst, res[key] / scale)
    ok = worst <= 1e-8
    announce(8, "eigenfunction boundary/transmission residuals", ok,
             f"max scaled residual {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_09_two_route_right_piece_value(announce):
    # Wronskian-form vs boundary-form right-piece characteristic value on
    # 20 random lam per spec, <= 1e-8 relative
    rng = np.random.default_rng(1003)
    specs = [baseline_spec(), steep_spec(), mixed_spec(), indefinite_spec()]
    specs += [random_spec(rng) for _ in range(4)]
    worst = 0.0
    for spec in specs:
        for lam in rng.uniform(-20.0, 200.0, size=20):
            lam = float(lam)
            d3_boundary = spec.right_form(lam, *build_left(spec, lam).ends.right)
            d3_wronskian = char_value(spec, lam).on_piece[2]
            scale = 1.0 + max(abs(d3_boundary), abs(d3_wronskian))
            worst = max(worst, abs(d3_boundary - d3_wronskian) / scale)
    ok = worst <= 1e-8
    announce(9, "two-route right-piece value", ok, f"max scaled difference {worst:.2e}")
    assert worst <= 1e-8


def test_criterion_10_bundled_verify_runs(announce, capsys):
    # the full verification pipeline on each bundled config: every stage
    # PASS, SKIPPED allowed only for the indefinite-form demonstration;
    # <= 60 s altogether
    t0 = time.perf_counter()
    outputs = {}
    for name in ("s0", "case1", "indefinite"):
        code = main(["verify", str(CONFIG_DIR / f"{name}.json")])
        outputs[name] = (code, capsys.readouterr().out)
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 60.0
    for name, (code, out) in outputs.items():
        ok = ok and code == 0 and "FAIL" not in out and "verify: PASS" in out
        if name != "indefinite":
            ok = ok and "SKIPPED" not in out
    announce(10, "bundled verification pipelines", ok, f"{elapsed:.1f} s for 3 configs")
    for name, (code, out) in outputs.items():
        assert code == 0, name
        assert "FAIL" not in out, name
        assert "verify: PASS" in out, name
        if name != "indefinite":
            assert "SKIPPED" not in out, name
    assert elapsed <= 60.0
