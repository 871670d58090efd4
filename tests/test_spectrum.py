"""Eigenvalue search, certificates, and eigenfunction invariants."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from conftest import (
    CONFIG_DIR,
    airy_spec,
    baseline_spec,
    build_spec,
    indefinite_spec,
    mixed_spec,
    steep_spec,
)
from oracles import (
    baseline_char,
    baseline_mu_roots,
    steep_char,
    steep_mu_roots,
    steep_negative_lambda,
)
import sl2t.spectrum as spectrum
from sl2t.charfn import char_batch
from sl2t.hilbert import QuadratureGrid, inner_product
from sl2t.problem import NumericalError, load_config, phase
from sl2t.spectrum import (
    EigenRecord,
    eigenfunction,
    eigenfunction_residuals,
    eigenfunctions,
    locate_eigenvalues,
    orthogonality_matrix,
    scan_floor,
)


# ---------------------------------------------------------------------------
# scan floor


def test_scan_floor_formula():
    assert scan_floor(baseline_spec()) == pytest.approx(-10.0)
    spec = build_spec(q=[[4.0], [0.0], [0.0]])
    assert scan_floor(spec) == pytest.approx(-50.0)


def test_no_sign_change_below_first_eigenvalue():
    # closed form is cosh-type for negative lam: strictly positive there
    spec = baseline_spec()
    lams = np.linspace(scan_floor(spec), -1e-6, 200)
    vals = [baseline_char(float(l)) for l in lams]
    assert all(v > 0.0 for v in vals)
    computed = char_batch(spec, lams)
    assert np.all(computed > 0.0)


# ---------------------------------------------------------------------------
# eigenvalue location


def test_baseline_roots_match_oracle():
    res = locate_eigenvalues(baseline_spec(), 8)
    assert not res.exhausted
    oracle = baseline_mu_roots(8)
    for rec, want in zip(res.records, oracle):
        assert rec.mu_n == pytest.approx(want, abs=1e-9)
    assert res.records[0].mu_n == pytest.approx(0.538, abs=2e-3)


def test_records_are_ordered_and_indexed():
    res = locate_eigenvalues(baseline_spec(), 6)
    lams = [r.lambda_n for r in res.records]
    assert lams == sorted(lams)
    assert all(a < b for a, b in zip(lams, lams[1:]))
    assert [r.n for r in res.records] == list(range(1, 7))


def test_bracket_certificates():
    spec = baseline_spec()
    res = locate_eigenvalues(spec, 6)
    for rec in res.records:
        lo, hi = rec.bracket
        assert lo < rec.lambda_n < hi
        flo, fhi = char_batch(spec, np.array([lo, hi]))
        assert flo * fhi < 0.0
        mu = rec.mu_n or 0.0
        assert rec.abs_delta <= 1e-9 * (1.0 + mu**3)
        assert rec.refinement_iters > 0


def test_steep_variant_has_one_negative_eigenvalue():
    res = locate_eigenvalues(steep_spec(), 6)
    lams = [r.lambda_n for r in res.records]
    assert lams[0] == pytest.approx(steep_negative_lambda(), abs=1e-9)
    assert lams[0] < 0.0 < lams[1]
    assert res.records[0].mu_n is None
    for rec, want in zip(res.records[1:], steep_mu_roots(5)):
        assert rec.mu_n == pytest.approx(want, abs=1e-9)


def test_deep_roots_match_oracle():
    # 100 roots, lambda up to about 2.4e4; the bound acceptance 01 uses for 20
    for spec, oracle, skip in (
        (baseline_spec(), baseline_mu_roots(100), 0),
        (steep_spec(), steep_mu_roots(99), 1),
    ):
        res = locate_eigenvalues(spec, 100)
        assert not res.exhausted
        got = [rec.mu_n for rec in res.records[skip:]]
        assert len(got) == len(oracle)
        for mu, want in zip(got, oracle):
            assert mu == pytest.approx(want, abs=1e-9)


def _oracle_root_count(char, lam_lo, lam_hi, n_grid):
    nus = np.linspace(
        -math.sqrt(-lam_lo) if lam_lo < 0 else 0.0, math.sqrt(lam_hi), n_grid
    )
    lams = nus * np.abs(nus)
    vals = np.array([char(float(l)) for l in lams])
    vals = vals[vals != 0.0]
    return int(np.sum(np.sign(vals[:-1]) != np.sign(vals[1:])))


def test_no_missed_roots_against_fine_oracle_scan():
    # 10x finer closed-form sign scan over the same window
    for spec, char, n in (
        (baseline_spec(), baseline_char, 12),
        (steep_spec(), steep_char, 12),
    ):
        res = locate_eigenvalues(spec, n)
        top = res.records[-1].lambda_n + 1e-6
        count = _oracle_root_count(char, scan_floor(spec), top, 16 * 80 * 10)
        assert count == n


def test_interlacing_of_baseline_gaps():
    res = locate_eigenvalues(baseline_spec(), 20)
    mus = [r.mu_n for r in res.records]
    for n in range(1, len(mus)):
        gap = mus[n] - mus[n - 1]
        assert abs(gap - math.pi / 2.0) <= 0.5 / n


def _loop_scan(spec, n_max, nu_budget):
    """Sample-by-sample scan over the same grid: the reference for ``_scan``."""
    total = phase(spec, 1.0)
    dnu = math.pi / (total * spec.solver.bracket_subdiv)
    nu_floor = -math.sqrt(-scan_floor(spec))
    last_step = int(math.floor((nu_budget - nu_floor) / dnu))
    brackets, prev, scanned_to = [], None, scan_floor(spec)
    for k in range(last_step + 1):
        nu = nu_floor + dnu * k
        lam = nu * abs(nu)
        f = float(char_batch(spec, [lam])[0])
        scanned_to = lam
        if f == 0.0:
            continue
        if prev is not None and (prev[1] > 0.0) != (f > 0.0):
            brackets.append((prev[0], lam, prev[1], f))
        prev = (lam, f)
        if len(brackets) == n_max:
            break
    return brackets, len(brackets) < n_max, scanned_to


@pytest.mark.parametrize(
    "make, n_max, nu_budget", [(baseline_spec, 10, 2.0), (steep_spec, 12, 30.0), (mixed_spec, 40, 60.0)]
)
def test_chunked_scan_matches_sample_loop(make, n_max, nu_budget):
    spec = make()
    lo, hi, flo, fhi, exhausted, scanned_to = spectrum._scan(spec, n_max, nu_budget)
    brackets, loop_exhausted, loop_scanned_to = _loop_scan(spec, n_max, nu_budget)
    got = list(zip(lo.tolist(), hi.tolist(), flo.tolist(), fhi.tolist()))
    assert got == pytest.approx(brackets, rel=1e-12)
    assert [b[:2] for b in got] == [b[:2] for b in brackets]
    assert (exhausted, scanned_to) == (loop_exhausted, loop_scanned_to)


def test_scan_budget_exhaustion_is_reported():
    res = locate_eigenvalues(baseline_spec(), 10, nu_budget=2.0)
    assert res.exhausted
    assert 0 < len(res.records) < 10
    # the prefix it did find is still correct
    for rec, want in zip(res.records, baseline_mu_roots(len(res.records))):
        assert rec.mu_n == pytest.approx(want, abs=1e-9)


def test_n_max_validated():
    with pytest.raises(ValueError):
        locate_eigenvalues(baseline_spec(), 0)


def test_indefinite_form_is_still_solvable():
    # sign-flipped jump constant: eigenvalues exist and are certified
    res = locate_eigenvalues(indefinite_spec(), 4)
    assert len(res.records) == 4
    for rec in res.records:
        lo, hi = rec.bracket
        assert lo < rec.lambda_n < hi


@pytest.mark.parametrize("name", ["s0", "case1"])
def test_deep_locate_evaluation_counts(monkeypatch, name):
    # the scan, every refinement round, both polishes and the certificate,
    # each one batched characteristic evaluation
    spec = load_config(CONFIG_DIR / f"{name}.json")
    calls = []

    def counted(spec, lams):
        calls.append(np.size(lams))
        return char_batch(spec, lams)

    monkeypatch.setattr(spectrum, "char_batch", counted)
    res = locate_eigenvalues(spec, 100)
    iters = np.array([rec.refinement_iters for rec in res.records])
    assert len(iters) == 100 and not res.exhausted
    assert len(calls) <= 36
    assert np.median(iters) <= 8
    # bisection's 44 rounds plus the two polishes
    assert iters.max() <= 44 + 2


def _root_brackets(r):
    """Brackets about ``r``, two of them with an end one ulp from it."""
    below, above = np.nextafter(r, -np.inf), np.nextafter(r, np.inf)
    lo = np.array([r - 1.0, r - 0.9, r - 1e-3, r - 40.0, below, r - 2.0, r - 1e-9])
    hi = np.array([r + 1.0, r + 0.1, r + 2.0, r + 1e-6, r + 1.0, above, r + 5.0])
    return lo, hi


@pytest.mark.parametrize("shape", ["near-step", "flat-cubic"])
@pytest.mark.parametrize("r, root_tol", [(0.3, 1e-11), (1000.0, 1e-15)])
def test_refinement_keeps_sign_changes_within_itp_bound(shape, r, root_tol):
    # at r = 1000 the 8-eps relative floor of the stop width dominates root_tol
    def f(x):
        return np.tanh(1e6 * (x - r)) if shape == "near-step" else (x - r) ** 3

    lo, hi = _root_brackets(r)
    flo, fhi = f(lo), f(hi)
    assert np.all(flo * fhi < 0.0)
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)

    ref = spectrum._refine(counted, lo, hi, flo, fhi, root_tol)
    # every bracket still changes sign, in its recorded and in fresh values
    assert np.all(ref.lo < ref.hi)
    assert np.all(np.sign(ref.flo) == np.sign(flo)) and np.all(np.sign(ref.fhi) == np.sign(fhi))
    assert np.all(ref.flo == f(ref.lo)) and np.all(ref.fhi == f(ref.hi))
    assert np.all((ref.lo <= r) & (r <= ref.hi))
    assert np.all((ref.cert_lo < ref.x) & (ref.x < ref.cert_hi))
    converged = ref.hi - ref.lo <= spectrum._stop_width(root_tol, ref.lo, ref.hi)
    assert np.all(converged | (ref.fx == 0.0))
    # ITP: no root takes more than n0 rounds beyond bisection to its narrowest stop width
    nearest = np.where(lo * hi > 0.0, np.minimum(np.abs(lo), np.abs(hi)), 0.0)
    target = np.maximum(root_tol, 8.0 * np.finfo(float).eps * nearest)
    bound = np.ceil(np.log2((hi - lo) / target)) + spectrum._ITP_N0
    assert np.all(ref.iters - 2 <= bound)
    assert ref.rounds <= bound.max()
    assert len(calls) == ref.rounds + 2
    # the inputs are left as they were
    assert np.array_equal((lo, hi), _root_brackets(r))


def test_scan_result_keeps_numbers_only():
    spec = load_config(CONFIG_DIR / "s0.json")
    tracemalloc.start()
    try:
        # the first result, traced, takes the one-time allocations along
        kept = [locate_eigenvalues(spec, 100)]
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        kept += [locate_eigenvalues(spec, 100) for _ in range(50)]
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert grown / 50 <= 8 * 1024
    res = kept[0]
    # the table owns its numbers; the records are built anew on each access
    assert res.table.base is None and not res.table.flags.writeable
    assert res.records is not res.records
    assert res.records == res.records
    rows = res.table.tolist()
    assert len(rows) == len(res.records) == 100
    for rec, row in zip(res.records, rows):
        assert (rec.lambda_n, *rec.bracket, rec.abs_delta, rec.refinement_iters) == row
        assert rec.mu_n == math.sqrt(rec.lambda_n)
    assert [rec.n for rec in res.records] == list(range(1, 101))


# ---------------------------------------------------------------------------
# eigenfunctions


def _first_records(spec, n):
    return locate_eigenvalues(spec, n).records


def test_eigenfunction_unit_norm_and_residuals():
    spec = baseline_spec()
    grid = QuadratureGrid.build(spec)
    for rec in _first_records(spec, 3):
        ef = eigenfunction(spec, rec, samples_per_piece=10, grid=grid)
        elem = ef.element
        assert abs(inner_product(spec, elem, elem) - 1.0) <= 1e-8
        res = eigenfunction_residuals(spec, ef)
        bound = 1e-8 * (1.0 + res["max_abs_u"])
        for key in ("left_bc", "right_bc", "h1_value", "h1_slope", "h2_value", "h2_slope"):
            assert res[key] <= bound, (rec.n, key, res[key])


def test_eigenfunction_residuals_on_jumpy_problem():
    spec = mixed_spec()
    for rec in _first_records(spec, 4):
        ef = eigenfunction(spec, rec, samples_per_piece=8)
        res = eigenfunction_residuals(spec, ef)
        bound = 1e-8 * (1.0 + res["max_abs_u"])
        for key in ("left_bc", "right_bc", "h1_value", "h1_slope", "h2_value", "h2_slope"):
            assert res[key] <= bound, (rec.n, key, res[key])


def test_eigenfunction_of_negative_eigenvalue():
    spec = steep_spec()
    rec = _first_records(spec, 1)[0]
    assert rec.lambda_n < 0.0
    ef = eigenfunction(spec, rec, samples_per_piece=12)
    res = eigenfunction_residuals(spec, ef)
    assert res["left_bc"] <= 1e-8 * (1.0 + res["max_abs_u"])


def test_eigenfunction_continuity_under_unit_jumps():
    spec = baseline_spec()
    rec = _first_records(spec, 1)[0]
    ef = eigenfunction(spec, rec, samples_per_piece=6)
    assert ef.ends.h1_minus.u == pytest.approx(ef.ends.h1_plus.u, abs=1e-12)
    assert ef.ends.h2_minus.u == pytest.approx(ef.ends.h2_plus.u, abs=1e-12)


def test_eigenfunction_sampling_shape_and_sign():
    spec = baseline_spec()
    rec = _first_records(spec, 1)[0]
    ef = eigenfunction(spec, rec, samples_per_piece=5)
    for piece, (a, b) in zip(ef.pieces, ((-1.0, spec.h1), (spec.h1, spec.h2), (spec.h2, 1.0))):
        assert len(piece.xs) == 7
        assert piece.xs[0] == a and piece.xs[-1] == b
        assert np.all(np.diff(piece.xs) > 0.0)
    all_u = np.concatenate([p.u for p in ef.pieces])
    peak = np.max(np.abs(all_u))
    first = all_u[np.abs(all_u) > 1e-6 * peak][0]
    assert first > 0.0


def test_eigenfunction_is_deterministic():
    spec = mixed_spec()
    rec = _first_records(spec, 1)[0]
    a = eigenfunction(spec, rec, samples_per_piece=4)
    b = eigenfunction(spec, rec, samples_per_piece=4)
    for pa, pb in zip(a.pieces, b.pieces):
        assert np.array_equal(pa.u, pb.u)
        assert np.array_equal(pa.du, pb.du)
    assert a.f1 == b.f1


def test_eigenfunction_rejects_bad_sample_count():
    spec = baseline_spec()
    rec = _first_records(spec, 1)[0]
    with pytest.raises(ValueError):
        eigenfunction(spec, rec, samples_per_piece=0)


@pytest.mark.parametrize("name", ["s0", "case1", "airy_spec"])
def test_eigenfunctions_repeat_single_record_builds_bit_for_bit(name):
    spec = airy_spec() if name == "airy_spec" else load_config(CONFIG_DIR / f"{name}.json")
    recs = _first_records(spec, 5)
    grid = QuadratureGrid.build(spec)
    fns = eigenfunctions(spec, recs, samples_per_piece=4, grid=grid)
    assert len(fns) == 5
    for got, rec in zip(fns, recs):
        want = eigenfunction(spec, rec, samples_per_piece=4, grid=grid)
        assert (got.n, got.lambda_n) == (want.n, want.lambda_n)
        assert got.normalization == want.normalization
        assert got.sign_flipped == want.sign_flipped
        assert got.f1 == want.f1 and type(got.f1) is float
        assert got.ends == want.ends and type(got.ends.right.u) is float
        for pg, pw in zip(got.pieces, want.pieces):
            for field in ("xs", "u", "du"):
                assert np.array_equal(getattr(pg, field), getattr(pw, field)), (rec.n, field)
        for field in ("values", "deriv", "deriv2"):
            for ag, aw in zip(getattr(got.element, field), getattr(want.element, field)):
                assert np.array_equal(ag, aw), (rec.n, field)
    assert eigenfunctions(spec, [], grid=grid) == []


@pytest.mark.parametrize("name", ["s0", "case1", "indefinite", "airy_spec"])
def test_eigenfunction_samples_at_piece_ends_are_the_end_states(name):
    # a query at a piece end returns the stored state, so no sample needs overwriting
    spec = airy_spec() if name == "airy_spec" else load_config(CONFIG_DIR / f"{name}.json")
    for ef in eigenfunctions(spec, _first_records(spec, 6), samples_per_piece=5):
        e = ef.ends
        ends = ((e.left, e.h1_minus), (e.h1_plus, e.h2_minus), (e.h2_plus, e.right))
        for piece, (start, stop) in zip(ef.pieces, ends):
            assert (piece.u[0], piece.du[0]) == (start.u, start.v), (ef.n, "start")
            assert (piece.u[-1], piece.du[-1]) == (stop.u, stop.v), (ef.n, "stop")


def test_eigenfunctions_reject_records_that_are_not_eigenpairs():
    # far beyond the computed spectrum the right solution is tiny next to its launch
    spec = baseline_spec()
    good = _first_records(spec, 1)[0]
    bad = EigenRecord(n=2, lambda_n=1e30, mu_n=None, bracket=(1e30, 1e30), abs_delta=0.0, refinement_iters=0)
    with pytest.raises(NumericalError, match="lam=1e[+]30 has near-zero norm"):
        eigenfunction(spec, bad)
    with pytest.raises(NumericalError, match="lam=1e[+]30 has near-zero norm"):
        eigenfunctions(spec, [good, bad])


def test_eigenfunctions_reject_records_off_the_spectrum():
    # lambda = 5.0 lies between the baseline eigenvalues: the right solution
    # has a healthy norm but misses the left condition u(-1) = 0
    spec = baseline_spec()
    good = _first_records(spec, 1)[0]
    bad = EigenRecord(n=2, lambda_n=5.0, mu_n=math.sqrt(5.0), bracket=(4.9, 5.1), abs_delta=0.0, refinement_iters=0)
    with pytest.raises(NumericalError, match="lam=5.0 misses the left condition"):
        eigenfunction(spec, bad)
    with pytest.raises(NumericalError, match="lam=5.0 misses the left condition"):
        eigenfunctions(spec, [good, bad])


# ---------------------------------------------------------------------------
# orthogonality


def test_baseline_gram_matrix():
    spec = baseline_spec()
    recs = _first_records(spec, 5)
    fns = [eigenfunction(spec, rec, samples_per_piece=4) for rec in recs]
    gram = orthogonality_matrix(spec, fns)
    assert gram.shape == (5, 5)
    assert np.array_equal(gram, gram.T)
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) <= 1e-6
    assert np.max(np.abs(np.diag(gram) - 1.0)) <= 1e-8


def test_gram_requires_distinct_eigenvalues():
    spec = baseline_spec()
    rec = _first_records(spec, 1)[0]
    fn = eigenfunction(spec, rec, samples_per_piece=4)
    with pytest.raises(ValueError, match="distinct"):
        orthogonality_matrix(spec, [fn, fn])


@pytest.mark.parametrize("name", ["s0", "mixed_spec", "airy_spec"])
def test_gram_matrix_repeats_pairwise_inner_products(name):
    # mixed_spec and airy_spec have m3/rho != 1
    spec = {"mixed_spec": mixed_spec, "airy_spec": airy_spec}.get(
        name, lambda: load_config(CONFIG_DIR / f"{name}.json"))()
    grid = QuadratureGrid.build(spec)
    fns = eigenfunctions(spec, _first_records(spec, 6), samples_per_piece=4, grid=grid)
    gram = orthogonality_matrix(spec, fns)
    assert gram.shape == (6, 6)
    assert np.array_equal(gram, gram.T)
    for i in range(6):
        for j in range(6):
            assert gram[i, j] == inner_product(spec, fns[i].element, fns[j].element), (i, j)
    assert orthogonality_matrix(spec, []).shape == (0, 0)


def test_gram_requires_one_grid():
    spec = baseline_spec()
    recs = _first_records(spec, 2)
    a = eigenfunction(spec, recs[0], samples_per_piece=4, grid=QuadratureGrid.build(spec, 16))
    b = eigenfunction(spec, recs[1], samples_per_piece=4, grid=QuadratureGrid.build(spec, 24))
    with pytest.raises(ValueError, match="grid"):
        orthogonality_matrix(spec, [a, b])
