"""Frequency formulas, leading terms, and the decay verdict."""

import math
from functools import lru_cache

import numpy as np
import pytest

from conftest import (
    CONFIG_DIR,
    baseline_spec,
    build_spec,
    indefinite_spec,
    mixed_spec,
    random_spec,
    steep_spec,
)
from oracles import baseline_char, steep_char
from sl2t.asymptotics import (
    REFLECTING,
    AsymptoticCase,
    case_of,
    decay_check,
    delta_leading,
    mu_asymptotic,
    phase_coherent,
    phi_asymptotic,
)
from sl2t.charfn import char_batch, char_value
from sl2t.problem import load_config, phase
from sl2t.shooting import build_left
from sl2t.spectrum import EigenRecord, locate_eigenvalues


@lru_cache(maxsize=None)
def _baseline_records():
    return locate_eigenvalues(baseline_spec(), 13).records


# ---------------------------------------------------------------------------
# case classification and frequency prediction


def test_case_classification():
    assert case_of(steep_spec()) is AsymptoticCase.CASE1
    assert case_of(build_spec(alpha=0.0, beta=(-1.0, 0.0), beta_prime=(0.0, 1.0))) is AsymptoticCase.CASE2
    assert case_of(build_spec(alpha=math.pi / 2, beta=(0.0, 1.0), beta_prime=(1.0, 0.0))) is AsymptoticCase.CASE3
    assert case_of(baseline_spec()) is AsymptoticCase.CASE4


def test_tiny_alpha_counts_as_dirichlet_like():
    spec = build_spec(alpha=1e-13, beta=(-1.0, 0.0), beta_prime=(0.0, 1.0))
    assert case_of(spec) is AsymptoticCase.CASE2


def test_mu_asymptotic_known_values():
    assert mu_asymptotic(steep_spec(), 5) == pytest.approx(2.0 * math.pi, abs=1e-15)
    assert mu_asymptotic(baseline_spec(), 3) == pytest.approx(1.5 * math.pi, abs=1e-15)


def test_mu_asymptotic_gap_is_pi_over_total_phase():
    spec = mixed_spec()
    total = phase(spec, 1.0)
    mus = [mu_asymptotic(spec, n) for n in range(1, 9)]
    for a, b in zip(mus, mus[1:]):
        assert b - a == pytest.approx(math.pi / total, abs=1e-13)


def test_mu_asymptotic_accepts_phase_override():
    got = mu_asymptotic(baseline_spec(), 3, phase_total=7.0 / 3.0)
    assert got == pytest.approx(9.0 * math.pi / 7.0, abs=1e-14)


def test_mu_asymptotic_validation():
    with pytest.raises(ValueError):
        mu_asymptotic(baseline_spec(), 0)
    for bad in (2.5, 3.0, True, np.array([1.0, 2.0]), np.array([True, False])):
        with pytest.raises(ValueError, match="index must be an integer"):
            mu_asymptotic(baseline_spec(), bad)
    assert mu_asymptotic(baseline_spec(), np.int64(3)) == mu_asymptotic(baseline_spec(), 3)
    for bad in (-2.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="phase_total must be positive and finite"):
            mu_asymptotic(baseline_spec(), 3, phase_total=bad)
    with pytest.raises(ValueError, match="index must be >= 1"):
        mu_asymptotic(baseline_spec(), np.array([3, 0, 4]))


@pytest.mark.parametrize("phase_total", [None, 7.0 / 3.0])
def test_mu_asymptotic_of_an_index_array_repeats_scalar_calls(phase_total):
    for spec in (baseline_spec(), steep_spec(), mixed_spec()):
        ns = np.arange(1, 41)
        got = mu_asymptotic(spec, ns, phase_total=phase_total)
        want = [mu_asymptotic(spec, int(n), phase_total=phase_total) for n in ns]
        assert got.tolist() == want
        assert all(type(mu) is float for mu in want)


# ---------------------------------------------------------------------------
# left-solution leading term


def _coherent_specs():
    # zero potential and matched interface ratios: no reflected wave, so the
    # leading term is the whole solution and the comparison is exact
    return [
        build_spec(alpha=math.pi / 2, beta=(-1.0, 0.0), beta_prime=(0.0, 1.0)),
        baseline_spec(),
        build_spec(
            alpha=math.pi / 2,
            beta=(-1.0, 0.0),
            beta_prime=(0.0, 1.0),
            omega=(2.0, 1.0, 3.0),
            gamma=(2.0, 1.0, 1.0, 3.0),
        ),
        build_spec(alpha=0.0, omega=(2.0, 1.0, 1.0), gamma=(2.0, 1.0, 1.0, 1.0)),
        build_spec(alpha=math.pi / 2, beta=(-1.0, 0.0), beta_prime=(0.0, 1.0),
                   gamma=(2.0, 2.0, 3.0, 3.0)),
    ]


@pytest.mark.parametrize("idx", range(5))
def test_phi_asymptotic_is_exact_without_reflection(idx):
    spec = _coherent_specs()[idx]
    assert phase_coherent(spec)
    mu = 7.3
    sol = build_left(spec, mu * mu)
    xs = [-1.0, -0.8, -0.45, spec.h1, -0.1, 0.2, spec.h2, 0.5, 0.77, 1.0]
    for x in xs:
        st = sol.state(x, side="right" if x < 1.0 else "left")
        scale = abs(st.u) + abs(st.v) / mu
        assert phi_asymptotic(spec, mu, x) == pytest.approx(st.u, abs=1e-8 * scale)
        assert phi_asymptotic(spec, mu, x, k=1) == pytest.approx(st.v, abs=1e-8 * mu * scale)


def test_phi_asymptotic_left_end_value_is_launch_value():
    for spec in (steep_spec(), mixed_spec()):
        assert phi_asymptotic(spec, 11.0, -1.0) == pytest.approx(math.sin(spec.alpha), abs=1e-15)


def test_phi_asymptotic_piece3_amplitude():
    spec = build_spec(alpha=math.pi / 2, beta=(-1.0, 0.0), beta_prime=(0.0, 1.0),
                      gamma=(2.0, 2.0, 3.0, 3.0))
    mu = 9.0
    want = 6.0 * math.cos(mu * phase(spec, 0.9))
    assert phi_asymptotic(spec, mu, 0.9) == pytest.approx(want, abs=1e-14)


def test_phi_asymptotic_validation():
    with pytest.raises(ValueError):
        phi_asymptotic(baseline_spec(), -2.0, 0.0)
    for bad in (0.0, -2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            phi_asymptotic(baseline_spec(), bad, 0.0)
    with pytest.raises(ValueError):
        phi_asymptotic(baseline_spec(), 3.0, 0.0, k=2)


@pytest.mark.parametrize("k", [True, False, 1.0])
def test_phi_asymptotic_takes_an_integer_k(k):
    # True returned the slope and False the value; 1.0 raised TypeError
    spec = baseline_spec()
    with pytest.raises(ValueError, match="k must be an integer"):
        phi_asymptotic(spec, 10.0, 0.5, k=k)
    assert phi_asymptotic(spec, 10.0, 0.5, k=np.int64(1)) == phi_asymptotic(spec, 10.0, 0.5, k=1)


def test_phi_asymptotic_rejects_points_outside_the_domain():
    # the piece lookup judges the range, NaN included, for scalars and arrays
    spec = mixed_spec()
    for bad in (1.5, -1.0 - 1e-9, np.nan):
        with pytest.raises(ValueError, match="outside"):
            phi_asymptotic(spec, 3.0, bad)
        with pytest.raises(ValueError, match="outside"):
            phi_asymptotic(spec, 3.0, np.array([0.0, bad]), k=1)
    assert phi_asymptotic(spec, 3.0, 1.0 + 5e-13) == pytest.approx(phi_asymptotic(spec, 3.0, 1.0))


# ---------------------------------------------------------------------------
# boundary-form route to the right-piece characteristic value


def test_delta3_routes_agree_on_random_problems():
    rng = np.random.default_rng(20)
    for _ in range(8):
        spec = random_spec(rng)
        for lam in rng.uniform(-15.0, 150.0, size=3):
            lam = float(lam)
            end = build_left(spec, lam).ends.right
            via_boundary = spec.right_form(lam, *end)
            via_wronskian = char_value(spec, lam).on_piece[2]
            tol = 1e-8 * (1.0 + abs(via_wronskian))
            assert abs(via_boundary - via_wronskian) <= tol


def test_delta3_is_affine_in_lambda():
    spec = mixed_spec()
    end = build_left(spec, 3.0).ends.right
    a, b = spec.right_form(-5.0, *end), spec.right_form(9.0, *end)
    mid = spec.right_form(2.0, *end)
    assert a + b == pytest.approx(2.0 * mid, rel=1e-12)


# ---------------------------------------------------------------------------
# leading term of the canonical characteristic value


def test_delta_leading_vanishes_at_phase_nodes():
    # sin(mu * Theta(1)) = 0 at mu = k*pi/2 for the steep problem
    assert abs(delta_leading(steep_spec(), math.pi)) <= 1e-11


def _case_specs():
    return {
        AsymptoticCase.CASE1: steep_spec(),
        AsymptoticCase.CASE2: build_spec(alpha=0.0, beta=(-1.0, 0.0), beta_prime=(0.0, 1.0)),
        AsymptoticCase.CASE3: build_spec(alpha=math.pi / 2, beta=(0.0, 1.0), beta_prime=(1.0, 0.0)),
        AsymptoticCase.CASE4: baseline_spec(),
    }


@pytest.mark.parametrize("which", list(AsymptoticCase))
def test_delta_leading_ratio_approaches_one(which):
    spec = _case_specs()[which]
    assert case_of(spec) is which
    total = phase(spec, 1.0)
    # extremal probes of the leading oscillation, plus slightly offset ones
    if which in (AsymptoticCase.CASE1, AsymptoticCase.CASE4):
        base = [(k + 0.5) * math.pi / total for k in (26, 33, 44)]
    else:
        base = [k * math.pi / total for k in (27, 34, 45)]
    probes = base + [m + 0.2 for m in base[:2]]
    lams = np.array([m * m for m in probes])
    vals = char_batch(spec, lams)
    for mu, val in zip(probes, vals):
        lead = delta_leading(spec, mu)
        assert abs(val / lead - 1.0) <= 0.05, (which, mu, val / lead)


def test_delta_leading_validation():
    with pytest.raises(ValueError):
        delta_leading(baseline_spec(), 0.0)
    for bad in (-2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            delta_leading(baseline_spec(), bad)


# ---------------------------------------------------------------------------
# reflecting interfaces: the remainder of both leading terms is O(1/mu)


def _reflecting_specs():
    # indefinite.json and seeded constant-q draws.  The launch's leading part
    # drops |cot(alpha)|/(mu*omega1) of it, so a near-Dirichlet draw would
    # enter the O(1/mu) regime only far above mu = 20; those are not drawn.
    rng = np.random.default_rng(12)
    specs = [load_config(CONFIG_DIR / "indefinite.json")]
    while len(specs) < 7:
        spec = random_spec(rng)
        if abs(math.cos(spec.alpha)) <= 5.0 * spec.omega[0] * abs(math.sin(spec.alpha)):
            specs.append(spec)
    return specs


_BANDS = ((20.0, 40.0), (160.0, 320.0))
_XS = np.linspace(-1.0, 1.0, 41)


def _delta_band_defect(spec, lo, hi):
    # mu * |D - D0| over the band, relative to the band's largest |D0|
    mus = np.linspace(lo, hi, 240, endpoint=False)
    lead = np.array([delta_leading(spec, mu) for mu in mus])
    return np.max(mus * np.abs(char_batch(spec, mus * mus) - lead)) / np.max(np.abs(lead))


def _phi_band_defect(spec, lo, hi):
    # band maximum of mu * max|u - phi0| / max|u| over the x samples
    mus = np.linspace(lo, hi, 16, endpoint=False)
    u, _ = build_left(spec, mus * mus).eval(_XS)
    lead = np.array([phi_asymptotic(spec, mu, _XS) for mu in mus])
    return np.max(mus * np.max(np.abs(u - lead), axis=1) / np.max(np.abs(u), axis=1))


@pytest.mark.parametrize("idx", range(7))
def test_leading_terms_hold_on_reflecting_interfaces(idx):
    spec = _reflecting_specs()[idx]
    assert not phase_coherent(spec)
    for defect in (_delta_band_defect, _phi_band_defect):
        low, high = (defect(spec, lo, hi) for lo, hi in _BANDS)
        # an O(1) miss grows 8x between the bands; 1e-9 absorbs a rounding-level
        # remainder (q = 0 with a Dirichlet launch makes phi0 exact)
        assert high <= 3.0 * low + 1e-9, (defect.__name__, low, high)


# ---------------------------------------------------------------------------
# eigenfunction shape


def test_eigenfunction_asymptotic_end_values():
    spec = steep_spec()
    assert phi_asymptotic(spec, mu_asymptotic(spec, 4), -1.0) == pytest.approx(1.0, abs=1e-15)
    spec = baseline_spec()
    assert phi_asymptotic(spec, mu_asymptotic(spec, 4), -1.0) == pytest.approx(0.0, abs=1e-15)


def test_eigenfunction_asymptotic_interface_amplification():
    spec = build_spec(alpha=math.pi / 2, beta=(-1.0, 0.0), beta_prime=(0.0, 1.0),
                      gamma=(2.0, 2.0, 3.0, 3.0))
    # CASE1: mu_n * Theta(1) is a multiple of pi, so both ends sit at extrema
    left = phi_asymptotic(spec, mu_asymptotic(spec, 6), -1.0)
    right = phi_asymptotic(spec, mu_asymptotic(spec, 6), 1.0)
    assert abs(right) / abs(left) == pytest.approx(6.0, abs=1e-12)


def test_eigenfunction_asymptotic_vectorized():
    spec = mixed_spec()
    xs = np.linspace(-1.0, 1.0, 41)
    arr = phi_asymptotic(spec, mu_asymptotic(spec, 7), xs)
    scalars = [phi_asymptotic(spec, mu_asymptotic(spec, 7), float(x)) for x in xs]
    assert np.allclose(arr, scalars, rtol=0.0, atol=0.0)


def test_eigenfunction_asymptotic_is_the_left_solution_leading_term():
    # sin(alpha) = 0 and omega1 != 1: the launch amplitude carries 1/(mu*omega1)
    spec = build_spec(omega=(1.5, 1.0, 0.75), gamma=(1.5, 1.0, 1.0, 1.0),
                      delta=(1.0, 1.0, 0.75, 1.0))
    assert phase_coherent(spec) and case_of(spec) is AsymptoticCase.CASE4
    mu = mu_asymptotic(spec, 7)
    xs = np.array([-0.9, -0.5, 0.0, 0.5, 0.9])
    u, _ = build_left(spec, mu * mu).eval(xs)
    got = phi_asymptotic(spec, mu_asymptotic(spec, 7), xs)
    assert np.max(np.abs(got - u)) <= 1e-8 * np.max(np.abs(u))
    assert np.array_equal(got, phi_asymptotic(spec, mu, xs))


def test_eigenfunction_asymptotic_matches_computed_shape():
    from sl2t.spectrum import eigenfunction

    spec = baseline_spec()
    rec = _baseline_records()[10]  # computed index 11 pairs with formula index 10
    assert rec.n == 11
    ef = eigenfunction(spec, rec, samples_per_piece=30)
    xs = np.concatenate([p.xs for p in ef.pieces])
    got = np.concatenate([p.u for p in ef.pieces])
    want = phi_asymptotic(spec, mu_asymptotic(spec, 10), xs)
    got = got / np.max(np.abs(got))
    want = want / np.max(np.abs(want))
    if float(np.dot(got, want)) < 0.0:
        want = -want
    assert np.max(np.abs(got - want)) <= 0.1


# ---------------------------------------------------------------------------
# reflection-free classification


def test_phase_coherence_classification():
    assert phase_coherent(baseline_spec())
    assert phase_coherent(build_spec(gamma=(2.0, 2.0, 3.0, 3.0)))
    assert phase_coherent(build_spec(omega=(2.0, 1.0, 3.0), gamma=(2.0, 1.0, 1.0, 3.0)))
    assert not phase_coherent(mixed_spec())
    assert not phase_coherent(indefinite_spec())
    assert not phase_coherent(build_spec(gamma=(2.0, 1.0, 1.0, 1.0)))


# ---------------------------------------------------------------------------
# decay of the frequency defect


def _synthetic_records(spec, ns):
    recs = []
    for j, n in enumerate(ns, start=1):
        mu = mu_asymptotic(spec, n)
        recs.append(
            EigenRecord(n=j, lambda_n=mu * mu, mu_n=mu, bracket=(mu * mu - 1e-9, mu * mu + 1e-9),
                        abs_delta=0.0, refinement_iters=1)
        )
    return recs


def test_decay_check_perfect_agreement():
    spec = steep_spec()
    recs = _synthetic_records(spec, range(2, 16))
    report = decay_check(recs, spec, 5, 12, 1e-9)
    assert report.verdict
    assert report.max_product == 0.0
    assert report.offset == 1  # formula index 5 pairs with computed index 4
    assert report.ns == tuple(range(5, 13))


def test_decay_check_baseline_holds():
    report = decay_check(_baseline_records(), baseline_spec(), 5, 12, 1.0)
    assert report.verdict
    assert report.offset == -1
    assert 0.0 < report.max_product <= 0.45
    # errors themselves shrink roughly like 1/n
    assert report.errors[-1] < report.errors[0]


def test_decay_check_rejects_wrong_phase_denominator():
    # deliberately mis-sized interval:ver products grow linearly and bust the bound
    report = decay_check(
        _baseline_records(), baseline_spec(), 5, 12, 1.0, phase_total=7.0 / 3.0
    )
    assert not report.verdict
    assert report.max_product > 1.0


def test_decay_check_missing_indices():
    recs = _synthetic_records(steep_spec(), range(2, 8))
    with pytest.raises(ValueError, match="missing"):
        decay_check(recs, steep_spec(), 5, 12, 1.0)


def test_decay_check_needs_a_positive_eigenvalue_to_align():
    recs = [
        EigenRecord(n=n, lambda_n=lam, mu_n=None, bracket=(lam - 1e-9, lam + 1e-9),
                    abs_delta=0.0, refinement_iters=1)
        for n, lam in ((1, -4.0), (2, -1.0))
    ]
    with pytest.raises(ValueError, match="no positive eigenvalues available for alignment"):
        decay_check(recs, steep_spec(), 1, 2, 1.0)


def test_decay_check_validation():
    recs = _synthetic_records(steep_spec(), range(2, 16))
    with pytest.raises(ValueError):
        decay_check(recs, steep_spec(), 0, 12, 1.0)
    with pytest.raises(ValueError):
        decay_check(recs, steep_spec(), 5, 12, -1.0)


@pytest.mark.parametrize("window", [(5.0, 12), (True, 12), (5, 12.0), (5, "12")])
def test_decay_check_window_must_be_integers(window):
    # a float index would reach mu_asymptotic, and True would count as 1
    spec = steep_spec()
    recs = _synthetic_records(spec, range(2, 16))
    with pytest.raises(ValueError, match=r"n_(lo|hi) must be an integer"):
        decay_check(recs, spec, *window, 1e-9)
    assert decay_check(recs, spec, np.int64(5), np.int64(12), 1e-9).ns == tuple(range(5, 13))


@pytest.mark.parametrize("bound", [True, np.True_], ids=["bool", "numpy_bool"])
def test_decay_check_refuses_a_bool_bound(bound):
    # True ran the check with bound 1
    spec = steep_spec()
    recs = _synthetic_records(spec, range(2, 16))
    with pytest.raises(ValueError, match="bound must be a number"):
        decay_check(recs, spec, 5, 12, bound)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_decay_check_rejects_a_bound_or_phase_that_is_not_positive_and_finite(bad):
    spec = steep_spec()
    recs = _synthetic_records(spec, range(2, 16))
    with pytest.raises(ValueError, match="bound must be positive and finite"):
        decay_check(recs, spec, 5, 12, bad)
    with pytest.raises(ValueError, match="phase_total must be positive and finite"):
        decay_check(recs, spec, 5, 12, 1.0, phase_total=bad)


def test_decay_check_refuses_reflecting_interfaces():
    # the single-phase formula does not apply, so no index alignment is attempted
    spec = mixed_spec()
    assert not phase_coherent(spec)
    recs = locate_eigenvalues(spec, 20).records
    with pytest.raises(ValueError) as err:
        decay_check(recs, spec, 5, 12, 1.0)
    assert str(err.value) == REFLECTING
