"""Characteristic values against closed forms and internal consistency."""

import math

import numpy as np
import pytest

from conftest import (
    CONFIG_DIR, airy_spec, baseline_spec, build_spec, mixed_spec, random_spec, steep_spec,
)
from oracles import airy_left, baseline_char, steep_char, transfer_char
from sl2t.charfn import char_batch, char_grid, char_value
from sl2t.problem import load_config
from sl2t.shooting import build_left, build_right, wronskian


LAM_GRID = [-6.0, -1.0, 0.0, 0.5, 1.0, 4.0, 9.3, 25.0, 80.0, 150.0]


def test_baseline_matches_closed_form():
    spec = baseline_spec()
    for lam in LAM_GRID:
        got = char_value(spec, lam).value
        want = baseline_char(lam)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_known_anchor_values():
    spec = baseline_spec()
    assert char_value(spec, 0.0).value == pytest.approx(1.0, abs=1e-10)
    assert char_value(spec, 1.0).value == pytest.approx(math.cos(2.0) - math.sin(2.0), abs=1e-10)


def test_steep_variant_matches_closed_form():
    spec = steep_spec()
    for lam in LAM_GRID:
        got = char_value(spec, lam).value
        assert got == pytest.approx(steep_char(lam), rel=1e-9, abs=1e-9)


def test_piece_values_coincide_for_unit_jumps():
    spec = baseline_spec()
    cv = char_value(spec, 7.0)
    assert cv.on_piece[1] == pytest.approx(cv.value, rel=1e-8)
    assert cv.on_piece[2] == pytest.approx(cv.value, rel=1e-8)
    for piece in (1, 2, 3):
        on_piece = char_value(spec, 7.0).on_piece[piece - 1]
        assert on_piece == pytest.approx(cv.on_piece[piece - 1], rel=1e-9)


def test_consistency_residual_small_across_problems():
    rng = np.random.default_rng(11)
    specs = [mixed_spec()] + [random_spec(rng) for _ in range(6)]
    for spec in specs:
        for lam in (-4.0, 1.3, 22.0):
            cv = char_value(spec, lam)
            assert cv.consistency_residual <= 1e-8 * (1.0 + abs(cv.value))


def test_batch_agrees_with_full_evaluation():
    # two independent routes: dual-solution Wronskian vs boundary form
    for spec in (baseline_spec(), mixed_spec()):
        lams = np.array(LAM_GRID)
        fast = char_batch(spec, lams)
        for j, lam in enumerate(lams):
            full = char_value(spec, float(lam)).value
            assert fast[j] == pytest.approx(full, rel=1e-8, abs=1e-9)


def test_batch_matches_transfer_oracle():
    rng = np.random.default_rng(5)
    spec = random_spec(rng, constant_q=True)
    lams = np.linspace(-8.0, 90.0, 23)
    got = char_batch(spec, lams)
    for j, lam in enumerate(lams):
        assert got[j] == pytest.approx(transfer_char(spec, float(lam)), rel=1e-8, abs=1e-8)


def test_scalar_batch_input():
    spec = baseline_spec()
    out = char_batch(spec, 4.0)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(baseline_char(4.0), rel=1e-9)


def test_evaluations_are_deterministic():
    spec = mixed_spec()
    a = char_value(spec, 13.7)
    b = char_value(spec, 13.7)
    assert a == b
    lams = np.linspace(-3.0, 40.0, 11)
    assert np.array_equal(char_batch(spec, lams), char_batch(spec, lams))


def test_char_scales_linearly_with_right_boundary_data():
    base = mixed_spec()
    c = 3.5
    scaled = mixed_spec(
        beta=tuple(c * b for b in base.beta),
        beta_prime=tuple(c * b for b in base.beta_prime),
    )
    for lam in (-2.0, 5.0, 31.0):
        assert char_value(scaled, lam).value == pytest.approx(
            c * char_value(base, lam).value, rel=1e-9
        )


def test_grid_evaluation_preserves_order():
    spec = baseline_spec()
    values = char_grid(spec, LAM_GRID)
    assert [cv.lam for cv in values] == LAM_GRID
    assert char_grid(spec, []) == []
    # a scalar is a batch of one
    assert char_grid(spec, 5.0) == char_grid(spec, [5.0]) == [char_value(spec, 5.0)]


def test_no_kink_across_zero():
    # second divided differences of the computed value track the closed form
    # through lam = 0, where the trig/hyperbolic branches meet
    spec = baseline_spec()
    h = 0.1
    lams = np.arange(-1.0, 1.0 + h / 2, h)
    num = char_batch(spec, lams)
    ref = np.array([baseline_char(float(l)) for l in lams])
    d2_num = np.diff(num, n=2) / h**2
    d2_ref = np.diff(ref, n=2) / h**2
    assert np.max(np.abs(d2_num - d2_ref)) < 1e-6



def test_linear_potential_matches_airy_functions():
    # Magnus steps on linear-q pieces against Airy functions, lam in [-50, 4e4];
    # error relative to the size of the boundary-form terms
    spec = airy_spec()
    lams = np.concatenate(([-50.0, -7.5, 0.0, 2.5, 30.0], np.geomspace(100.0, 4e4, 12)))
    got = char_batch(spec, lams)
    b1, b2 = spec.beta
    b1p, b2p = spec.beta_prime
    for lam, value in zip(lams, got):
        (u, v), _ = airy_left(spec, float(lam))
        form_u, form_v = (b1p * lam + b1) * u, (b2p * lam + b2) * v
        scale = abs(spec.m3) * (abs(form_u) + abs(form_v))
        assert abs(value - spec.m3 * (form_u - form_v)) <= 1e-10 * scale, lam


WIDE_LAMS = np.concatenate((np.linspace(-50.0, 0.0, 6), np.geomspace(0.5, 4e4, 25)))


def _two_ended(spec, lam):
    """Per-piece Wronskians at -1, h1+ and h2+ from two full builds."""
    left, right = build_left(spec, lam), build_right(spec, lam)
    anchors = ((-1.0, None), (spec.h1, "right"), (spec.h2, "right"))
    return tuple(wronskian(left, right, x, side) for x, side in anchors)


@pytest.mark.parametrize("name", ["s0", "case1", "indefinite"])
def test_batched_grid_repeats_two_ended_builds_bit_for_bit(name):
    # constant q: one exact step per piece on both routes, same arithmetic
    spec = load_config(CONFIG_DIR / f"{name}.json")
    for lam, cv in zip(WIDE_LAMS, char_grid(spec, WIDE_LAMS)):
        assert cv.on_piece == _two_ended(spec, float(lam)), lam


@pytest.mark.parametrize("make", [mixed_spec, airy_spec])
def test_batched_grid_matches_two_ended_builds_on_polynomial_q(make):
    # Magnus meshes: the batch and the one-lam builds take the same pairwise products
    spec = make()
    for lam, cv in zip(WIDE_LAMS, char_grid(spec, WIDE_LAMS)):
        assert cv.on_piece == _two_ended(spec, float(lam)), lam

