"""Weighted inner product, operator action, and symmetry certification."""

import math
import random

import mpmath
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
from sl2t import hilbert
from sl2t.hilbert import (
    HilbertElement,
    QuadratureGrid,
    _draw,
    _gauss_rule,
    _seed_table,
    apply_operator,
    domain_residuals,
    greens_identity_sides,
    inner_product,
    interface_wronskian_residuals,
    norm,
    sample_domain_element,
    symmetry_residual,
)
from sl2t.problem import NumericalError, load_config
from sl2t.shooting import BoundaryData, State
from sl2t.spectrum import eigenfunction, locate_eigenvalues


def _const_element(spec, grid, c, f1=None):
    """Element with value c everywhere (a legal domain shape when alpha=pi/2
    and the value-jump ratios are 1)."""
    values = tuple(np.full_like(x, c) for x in grid.nodes)
    zeros = tuple(np.zeros_like(x) for x in grid.nodes)
    st = State(c, 0.0)
    ends = BoundaryData(left=st, h1_minus=st, h1_plus=st, h2_minus=st, h2_plus=st, right=st)
    coord = spec.beta_prime[0] * c if f1 is None else f1
    return HilbertElement(grid=grid, values=values, f1=coord, deriv2=zeros, ends=ends)


def _diff_element(F, G, lam=1.0):
    """F - lam*G on shared nodes (values and scalar coordinate only)."""
    values = tuple(f - lam * g for f, g in zip(F.values, G.values))
    return HilbertElement(grid=F.grid, values=values, f1=F.f1 - lam * G.f1)


# ---------------------------------------------------------------------------
# quadrature grid


def test_grid_nodes_and_weights():
    spec = mixed_spec()
    grid = QuadratureGrid.build(spec, nodes_per_piece=32)
    bounds = ((-1.0, spec.h1), (spec.h1, spec.h2), (spec.h2, 1.0))
    for (a, b), xs, ws in zip(bounds, grid.nodes, grid.weights):
        assert np.all(ws > 0.0)
        assert np.all((a < xs) & (xs < b))
        assert np.sum(ws) == pytest.approx(b - a, rel=1e-14)


def test_grid_needs_two_nodes_per_piece():
    with pytest.raises(ValueError, match=r"nodes_per_piece must be an integer in \[2, 4096\]"):
        QuadratureGrid.build(mixed_spec(), 1)


def test_grid_refuses_more_nodes_than_the_quad_nodes_ceiling():
    # the argument has the ceiling of the quad_nodes setting
    with pytest.raises(ValueError, match=r"nodes_per_piece must be an integer in \[2, 4096\]"):
        QuadratureGrid.build(baseline_spec(), 4097)


@pytest.mark.parametrize("count", [2.7, 3.0, True, "3"])
def test_grid_refuses_a_node_count_that_is_not_an_integer(count):
    # int() would truncate 2.7 to a 2-node rule
    with pytest.raises(ValueError, match="nodes_per_piece must be an integer"):
        QuadratureGrid.build(baseline_spec(), count)
    assert QuadratureGrid.build(baseline_spec(), np.int64(3)).nodes_per_piece == 3


def test_grid_integrates_smooth_function():
    spec = baseline_spec()
    grid = QuadratureGrid.build(spec, nodes_per_piece=24)
    total = sum(grid.integrate(i, np.exp(grid.nodes[i - 1])) for i in (1, 2, 3))
    assert total == pytest.approx(math.e - 1.0 / math.e, rel=1e-13)


@pytest.mark.parametrize("piece", [0, -1, 4, 2.5])
def test_grid_integrate_refuses_a_piece_index_outside_1_to_3(piece):
    # a negative or zero index would pick a piece counted from the end
    grid = QuadratureGrid.build(baseline_spec(), nodes_per_piece=4)
    with pytest.raises(ValueError, match=f"piece index must be 1, 2, or 3, got {piece!r}"):
        grid.integrate(piece, np.ones(4))


def test_gauss_rule_is_shared_and_read_only():
    QuadratureGrid.build(mixed_spec(), nodes_per_piece=9)
    ref_x, ref_w = _gauss_rule(9)
    assert _gauss_rule(9)[0] is ref_x
    for arr in (ref_x, ref_w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert np.array_equal(ref_x, np.polynomial.legendre.leggauss(9)[0])


def _mp_gauss_upper_half(n, start):
    """Gauss-Legendre nodes and weights to 40 digits: Newton in mpmath on ``P_n`` from ``start``."""
    nodes, weights = [], []
    with mpmath.workdps(40):
        for x in map(mpmath.mpf, start):
            for _ in range(3):
                p0, p1 = mpmath.mpf(1), x
                for k in range(2, n + 1):
                    p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
                x -= p1 * (1 - x * x) / (n * (p0 - x * p1))
            nodes.append(x)
            weights.append(2 * (1 - x * x) / (n * p0) ** 2)
    return nodes, weights


@pytest.mark.parametrize("n", [2, 9, 64, 257])
def test_gauss_rule_matches_a_40_digit_reference(n):
    # the rule is exactly symmetric, so its upper half (the middle node 0 of
    # an odd rule included) is checked; the reference nodes ascend in [0, 1),
    # with 0 only for odd n, so with their mirror images they are all n roots
    x, w = _gauss_rule(n)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    upper = slice(n // 2, None)
    ref_x, ref_w = _mp_gauss_upper_half(n, x[upper].tolist())
    assert all(a < b for a, b in zip(ref_x, ref_x[1:])) and ref_x[-1] < 1
    assert ref_x[0] == 0 if n % 2 else ref_x[0] > 0
    for xf, wf, xr, wr in zip(x[upper].tolist(), w[upper].tolist(), ref_x, ref_w):
        assert abs(xf - xr) <= 2 * np.spacing(float(xr)), (n, xf)
        assert abs(wf - wr) <= 1e-13 * wr, (n, xf)


def test_gauss_rule_calls_no_eigensolver(monkeypatch):
    # the rule comes from a recurrence, not from numpy's LAPACK-backed eigensolvers
    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver was called")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    _gauss_rule.cache_clear()
    try:
        grid = QuadratureGrid.build(mixed_spec(), nodes_per_piece=257)
    finally:
        _gauss_rule.cache_clear()
    total = sum(grid.integrate(i, np.exp(grid.nodes[i - 1])) for i in (1, 2, 3))
    assert total == pytest.approx(math.e - 1.0 / math.e, rel=1e-13)


def test_largest_rule_passes_its_checks():
    # quad_nodes' ceiling: the degree-8190 exactness check holds at 1e-12
    x, w = _gauss_rule(4096)
    assert x.size == w.size == 4096
    assert abs(float(np.sum(w * x**8190)) - 2.0 / 8191.0) <= 1e-15


def _scaled_weights(x, w):
    return x, 1.01 * w


def _node_outside(x, w):
    return np.concatenate(([-1.5], x[1:])), w


def _nodes_reversed(x, w):
    return x[::-1], w[::-1]


def _negative_weight(x, w):
    return x, np.concatenate(([-w[0]], w[1:]))


def _misplaced_node(x, w):
    return np.concatenate((x[:1] + 1e-3, x[1:])), w


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_scaled_weights, "exactness check failed at degree 0"),
        (_misplaced_node, "exactness check failed at degree 1"),
        (_node_outside, "sanity bounds"),
        (_nodes_reversed, "sanity bounds"),
        (_negative_weight, "sanity bounds"),
    ],
)
def test_corrupted_rule_raises_and_is_not_cached(corrupt, message, monkeypatch):
    # the reference rule is checked once per node count, when it is first built
    good = hilbert._legendre_rule
    monkeypatch.setattr(hilbert, "_legendre_rule", lambda n: corrupt(*good(n)))
    _gauss_rule.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(NumericalError, match=message):
                QuadratureGrid.build(mixed_spec(), nodes_per_piece=11)
    finally:
        _gauss_rule.cache_clear()


def test_each_build_checks_its_map_onto_the_pieces(monkeypatch):
    # a reversed piece maps the ascending rule outside it, with negative weights
    monkeypatch.setattr(hilbert, "piece_bounds", lambda spec, i: (0.5, -0.5))
    with pytest.raises(NumericalError, match="sanity bounds on piece 1"):
        QuadratureGrid.build(mixed_spec(), nodes_per_piece=11)


def test_grid_refinement_doubles_nodes():
    spec = mixed_spec()
    grid = QuadratureGrid.build(spec, nodes_per_piece=8)
    fine = QuadratureGrid.build(spec, 2 * grid.nodes_per_piece)
    for i in (1, 2, 3):
        assert fine.nodes[i - 1].size == 16
        assert np.sum(fine.weights[i - 1]) == pytest.approx(
            np.sum(grid.weights[i - 1]), rel=1e-14
        )
    assert not grid.same_nodes(fine)


# ---------------------------------------------------------------------------
# inner product


def test_inner_product_scalar_component_only():
    spec = baseline_spec()  # unit jump constants, rho = 1
    grid = QuadratureGrid.build(spec, nodes_per_piece=16)
    F = _const_element(spec, grid, 0.0, f1=1.0)
    assert inner_product(spec, F, F) == pytest.approx(1.0, abs=1e-15)


def test_inner_product_of_unit_constant():
    spec = baseline_spec()
    grid = QuadratureGrid.build(spec, nodes_per_piece=16)
    F = _const_element(spec, grid, 1.0, f1=0.0)
    assert inner_product(spec, F, F) == pytest.approx(2.0, rel=1e-14)


def test_inner_product_is_exactly_symmetric():
    # m3/rho != 1 on both specs: the scalar-coordinate term must not depend on the order
    for spec in (mixed_spec(), airy_spec()):
        F = sample_domain_element(spec, seed=3)
        G = sample_domain_element(spec, seed=4)
        assert inner_product(spec, F, G) == inner_product(spec, G, F)
        grid = QuadratureGrid.build(spec)
        F = sample_domain_element(spec, range(0, 200, 2), grid)
        G = sample_domain_element(spec, range(1, 200, 2), grid)
        assert np.array_equal(inner_product(spec, F, G), inner_product(spec, G, F))


def test_inner_product_rejects_mismatched_grids():
    spec = baseline_spec()
    F = sample_domain_element(spec, 1, grid=QuadratureGrid.build(spec, nodes_per_piece=16))
    G = sample_domain_element(spec, 1, grid=QuadratureGrid.build(spec, nodes_per_piece=24))
    with pytest.raises(ValueError, match="grid"):
        inner_product(spec, F, G)


def test_norm_positive_on_nonzero_elements():
    for spec in (baseline_spec(), steep_spec(), mixed_spec()):
        assert spec.is_definite
        for seed in range(5):
            F = sample_domain_element(spec, seed)
            assert norm(spec, F) > 0.0


# ---------------------------------------------------------------------------
# right-end boundary forms


def test_boundary_form_substitution():
    spec = baseline_spec()  # beta = (0, 1), beta' = (1, 0)
    grid = QuadratureGrid.build(spec, nodes_per_piece=8)
    F = _const_element(spec, grid, 0.0)
    F = HilbertElement(
        grid=grid, values=F.values, f1=0.0, deriv2=F.deriv2,
        ends=BoundaryData(left=State(0, 0), h1_minus=State(0, 0), h1_plus=State(0, 0),
                          h2_minus=State(0, 0), h2_plus=State(0, 0), right=State(5.0, 3.0)),
    )
    assert spec.right_form(0.0, *F.ends.right) == -3.0
    assert spec.f1_coupling(*F.ends.right) == 5.0


def test_boundary_form_pairing_identity_exact():
    # R1'(f) R1(g) - R1(f) R1'(g) = -rho * W(f, g; 1), exact on integer data
    spec = baseline_spec()
    grid = QuadratureGrid.build(spec, nodes_per_piece=8)

    def with_right(u, v):
        base = _const_element(spec, grid, 0.0)
        ends = BoundaryData(left=State(0, 0), h1_minus=State(0, 0), h1_plus=State(0, 0),
                            h2_minus=State(0, 0), h2_plus=State(0, 0), right=State(u, v))
        return HilbertElement(grid=grid, values=base.values, f1=0.0, ends=ends)

    F, G = with_right(5.0, 3.0), with_right(2.0, 7.0)
    lhs = (spec.f1_coupling(*F.ends.right) * spec.right_form(0.0, *G.ends.right)
           - spec.right_form(0.0, *F.ends.right) * spec.f1_coupling(*G.ends.right))
    wr = F.ends.right.u * G.ends.right.v - F.ends.right.v * G.ends.right.u
    assert lhs == -spec.rho * wr == -29.0


def test_boundary_form_requires_end_data():
    spec = baseline_spec()
    zeros = tuple(np.zeros(8) for _ in range(3))
    F = HilbertElement(grid=QuadratureGrid.build(spec, nodes_per_piece=8),
                       values=zeros, f1=0.0, deriv2=zeros)
    with pytest.raises(ValueError, match="boundary"):
        apply_operator(spec, F)
    with pytest.raises(ValueError, match="boundary"):
        domain_residuals(spec, F)


# ---------------------------------------------------------------------------
# operator action


def test_operator_on_constant():
    spec = build_spec(alpha=math.pi / 2, beta=(2.0, 1.0), beta_prime=(1.0, 0.0))
    grid = QuadratureGrid.build(spec, nodes_per_piece=12)
    F = _const_element(spec, grid, 1.5)
    res = domain_residuals(spec, F)
    assert max(res.values()) <= 1e-15  # cos(pi/2) is not exactly zero in floats
    AF = apply_operator(spec, F)
    assert all(np.max(np.abs(v)) == 0.0 for v in AF.values)
    assert AF.f1 == pytest.approx(-2.0 * 1.5, abs=1e-15)


def test_operator_on_parabola():
    spec = baseline_spec()
    grid = QuadratureGrid.build(spec, nodes_per_piece=12)
    values = tuple(x * x for x in grid.nodes)
    deriv2 = tuple(np.full_like(x, 2.0) for x in grid.nodes)
    ends = BoundaryData(left=State(1.0, -2.0), h1_minus=State(1 / 9, -2 / 3),
                        h1_plus=State(1 / 9, -2 / 3), h2_minus=State(1 / 9, 2 / 3),
                        h2_plus=State(1 / 9, 2 / 3), right=State(1.0, 2.0))
    F = HilbertElement(grid=grid, values=values, f1=1.0, deriv2=deriv2, ends=ends)
    AF = apply_operator(spec, F)
    for v in AF.values:
        assert np.max(np.abs(v + 2.0)) <= 1e-15


def test_operator_requires_second_derivatives():
    spec = baseline_spec()
    grid = QuadratureGrid.build(spec, nodes_per_piece=8)
    F = HilbertElement(grid=grid, values=tuple(np.zeros(8) for _ in range(3)), f1=0.0)
    with pytest.raises(ValueError, match="second"):
        apply_operator(spec, F)


def test_eigenpairs_satisfy_operator_relation():
    for spec in (baseline_spec(), mixed_spec()):
        recs = locate_eigenvalues(spec, 3).records
        for rec in recs:
            ef = eigenfunction(spec, rec, samples_per_piece=4)
            F = ef.element
            AF = apply_operator(spec, F)
            diff = _diff_element(AF, F, lam=rec.lambda_n)
            assert norm(spec, diff) <= 1e-6, (rec.n, rec.lambda_n)


# ---------------------------------------------------------------------------
# constructed domain elements


def test_sample_element_satisfies_domain_conditions():
    for spec in (baseline_spec(), steep_spec(), mixed_spec()):
        for seed in (0, 7, 123):
            F = sample_domain_element(spec, seed)
            res = domain_residuals(spec, F)
            assert max(res.values()) <= 1e-12, (seed, res)


def test_sample_element_scalar_coordinate_is_exact():
    spec = mixed_spec()
    F = sample_domain_element(spec, 11)
    assert F.f1 == spec.f1_coupling(*F.ends.right)


def test_sample_elements_differ_across_seeds():
    spec = baseline_spec()
    F = sample_domain_element(spec, 1)
    G = sample_domain_element(spec, 2)
    assert norm(spec, _diff_element(F, G)) > 1e-3


def test_sample_element_deterministic_and_grid_independent():
    spec = mixed_spec()
    a = sample_domain_element(spec, 5)
    b = sample_domain_element(spec, 5)
    for pa, pb in zip(a.values, b.values):
        assert np.array_equal(pa, pb)
    coarse = sample_domain_element(spec, 5, grid=QuadratureGrid.build(spec, nodes_per_piece=10))
    for name in ("left", "h1_minus", "h1_plus", "h2_minus", "h2_plus", "right"):
        xa, xb = getattr(a.ends, name), getattr(coarse.ends, name)
        assert (xa.u, xa.v) == (xb.u, xb.v)


def test_sample_element_derivative_data_consistent():
    # stored second derivatives agree with twice-differenced values to
    # discretization order
    spec = baseline_spec()
    F = sample_domain_element(spec, 9)
    for x, u, d2u in zip(F.grid.nodes, F.values, F.deriv2):
        approx = np.gradient(np.gradient(u, x, edge_order=2), x, edge_order=2)
        scale = 1.0 + np.max(np.abs(d2u))
        assert np.max(np.abs(approx - d2u)[6:-6]) <= 5e-2 * scale


# ---------------------------------------------------------------------------
# symmetry of the operator


def test_symmetry_residual_vanishes_for_equal_arguments():
    spec = mixed_spec()
    F = sample_domain_element(spec, 21)
    assert symmetry_residual(spec, F, F) == 0.0


def test_symmetry_residual_small_for_seeded_pairs():
    for spec in (baseline_spec(), mixed_spec()):
        grid = QuadratureGrid.build(spec)
        for seed in range(6):
            F = sample_domain_element(spec, 2 * seed, grid=grid)
            G = sample_domain_element(spec, 2 * seed + 1, grid=grid)
            AF, AG = apply_operator(spec, F), apply_operator(spec, G)
            scale = 1.0 + norm(spec, AF) * norm(spec, G) + norm(spec, F) * norm(spec, AG)
            assert symmetry_residual(spec, F, G) <= 1e-7 * scale


def test_symmetry_residual_shrinks_under_grid_refinement():
    spec = baseline_spec()
    coarse = QuadratureGrid.build(spec, nodes_per_piece=6)
    fine = QuadratureGrid.build(spec, 2 * coarse.nodes_per_piece)
    worst_ratio = 0.0
    for seed in (31, 32, 33):
        Fc = sample_domain_element(spec, seed, grid=coarse)
        Gc = sample_domain_element(spec, seed + 100, grid=coarse)
        Ff = sample_domain_element(spec, seed, grid=fine)
        Gf = sample_domain_element(spec, seed + 100, grid=fine)
        rc = symmetry_residual(spec, Fc, Gc)
        rf = symmetry_residual(spec, Ff, Gf)
        assert rc > 1e-12  # coarse grid is genuinely under-resolved
        worst_ratio = max(worst_ratio, rf / rc)
    assert worst_ratio <= 0.25


def test_greens_identity_sides_agree():
    # the two-sided identity holds for smooth data even when the interface
    # conditions are violated, so check it under a *different* jump spec too
    spec = baseline_spec()
    other = build_spec(gamma=(2.0, 1.0, 1.0, 1.0))
    F = sample_domain_element(spec, 41)
    G = sample_domain_element(spec, 42)
    for target in (spec, other):
        lhs, rhs = greens_identity_sides(target, F, G)
        assert lhs == pytest.approx(rhs, abs=1e-9 * (1.0 + abs(lhs) + abs(rhs)))
    # and the violated domain conditions are visible to the residual check
    assert domain_residuals(other, F)["h1_value"] > 1e-3


# ---------------------------------------------------------------------------
# interface Wronskian relations


def test_interface_wronskian_relations_hold():
    for spec in (baseline_spec(), mixed_spec()):
        for seed in (1, 2, 5, 8):
            F = sample_domain_element(spec, seed)
            G = sample_domain_element(spec, seed + 50)
            r_h1, r_h2, r_left = interface_wronskian_residuals(spec, F, G)
            assert r_h1 <= 1e-10
            assert r_h2 <= 1e-10
            assert r_left <= 1e-10


def test_wronskian_continuous_for_unit_ratios():
    spec = baseline_spec()
    F = sample_domain_element(spec, 61)
    G = sample_domain_element(spec, 62)
    ef, eg = F.ends, G.ends
    w_in = ef.h1_minus.u * eg.h1_minus.v - ef.h1_minus.v * eg.h1_minus.u
    w_out = ef.h1_plus.u * eg.h1_plus.v - ef.h1_plus.v * eg.h1_plus.u
    assert w_in == pytest.approx(w_out, rel=1e-14)


def test_scaled_jump_constant_breaks_the_relation():
    # same element data, mismatched spec: the h1 identity must fail
    spec = baseline_spec()
    F = sample_domain_element(spec, 71)
    G = sample_domain_element(spec, 72)
    bad = build_spec(gamma=(2.0, 1.0, 1.0, 1.0))
    r_h1, _, _ = interface_wronskian_residuals(bad, F, G)
    assert r_h1 > 1e-6


def test_wronskian_relations_require_end_data():
    spec = baseline_spec()
    grid = QuadratureGrid.build(spec, nodes_per_piece=8)
    F = HilbertElement(grid=grid, values=tuple(np.zeros(8) for _ in range(3)), f1=0.0)
    with pytest.raises(ValueError, match="boundary"):
        interface_wronskian_residuals(spec, F, F)


# ---------------------------------------------------------------------------
# stacked elements


_STACK_SPECS = ["s0", "case1", "indefinite", "mixed_spec", "airy_spec"]


def _named_spec(name):
    builders = {"mixed_spec": mixed_spec, "airy_spec": airy_spec}
    if name in builders:
        return builders[name]()
    return load_config(CONFIG_DIR / f"{name}.json")


def _assert_same_element(got, want):
    for field in ("values", "deriv2"):
        a, b = getattr(got, field), getattr(want, field)
        assert (a is None) == (b is None), field
        for x, y in zip(a or (), b or ()):
            assert np.array_equal(x, y), field
    assert got.f1 == want.f1 and type(got.f1) is float
    assert (got.ends is None) == (want.ends is None)
    if want.ends is not None:
        assert got.ends == want.ends and type(got.ends.right.u) is float


@pytest.mark.parametrize("name", _STACK_SPECS)
def test_stacked_samples_repeat_single_seeds_bit_for_bit(name):
    spec = _named_spec(name)
    grid = QuadratureGrid.build(spec)
    seeds = [0, 7, 1, 51, 123, 2**40]
    stack = sample_domain_element(spec, seeds, grid=grid)
    assert stack.values[0].shape == (len(seeds), grid.nodes_per_piece)
    assert stack.f1.shape == (len(seeds),) and stack.ends.left.u.shape == (len(seeds),)
    rows = stack.rows()
    assert len(rows) == len(seeds)
    for seed, row in zip(seeds, rows):
        _assert_same_element(row, sample_domain_element(spec, seed, grid=grid))
    # a stack of one is still a stack
    (one,) = sample_domain_element(spec, [7], grid=grid).rows()
    _assert_same_element(one, sample_domain_element(spec, 7, grid=grid))


@pytest.mark.parametrize("name", _STACK_SPECS)
def test_stacked_operations_repeat_row_calls_bit_for_bit(name):
    spec = _named_spec(name)
    grid = QuadratureGrid.build(spec)
    F = sample_domain_element(spec, range(0, 12, 2), grid=grid)
    G = sample_domain_element(spec, range(1, 12, 2), grid=grid)
    AF, AG = apply_operator(spec, F), apply_operator(spec, G)
    ip = inner_product(spec, F, G)
    ip_one = inner_product(spec, F, G.rows()[2])  # a stack against a single element
    sym = symmetry_residual(spec, F, G, AF, AG)
    sym_own = symmetry_residual(spec, F, G)
    iw = interface_wronskian_residuals(spec, F, G)
    nrm = norm(spec, F) if spec.is_definite else None
    for j, (f, g, af) in enumerate(zip(F.rows(), G.rows(), AF.rows())):
        _assert_same_element(af, apply_operator(spec, f))
        assert ip[j] == inner_product(spec, f, g)
        assert ip_one[j] == inner_product(spec, f, G.rows()[2])
        assert sym[j] == sym_own[j] == symmetry_residual(spec, f, g)
        assert tuple(r[j] for r in iw) == interface_wronskian_residuals(spec, f, g)
        if nrm is not None:
            assert nrm[j] == norm(spec, f)


#: seeds 0-11, then 51-54: the symmetry stage's seeds of the verify command,
#: then the partners of seeds 1-4 in its interface stage, as one mixed stack
_MIXED_SEEDS = (*range(12), 51, 52, 53, 54)


@pytest.mark.parametrize("name", _STACK_SPECS)
def test_seed_end_data_do_not_depend_on_grid_or_stack(name):
    # seeds 1-4 and 51-54 as 4-seed stacks on the 2-node grid, and as rows of
    # the 16-seed stack on the default grid: the same end states and residuals
    spec = _named_spec(name)
    small = QuadratureGrid.build(spec, 2)
    F = sample_domain_element(spec, (1, 2, 3, 4), grid=small)
    G = sample_domain_element(spec, (51, 52, 53, 54), grid=small)
    big = sample_domain_element(spec, _MIXED_SEEDS, grid=QuadratureGrid.build(spec))
    BF, BG = big.take(slice(1, 5)), big.take(slice(12, 16))
    for want, got in ((F, BF), (G, BG)):
        for field, st in vars(want.ends).items():
            got_st = getattr(got.ends, field)
            assert np.array_equal(got_st.u, st.u) and np.array_equal(got_st.v, st.v), field
        assert np.array_equal(got.f1, want.f1)
    want = interface_wronskian_residuals(spec, F, G)
    got = interface_wronskian_residuals(spec, BF, BG)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("name", _STACK_SPECS)
def test_taken_rows_repeat_their_own_stack_bit_for_bit(name):
    # the even and odd rows of seeds 0-11, taken from one stack after the
    # operator and the norm, against two stacks of six
    spec = _named_spec(name)
    grid = QuadratureGrid.build(spec)
    S = sample_domain_element(spec, _MIXED_SEEDS, grid=grid).take(slice(0, 12))
    AS = apply_operator(spec, S)
    for j in (0, 1):
        F = sample_domain_element(spec, range(j, 12, 2), grid=grid)
        _assert_same_stack(S.take(slice(j, 12, 2)), F)
        _assert_same_stack(AS.take(slice(j, 12, 2)), apply_operator(spec, F))
        if spec.is_definite:
            assert np.array_equal(norm(spec, S)[j::2], norm(spec, F))
            assert np.array_equal(norm(spec, AS)[j::2], norm(spec, apply_operator(spec, F)))


def _assert_same_stack(got, want):
    for a, b in zip(got.rows(), want.rows()):
        _assert_same_element(a, b)


def test_seeded_draw_is_the_generator_sequence():
    # uniform draws, with the sign drawn as random() < 0.5 between the
    # amplitude and the bump coefficients
    for seed in (*range(300), 2**40):
        rng = random.Random(seed)
        freq, amp = rng.uniform(3.0, 6.0), rng.uniform(0.5, 1.5)
        sign = -1.0 if rng.random() < 0.5 else 1.0
        want = [freq, amp * sign, *(rng.uniform(-0.8, 0.8) for _ in range(3)),
                *(rng.uniform(-1.5, 1.5) for _ in range(4))]
        assert _draw(seed) == want, seed


def test_negative_seeds_are_refused():
    # random.Random would seed -1 as 1; one negative seed refuses a whole stack
    spec = mixed_spec()
    grid = QuadratureGrid.build(spec, nodes_per_piece=8)
    for seed in (-1, (0, 1, -2, 3)):
        with pytest.raises(ValueError, match="non-negative"):
            sample_domain_element(spec, seed, grid=grid)
    with pytest.raises(ValueError, match="non-negative"):
        _draw(-1)


@pytest.mark.parametrize(
    "seed, message",
    [
        (1.9, "seed must be an integer"),
        (True, "seed must be an integer"),
        ("7", "seed must be an integer"),
        ((0, 1.5), "seed must be an integer"),
        ([], "seed: the stack of seeds is empty"),
    ],
)
def test_seeds_that_are_not_integers_are_refused(seed, message):
    # int() would draw 1.9 and True as seed 1 and "7" as seed 7
    spec = baseline_spec()
    grid = QuadratureGrid.build(spec, nodes_per_piece=8)
    with pytest.raises(ValueError, match=message):
        sample_domain_element(spec, seed, grid=grid)


def test_seed_table_is_the_draws_read_only_and_drawn_once():
    seeds = (*range(12), 51, 52, 53, 54)
    table = _seed_table(seeds)
    assert table.shape == (16, 9)
    assert table.tobytes() == np.array([_draw(k) for k in seeds]).tobytes()
    assert _seed_table(seeds) is table
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    # any sequence of the same integer seeds, and a single seed, read one table each
    _seed_table.cache_clear()
    spec = mixed_spec()
    grid = QuadratureGrid.build(spec, nodes_per_piece=8)
    for seeds in (range(3), [0, 1, 2], np.arange(3), (np.int64(0), 1, 2)):
        sample_domain_element(spec, seeds, grid=grid)
    for seed in (5, np.int64(5)):
        sample_domain_element(spec, seed, grid=grid)
    info = _seed_table.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_int_seed_gives_floats():
    spec = mixed_spec()
    F, G = sample_domain_element(spec, 3), sample_domain_element(spec, 4)
    assert type(F.f1) is float
    assert all(type(st.u) is float and type(st.v) is float for st in vars(F.ends).values())
    assert F.values[0].ndim == 1
    assert type(apply_operator(spec, F).f1) is float
    for out in (inner_product(spec, F, G), norm(spec, F), symmetry_residual(spec, F, G),
                *interface_wronskian_residuals(spec, F, G)):
        assert type(out) is float


def test_norm_rejects_negative_forms():
    spec = indefinite_spec()
    F = sample_domain_element(spec, range(8))
    grams = inner_product(spec, F, F)
    assert np.any(grams < 0.0)
    with pytest.raises(ValueError, match="indefinite"):
        norm(spec, F)
    with pytest.raises(ValueError, match="indefinite"):
        norm(spec, F.rows()[int(np.argmin(grams))])
