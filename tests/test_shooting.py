"""Integration engine: launches, jumps, closed-form checks, Wronskians."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CONFIG_DIR,
    airy_spec,
    baseline_spec,
    build_spec,
    mixed_spec,
    random_spec,
    steep_spec,
)
from oracles import airy_left, step_states, transfer_char
from sl2t.problem import (
    NumericalError, ProblemSpec, SolverConfig, load_config, piece_bounds,
)
from sl2t.shooting import (
    PiecewiseSolution,
    PieceTrajectory,
    State,
    build_left,
    build_right,
    left_terminal_batch,
    piece_mesh,
    wronskian,
)
from sl2t.charfn import _piece_wronskians, char_batch, char_grid
from sl2t import shooting, spectrum as sl2t_spectrum
from sl2t.shooting import _BLOCK, BoundaryData, _carry, _gauss_q, _legs, _step, _Sweep
from sl2t.spectrum import locate_eigenvalues


# ---------------------------------------------------------------------------
# single-piece integration against closed forms


def carry_piece(spec, lam, piece, init, leftward=False):
    """``_carry`` of ``init`` across the whole mesh of ``piece``, for one ``lam``.

    Returns the exit state and the piece's trajectory on ascending nodes.
    """
    xs = piece_mesh(spec, piece)
    order = -1 if leftward else 1
    u0, v0 = (np.array([float(s)]) for s in init)
    sweep = _Sweep.along(spec, [(piece, xs)], leftward)
    leg = sweep.legs[0]
    (u, v), (us, vs) = _carry(leg, sweep.blocks(np.array([lam])), u0, v0, nodes=True)
    traj = PieceTrajectory(
        piece=piece, lam=lam, xs=xs, us=us[::order, 0], vs=vs[::order, 0],
        coeffs=spec.q[piece - 1], w2=spec.omega[piece - 1] ** 2,
    )
    return State(u.item(), v.item()), traj


def test_free_oscillation_matches_sine():
    # u'' = -4u, u(-1) = 0, u'(-1) = 1  ->  u = sin(2(x+1))/2
    spec = baseline_spec()
    end, traj = carry_piece(spec, 4.0, 1, State(0.0, 1.0))
    width = spec.h1 + 1.0
    assert end.u == pytest.approx(math.sin(2.0 * width) / 2.0, abs=1e-11)
    assert end.v == pytest.approx(math.cos(2.0 * width), abs=1e-11)
    xs = np.linspace(-1.0, spec.h1, 17)
    u, v = traj.eval(xs)
    assert np.max(np.abs(u - np.sin(2.0 * (xs + 1.0)) / 2.0)) < 1e-11
    assert np.max(np.abs(v - np.cos(2.0 * (xs + 1.0)))) < 1e-11


def test_lambda_zero_keeps_constants():
    spec = baseline_spec()
    end, _ = carry_piece(spec, 0.0, 1, State(1.0, 0.0))
    assert end.u == pytest.approx(1.0, abs=1e-14)
    assert end.v == pytest.approx(0.0, abs=1e-14)


def test_negative_lambda_grows_exponentially():
    # u'' = u with u(-1) = u'(-1) = 1  ->  u = exp(x+1)
    spec = baseline_spec()
    end, _ = carry_piece(spec, -1.0, 1, State(1.0, 1.0))
    assert end.u == pytest.approx(math.exp(spec.h1 + 1.0), rel=1e-11)
    assert end.v == pytest.approx(math.exp(spec.h1 + 1.0), rel=1e-11)


def test_potential_enters_the_equation():
    # constant q = 5, lam = 1, w = 1: u'' = 4u on piece 2
    spec = build_spec(q=[[0.0], [5.0], [0.0]])
    end, _ = carry_piece(spec, 1.0, 2, State(1.0, 2.0))
    width = spec.h2 - spec.h1
    expected_u = math.cosh(2.0 * width) + math.sinh(2.0 * width)
    assert end.u == pytest.approx(expected_u, rel=1e-11)


def test_reversibility_returns_to_start():
    spec = mixed_spec()
    init = State(0.7, -0.4)
    fwd, _ = carry_piece(spec, 7.3, 2, init)
    back, _ = carry_piece(spec, 7.3, 2, fwd, leftward=True)
    tol = 10.0 * spec.solver.rk_tol
    assert abs(back.u - init.u) <= tol * (1.0 + abs(init.u))
    assert abs(back.v - init.v) <= tol * (1.0 + abs(init.v))


def test_linearity_of_the_flow():
    spec = mixed_spec()
    lam = 11.0
    t1, _ = carry_piece(spec, lam, 1, State(1.0, 0.0))
    t2, _ = carry_piece(spec, lam, 1, State(0.0, 1.0))
    c1, c2 = 1.7, -0.3
    t12, _ = carry_piece(spec, lam, 1, State(c1, c2))
    assert t12.u == pytest.approx(c1 * t1.u + c2 * t2.u, abs=1e-10)
    assert t12.v == pytest.approx(c1 * t1.v + c2 * t2.v, abs=1e-10)


def test_endpoints_validated():
    # the spectral parameter a build launches with must be finite
    spec = baseline_spec()
    for build in (build_left, build_right):
        with pytest.raises(ValueError, match="finite"):
            build(spec, math.nan)


def test_trajectory_query_range_enforced():
    spec = baseline_spec()
    traj = build_left(spec, 2.0).pieces[1]
    with pytest.raises(ValueError, match="outside"):
        traj.eval(0.9)


# ---------------------------------------------------------------------------
# assembled solutions


def test_left_launch_is_exact():
    spec = mixed_spec()
    sol = build_left(spec, 3.0)
    assert sol.ends.left.u == math.sin(spec.alpha)
    assert sol.ends.left.v == -math.cos(spec.alpha)
    assert math.cos(spec.alpha) * sol.ends.left.u + math.sin(spec.alpha) * sol.ends.left.v == pytest.approx(0.0, abs=1e-16)


def test_right_launch_satisfies_its_condition_identically():
    for spec in (baseline_spec(), steep_spec(), mixed_spec()):
        for lam in (-3.0, 0.0, 2.5, 40.0):
            sol = build_right(spec, lam)
            b1, b2 = spec.beta
            b1p, b2p = spec.beta_prime
            u, v = sol.ends.right.u, sol.ends.right.v
            resid = lam * (b1p * u - b2p * v) + (b1 * u - b2 * v)
            assert abs(resid) <= 1e-15 * (1.0 + abs(lam)) * (1.0 + abs(u) + abs(v))


def test_left_solution_matches_global_closed_form():
    # baseline: phi = -sin(mu(x+1))/mu, here mu = 2
    spec = baseline_spec()
    sol = build_left(spec, 4.0)
    assert sol.ends.right.u == pytest.approx(-math.sin(4.0) / 2.0, abs=1e-10)
    assert sol.ends.right.v == pytest.approx(-math.cos(4.0), abs=1e-10)
    xs = np.linspace(-1.0, 1.0, 41)
    u, _ = sol.eval(xs)
    assert np.max(np.abs(u + np.sin(2.0 * (xs + 1.0)) / 2.0)) < 1e-10


def test_interior_values_match_airy_functions():
    # linear q: Magnus mesh nodes plus one partial step to each query point
    spec = airy_spec()
    points = [np.linspace(a, b, 7)[1:-1] for a, b in zip(spec.breakpoints, spec.breakpoints[1:])]
    for lam in (-7.5, 30.0, 4e4):
        sol = build_left(spec, lam)
        (u1, v1), inside = airy_left(spec, lam, points)
        size = max(abs(u1), abs(v1) / max(1.0, math.sqrt(abs(lam))), 1.0)
        for piece, xs, want in zip(sol.pieces, points, inside):
            u, v = piece.eval(xs)
            want_u, want_v = np.array(want).T
            assert np.max(np.abs(u - want_u)) <= 1e-10 * size
            assert np.max(np.abs(v - want_v)) <= 1e-10 * size * max(1.0, math.sqrt(abs(lam)))


def test_right_solution_matches_global_closed_form():
    # baseline at lam = 1: chi = cos(1-x) - sin(1-x)
    spec = baseline_spec()
    sol = build_right(spec, 1.0)
    assert sol.ends.right.u == 1.0
    assert sol.ends.right.v == 1.0
    assert sol.ends.left.u == pytest.approx(math.cos(2.0) - math.sin(2.0), abs=1e-10)
    xs = np.linspace(-1.0, 1.0, 41)
    u, _ = sol.eval(xs)
    assert np.max(np.abs(u - (np.cos(1.0 - xs) - np.sin(1.0 - xs)))) < 1e-10


def test_unit_jumps_leave_anchors_continuous():
    spec = baseline_spec()
    for sol in (build_left(spec, 5.0), build_right(spec, 5.0)):
        assert sol.ends.h1_minus == sol.ends.h1_plus
        assert sol.ends.h2_minus == sol.ends.h2_plus


def test_jump_conditions_hold_at_interfaces():
    spec = mixed_spec()
    for builder in (build_left, build_right):
        sol = builder(spec, 6.0)
        g, d = spec.gamma, spec.delta
        scale = max(abs(sol.ends.h1_minus.u), abs(sol.ends.h1_plus.u), 1.0)
        assert abs(g[0] * sol.ends.h1_minus.u - d[0] * sol.ends.h1_plus.u) <= 1e-14 * scale
        assert abs(g[1] * sol.ends.h1_minus.v - d[1] * sol.ends.h1_plus.v) <= 1e-14 * scale
        assert abs(g[2] * sol.ends.h2_minus.u - d[2] * sol.ends.h2_plus.u) <= 1e-14 * scale
        assert abs(g[3] * sol.ends.h2_minus.v - d[3] * sol.ends.h2_plus.v) <= 1e-14 * scale


def test_interface_queries_need_a_side_for_jumpy_problems():
    spec = mixed_spec()
    sol = build_left(spec, 2.0)
    with pytest.raises(ValueError, match="side"):
        sol.state(spec.h1)
    assert sol.state(spec.h1, side="left") == sol.ends.h1_minus
    assert sol.state(spec.h1, side="right") == sol.ends.h1_plus


def test_trajectories_expose_ascending_nodes():
    spec = baseline_spec()
    sol = build_right(spec, 30.0)
    for traj in sol.pieces:
        xs = traj.xs
        assert np.all(np.diff(xs) > 0.0)
        assert traj.n_steps >= 1


# ---------------------------------------------------------------------------
# Wronskians


def test_wronskian_of_solution_with_itself_vanishes():
    spec = mixed_spec()
    sol = build_left(spec, 9.0)
    for x in (-1.0, -0.5, 0.5, 1.0):
        assert wronskian(sol, sol, x) == 0.0


def test_wronskian_antisymmetry():
    spec = mixed_spec()
    f = build_left(spec, 9.0)
    g = build_right(spec, 9.0)
    for x in (-0.8, 0.0, 0.9):
        assert wronskian(f, g, x) == -wronskian(g, f, x)


def test_wronskian_constant_within_each_piece():
    spec = baseline_spec()
    f = build_left(spec, 17.0)
    g = build_right(spec, 17.0)
    for piece in (1, 2, 3):
        a, b = (-1.0, spec.h1) if piece == 1 else ((spec.h1, spec.h2) if piece == 2 else (spec.h2, 1.0))
        xs = np.linspace(a + 1e-6, b - 1e-6, 25)
        vals = [wronskian(f, g, float(x)) for x in xs]
        spread = max(vals) - min(vals)
        assert spread <= 1e-9 * (1.0 + abs(vals[0]))


def test_wronskian_rejects_mismatched_lambda():
    spec = baseline_spec()
    f = build_left(spec, 1.0)
    g = build_right(spec, 2.0)
    with pytest.raises(ValueError, match="mismatched"):
        wronskian(f, g, 0.0)


# ---------------------------------------------------------------------------
# agreement with exact constant-coefficient propagation


def test_left_terminal_matches_transfer_oracle_on_random_problems():
    rng = np.random.default_rng(42)
    for _ in range(15):
        spec = random_spec(rng, constant_q=True)
        lam = float(rng.uniform(-5.0, 60.0))
        sol = build_left(spec, lam)
        b1, b2 = spec.beta
        b1p, b2p = spec.beta_prime
        d3 = (b1p * lam + b1) * sol.ends.right.u - (b2p * lam + b2) * sol.ends.right.v
        expected = transfer_char(spec, lam)
        assert spec.m3 * d3 == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_batched_terminals_agree_with_single_builds():
    rng = np.random.default_rng(3)
    for _ in range(5):
        spec = random_spec(rng, constant_q=False)
        lams = np.sort(rng.uniform(-10.0, 80.0, size=7))
        u, v = left_terminal_batch(spec, lams)
        for j, lam in enumerate(lams):
            sol = build_left(spec, float(lam))
            scale = 1.0 + max(abs(sol.ends.right.u), abs(sol.ends.right.v))
            assert abs(u[j] - sol.ends.right.u) <= 1e-9 * scale
            assert abs(v[j] - sol.ends.right.v) <= 1e-9 * scale


@pytest.mark.parametrize("kind", ["left", "right"])
def test_batched_anchor_states_agree_with_single_builds(kind):
    build = build_left if kind == "left" else build_right
    lams = np.array([-50.0, -3.0, 0.0, 7.5, 300.0, 4e4])
    for spec in (random_spec(np.random.default_rng(8)), airy_spec()):
        ends = build(spec, lams).ends
        for j, lam in enumerate(lams):
            sol = build(spec, float(lam))
            for name, want in vars(sol.ends).items():
                got = getattr(ends, name)
                assert (got.u[j], got.v[j]) == (want.u, want.v), (lam, name)


@pytest.mark.parametrize(
    "make",
    [airy_spec, mixed_spec, lambda: random_spec(np.random.default_rng(5), constant_q=False)],
    ids=["airy_spec", "mixed_spec", "polynomial_q"],
)
def test_dense_builds_end_where_the_scan_does(make):
    # the build and the scan cross each piece with one carry
    spec = make()
    lams = np.array([-50.0, -3.0, 0.0, 7.5, 300.0, 4e4])
    u, v = left_terminal_batch(spec, lams)
    right = build_left(spec, lams).ends.right
    assert np.array_equal(right.u, u) and np.array_equal(right.v, v)
    for j, lam in enumerate(lams.tolist()):
        assert build_left(spec, lam).ends.right == State(u[j], v[j])


@pytest.mark.parametrize("n_steps", [1, 2, 3, 255, 256, 257, 513])
@pytest.mark.parametrize("forward", [True, False], ids=["rightward", "leftward"])
def test_carry_node_states_follow_the_step_recurrence(n_steps, forward):
    # pairwise products and their down-sweep against one step after another,
    # over odd tails and several blocks
    spec = airy_spec()
    lams = np.array([-50.0, 0.0, 7.5, 300.0])
    a, b = piece_bounds(spec, 2)
    mesh = np.linspace(a, b, n_steps + 1)
    xs = mesh if forward else mesh[::-1]
    init = (np.array([0.3, -1.0, 0.8, 1.2]), np.array([1.0, 0.5, -2.0, 0.0]))
    coeffs, w2 = spec.q[1], spec.omega[1] ** 2
    sweep = _Sweep.along(spec, [(2, mesh)], leftward=not forward)
    (u, v), (us, vs) = _carry(sweep.legs[0], sweep.blocks(lams), *init, nodes=True)
    (u0, v0), none = _carry(sweep.legs[0], sweep.blocks(lams), *init)
    assert none == (None, None) and np.array_equal(u0, u) and np.array_equal(v0, v)
    assert us.shape == vs.shape == (xs.size, lams.size)
    assert np.array_equal(us[0], init[0]) and np.array_equal(vs[0], init[1])
    assert np.array_equal(us[-1], u) and np.array_equal(vs[-1], v)
    for j, lam in enumerate(lams.tolist()):
        x0, h = xs[:-1], np.diff(xs)
        steps = zip(*(m.tolist() for m in _step(*_gauss_q(coeffs, x0, h), w2, lam, h)))
        want_u, want_v = np.array(step_states(steps, init[0][j], init[1][j])).T
        k = 1.0 + math.sqrt(abs(lam) * w2)
        size = np.maximum(np.abs(want_u), np.abs(want_v) / k)
        err = np.maximum(np.abs(us[:, j] - want_u), np.abs(vs[:, j] - want_v) / k)
        assert np.all(err <= 1e-13 * size), (lam, float(np.max(err / size)))


# ---------------------------------------------------------------------------
# the legs: built once per spec, the same arithmetic as steps formed per call


def _per_call_carry(spec, piece, lams, xs, u, v):
    """A carry along ``xs`` that forms ``q`` at the Gauss points and the step
    lengths anew in every call, as each sweep did before the cached legs."""
    coeffs, w2 = spec.q[piece - 1], spec.omega[piece - 1] ** 2
    us, vs = np.empty((2, xs.size, lams.size))
    for j in range(0, xs.size - 1, _BLOCK):
        x = xs[j : j + _BLOCK + 1]
        x0, h = x[:-1, None], np.diff(x)[:, None]
        m = np.stack(_step(*_gauss_q(coeffs, x0, h), w2, lams, h))
        firsts = []
        while m.shape[1] > 1:
            n = m.shape[1]
            e, p = m[:, 0 : n - 1 : 2], m[:, 1::2]
            firsts.append(e)
            pairs = np.stack((
                p[0] * e[0] + p[1] * e[2], p[0] * e[1] + p[1] * e[3],
                p[2] * e[0] + p[3] * e[2], p[2] * e[1] + p[3] * e[3],
            ))
            m = np.concatenate((pairs, m[:, n - n % 2 :]), axis=1)
        bu, bv = us[j : j + _BLOCK], vs[j : j + _BLOCK]
        bu[0], bv[0] = u, v
        for level in reversed(range(len(firsts))):
            a, b, c, d = firsts[level]
            stride, end = 2 << level, len(a) << (level + 1)
            su, sv = bu[0:end:stride], bv[0:end:stride]
            bu[stride // 2 : end : stride] = a * su + b * sv
            bv[stride // 2 : end : stride] = c * su + d * sv
        a, b, c, d = m[:, 0]
        u, v = a * u + b * v, c * u + d * v
    us[-1], vs[-1] = u, v
    return (u, v), (us, vs)


def _per_call_sweep(spec, lams, kind):
    """One sweep with the mesh, the steps and the jumps formed in the call.

    Returns the anchor record and, per piece, the ascending mesh and the
    node states shaped ``(n_lam, n_nodes)``.
    """
    if kind == "left":
        launch, order = spec.left_launch, 1
        legs = ((1, None), (2, lambda u, v: spec.jump(0, u, v)), (3, lambda u, v: spec.jump(1, u, v)))
    else:
        c1, c2 = spec.right_coefficients(lams)
        launch, order = (c2, c1), -1
        legs = (
            (3, None),
            (2, lambda u, v: spec.jump(1, u, v, leftward=True)),
            (1, lambda u, v: spec.jump(0, u, v, leftward=True)),
        )
    u, v = (np.full(lams.size, s) for s in launch)
    anchors, paths = {}, {}
    for piece, jump in legs:
        if jump is not None:
            u, v = jump(u, v)
        entry = State(u, v)
        xs = piece_mesh(spec, piece)
        (u, v), (us, vs) = _per_call_carry(spec, piece, lams, xs[::order], u, v)
        anchors[piece] = (entry, State(u, v))[::order]
        paths[piece] = (xs, us[::order].T, vs[::order].T)
    ends = BoundaryData(*(st for piece in (1, 2, 3) for st in anchors[piece]))
    return ends, [paths[piece] for piece in (1, 2, 3)]


def _same_ends(got, want):
    return all(
        np.array_equal(g.u, w.u) and np.array_equal(g.v, w.v)
        for g, w in zip(vars(got).values(), vars(want).values())
    )


_TABLE_SPECS = pytest.mark.parametrize(
    "make",
    [baseline_spec, mixed_spec, airy_spec,
     lambda: random_spec(np.random.default_rng(21), constant_q=False)],
    ids=["baseline_spec", "mixed_spec", "airy_spec", "polynomial_q"],
)
_TABLE_LAMS = np.array([-120.0, -7.5, 0.0, 3.7, 61.3, 980.0, 4e4])


def _block_steps(sweep):
    """Steps per block, in sweep order: by the legs' meshes, and by the groups' rows."""
    by_legs = [
        min(_BLOCK, leg.mesh.size - 1 - j)
        for leg in sweep.legs for j in range(0, leg.mesh.size - 1, _BLOCK)
    ]
    by_groups = [j - i for cuts in sweep.groups for i, j in zip(cuts, cuts[1:])]
    return by_legs, by_groups


def test_airy_spec_spans_several_blocks_each_way():
    for sweep in _legs(airy_spec()):
        legs = sweep.legs
        assert [leg.mesh.size - 1 for leg in legs] in ([720, 773, 663], [663, 773, 720])
        assert all(math.ceil((leg.mesh.size - 1) / _BLOCK) == 3 + (leg.piece == 2) for leg in legs)
        # no two blocks fit in one group, so the groups are the blocks
        by_legs, _ = _block_steps(sweep)
        ends = np.cumsum([0] + by_legs).tolist()
        assert len(sweep.groups) == 10
        assert list(sweep.groups) == list(zip(ends, ends[1:]))


def test_mesh_past_the_step_cap_is_refused_before_it_is_built():
    # rk_tol = 1e-40 asks for about 7e9 steps on a piece: 60 GB of nodes
    spec = airy_spec(solver=SolverConfig(rk_tol=1e-40))
    with pytest.raises(NumericalError, match="Magnus steps, more than 100000"):
        build_left(spec, 1.0)


def test_mixed_spec_leftward_group_spans_two_pieces():
    spec = mixed_spec()
    rightward, leftward = _legs(spec)
    assert [leg.mesh.size - 1 for leg in leftward.legs] == [785, 366, 1]
    # piece 2's last block of 110 steps and piece 1's single step share one _step call
    last = leftward.groups[-1]
    assert last == (1041, 1151, 1152) and leftward.h.shape == (1152, 1)
    w2 = [spec.omega[1] ** 2] * 110 + [spec.omega[0] ** 2]
    assert leftward.w2[last[0] : last[-1], 0].tolist() == w2
    # rightward, piece 1's step cannot join piece 2's first block of 256
    assert rightward.groups[:2] == ((0, 1), (1, 257))


@_TABLE_SPECS
def test_no_group_exceeds_the_block_bound(make):
    for sweep in _legs(make()):
        by_legs, by_groups = _block_steps(sweep)
        assert by_groups == by_legs
        assert all(0 < cuts[-1] - cuts[0] <= _BLOCK for cuts in sweep.groups)
        # consecutive groups share a boundary, and together they cover every row
        bounds = [cuts[0] for cuts in sweep.groups] + [sweep.groups[-1][-1]]
        assert [cuts[-1] for cuts in sweep.groups] == bounds[1:]
        n_steps = sum(by_legs)
        assert bounds[0] == 0 and bounds[-1] == n_steps
        cols = (sweep.q1, sweep.q2, sweep.w2, sweep.h)
        assert all(col.shape == (n_steps, 1) for col in cols)
        assert not any(col.flags.writeable for col in cols)


def _step_both_branches(q1, q2, w2, lam, h):
    """``_step`` with its matrix formed outside the ``errstate`` block, the oracle."""
    lw = lam * w2
    a1, a2 = q1 - lw, q2 - lw
    m11 = shooting._COMMUTATOR * h * h * (a1 - a2)
    m21 = 0.5 * h * (a1 + a2)
    s2 = m11 * m11 + h * m21
    s = np.sqrt(np.abs(s2))
    grow = s2 >= 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ch = np.where(grow, np.cosh(s), np.cos(s))
        sh = np.where(s > 0.0, np.where(grow, np.sinh(s), np.sin(s)) / s, 1.0)
    # this product warns on an overflowed entry (inf * 0); _step must not
    with np.errstate(invalid="ignore"):
        return ch + sh * m11, sh * h, sh * m21, ch - sh * m11


def _step_batch(kinds):
    """Columns ``(q1, q2, w2, h)`` of steps, one row per entry of ``kinds``, and a ``lam`` row.

    At ``lam = 2``: ``"grow"`` has ``lam w2 < q``, ``"osc"`` ``lam w2 > q``,
    ``"zero"`` ``lam w2 == q`` on a constant ``q`` (``s == 0``), ``"inf"`` a
    ``cosh`` that overflows, ``"poly"`` distinct Gauss-point ``q`` and
    ``"nan"`` a NaN ``q``.
    """
    rows = {
        "grow": (9.0, 9.0, 1.5, 0.4), "osc": (0.0, 0.0, 3.0, 0.7),
        "zero": (3.0, 3.0, 1.5, 0.5), "inf": (4e6, 4e6, 1.0, 1.0),
        "poly": (1.0, 7.5, 2.0, 0.3), "nan": (np.nan, 0.0, 1.0, 0.2),
    }
    q1, q2, w2, h = (np.array(col)[:, None] for col in zip(*(rows[k] for k in kinds)))
    return q1, q2, w2, np.array([2.0]), h


@pytest.mark.parametrize(
    "kinds",
    [("osc",), ("osc", "poly"), ("grow",), ("grow", "inf"), ("zero",), ("osc", "zero"),
     ("grow", "osc"), ("grow", "osc", "zero", "inf", "poly"), ("osc", "nan"),
     ("grow", "nan", "zero", "inf")],
    ids="-".join,
)
def test_step_is_the_oracle_bit_for_bit_without_a_warning(kinds):
    # bit for bit, inf and nan in the same places, and no warning
    args = _step_batch(kinds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _step(*args)
    want = _step_both_branches(*args)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    if "inf" in kinds or "nan" in kinds:
        assert not np.all(np.isfinite(got))
    # a batch of lam against every step, the shape a sweep's group takes
    lams = np.array([-3e6, -2.0, 0.0, 1.5, 2.0, 6.0, 250.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _step(*args[:3], lams, args[4])
    for g, w in zip(got, _step_both_branches(*args[:3], lams, args[4])):
        assert g.tobytes() == w.tobytes()


def test_step_of_scalars_is_the_oracle():
    for q, lam in ((0.0, 3.0), (5.0, 1.0), (2.0, 1.0)):
        got, want = _step(q, q, 2.0, lam, 0.5), _step_both_branches(q, q, 2.0, lam, 0.5)
        assert [float(g) for g in got] == [float(w) for w in want]


def test_query_clamps_and_checks_as_clip_and_all_did():
    # points within _BREAK_TOL past a piece's ends read its end nodes; farther out raises
    spec = mixed_spec()
    sol = build_left(spec, np.array([3.7, 61.3]))
    piece = sol.pieces[1]
    lo, hi = piece.xs[0], piece.xs[-1]
    tol = shooting._BREAK_TOL
    x = np.array([lo - 0.5 * tol, lo, 0.5 * (lo + hi), hi, hi + 0.5 * tol])
    u, v = piece.eval(x)
    xc = np.clip(x, lo, hi)
    k = np.searchsorted(piece.xs, xc, side="right") - 1
    h = xc - piece.xs[k]
    a, b, c, d = _step(*_gauss_q(piece.coeffs, piece.xs[k], h), piece.w2, sol.lam[:, None], h)
    assert np.array_equal(u, a * piece.us[..., k] + b * piece.vs[..., k])
    assert np.array_equal(v, c * piece.us[..., k] + d * piece.vs[..., k])
    assert np.array_equal(u[:, 0], u[:, 1]) and np.array_equal(u[:, 3], u[:, 4])
    for bad in (lo - 2.0 * tol, hi + 2.0 * tol):
        with pytest.raises(ValueError, match="outside"):
            piece.eval(np.array([0.5 * (lo + hi), bad]))
    # an empty query on a piece is an empty result
    assert piece.eval(np.array([]))[0].shape == (2, 0)


def test_query_over_two_solutions_needs_one_lam():
    # the left and right pieces of one build share lam; pieces of another lam are refused
    spec = mixed_spec()
    lams = np.array([3.7, 61.3])
    left, right = build_left(spec, lams), build_right(spec, lams)
    xs = [np.linspace(*piece_bounds(spec, i), 7) for i in (1, 2, 3)]
    got = shooting._query(left.pieces + right.pieces, xs + xs)
    for g, w in zip(got, shooting._query(left.pieces, xs) + shooting._query(right.pieces, xs)):
        assert g[0].tobytes() == w[0].tobytes() and g[1].tobytes() == w[1].tobytes()
    other = build_right(spec, np.array([3.7, 61.4]))
    with pytest.raises(ValueError, match="share lam"):
        shooting._query(left.pieces + other.pieces, xs + xs)


@pytest.fixture
def step_calls(monkeypatch):
    """Counts the calls of ``shooting._step`` from here on."""
    calls = []
    step = shooting._step

    def counted(*args):
        calls.append(args)
        return step(*args)

    monkeypatch.setattr(shooting, "_step", counted)
    return calls


_CONSTANT_Q_SPECS = pytest.mark.parametrize(
    "make",
    [baseline_spec] + [
        lambda name=name: load_config(CONFIG_DIR / f"{name}.json")
        for name in ("s0", "case1", "indefinite")
    ],
    ids=["baseline_spec", "s0", "case1", "indefinite"],
)


@_CONSTANT_Q_SPECS
def test_constant_q_sweep_is_one_step_call(make, step_calls):
    spec = make()
    for sweep in _legs(spec):
        assert sweep.groups == ((0, 1, 2, 3),)
    left_terminal_batch(spec, _TABLE_LAMS)
    assert len(step_calls) == 1
    char_grid(spec, _TABLE_LAMS)
    assert len(step_calls) == 3
    for build in (build_left, build_right):
        for lam in (3.7, _TABLE_LAMS):
            step_calls.clear()
            build(spec, lam)
            assert len(step_calls) == 1
    # the three steps of a sweep, one per piece, each with its own omega^2
    q1, q2, w2, lam, h = step_calls[0]
    assert w2[:, 0].tolist() == [spec.omega[i] ** 2 for i in (2, 1, 0)]


def test_locate_makes_one_step_call_per_characteristic_batch(monkeypatch, step_calls):
    spec = load_config(CONFIG_DIR / "s0.json")
    batches = []
    batch = sl2t_spectrum.char_batch

    def counted(spec, lams):
        batches.append(np.size(lams))
        return batch(spec, lams)

    monkeypatch.setattr(sl2t_spectrum, "char_batch", counted)
    assert len(locate_eigenvalues(spec, 100).records) == 100
    assert len(batches) == 19 and len(step_calls) == 19


@_TABLE_SPECS
@pytest.mark.parametrize("kind", ["left", "right"])
def test_table_sweeps_repeat_the_per_call_sweep_bit_for_bit(make, kind):
    spec = make()
    build = build_left if kind == "left" else build_right
    ends, paths = _per_call_sweep(spec, _TABLE_LAMS, kind)
    sol = build(spec, _TABLE_LAMS)
    assert _same_ends(sol.ends, ends)
    for piece, (xs, us, vs) in zip(sol.pieces, paths):
        assert np.array_equal(piece.xs, xs)
        assert np.array_equal(piece.us, us) and np.array_equal(piece.vs, vs)
    if kind == "left":
        want = spec.m3 * spec.right_form(_TABLE_LAMS, ends.right.u, ends.right.v)
        assert np.array_equal(char_batch(spec, _TABLE_LAMS), want)


@_TABLE_SPECS
def test_table_char_grid_repeats_the_per_call_sweeps_bit_for_bit(make):
    spec = make()
    f, g = (_per_call_sweep(spec, _TABLE_LAMS, kind)[0] for kind in ("left", "right"))
    d, resid = _piece_wronskians(spec, f, g)
    got = char_grid(spec, _TABLE_LAMS)
    assert [cv.on_piece for cv in got] == list(zip(*(w.tolist() for w in d)))
    assert [cv.consistency_residual for cv in got] == resid.tolist()


def test_equal_specs_share_one_step_table():
    _legs.cache_clear()
    spec, twin = airy_spec(), airy_spec()
    assert spec == twin and spec is not twin
    build_left(spec, 3.7)
    char_batch(twin, _TABLE_LAMS)
    build_right(twin, _TABLE_LAMS)
    info = _legs.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    assert _legs(spec) is _legs(twin)
    # a coarser rk_tol is another spec, with its own, coarser mesh
    coarse = dataclasses.replace(spec, solver=dataclasses.replace(spec.solver, rk_tol=1e-8))
    sol, fine = build_left(coarse, 3.7), build_left(spec, 3.7)
    info = _legs.cache_info()
    assert (info.misses, info.currsize) == (2, 2)
    for piece, ref, i in zip(sol.pieces, fine.pieces, (1, 2, 3)):
        assert np.array_equal(piece.xs, piece_mesh(coarse, i))
        assert piece.xs.size < ref.xs.size
        # the shared meshes are read-only
        assert not piece.xs.flags.writeable


def test_unhashable_spec_gets_the_same_sweep():
    # a spec built with lists in place of tuples keeps them as tuples, so it keys the cache
    spec = mixed_spec()
    listed = dataclasses.replace(spec, omega=list(spec.omega), gamma=list(spec.gamma))
    assert hash(listed) == hash(spec)
    got, want = build_right(listed, _TABLE_LAMS), build_right(spec, _TABLE_LAMS)
    assert _same_ends(got.ends, want.ends)
    assert np.array_equal(char_batch(listed, _TABLE_LAMS), char_batch(spec, _TABLE_LAMS))


def test_list_built_spec_is_its_tuple_twin_and_shares_its_legs():
    spec = airy_spec()
    listed = ProblemSpec(**{
        **{name: list(v) if isinstance(v, tuple) else v for name, v in vars(spec).items()},
        "q": [list(c) for c in spec.q],
    })
    assert listed == spec and hash(listed) == hash(spec)
    assert isinstance(listed.omega, tuple) and isinstance(listed.q[2], tuple)
    _legs.cache_clear()
    assert _legs(listed) is _legs(spec)
    info = _legs.cache_info()
    assert (info.misses, info.hits) == (1, 1)


_BUILD_LAMS = np.array([-50.0, -7.5, 0.0, 3.7, 61.3, 4e4])


@pytest.mark.parametrize("build", [build_left, build_right], ids=["left", "right"])
@pytest.mark.parametrize(
    "make",
    [lambda: random_spec(np.random.default_rng(8)), mixed_spec, airy_spec],
    ids=["constant_q", "mixed_spec", "airy_spec"],
)
def test_batched_builds_repeat_scalar_builds_bit_for_bit(build, make):
    # every lam gets the arithmetic of its own scalar build, row j of the batch
    spec = make()
    batch = build(spec, _BUILD_LAMS)
    assert np.array_equal(batch.lam, _BUILD_LAMS)
    xs_all = np.linspace(-1.0, 1.0, 41)
    u_all, v_all = batch.eval(xs_all, side="right")
    assert u_all.shape == v_all.shape == (_BUILD_LAMS.size, xs_all.size)
    for j, lam in enumerate(_BUILD_LAMS.tolist()):
        sol = build(spec, lam)
        assert type(sol.lam) is float
        for name, want in vars(sol.ends).items():
            got = getattr(batch.ends, name)
            assert type(want) is State and type(want.u) is float and type(want.v) is float
            assert (got.u[j], got.v[j]) == (want.u, want.v), (lam, name)
        for got, want in zip(batch.pieces, sol.pieces):
            assert np.array_equal(got.us[j], want.us) and np.array_equal(got.vs[j], want.vs)
            xs = np.linspace(want.xs[0], want.xs[-1], 100)
            (bu, bv), (u, v) = got.eval(xs), want.eval(xs)
            assert np.array_equal(bu[j], u) and np.array_equal(bv[j], v), (lam, want.piece)
            mid = 0.5 * (want.xs[0] + want.xs[-1])
            assert type(want.eval(mid)[0]) is float
            assert got.eval(mid)[0][j] == want.eval(mid)[0]
        u, v = sol.eval(xs_all, side="right")
        assert np.array_equal(u_all[j], u) and np.array_equal(v_all[j], v), lam


def test_wronskian_of_batched_solutions_is_per_lambda():
    spec = mixed_spec()
    f, g = build_left(spec, _BUILD_LAMS), build_right(spec, _BUILD_LAMS)
    for x in (-0.8, 0.0, 0.9):
        got = wronskian(f, g, x)
        assert got.shape == _BUILD_LAMS.shape
        for j, lam in enumerate(_BUILD_LAMS.tolist()):
            assert got[j] == wronskian(build_left(spec, lam), build_right(spec, lam), x)
    with pytest.raises(ValueError, match="mismatched"):
        wronskian(f, build_right(spec, _BUILD_LAMS[::-1]), 0.0)
    with pytest.raises(ValueError, match="mismatched"):
        wronskian(f, build_right(spec, 3.7), 0.0)


@pytest.mark.parametrize("build", [build_left, build_right], ids=["left", "right"])
@pytest.mark.parametrize(
    "make",
    [baseline_spec, mixed_spec, airy_spec,
     lambda: random_spec(np.random.default_rng(5), constant_q=False),
     lambda: load_config(CONFIG_DIR / "case1.json")],
    ids=["baseline_spec", "mixed_spec", "airy_spec", "polynomial_q", "case1"],
)
def test_anchors_are_exact_through_every_query_path(build, make):
    # a scalar and an array query at an anchor both return its ends field,
    # the far end of each piece included
    spec = make()
    points = ((-1.0, None), (spec.h1, "left"), (spec.h1, "right"),
              (spec.h2, "left"), (spec.h2, "right"), (1.0, None))
    for lam in (3.7, _BUILD_LAMS):
        sol = build(spec, lam)
        for (x, side), (name, want) in zip(points, vars(sol.ends).items()):
            got = sol.state(x, side)
            u, v = sol.eval(np.array([x]), side)
            assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v), name
            assert np.array_equal(u[..., 0], want.u) and np.array_equal(v[..., 0], want.v), name


@pytest.mark.parametrize("lam", [7.0, np.array([7.0, -3.0, 250.0])], ids=["scalar", "batch"])
def test_interface_band_follows_one_rule_for_scalar_and_array_queries(lam):
    # within _BREAK_TOL of an interface, side picks the piece, or the query raises
    spec = load_config(CONFIG_DIR / "case1.json")
    sol = build_left(spec, lam)
    h1, h2 = spec.h1, spec.h2
    for x in (h1, h2, h1 - 5e-13, h1 + 5e-13):
        for side in ("left", "right"):
            u, v = sol.eval(x, side)
            au, av = sol.eval(np.array([x]), side)
            assert np.array_equal(au[..., 0], u) and np.array_equal(av[..., 0], v), (x, side)
            st = sol.state(x, side)
            assert np.array_equal(st.u, u) and np.array_equal(st.v, v), (x, side)
        for query in (x, np.array([x]), np.array([0.0, x])):
            with pytest.raises(ValueError, match="side"):
                sol.eval(query)
    # the band's far side is read at the named piece's end node, its anchor
    for x, side, want in ((h1 + 5e-13, "left", sol.ends.h1_minus),
                          (h1 - 5e-13, "right", sol.ends.h1_plus)):
        u, v = sol.eval(x, side)
        assert np.array_equal(u, want.u) and np.array_equal(v, want.v), (x, side)


def test_queries_reject_points_that_are_not_finite():
    spec = load_config(CONFIG_DIR / "case1.json")
    for lam in (7.0, np.array([7.0, 8.0])):
        sol = build_left(spec, lam)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="outside"):
                sol.pieces[0].eval(bad)
            with pytest.raises(ValueError, match="outside"):
                sol.pieces[1].eval(np.array([0.0, bad]))
            with pytest.raises(ValueError, match="outside"):
                shooting._query(sol.pieces, [np.array([-0.5]), np.array([bad]), np.array([0.5])])
            with pytest.raises(ValueError, match="outside"):
                sol.eval(bad)
            with pytest.raises(ValueError, match="outside"):
                sol.eval(np.array([0.0, bad]), side="right")


_FUSED_SPECS = pytest.mark.parametrize(
    "make",
    [baseline_spec, mixed_spec, airy_spec,
     lambda: random_spec(np.random.default_rng(3), constant_q=False)],
    ids=["baseline_spec", "mixed_spec", "airy_spec", "polynomial_q"],
)


def test_polynomial_q_spec_mixes_degrees():
    # the fused query must meet pieces whose q have different degrees
    spec = random_spec(np.random.default_rng(3), constant_q=False)
    assert len({len(c) for c in spec.q}) == 3


@pytest.mark.parametrize("build", [build_left, build_right], ids=["left", "right"])
@_FUSED_SPECS
def test_fused_piece_query_repeats_each_piece_bit_for_bit(build, make):
    # interior points, the piece's own end points and its mesh nodes, in one query
    spec = make()
    xs = []
    for i in (1, 2, 3):
        a, b = piece_bounds(spec, i)
        xs.append(np.concatenate(([a, b], np.linspace(a, b, 37), piece_mesh(spec, i)[::3])))
    xs[1] = xs[1].reshape(-1, 1)  # each piece keeps its own point shape
    for lam in (3.7, _BUILD_LAMS):
        sol = build(spec, lam)
        fused = shooting._query(sol.pieces, xs)
        for i, (piece, x, (u, v)) in enumerate(zip(sol.pieces, xs, fused)):
            want_u, want_v = piece.eval(x)
            assert u.shape == v.shape == np.shape(lam) + x.shape
            assert np.array_equal(u, want_u) and np.array_equal(v, want_v), i
            # the step from the nearest node at or before each point, on this piece alone
            xf = x.reshape(-1)
            k = np.searchsorted(piece.xs, xf, side="right") - 1
            k = np.minimum(k, piece.n_steps)
            x0, h = piece.xs[k], xf - piece.xs[k]
            lam_col = np.reshape(lam, (-1, 1)) if np.ndim(lam) else lam
            a, b, c, d = _step(*_gauss_q(piece.coeffs, x0, h), piece.w2, lam_col, h)
            ref_u = a * piece.us[..., k] + b * piece.vs[..., k]
            ref_v = c * piece.us[..., k] + d * piece.vs[..., k]
            assert np.array_equal(u.reshape(ref_u.shape), ref_u), i
            assert np.array_equal(v.reshape(ref_v.shape), ref_v), i
        # the own end points are the anchor states on both sides of each interface
        ends = sol.ends
        for (u, v), lo, hi in zip(fused, (ends.left, ends.h1_plus, ends.h2_plus),
                                  (ends.h1_minus, ends.h2_minus, ends.right)):
            u, v = u.reshape(np.shape(lam) + (-1,)), v.reshape(np.shape(lam) + (-1,))
            assert np.array_equal(u[..., 0], lo.u) and np.array_equal(v[..., 0], lo.v)
            assert np.array_equal(u[..., 1], hi.u) and np.array_equal(v[..., 1], hi.v)


@pytest.mark.parametrize("build", [build_left, build_right], ids=["left", "right"])
@_FUSED_SPECS
def test_taken_rows_are_the_build_for_those_lam(build, make):
    spec = make()
    rows = slice(2, 5)
    got, want = build(spec, _BUILD_LAMS).take(rows), build(spec, _BUILD_LAMS[rows])
    assert np.array_equal(got.lam, want.lam)
    for p, q in zip(got.pieces, want.pieces):
        assert np.array_equal(p.lam, q.lam) and np.array_equal(p.xs, q.xs)
        assert np.array_equal(p.us, q.us) and np.array_equal(p.vs, q.vs)
    for name, st in vars(got.ends).items():
        want_st = getattr(want.ends, name)
        assert np.array_equal(st.u, want_st.u) and np.array_equal(st.v, want_st.v), name


def test_fused_query_refuses_points_outside_their_piece():
    sol = build_left(mixed_spec(), 3.7)
    a, b = piece_bounds(sol.spec, 2)
    inside = [np.array([-1.0]), np.array([a, b]), np.array([1.0])]
    shooting._query(sol.pieces, inside)
    with pytest.raises(ValueError):
        shooting._query(sol.pieces, [inside[0], np.array([b + 1e-6]), inside[2]])


def test_batch_input_validation():
    spec = baseline_spec()
    with pytest.raises(ValueError):
        left_terminal_batch(spec, np.array([]))
    with pytest.raises(ValueError):
        left_terminal_batch(spec, np.array([1.0, math.nan]))
    with pytest.raises(ValueError):
        build_right(spec, [math.inf]).ends
    for build in (build_left, build_right):
        with pytest.raises(ValueError):
            build(spec, np.array([]))
        with pytest.raises(ValueError):
            build(spec, np.array([1.0, math.nan]))
        with pytest.raises(ValueError):
            build(spec, [-math.inf, 2.0])
        with pytest.raises(ValueError):
            build(spec, math.inf)
    # char_grid takes a batch of lam as the builds do
    for bad in (np.ones((2, 3)), np.empty((0, 2))):
        with pytest.raises(ValueError, match="nonempty 1-d array"):
            char_grid(spec, bad)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=-20.0, max_value=120.0),
)
def test_oracle_agreement_property(seed, lam):
    spec = random_spec(np.random.default_rng(seed), constant_q=True)
    (u,), (v,) = left_terminal_batch(spec, np.array([lam]))
    b1, b2 = spec.beta
    b1p, b2p = spec.beta_prime
    got = spec.m3 * ((b1p * lam + b1) * u - (b2p * lam + b2) * v)
    expected = transfer_char(spec, lam)
    assert got == pytest.approx(expected, rel=1e-8, abs=1e-8)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=-8.0, max_value=50.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
def test_flow_scales_with_initial_data(lam, c):
    spec = baseline_spec()
    base, _ = carry_piece(spec, lam, 1, State(1.0, 0.5))
    scaled, _ = carry_piece(spec, lam, 1, State(c * 1.0, c * 0.5))
    assert scaled.u == pytest.approx(c * base.u, rel=1e-9, abs=1e-9)
    assert scaled.v == pytest.approx(c * base.v, rel=1e-9, abs=1e-9)
