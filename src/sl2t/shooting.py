"""Piecewise shooting by 2x2 transfer matrices.

Solutions of ``-u'' + q u = lam w u`` are carried across each piece by the
transfer matrix of ``(u, u')``; the interface jump conditions are applied
exactly between pieces.  On a piece where ``q`` is constant the transfer is
one exact step (cos/sin, cosh/sinh, or linear when ``lam w = q``).  Where
``q`` is a polynomial of positive degree the piece is cut into a fixed,
``lam``-independent mesh of fourth-order Magnus steps (Iserles & Norsett,
1999), each of whose exponentials is also closed-form; the mesh is sized by
the ``rk_tol`` solver key.

One carry (``_carry``) crosses a piece for every caller.  It multiplies the
step matrices of a whole batch of ``lam`` (a scalar ``lam`` is a batch of
one) pairwise, block by block, each block at most ``_BLOCK`` steps.
Everything a step needs besides ``lam`` is built once per spec and sweep
direction into one frozen record (``_Sweep``; ``_legs`` caches a spec's two
on the spec's value).  It holds one leg per piece (``_Leg``: the jump
factors crossed on entering the piece and its ascending mesh), four step
columns (``q`` at the two Gauss points, ``omega^2`` and the length of every
step, in sweep order) and the row cuts of its groups: its blocks, packed
greedily into runs of at most ``_BLOCK`` rows that may cross pieces.  A
sweep forms only the ``lam``-dependent matrices, with one ``_step`` call per
group: on a constant-``q`` spec, one call per sweep.

Two distinguished solutions are built here:

* the *left* solution, launched at ``x = -1`` with ``u = sin(alpha)``,
  ``u' = -cos(alpha)``, which satisfies the left boundary condition by
  construction and is carried rightward through the jumps;
* the *right* solution, launched at ``x = +1`` with
  ``u = beta2'*lam + beta2`` and ``u' = beta1'*lam + beta1``, which
  satisfies the eigenvalue-dependent right condition identically and is
  carried leftward through the inverted jumps.

Both follow one sweep: the launch state, then their three legs, the pieces
in propagation order with the jump crossed before each.  ``_crossings`` is
the one walk along it and the one source of anchor states: it returns the
sweep's ``BoundaryData``, each piece's entry and exit state.  The
characteristic scan (``left_terminal_batch``) and ``charfn.char_grid`` read
only that record; ``build_left`` and ``build_right`` also keep the state at
every mesh node from the same product, so their anchor states equal the
scan's bit for bit.  A piece's node arrays answer every query: at a node the
stored state, elsewhere one step from the nearest node before it.  The step
takes only ``lam``-independent inputs besides ``lam`` (``q`` at its two Gauss
points, its length and ``omega^2``), so one query (``_query``) steps points
on all three pieces, or on the pieces of several solutions built for one
``lam``, with one call, each point as a query on its piece alone would.
``problem.piece_index_at`` places a point: by its position inside a piece,
and within ``_BREAK_TOL`` of an interface, where the solution is two-valued,
by ``side``, or it raises.  The conditions themselves are read
from :class:`ProblemSpec`.

An eigenvalue is a value of ``lam`` where the two are proportional, which
the characteristic-function module detects through their Wronskian.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .problem import (
    _BREAK_TOL, NumericalError, ProblemSpec, Side, _polyval, piece_bounds, piece_index_at,
)

__all__ = [
    "State",
    "BoundaryData",
    "PieceTrajectory",
    "PiecewiseSolution",
    "piece_mesh",
    "build_left",
    "build_right",
    "wronskian",
    "left_terminal_batch",
]

_GAUSS = math.sqrt(3.0) / 6.0
_COMMUTATOR = math.sqrt(3.0) / 12.0
#: Magnus steps whose matrices are held at once per lam in a batch: at most
#: this many steps per block and per group, which one ``_step`` call forms
#: across pieces
_BLOCK = 256
#: most Magnus steps on one piece; ``piece_mesh`` refuses a finer mesh before
#: allocating it (default settings need at most a few thousand)
_MAX_STEPS = 100_000


@dataclass(frozen=True)
class State:
    """Solution value and slope at one point: ``(u, u')``."""

    u: float
    v: float

    def wronskian(self, other: "State") -> float:
        """``f g' - f' g`` with ``self`` holding ``(f, f')`` and ``other`` ``(g, g')``."""
        return self.u * other.v - self.v * other.u

    def __iter__(self):
        """Unpacks as ``(u, u')``."""
        return iter((self.u, self.v))


@dataclass(frozen=True)
class BoundaryData:
    """One-sided values and slopes at the six anchor points."""

    left: State
    h1_minus: State
    h1_plus: State
    h2_minus: State
    h2_plus: State
    right: State

    def scaled(self, c: float) -> "BoundaryData":
        """Every anchor state times ``c``."""
        return BoundaryData(*(State(c * st.u, c * st.v) for st in vars(self).values()))

    def take(self, rows) -> "BoundaryData":
        """The record of the entries ``rows`` of a record that holds arrays."""
        return BoundaryData(*(State(st.u[rows], st.v[rows]) for st in vars(self).values()))

    def rows(self) -> list["BoundaryData"]:
        """One record of float states per entry of a record that holds arrays."""
        cols = [zip(st.u.tolist(), st.v.tolist()) for st in vars(self).values()]
        return [BoundaryData(*(State(u, v) for u, v in row)) for row in zip(*cols)]

    def residuals(self, spec: ProblemSpec) -> dict[str, float]:
        """Absolute residuals of the left condition and the four transmission conditions."""
        h1 = spec.transmission_residuals(0, self.h1_minus, self.h1_plus)
        h2 = spec.transmission_residuals(1, self.h2_minus, self.h2_plus)
        return {
            "left_bc": abs(spec.left_form(*self.left)),
            "h1_value": h1[0], "h1_slope": h1[1],
            "h2_value": h2[0], "h2_slope": h2[1],
        }


# ---------------------------------------------------------------------------
# the propagator


def _step(q1, q2, w2, lam, h):
    """Transfer matrix ``(a, b, c, d)`` of one Magnus step of length ``h``.

    With ``A(x) = [[0, 1], [q(x) - lam*w2, 0]]`` sampled at the two Gauss
    points of the step, where ``q`` takes the values ``q1`` and ``q2``
    (``_gauss_q``), ``M = h/2 (A1 + A2) + sqrt(3) h^2/12 [A2, A1]`` is
    traceless, so ``exp M = cosh(s) I + sinh(s)/s M`` with ``s^2 = -det M``.
    When ``q`` is constant, ``A1 == A2`` and the step is the exact transfer
    for any ``h``.  Every input but ``lam`` is independent of ``lam``, so
    steps on different pieces, each with its own ``q`` and ``w2``, go in one
    call; all five broadcast against each other.

    Both branches are evaluated everywhere and ``np.where`` keeps each
    entry's.  A ``cosh`` that overflows to ``inf``, and the ``nan`` that
    ``inf`` makes in the matrix, pass without a warning.
    """
    lw = lam * w2
    a1, a2 = q1 - lw, q2 - lw
    m11 = _COMMUTATOR * h * h * (a1 - a2)
    m21 = 0.5 * h * (a1 + a2)
    s2 = m11 * m11 + h * m21
    s = np.sqrt(np.abs(s2))
    grow = s2 >= 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ch = np.where(grow, np.cosh(s), np.cos(s))
        sh = np.where(s > 0.0, np.where(grow, np.sinh(s), np.sin(s)) / s, 1.0)
        return ch + sh * m11, sh * h, sh * m21, ch - sh * m11


def _gauss_q(coeffs, x0, h):
    """``q`` at the two Gauss points of the steps from ``x0`` to ``x0 + h``."""
    return _polyval(x0 + (0.5 - _GAUSS) * h, coeffs), _polyval(x0 + (0.5 + _GAUSS) * h, coeffs)


def piece_mesh(spec: ProblemSpec, piece: int) -> np.ndarray:
    """Ascending Magnus mesh nodes of piece ``piece`` (1-based), ends included.

    A constant-``q`` piece is one exact step.  Otherwise the fourth-order
    step error scales like ``h^4`` times the size of ``q'`` and ``q''``, and
    the uniform step is chosen so that product stays below ``rk_tol``.
    A mesh of more than ``_MAX_STEPS`` steps raises ``NumericalError``.
    """
    a, b = piece_bounds(spec, piece)
    coeffs = spec.q[piece - 1]
    if all(c == 0.0 for c in coeffs[1:]):
        return np.array([a, b])
    reach = max(abs(a), abs(b))
    # |q'| and |q''| on the piece are at most those derivatives of sum |c_j| t^j at t = reach
    size = sum(
        _polyval(reach, [math.perm(j, m) * abs(c) for j, c in enumerate(coeffs)][m:])
        for m in (1, 2) if len(coeffs) > m
    )
    steps = (b - a) * (size / spec.solver.rk_tol) ** 0.25
    if not steps <= _MAX_STEPS:
        raise NumericalError(
            f"piece {piece} needs {steps:.3g} Magnus steps, more than {_MAX_STEPS}; "
            "raise rk_tol or shrink q"
        )
    return np.linspace(a, b, max(1, math.ceil(steps)) + 1)


@dataclass(frozen=True)
class _Leg:
    """One piece as a sweep crosses it.

    ``jump`` holds the factors of ``(u, u')`` at the interface crossed on
    entering the piece (``None`` for a sweep's first piece) and ``mesh`` the
    piece's ascending, read-only nodes.
    The piece's steps are cut into blocks of at most ``_BLOCK`` consecutive
    steps in the sweep's direction, from its first node.
    """

    piece: int
    jump: tuple[float, float] | None
    mesh: np.ndarray


@dataclass(frozen=True)
class _Sweep:
    """Everything but ``lam`` that one sweep needs: its legs and its step columns.

    ``q1`` and ``q2`` hold ``q`` at the two Gauss points of each step,
    ``w2`` the ``omega^2`` of its piece and ``h`` its length, each a
    read-only column ``(n_steps, 1)`` in sweep order that broadcasts against
    a batch of ``lam``.  Each entry ``cuts`` of ``groups`` holds one group's
    block boundaries as rows of the columns: its block ``i`` is rows
    ``cuts[i]`` to ``cuts[i + 1]``.  A group spans at most ``_BLOCK`` rows,
    and its blocks may lie on different pieces.
    """

    legs: tuple[_Leg, ...]
    q1: np.ndarray
    q2: np.ndarray
    w2: np.ndarray
    h: np.ndarray
    groups: tuple[tuple[int, ...], ...]

    @classmethod
    def along(cls, spec: ProblemSpec, pieces, leftward: bool) -> "_Sweep":
        """The sweep across ``pieces``, pairs ``(piece, mesh)`` in sweep order.

        Each ``mesh`` holds the piece's (1-based) ascending nodes.  The
        blocks of all legs are packed in sweep order, greedily, into groups
        of at most ``_BLOCK`` steps.
        """
        legs, steps, groups = [], [], [[0]]
        for piece, mesh in pieces:
            # the interface shared with the piece before, as a jump applied to (1, 1)
            jump = spec.jump(min(piece, legs[-1].piece) - 1, 1.0, 1.0, leftward) if legs else None
            legs.append(_Leg(piece, jump, mesh))
            xs = mesh[::-1] if leftward else mesh
            x0, h = xs[:-1, None], np.diff(xs)[:, None]
            w2 = np.full_like(h, spec.omega[piece - 1] ** 2)
            steps.append((*_gauss_q(spec.q[piece - 1], x0, h), w2, h))
            for j in range(0, h.size, _BLOCK):
                end = groups[-1][-1] + min(_BLOCK, h.size - j)
                if end - groups[-1][0] > _BLOCK:
                    groups.append([groups[-1][-1]])
                groups[-1].append(end)
        cols = [np.concatenate(col) for col in zip(*steps)]
        for arr in cols:
            arr.flags.writeable = False
        return cls(tuple(legs), *cols, tuple(map(tuple, groups)))

    def blocks(self, lams: np.ndarray):
        """Each block's step matrix entries ``(a, b, c, d)``, in sweep order.

        One ``_step`` call forms a whole group's entries, when its first
        block is asked for; a block gets its rows, each ``(n_steps, n_lam)``.
        """
        for cuts in self.groups:
            lo, hi = cuts[0], cuts[-1]
            steps = _step(self.q1[lo:hi], self.q2[lo:hi], self.w2[lo:hi], lams, self.h[lo:hi])
            for i, j in zip(cuts, cuts[1:]):
                yield tuple(x[i - lo : j - lo] for x in steps)


@functools.lru_cache(maxsize=8)
def _legs(spec: ProblemSpec) -> tuple[_Sweep, _Sweep]:
    """Both sweeps of ``spec``, built once per distinct spec value.

    Returns the left solution's sweep (pieces 1, 2, 3) and the right
    solution's (pieces 3, 2, 1).  Both directions of a piece share one
    read-only mesh.
    """
    meshes = {piece: piece_mesh(spec, piece) for piece in (1, 2, 3)}
    for xs in meshes.values():
        xs.flags.writeable = False
    return (
        _Sweep.along(spec, [(piece, meshes[piece]) for piece in (1, 2, 3)], False),
        _Sweep.along(spec, [(piece, meshes[piece]) for piece in (3, 2, 1)], True),
    )


def _carry(leg: _Leg, blocks, u, v, nodes: bool = False):
    """Carry states ``(u, u')``, one per ``lam``, across the piece of ``leg``.

    ``blocks`` yields the step matrix entries of the sweep's blocks in order
    (``_Sweep.blocks``); the carry takes the leg's own and leaves the rest.
    Each block's entries are stacked and its product taken pairwise: at each
    level the second factor of a pair acts after the first and an odd last
    factor passes up unchanged, so the depth of Python-level work is
    logarithmic in the step count.  A block's exit state is its product
    applied to its start state.

    Returns the exit state and, with ``nodes``, the states at every node in
    the sweep's direction, shaped ``(leg.mesh.size, n_lam)`` (``None``
    without).  These come from a down-sweep of each block's product: at
    level ``L`` the first factor of pair ``i`` carries the state at the
    pair's start, node ``i * 2**(L+1)`` of the block, to its midpoint, node
    ``i * 2**(L+1) + 2**L``.
    """
    us, vs = np.empty((2, leg.mesh.size, u.size)) if nodes else (None, None)
    # zip asks the range first, so it takes no block past the leg's last
    for j, steps in zip(range(0, leg.mesh.size - 1, _BLOCK), blocks):
        m = np.stack(steps)
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
        if nodes:
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
    if nodes:
        us[-1], vs[-1] = u, v
    return (u, v), (us, vs)


# ---------------------------------------------------------------------------
# solutions with interior queries, for one lambda or an array of them


def _check_lams(lams) -> np.ndarray:
    lams = np.ascontiguousarray(lams, dtype=float)
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError("lams must be a nonempty 1-d array")
    if not np.all(np.isfinite(lams)):
        raise ValueError("lams must be finite")
    return lams


@dataclass(frozen=True)
class PieceTrajectory:
    """Solution on one piece, queryable anywhere between its endpoints.

    ``xs`` holds the mesh nodes in ascending order and ``us``/``vs`` the
    solution there; a value at a node is the stored state, and any other
    value is the transfer from the nearest node before the query point.
    When ``lam`` is an array of ``n`` values, ``us``/``vs`` are shaped
    ``(n, xs.size)`` and queries return one row per ``lam``.
    """

    piece: int
    lam: float | np.ndarray
    xs: np.ndarray
    us: np.ndarray
    vs: np.ndarray
    coeffs: tuple[float, ...]
    w2: float

    @property
    def n_steps(self) -> int:
        """Number of Magnus steps (1 per constant-``q`` piece)."""
        return self.xs.size - 1

    def eval(self, x):
        """Value and slope at ``x`` (scalar or array) inside the piece.

        With an array of ``lam`` the results are shaped ``(n_lam,) + shape(x)``.
        """
        ((u, v),) = _query((self,), (x,))
        if u.ndim == 0:
            return float(u), float(v)
        return u, v


def _query(pieces, xs) -> list[tuple[np.ndarray, np.ndarray]]:
    """Value and slope at ``xs[i]`` (an array, or a scalar) inside ``pieces[i]``.

    The pieces must share ``lam``, as the pieces of one solution, or of the
    left and right solutions of one build, do; pieces that do not raise.
    Each point is one step from the nearest node at or before it on its own
    piece (a point at a node is the stored state), and the steps of every
    piece go through one ``_step`` call.  Each point gets the arithmetic of
    a query on its piece alone.  Returns one ``(u, v)`` pair per piece,
    shaped ``shape(lam) + shape(xs[i])``.  A point within ``_BREAK_TOL``
    outside its piece is clamped onto it, and one farther out, or a NaN,
    raises.
    """
    lam = pieces[0].lam
    if not all(p.lam is lam or np.array_equal(p.lam, lam) for p in pieces[1:]):
        raise ValueError("the pieces of one query must share lam")
    parts = []
    for p, x in zip(pieces, xs):
        xv = np.asarray(x, dtype=float).reshape(-1)
        lo, hi = p.xs[0], p.xs[-1]
        # NaN fails both comparisons
        if xv.size and not (xv.min() >= lo - _BREAK_TOL and xv.max() <= hi + _BREAK_TOL):
            raise ValueError(f"query outside integrated range [{lo}, {hi}]")
        # np.clip's result, signed zeros included; then lo <= xv <= hi, so
        # every k is a node index, from 0 to p.n_steps
        xv = np.minimum(hi, np.maximum(lo, xv))
        k = np.searchsorted(p.xs, xv, side="right") - 1
        x0 = p.xs[k]
        h = xv - x0
        w2 = np.full(h.size, p.w2)
        parts.append((*_gauss_q(p.coeffs, x0, h), w2, h, p.us[..., k], p.vs[..., k]))
    q1, q2, w2, h, u0, v0 = (np.concatenate(col, axis=-1) for col in zip(*parts))
    a, b, c, d = _step(q1, q2, w2, lam[:, None] if np.ndim(lam) > 0 else lam, h)
    u, v = a * u0 + b * v0, c * u0 + d * v0
    out, end = [], 0
    for x, part in zip(xs, parts):
        start, end = end, end + part[3].size
        shape = np.shape(lam) + np.shape(x)
        out.append((u[..., start:end].reshape(shape), v[..., start:end].reshape(shape)))
    return out


@dataclass(frozen=True)
class PiecewiseSolution:
    """A solution of the full problem assembled from three piece trajectories.

    ``ends`` is the sweep's anchor record: the launch, each jump's image and
    each piece's exit state.  Every query goes to one piece's node arrays,
    whose end nodes hold those same states, so a query exactly at an anchor
    returns its ``ends`` field bit for bit.  When ``lam`` is an array, every
    state and query holds one entry (or row) per ``lam``.
    """

    lam: float | np.ndarray
    spec: ProblemSpec
    pieces: tuple[PieceTrajectory, PieceTrajectory, PieceTrajectory]
    ends: BoundaryData

    def state(self, x, side: Side | None = None) -> State:
        """One-sided solution state at ``x``; at a node, the stored state."""
        return State(*self.eval(x, side))

    def eval(self, x, side: Side | None = None):
        """Value and slope at ``x``, a scalar or an array of points in ``[-1, 1]``.

        ``piece_index_at`` picks each point's piece, so a point within
        ``_BREAK_TOL`` of an interface needs ``side``.  The results are
        floats for a scalar ``x`` and a scalar ``lam``, and otherwise arrays
        shaped ``shape(lam) + shape(x)``.
        """
        xv = np.asarray(x, dtype=float)
        index = piece_index_at(self.spec, x, side)
        masks = [index == i for i in (1, 2, 3)]
        u = np.empty(np.shape(self.lam) + xv.shape)
        v = np.empty_like(u)
        for mask, (pu, pv) in zip(masks, _query(self.pieces, [xv[mask] for mask in masks])):
            u[..., mask], v[..., mask] = pu, pv
        if u.ndim == 0:
            return float(u), float(v)
        return u, v

    def take(self, rows) -> "PiecewiseSolution":
        """The solution for the entries ``rows`` of an array ``lam``, as if built for them."""
        lam = self.lam[rows]
        pieces = tuple(
            dataclasses.replace(p, lam=lam, us=p.us[rows], vs=p.vs[rows]) for p in self.pieces
        )
        return dataclasses.replace(self, lam=lam, pieces=pieces, ends=self.ends.take(rows))


def _crossings(
    spec: ProblemSpec, lams: np.ndarray, kind: Literal["left", "right"], nodes: bool = False
):
    """Carry one launch end's solution along its sweep, for checked ``lams``.

    Each piece is crossed by ``_carry`` over its whole mesh, from just past
    the jump into it (from the launch, for the first piece), with the step
    entries of the sweep's groups, one ``_step`` call per group.  Returns the
    sweep's anchor record: each piece's entry and exit state, one entry per
    ``lam``.  With ``nodes`` it also returns, for pieces 1, 2 and 3, the
    ascending mesh ``xs`` and the states ``us``/``vs`` there, shaped
    ``(n_lam, xs.size)``.
    """
    rightward, leftward = _legs(spec)
    if kind == "left":
        launch, sweep, order = spec.left_launch, rightward, 1
    else:
        # (c2, c1) zeroes the right form identically in lam
        c1, c2 = spec.right_coefficients(lams)
        launch, sweep, order = (c2, c1), leftward, -1
    u, v = (np.full(lams.size, s) for s in launch)
    blocks = sweep.blocks(lams)
    anchors, paths = {}, {}
    for leg in sweep.legs:
        if leg.jump is not None:
            u, v = leg.jump[0] * u, leg.jump[1] * v
        entry = State(u, v)
        (u, v), (us, vs) = _carry(leg, blocks, u, v, nodes)
        anchors[leg.piece] = (entry, State(u, v))[::order]
        if nodes:
            paths[leg.piece] = (leg.mesh, us[::order].T, vs[::order].T)
    ends = BoundaryData(*(st for piece in (1, 2, 3) for st in anchors[piece]))
    return (ends, tuple(paths[piece] for piece in (1, 2, 3))) if nodes else ends


def _build(spec: ProblemSpec, lam, kind: Literal["left", "right"]) -> PiecewiseSolution:
    # the one place where a scalar lam becomes a batch of one; the solution
    # keeps it as given, with float anchor states and 1-d node arrays
    batched = np.ndim(lam) > 0
    lams = _check_lams(lam if batched else [lam])
    ends, paths = _crossings(spec, lams, kind, nodes=True)
    lam, row = (lams, slice(None)) if batched else (lam, 0)
    pieces = tuple(
        PieceTrajectory(
            piece=piece, lam=lam, xs=xs, us=us[row], vs=vs[row],
            coeffs=spec.q[piece - 1], w2=spec.omega[piece - 1] ** 2,
        )
        for piece, (xs, us, vs) in enumerate(paths, start=1)
    )
    return PiecewiseSolution(
        lam=lam, spec=spec, pieces=pieces, ends=ends if batched else ends.rows()[0]
    )


def build_left(spec: ProblemSpec, lam) -> PiecewiseSolution:
    """Left-launched solution satisfying the ``x = -1`` boundary condition.

    ``lam`` is a scalar or a nonempty 1-d array of finite values; an array
    builds the solution for every entry at once, equal bit for bit to one
    scalar build per entry.
    """
    return _build(spec, lam, "left")


def build_right(spec: ProblemSpec, lam) -> PiecewiseSolution:
    """Right-launched solution satisfying the eigenvalue-dependent condition.

    The launch data make ``spec.right_form(lam, u(1), u'(1))`` vanish
    identically in ``lam``.  ``lam`` is a scalar or an array, as for
    ``build_left``.
    """
    return _build(spec, lam, "right")


def wronskian(
    f: PiecewiseSolution, g: PiecewiseSolution, x: float, side: Side | None = None
) -> float:
    """``f(x) g'(x) - f'(x) g(x)`` with both solutions read on the same side.

    Constant within each piece when ``f`` and ``g`` solve the equation at the
    same ``lam``; refuses to mix different spectral parameters.  Solutions
    built for one array of ``lam`` give one value per entry.
    """
    if not np.array_equal(f.lam, g.lam):
        raise ValueError(f"mismatched spectral parameters: {f.lam!r} vs {g.lam!r}")
    return f.state(x, side).wronskian(g.state(x, side))


# ---------------------------------------------------------------------------
# batched over lam: terminal values for the characteristic scan


def left_terminal_batch(spec: ProblemSpec, lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Values ``(u, u')`` at ``x = +1`` of the left solution, for many ``lam``.

    The sweep of ``build_left`` without its node states: each piece is
    crossed by ``_carry`` and the jumps are applied between pieces.
    """
    right = _crossings(spec, _check_lams(lams), "left").right
    return right.u, right.v
