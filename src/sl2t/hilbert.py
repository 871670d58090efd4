"""Weighted inner product, operator action, and symmetry certification.

Elements of the working space carry per-piece samples of ``f`` (and, for
the operator's input, of ``f''``) plus one scalar coordinate ``f1``.  The
inner product weights the piece integrals by ``omega_i^2`` times the
jump-product multipliers (1, m2, m3) and adds ``(m3/rho) * f1 * g1``; with
those multipliers the operator

    A(f, f1) = ( (-f'' + q f) / omega^2 ,  -(beta1 f(1) - beta2 f'(1)) )

is symmetric on elements satisfying the boundary/transmission conditions and
``f1 = beta1' f(1) - beta2' f'(1)``.  The certification helpers here check
that symmetry numerically, decompose the underlying integration-by-parts
identity term by term, and verify the interface Wronskian scaling relations
it relies on.

An element may also be a stack of ``k`` elements on one grid: each per-piece
array is then shaped ``(k, nodes)``, ``f1`` is a ``(k,)`` array and ``ends``
holds arrays, as the ``ends`` of a λ-batched ``PiecewiseSolution`` do.
``sample_domain_element`` with a sequence of seeds and ``element_from_solution``
of a lambda-batched solution build stacks, ``HilbertElement.rows`` splits one,
``HilbertElement.take`` picks some of its rows,
and the inner product, norm, operator and residuals broadcast over stacks.
Each row of a stacked result equals the call on that row alone bit for bit:
the piece integrals sum each contiguous row along the node axis, as the
one-element sum does.

When an inner-product multiplier is nonpositive the form is indefinite; the
problem is still solvable, but symmetry/orthogonality certification is
meaningless and callers are expected to skip it (``spec.is_definite``).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem import (
    _SOLVER_RANGES, NumericalError, ProblemSpec, _integer, _piece_index, _polyval, piece_bounds,
)
from .shooting import BoundaryData, PiecewiseSolution, State, _query

__all__ = [
    "QuadratureGrid",
    "HilbertElement",
    "inner_product",
    "norm",
    "apply_operator",
    "sample_domain_element",
    "element_from_solution",
    "symmetry_residual",
    "greens_identity_sides",
    "interface_wronskian_residuals",
]

#: Newton steps on the Gauss nodes stop once no node moves by more than this;
#: from Tricomi's start that takes three or four steps
_NEWTON_TOL = 2e-16
_NEWTON_STEPS = 30


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P_n(x)`` and ``P_{n-1}(x)`` by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, p0


def _legendre_near_one(n: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P_n`` and ``P_n - P_{n-1}`` at ``x = 1 - t``, by the recurrence on differences.

    This form of the recurrence keeps the digits near ``x = 1`` that the
    three-term recurrence loses there.
    """
    p, d = 1.0 - t, -t
    for k in range(2, n + 1):
        d = ((k - 1) * d - (2 * k - 1) * t * p) / k
        p = p + d
    return p, d


def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending Gauss-Legendre nodes and their weights on ``[-1, 1]``, with no eigenproblem.

    Newton's method on ``P_n`` finds the nodes in ``[0, 1)`` from Tricomi's
    approximations, and the others are their mirror images (Hale & Townsend,
    SIAM J. Sci. Comput. 35, 2013): O(n^2) work on arrays of length n.  The
    weight is ``2 / ((1 - x^2) P_n'(x)^2 - 2x P_n(x) P_n'(x))``, which equals
    the textbook ``2 / ((1 - x^2) P_n'(x)^2)`` at a node and, unlike it, has
    no first-order change there, so a node's last-bit error does not reach
    its weight; its ``P`` values come from ``_legendre_near_one``, which
    keeps the weights next to the ends accurate too.
    """
    m = (n + 1) // 2
    theta = np.pi * (4.0 * np.arange(1, m + 1) - 1.0) / (4.0 * n + 2.0)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(theta)
    x[n // 2:] = 0.0  # the middle node of an odd rule
    for _ in range(_NEWTON_STEPS):
        p, q = _legendre(n, x)
        dx = p * ((1.0 - x) * (1.0 + x)) / (n * (q - x * p))
        x = x - dx
        if np.max(np.abs(dx)) <= _NEWTON_TOL:
            break
    t = 1.0 - x
    p, d = _legendre_near_one(n, t)
    e = n * (t * p - d)  # n (P_{n-1} - x P_n) = (1 - x^2) P_n'
    w = 2.0 * (t * (1.0 + x)) / (e * (e - 2.0 * x * p))
    # x descends from near 1 to the last positive node (or to the middle 0)
    return np.concatenate((-x[: n // 2], x[::-1])), np.concatenate((w[: n // 2], w[::-1]))


@functools.lru_cache(maxsize=8)
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[-1, 1]``, computed and checked once per ``n``.

    The rule must have ascending nodes inside ``(-1, 1)``, positive weights,
    and integrate the monomials of degree 0, 1 and ``2n - 2`` exactly.
    The arrays are shared by every grid with ``n`` nodes per piece, so they
    are read-only.
    """
    x, w = _legendre_rule(n)
    if not (-1.0 < x[0] and x[-1] < 1.0 and np.all(np.diff(x) > 0.0) and np.all(w > 0.0)):
        raise NumericalError("quadrature nodes/weights failed sanity bounds")
    for deg in (0, 1, 2 * n - 2):
        got = float(np.sum(w * x**deg))
        exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
        if abs(got - exact) > 1e-12 * (1.0 + abs(exact)):
            raise NumericalError(f"quadrature exactness check failed at degree {deg}")
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes and weights, one rule per piece.

    Nodes lie strictly inside each open piece, so one-sided interface data
    never collides with quadrature sampling.  The reference rule is checked
    against monomials it must integrate exactly once per node count; each
    build checks only its map onto the pieces.
    """

    nodes: tuple[np.ndarray, np.ndarray, np.ndarray]
    weights: tuple[np.ndarray, np.ndarray, np.ndarray]
    nodes_per_piece: int

    @classmethod
    def build(cls, spec: ProblemSpec, nodes_per_piece: Optional[int] = None) -> "QuadratureGrid":
        n = spec.solver.quad_nodes
        if nodes_per_piece is not None:
            n = _integer("nodes_per_piece", nodes_per_piece)
        # the range of the quad_nodes setting, so an argument has the config's ceiling
        admissible, rule = _SOLVER_RANGES["quad_nodes"]
        if not admissible(n):
            raise ValueError(f"nodes_per_piece {rule}, got {n}")
        ref_x, ref_w = _gauss_rule(n)
        nodes, weights = [], []
        for i in (1, 2, 3):
            a, b = piece_bounds(spec, i)
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            x, w = mid + half * ref_x, half * ref_w
            # the nodes ascend, so the end nodes bound them all
            if not (a < x[0] and x[-1] < b and w.min() > 0.0
                    and abs(float(w.sum()) - (b - a)) <= 1e-12 * (1.0 + (b - a))):
                raise NumericalError(f"quadrature rule failed its sanity bounds on piece {i}")
            nodes.append(x)
            weights.append(w)
        return cls(nodes=tuple(nodes), weights=tuple(weights), nodes_per_piece=n)

    def integrate(self, piece: int, values: np.ndarray):
        """Integral of sampled values over one piece (1-based index).

        ``values`` may stack rows of samples along leading axes; the result
        then has one integral per row, and a single row gives a ``float``.
        """
        total = np.sum(self.weights[_piece_index(piece) - 1] * values, axis=-1)
        return float(total) if total.ndim == 0 else total

    def same_nodes(self, other: "QuadratureGrid") -> bool:
        return self is other or (
            self.nodes_per_piece == other.nodes_per_piece
            and all(np.array_equal(a, b) for a, b in zip(self.nodes, other.nodes))
        )


@dataclass(frozen=True)
class HilbertElement:
    """Sampled member of the weighted space, or a stack of members.

    ``values`` (and optionally ``deriv2``) hold per-piece arrays of ``f``
    (and ``f''``) on the grid nodes; ``ends`` carries exact one-sided values
    and slopes at the ends and interfaces when the element came from an
    analytic construction or a shooting solution.
    Elements produced by the operator itself carry samples and ``f1`` only.
    A stack of ``k`` elements has ``(k, nodes)`` arrays, a ``(k,)`` array
    ``f1`` and ``ends`` holding arrays.
    """

    grid: QuadratureGrid
    values: tuple[np.ndarray, np.ndarray, np.ndarray]
    f1: float | np.ndarray
    deriv2: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    ends: Optional[BoundaryData] = None

    def rows(self) -> list["HilbertElement"]:
        """One element, with a ``float`` ``f1`` and float ends, per row of a stack."""
        pick = lambda tup, j: None if tup is None else tuple(a[j] for a in tup)
        f1 = self.f1.tolist()
        ends = [None] * len(f1) if self.ends is None else self.ends.rows()
        return [
            HilbertElement(self.grid, pick(self.values, j), c, pick(self.deriv2, j), e)
            for j, (c, e) in enumerate(zip(f1, ends))
        ]

    def take(self, rows) -> "HilbertElement":
        """The stack of the rows ``rows`` (an index array or a slice) of a stack.

        A slice gives views of this stack's arrays; every row stays as it was.
        """
        pick = lambda tup: None if tup is None else tuple(a[rows] for a in tup)
        return HilbertElement(
            self.grid, pick(self.values), self.f1[rows], pick(self.deriv2),
            None if self.ends is None else self.ends.take(rows),
        )

    def scaled(self, c) -> "HilbertElement":
        """Every sample, ``f1`` and end state times ``c``; a stack takes one factor per row."""
        per_node = c if np.ndim(c) == 0 else np.asarray(c)[:, None]
        sc = lambda tup: None if tup is None else tuple(per_node * a for a in tup)
        return HilbertElement(
            grid=self.grid, values=sc(self.values), f1=c * self.f1,
            deriv2=sc(self.deriv2),
            ends=None if self.ends is None else self.ends.scaled(c),
        )


def inner_product(spec: ProblemSpec, F: HilbertElement, G: HilbertElement):
    """Weighted inner product of two elements on matching grids.

    Stacks broadcast against each other (one value per row, or a matrix of
    values when ``F`` and ``G`` stack along different axes); two single
    elements give a ``float``.
    """
    if not F.grid.same_nodes(G.grid):
        raise ValueError("elements live on different quadrature grids")
    mult = (1.0, spec.m2, spec.m3)
    total = 0.0
    for i in (1, 2, 3):
        w2 = spec.omega[i - 1] ** 2
        total += w2 * mult[i - 1] * F.grid.integrate(i, F.values[i - 1] * G.values[i - 1])
    total += (spec.m3 / spec.rho) * (F.f1 * G.f1)
    return total


def norm(spec: ProblemSpec, F: HilbertElement):
    """``sqrt(<F,F>)``, one per row of a stack; meaningful for definite forms only."""
    gram = inner_product(spec, F, F)
    if np.any(gram < 0.0):
        raise ValueError("<F, F> is negative: the form is indefinite")
    return math.sqrt(gram) if isinstance(gram, float) else np.sqrt(gram)


def _ends(F: HilbertElement) -> BoundaryData:
    if F.ends is None:
        raise ValueError("element carries no boundary data")
    return F.ends


def apply_operator(spec: ProblemSpec, F: HilbertElement) -> HilbertElement:
    """Operator action ``((-f'' + q f)/omega^2, -(beta1 f(1) - beta2 f'(1)))``.

    The scalar coordinate is minus the lambda-free part of the right
    condition, ``spec.right_form`` at ``lam = 0``.  ``F`` must carry
    second-derivative samples and boundary data.  The result carries value
    samples and the scalar coordinate only, stacked as ``F`` is.
    """
    if F.deriv2 is None:
        raise ValueError("element carries no second-derivative samples")
    values = []
    for i in (1, 2, 3):
        qx = _polyval(F.grid.nodes[i - 1], spec.q[i - 1])
        w2 = spec.omega[i - 1] ** 2
        values.append((-F.deriv2[i - 1] + qx * F.values[i - 1]) / w2)
    return HilbertElement(
        grid=F.grid, values=tuple(values), f1=-spec.right_form(0.0, *_ends(F).right),
    )


def domain_residuals(spec: ProblemSpec, F: HilbertElement) -> dict[str, float]:
    """How far an element is from the operator's domain conditions.

    Returns absolute residuals of the left boundary condition, the four
    transmission conditions, and the ``f1`` coupling.
    """
    return {
        **_ends(F).residuals(spec),
        "f1": abs(F.f1 - spec.f1_coupling(*_ends(F).right)),
    }


# ---------------------------------------------------------------------------
# constructing elements


def _hermite(a: float, b: float, va, sa, vb, sb, x):
    """Cubic on [a, b] with prescribed end values/slopes: f, f', f'' at ``x``."""
    L = b - a
    c0, c1 = va, sa
    # remaining coefficients from the right-end conditions
    c2 = (3.0 * (vb - va) - L * (2.0 * sa + sb)) / L**2
    c3 = (-2.0 * (vb - va) + L * (sa + sb)) / L**3
    t = x - a
    return (
        c0 + t * (c1 + t * (c2 + t * c3)),
        c1 + t * (2.0 * c2 + t * 3.0 * c3),
        2.0 * c2 + 6.0 * c3 * t,
    )


def _draw(seed: int) -> list:
    """The random parameters of one seeded domain element, in drawing order.

    They are ``random.Random(seed)``'s ``uniform`` draws, and a sign drawn as
    ``random() < 0.5``: the part of the standard library's stream that stays
    the same across Python versions.  ``Random`` would seed a negative seed
    as its absolute value, so one is refused.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    rng = random.Random(seed)
    freq = rng.uniform(3.0, 6.0)
    amp = rng.uniform(0.5, 1.5) * (-1.0 if rng.random() < 0.5 else 1.0)
    bump = [rng.uniform(-0.8, 0.8) for _ in range(3)]
    far = [rng.uniform(-1.5, 1.5) for _ in range(4)]
    return [freq, amp, *bump, *far]


@functools.lru_cache(maxsize=16)
def _seed_table(seeds: tuple[int, ...]) -> np.ndarray:
    """The ``(k, 9)`` read-only table of ``_draw`` of each seed, drawn once per process.

    Generators are dear next to the arithmetic of a small stack, so repeated
    samples of the same seeds, as every ``verify`` run takes, read this table.
    """
    table = np.array([_draw(k) for k in seeds])
    table.flags.writeable = False
    return table


def sample_domain_element(
    spec: ProblemSpec, seed, grid: Optional[QuadratureGrid] = None
) -> HilbertElement:
    """Random smooth element satisfying all domain conditions exactly.

    Piece 1 combines a trig shape launched with ``(sin(alpha), -cos(alpha))``
    (so the left condition holds identically) and a doubly-flat random cubic
    perturbation; pieces 2 and 3 are cubics whose left data are the jump
    images of the previous piece and whose right data are randomized.  The
    scalar coordinate is set to its domain-coupled value.  The same seed
    reproduces the same function on any grid.

    ``seed`` is a non-negative int, or a nonempty sequence of them for a
    stack with one row per seed; each row equals the element of its seed
    alone bit for bit.  A negative seed, a seed that is not an integer (a
    bool, a float, a string) and an empty stack raise ``ValueError``.  Each
    seed's parameters are drawn from ``random.Random(seed)`` (``_draw``),
    and those of a seed tuple once per process (``_seed_table``).
    """
    stacked = np.ndim(seed) > 0
    # an int seed is drawn as a stack of one; each parameter is a (k, 1)
    # column, one row per seed, broadcast against every point
    seeds = tuple(_integer("seed", k) for k in seed) if stacked else (_integer("seed", seed),)
    if not seeds:
        raise ValueError("seed: the stack of seeds is empty")
    if grid is None:
        grid = QuadratureGrid.build(spec)
    freq, amp, b0, b1, b2, p2, s2, p3, s3 = _seed_table(seeds).T[..., None]
    u0, v0 = spec.left_launch
    h1, h2 = spec.h1, spec.h2
    x1, x2, x3 = grid.nodes

    # each piece is evaluated once, at its end point(s) followed by its nodes
    x = np.concatenate(((-1.0, h1), x1))
    t = x + 1.0
    cos, sin = np.cos(freq * t), np.sin(freq * t)
    poly = b0 + b1 * x + b2 * x * x
    dpoly = b1 + 2.0 * b2 * x
    f = amp * (u0 * cos + (v0 / freq) * sin) + t * t * poly
    df = amp * (-u0 * freq * sin + v0 * cos) + 2.0 * t * poly + t * t * dpoly
    d2f = (amp * (-u0 * freq**2 * cos - v0 * freq * sin)
           + 2.0 * poly + 4.0 * t * dpoly + 2.0 * t * t * b2)
    left, h1_minus = State(f[:, 0:1], df[:, 0:1]), State(f[:, 1:2], df[:, 1:2])
    pieces = [(f[..., 2:], d2f[..., 2:])]

    h1_plus = State(*spec.jump(0, *h1_minus))
    f, df, d2f = _hermite(h1, h2, h1_plus.u, h1_plus.v, p2, s2, np.concatenate(((h2,), x2)))
    h2_minus = State(f[:, 0:1], df[:, 0:1])
    pieces.append((f[..., 1:], d2f[..., 1:]))

    h2_plus = State(*spec.jump(1, *h2_minus))
    f, df, d2f = _hermite(h2, 1.0, h2_plus.u, h2_plus.v, p3, s3, np.concatenate(((1.0,), x3)))
    right = State(f[:, 0:1], df[:, 0:1])
    pieces.append((f[..., 1:], d2f[..., 1:]))

    ends = BoundaryData(*(
        State(st.u[:, 0], st.v[:, 0])
        for st in (left, h1_minus, h1_plus, h2_minus, h2_plus, right)
    ))
    values, deriv2 = zip(*pieces)
    element = HilbertElement(
        grid=grid, values=values, f1=spec.f1_coupling(*ends.right), deriv2=deriv2, ends=ends,
    )
    return element if stacked else element.rows()[0]


def element_from_solution(
    spec: ProblemSpec, sol: PiecewiseSolution, grid: QuadratureGrid, points
):
    """Package a shooting solution as an element, with its states at further points.

    Second derivatives come from the differential equation itself,
    ``f'' = (q - lam*omega^2) f``, not from differencing.  A solution built
    for an array of ``lam`` gives a stack with one row per ``lam``.
    ``points`` holds further points, one array per piece; they are evaluated
    together with the grid nodes, all three pieces in one ``_query`` call,
    the one dense query.  Returns ``(element, states)`` with one ``(u, u')``
    pair of arrays per piece for ``points``.
    """
    lam = sol.lam[:, None] if np.ndim(sol.lam) > 0 else sol.lam
    xs = [np.concatenate(pair) for pair in zip(grid.nodes, points)]
    values, deriv2, states = [], [], []
    for i, (x, (u, v)) in enumerate(zip(grid.nodes, _query(sol.pieces, xs)), start=1):
        states.append((u[..., x.size:], v[..., x.size:]))
        u = u[..., : x.size]
        qx = _polyval(x, spec.q[i - 1])
        values.append(u)
        deriv2.append((qx - lam * spec.omega[i - 1] ** 2) * u)
    elem = HilbertElement(
        grid, tuple(values), spec.f1_coupling(*sol.ends.right), tuple(deriv2), sol.ends
    )
    return elem, tuple(states)


# ---------------------------------------------------------------------------
# symmetry certification


def symmetry_residual(
    spec: ProblemSpec, F: HilbertElement, G: HilbertElement, AF=None, AG=None
) -> float:
    """``|<AF, G> - <F, AG>|`` for domain elements.

    ``AF``/``AG`` are ``apply_operator`` of ``F``/``G``, computed here unless given.
    """
    AF = apply_operator(spec, F) if AF is None else AF
    AG = apply_operator(spec, G) if AG is None else AG
    return abs(inner_product(spec, AF, G) - inner_product(spec, F, AG))


def greens_identity_sides(
    spec: ProblemSpec, F: HilbertElement, G: HilbertElement
) -> tuple[float, float]:
    """Both sides of the integration-by-parts identity behind symmetry.

    Left side: ``<AF,G> - <F,AG>`` by quadrature.  Right side: the three
    weighted Wronskian increments plus the boundary-form term, all read off
    the stored one-sided end data.  For domain elements both should vanish;
    their mutual agreement holds for any smooth data and tests the identity
    itself rather than its corollary.
    """
    ef, eg = _ends(F), _ends(G)
    lhs = inner_product(spec, apply_operator(spec, F), G) - inner_product(
        spec, F, apply_operator(spec, G)
    )
    m2, m3 = spec.m2, spec.m3
    rhs = (
        (ef.h1_minus.wronskian(eg.h1_minus) - ef.left.wronskian(eg.left))
        + m2 * (ef.h2_minus.wronskian(eg.h2_minus) - ef.h1_plus.wronskian(eg.h1_plus))
        + m3 * (ef.right.wronskian(eg.right) - ef.h2_plus.wronskian(eg.h2_plus))
    )
    r1f, r1g = spec.right_form(0.0, *ef.right), spec.right_form(0.0, *eg.right)
    r1pf, r1pg = spec.f1_coupling(*ef.right), spec.f1_coupling(*eg.right)
    rhs += (m3 / spec.rho) * (r1pf * r1g - r1f * r1pg)
    return lhs, rhs


def interface_wronskian_residuals(
    spec: ProblemSpec, F: HilbertElement, G: HilbertElement
) -> tuple[float, float, float]:
    """Residuals of the Wronskian scaling relations used by the symmetry proof.

    Returns (h1 relation, h2 relation, left-end vanishing):

    * ``|W(h1-) - m2 * W(h1+)|``
    * ``|m2 * W(h2-) - m3 * W(h2+)|`` -- the h2 relation in the form that
      enters the telescoping identity, carrying the four-fold jump product
    * ``|W(-1)|``

    All three vanish for elements satisfying the domain conditions.
    """
    ef, eg = _ends(F), _ends(G)
    r_h1 = abs(ef.h1_minus.wronskian(eg.h1_minus) - spec.m2 * ef.h1_plus.wronskian(eg.h1_plus))
    r_h2 = abs(
        spec.m2 * ef.h2_minus.wronskian(eg.h2_minus) - spec.m3 * ef.h2_plus.wronskian(eg.h2_plus)
    )
    r_left = abs(ef.left.wronskian(eg.left))
    return r_h1, r_h2, r_left
