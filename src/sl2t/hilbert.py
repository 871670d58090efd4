"""Weighted inner product, operator action, and symmetry certification.

Elements of the working space carry three per-piece sample arrays plus one
scalar coordinate ``f1``.  The inner product weights the piece integrals by
``omega_i^2`` times the jump-product multipliers (1, m2, m3) and adds
``(m3/rho) * f1 * g1``; with those multipliers the operator

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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

from .problem import NumericalError, ProblemSpec, piece_bounds
from .shooting import BoundaryData, PiecewiseSolution, State

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


@functools.lru_cache(maxsize=8)
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on ``[-1, 1]``, computed once per ``n``.

    The arrays are shared by every grid with ``n`` nodes per piece, so they
    are read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class QuadratureGrid:
    """Gauss-Legendre nodes and weights, one rule per piece.

    Nodes lie strictly inside each open piece, so one-sided interface data
    never collides with quadrature sampling.  Construction self-checks the
    rule against monomials it must integrate exactly.
    """

    nodes: tuple[np.ndarray, np.ndarray, np.ndarray]
    weights: tuple[np.ndarray, np.ndarray, np.ndarray]
    nodes_per_piece: int

    @classmethod
    def build(cls, spec: ProblemSpec, nodes_per_piece: Optional[int] = None) -> "QuadratureGrid":
        n = spec.solver.quad_nodes if nodes_per_piece is None else int(nodes_per_piece)
        if n < 2:
            raise ValueError("need at least 2 nodes per piece")
        ref_x, ref_w = _gauss_rule(n)
        nodes, weights = [], []
        for i in (1, 2, 3):
            a, b = piece_bounds(spec, i)
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            nodes.append(mid + half * ref_x)
            weights.append(half * ref_w)
        grid = cls(nodes=tuple(nodes), weights=tuple(weights), nodes_per_piece=n)
        grid._self_check(spec)
        return grid

    def _self_check(self, spec: ProblemSpec) -> None:
        for i in (1, 2, 3):
            a, b = piece_bounds(spec, i)
            x, w = self.nodes[i - 1], self.weights[i - 1]
            if not (np.all(x > a) and np.all(x < b) and np.all(w > 0.0)):
                raise NumericalError("quadrature nodes/weights failed sanity bounds")
            for deg in (0, 1, min(2 * self.nodes_per_piece - 1, 13)):
                got = float(np.sum(w * x**deg))
                exact = (b ** (deg + 1) - a ** (deg + 1)) / (deg + 1)
                if abs(got - exact) > 1e-12 * (1.0 + abs(exact)):
                    raise NumericalError(
                        f"quadrature exactness check failed at degree {deg} on piece {i}"
                    )

    def integrate(self, piece: int, values: np.ndarray):
        """Integral of sampled values over one piece (1-based index).

        ``values`` may stack rows of samples along leading axes; the result
        then has one integral per row, and a single row gives a ``float``.
        """
        total = np.sum(self.weights[piece - 1] * values, axis=-1)
        return float(total) if total.ndim == 0 else total

    def same_nodes(self, other: "QuadratureGrid") -> bool:
        return self is other or (
            self.nodes_per_piece == other.nodes_per_piece
            and all(np.array_equal(a, b) for a, b in zip(self.nodes, other.nodes))
        )


@dataclass(frozen=True)
class HilbertElement:
    """Sampled member of the weighted space, or a stack of members.

    ``values`` (and optionally ``deriv``/``deriv2``) hold per-piece arrays on
    the grid nodes; ``ends`` carries exact one-sided boundary data when the
    element came from an analytic construction or a shooting solution.
    Elements produced by the operator itself carry samples and ``f1`` only.
    A stack of ``k`` elements has ``(k, nodes)`` arrays, a ``(k,)`` array
    ``f1`` and ``ends`` holding arrays.
    """

    grid: QuadratureGrid
    values: tuple[np.ndarray, np.ndarray, np.ndarray]
    f1: float | np.ndarray
    deriv: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    deriv2: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    ends: Optional[BoundaryData] = None

    def rows(self) -> list["HilbertElement"]:
        """One element, with a ``float`` ``f1`` and float ends, per row of a stack."""
        pick = lambda tup, j: None if tup is None else tuple(a[j] for a in tup)
        f1 = self.f1.tolist()
        ends = [None] * len(f1) if self.ends is None else self.ends.rows()
        return [
            HilbertElement(self.grid, pick(self.values, j), c, pick(self.deriv, j),
                           pick(self.deriv2, j), e)
            for j, (c, e) in enumerate(zip(f1, ends))
        ]

    def scaled(self, c) -> "HilbertElement":
        """Every sample, ``f1`` and end state times ``c``; a stack takes one factor per row."""
        per_node = c if np.ndim(c) == 0 else np.asarray(c)[:, None]
        sc = lambda tup: None if tup is None else tuple(per_node * a for a in tup)
        return HilbertElement(
            grid=self.grid, values=sc(self.values), f1=c * self.f1,
            deriv=sc(self.deriv), deriv2=sc(self.deriv2),
            ends=None if self.ends is None else self.ends.scaled(c),
        )


def _multipliers(spec: ProblemSpec) -> tuple[float, float, float]:
    return (1.0, spec.m2, spec.m3)


def inner_product(spec: ProblemSpec, F: HilbertElement, G: HilbertElement):
    """Weighted inner product of two elements on matching grids.

    Stacks broadcast against each other (one value per row, or a matrix of
    values when ``F`` and ``G`` stack along different axes); two single
    elements give a ``float``.
    """
    if not F.grid.same_nodes(G.grid):
        raise ValueError("elements live on different quadrature grids")
    mult = _multipliers(spec)
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
        qx = polyval(F.grid.nodes[i - 1], spec.q.pieces[i - 1])
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
    """The random parameters of one seeded domain element, in drawing order."""
    rng = np.random.default_rng(seed)
    freq = rng.uniform(3.0, 6.0)
    amp = rng.uniform(0.5, 1.5) * rng.choice((-1.0, 1.0))
    bump = rng.uniform(-0.8, 0.8, size=3)
    far2 = rng.uniform(-1.5, 1.5, size=2)
    far3 = rng.uniform(-1.5, 1.5, size=2)
    return [freq, amp, *bump, *map(float, far2), *map(float, far3)]


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

    ``seed`` is an int, or a sequence of ints for a stack with one row per
    seed; each row equals the element of its seed alone bit for bit.
    """
    stacked = np.ndim(seed) > 0
    if grid is None:
        grid = QuadratureGrid.build(spec)
    # an int seed is drawn as a stack of one; each parameter is a (k, 1)
    # column, one row per seed, broadcast against every point
    seeds = seed if stacked else [seed]
    freq, amp, b0, b1, b2, p2, s2, p3, s3 = np.array([_draw(int(k)) for k in seeds]).T[..., None]
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
    pieces = [(f[..., 2:], df[..., 2:], d2f[..., 2:])]

    h1_plus = State(*spec.jump(0, *h1_minus))
    f, df, d2f = _hermite(h1, h2, h1_plus.u, h1_plus.v, p2, s2, np.concatenate(((h2,), x2)))
    h2_minus = State(f[:, 0:1], df[:, 0:1])
    pieces.append((f[..., 1:], df[..., 1:], d2f[..., 1:]))

    h2_plus = State(*spec.jump(1, *h2_minus))
    f, df, d2f = _hermite(h2, 1.0, h2_plus.u, h2_plus.v, p3, s3, np.concatenate(((1.0,), x3)))
    right = State(f[:, 0:1], df[:, 0:1])
    pieces.append((f[..., 1:], df[..., 1:], d2f[..., 1:]))

    ends = BoundaryData(*(
        State(st.u[:, 0], st.v[:, 0])
        for st in (left, h1_minus, h1_plus, h2_minus, h2_plus, right)
    ))
    values, deriv, deriv2 = zip(*pieces)
    element = HilbertElement(
        grid=grid, values=values, f1=spec.f1_coupling(*ends.right), deriv=deriv,
        deriv2=deriv2, ends=ends,
    )
    return element if stacked else element.rows()[0]


def element_from_solution(
    spec: ProblemSpec,
    sol: PiecewiseSolution,
    grid: Optional[QuadratureGrid] = None,
    *,
    extra: Optional[Sequence[np.ndarray]] = None,
):
    """Package a shooting solution as an element.

    Second derivatives come from the differential equation itself,
    ``f'' = (q - lam*omega^2) f``, not from differencing.  A solution built
    for an array of ``lam`` gives a stack with one row per ``lam``, from one
    evaluation per piece.  ``extra`` holds further points, one array per
    piece; they are evaluated together with the grid nodes, and the call
    then returns ``(element, states)`` with one ``(u, u')`` pair of arrays per
    piece for those points.
    """
    if grid is None:
        grid = QuadratureGrid.build(spec)
    lam = sol.lam[:, None] if np.ndim(sol.lam) > 0 else sol.lam
    values, deriv, deriv2, states = [], [], [], []
    for i in (1, 2, 3):
        x = grid.nodes[i - 1]
        xs = x if extra is None else np.concatenate((x, extra[i - 1]))
        u, v = sol.pieces[i - 1].eval(xs)
        if extra is not None:
            states.append((u[..., x.size:], v[..., x.size:]))
            u, v = u[..., : x.size], v[..., : x.size]
        qx = polyval(x, spec.q.pieces[i - 1])
        values.append(u)
        deriv.append(v)
        deriv2.append((qx - lam * spec.omega[i - 1] ** 2) * u)
    elem = HilbertElement(
        grid, tuple(values), spec.f1_coupling(*sol.ends.right), tuple(deriv), tuple(deriv2),
        sol.ends,
    )
    return elem if extra is None else (elem, tuple(states))


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
