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

When an inner-product multiplier is nonpositive the form is indefinite; the
problem is still solvable, but symmetry/orthogonality certification is
meaningless and callers are expected to skip it (``spec.is_definite``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

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
    "domain_residuals",
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

    def integrate(self, piece: int, values: np.ndarray) -> float:
        """Integral of sampled values over one piece (1-based index)."""
        return float(np.sum(self.weights[piece - 1] * values))

    def same_nodes(self, other: "QuadratureGrid") -> bool:
        return self is other or (
            self.nodes_per_piece == other.nodes_per_piece
            and all(np.array_equal(a, b) for a, b in zip(self.nodes, other.nodes))
        )


@dataclass(frozen=True)
class HilbertElement:
    """Sampled member of the weighted space.

    ``values`` (and optionally ``deriv``/``deriv2``) hold per-piece arrays on
    the grid nodes; ``ends`` carries exact one-sided boundary data when the
    element came from an analytic construction or a shooting solution.
    Elements produced by the operator itself carry samples and ``f1`` only.
    """

    grid: QuadratureGrid
    values: tuple[np.ndarray, np.ndarray, np.ndarray]
    f1: float
    deriv: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    deriv2: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    ends: Optional[BoundaryData] = None

    def scaled(self, c: float) -> "HilbertElement":
        sc = lambda tup: None if tup is None else tuple(c * a for a in tup)
        return HilbertElement(
            grid=self.grid, values=sc(self.values), f1=c * self.f1,
            deriv=sc(self.deriv), deriv2=sc(self.deriv2),
            ends=None if self.ends is None else self.ends.scaled(c),
        )


def _multipliers(spec: ProblemSpec) -> tuple[float, float, float]:
    return (1.0, spec.m2, spec.m3)


def inner_product(spec: ProblemSpec, F: HilbertElement, G: HilbertElement) -> float:
    """Weighted inner product of two elements on matching grids."""
    if not F.grid.same_nodes(G.grid):
        raise ValueError("elements live on different quadrature grids")
    mult = _multipliers(spec)
    total = 0.0
    for i in (1, 2, 3):
        w2 = spec.omega[i - 1] ** 2
        total += w2 * mult[i - 1] * F.grid.integrate(i, F.values[i - 1] * G.values[i - 1])
    total += (spec.m3 / spec.rho) * F.f1 * G.f1
    return total


def norm(spec: ProblemSpec, F: HilbertElement) -> float:
    """``sqrt(<F,F>)``; meaningful for definite forms only."""
    return math.sqrt(inner_product(spec, F, F))


def _ends(F: HilbertElement) -> BoundaryData:
    if F.ends is None:
        raise ValueError("element carries no boundary data")
    return F.ends


def apply_operator(spec: ProblemSpec, F: HilbertElement) -> HilbertElement:
    """Operator action ``((-f'' + q f)/omega^2, -(beta1 f(1) - beta2 f'(1)))``.

    The scalar coordinate is minus the lambda-free part of the right
    condition, ``spec.right_form`` at ``lam = 0``.  ``F`` must carry
    second-derivative samples and boundary data.  The result carries value
    samples and the scalar coordinate only.
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


def _hermite(a: float, b: float, va: float, sa: float, vb: float, sb: float):
    """Cubic on [a, b] with prescribed end values/slopes; returns f, f', f''."""
    L = b - a
    c0, c1 = va, sa
    # remaining coefficients from the right-end conditions
    c2 = (3.0 * (vb - va) - L * (2.0 * sa + sb)) / L**2
    c3 = (-2.0 * (vb - va) + L * (sa + sb)) / L**3

    def f(x):
        t = x - a
        return c0 + t * (c1 + t * (c2 + t * c3))

    def df(x):
        t = x - a
        return c1 + t * (2.0 * c2 + t * 3.0 * c3)

    def d2f(x):
        t = x - a
        return 2.0 * c2 + 6.0 * c3 * t

    return f, df, d2f


def sample_domain_element(
    spec: ProblemSpec, seed: int, grid: Optional[QuadratureGrid] = None
) -> HilbertElement:
    """Random smooth element satisfying all domain conditions exactly.

    Piece 1 combines a trig shape launched with ``(sin(alpha), -cos(alpha))``
    (so the left condition holds identically) and a doubly-flat random cubic
    perturbation; pieces 2 and 3 are cubics whose left data are the jump
    images of the previous piece and whose right data are randomized.  The
    scalar coordinate is set to its domain-coupled value.  The same seed
    reproduces the same function on any grid.
    """
    rng = np.random.default_rng(seed)
    if grid is None:
        grid = QuadratureGrid.build(spec)

    freq = rng.uniform(3.0, 6.0)
    amp = rng.uniform(0.5, 1.5) * rng.choice((-1.0, 1.0))
    bump = rng.uniform(-0.8, 0.8, size=3)
    u0, v0 = spec.left_launch

    def f1v(x):
        t = x + 1.0
        launch = u0 * np.cos(freq * t) + (v0 / freq) * np.sin(freq * t)
        poly = bump[0] + bump[1] * x + bump[2] * x * x
        return amp * launch + t * t * poly

    def f1d(x):
        t = x + 1.0
        launch = -u0 * freq * np.sin(freq * t) + v0 * np.cos(freq * t)
        poly = bump[0] + bump[1] * x + bump[2] * x * x
        dpoly = bump[1] + 2.0 * bump[2] * x
        return amp * launch + 2.0 * t * poly + t * t * dpoly

    def f1d2(x):
        t = x + 1.0
        launch = -u0 * freq**2 * np.cos(freq * t) - v0 * freq * np.sin(freq * t)
        poly = bump[0] + bump[1] * x + bump[2] * x * x
        dpoly = bump[1] + 2.0 * bump[2] * x
        return amp * launch + 2.0 * poly + 4.0 * t * dpoly + 2.0 * t * t * bump[2]

    h1, h2 = spec.h1, spec.h2
    left = State(float(f1v(-1.0)), float(f1d(-1.0)))
    h1_minus = State(float(f1v(h1)), float(f1d(h1)))
    h1_plus = State(*spec.jump(0, *h1_minus))
    far2 = rng.uniform(-1.5, 1.5, size=2)
    f2, f2d, f2d2 = _hermite(h1, h2, h1_plus.u, h1_plus.v, float(far2[0]), float(far2[1]))
    h2_minus = State(f2(h2), f2d(h2))
    h2_plus = State(*spec.jump(1, *h2_minus))
    far3 = rng.uniform(-1.5, 1.5, size=2)
    f3, f3d, f3d2 = _hermite(h2, 1.0, h2_plus.u, h2_plus.v, float(far3[0]), float(far3[1]))
    right = State(f3(1.0), f3d(1.0))

    x1, x2, x3 = grid.nodes
    values = (f1v(x1), f2(x2), f3(x3))
    deriv = (f1d(x1), f2d(x2), f3d(x3))
    deriv2 = (f1d2(x1), f2d2(x2), f3d2(x3))
    return HilbertElement(
        grid=grid, values=values, f1=spec.f1_coupling(*right), deriv=deriv, deriv2=deriv2,
        ends=BoundaryData(left, h1_minus, h1_plus, h2_minus, h2_plus, right),
    )


def element_from_solution(
    spec: ProblemSpec, sol: PiecewiseSolution, grid: Optional[QuadratureGrid] = None
) -> HilbertElement | list[HilbertElement]:
    """Package a shooting solution as an element.

    Second derivatives come from the differential equation itself,
    ``f'' = (q - lam*omega^2) f``, not from differencing.  A solution built
    for an array of ``lam`` gives a list with one element per ``lam``, from
    one evaluation per piece.
    """
    if grid is None:
        grid = QuadratureGrid.build(spec)
    batched = np.ndim(sol.lam) > 0
    lam = sol.lam[:, None] if batched else sol.lam
    values, deriv, deriv2 = [], [], []
    for i in (1, 2, 3):
        x = grid.nodes[i - 1]
        u, v = sol.pieces[i - 1].eval(x)
        qx = polyval(x, spec.q.pieces[i - 1])
        values.append(u)
        deriv.append(v)
        deriv2.append((qx - lam * spec.omega[i - 1] ** 2) * u)
    if batched:
        rows = zip(zip(*values), zip(*deriv), zip(*deriv2), sol.ends.rows())
    else:
        rows = [(tuple(values), tuple(deriv), tuple(deriv2), sol.ends)]
    elems = [
        HilbertElement(grid, f, spec.f1_coupling(*ends.right), df, d2f, ends)
        for f, df, d2f, ends in rows
    ]
    return elems if batched else elems[0]


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
