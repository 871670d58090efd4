"""Eigenvalue location and normalized eigenfunction assembly.

The search scans the characteristic function on a grid uniform in
``nu = sign(lam) * sqrt(|lam|)`` -- the natural spacing, since consecutive
large eigenvalues differ by about ``pi/Theta(1)`` in ``mu = sqrt(lam)`` --
brackets every sign change, and refines each bracket by bisection followed
by a short secant polish.  Every returned eigenvalue carries its bracket as
a sign-change certificate.

Only odd-multiplicity roots (sign changes) are found; a double root of the
characteristic function would be missed.  This is a documented limitation
of certificate-based scanning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

from .charfn import char_batch
from .hilbert import HilbertElement, QuadratureGrid, element_from_solution, inner_product
from .problem import NumericalError, ProblemSpec, phase, piece_bounds
from .shooting import BoundaryData, build_right

__all__ = [
    "EigenRecord",
    "ScanResult",
    "scan_floor",
    "locate_eigenvalues",
    "PieceSamples",
    "EigenFunction",
    "eigenfunction",
    "eigenfunctions",
    "eigenfunction_residuals",
    "orthogonality_matrix",
]


@dataclass(frozen=True)
class EigenRecord:
    """One located eigenvalue with its certificate.

    ``bracket`` strictly contains ``lambda_n`` and the characteristic value
    changes sign across it; ``abs_delta`` is the characteristic magnitude at
    the returned point.
    """

    n: int
    lambda_n: float
    mu_n: Optional[float]
    bracket: tuple[float, float]
    abs_delta: float
    refinement_iters: int


@dataclass(frozen=True)
class ScanResult:
    """Outcome of an eigenvalue search.

    ``exhausted`` is set when the scan budget ran out before ``n_max`` sign
    changes were found; the records list is then a verified prefix.
    """

    records: tuple[EigenRecord, ...]
    exhausted: bool
    scanned_to: float


def scan_floor(spec: ProblemSpec) -> float:
    """Lower end of the eigenvalue scan.

    ``-factor * (1 + max|q| / min(omega^2))``: below this the equation's
    zeroth-order coefficient ``q - lam*w`` is strictly positive, so solutions
    are convex and cannot oscillate into extra roots.  The potential maximum
    is taken on a dense grid per piece (closed endpoints included).
    """
    max_q = 0.0
    for i in (1, 2, 3):
        a, b = piece_bounds(spec, i)
        xs = np.linspace(a, b, 257)
        max_q = max(max_q, float(np.max(np.abs(polyval(xs, spec.q.pieces[i - 1])))))
    min_w = min(w * w for w in spec.omega)
    return -spec.solver.scan_floor_factor * (1.0 + max_q / min_w)


class _Refine:
    """Mutable bracket state during lockstep refinement."""

    __slots__ = ("lo", "hi", "flo", "fhi", "best_x", "best_f", "cert", "iters", "done")

    def __init__(self, lo, hi, flo, fhi):
        self.lo, self.hi, self.flo, self.fhi = lo, hi, flo, fhi
        self.best_x = 0.5 * (lo + hi)
        self.best_f = math.inf
        self.cert = (lo, hi)
        self.iters = 0
        self.done = False

    def absorb(self, x: float, fx: float) -> None:
        self.iters += 1
        if abs(fx) < abs(self.best_f):
            # remember the bracket as it was when this point was probed:
            # the point is strictly inside it, giving a valid certificate
            self.cert = (self.lo, self.hi)
            self.best_x, self.best_f = x, fx
        if fx == 0.0:
            self.done = True
            return
        if (fx > 0.0) == (self.flo > 0.0):
            self.lo, self.flo = x, fx
        else:
            self.hi, self.fhi = x, fx

    def width_target(self, root_tol: float) -> float:
        return max(root_tol, 8.0 * np.finfo(float).eps * max(abs(self.lo), abs(self.hi)))


def _refine_lockstep(spec: ProblemSpec, brackets) -> list[_Refine]:
    """Bisect all brackets to tolerance, then give each two secant polishes.

    Probe evaluations across roots are batched into single ``char_batch`` calls.
    """
    roots = [_Refine(*b) for b in brackets]
    root_tol = spec.solver.root_tol
    # bisection stage
    for _ in range(128):
        active = [r for r in roots if not r.done]
        if not active:
            break
        probes = np.array([0.5 * (r.lo + r.hi) for r in active])
        fs = char_batch(spec, probes)
        for r, x, fx in zip(active, probes, fs):
            r.absorb(float(x), float(fx))
            if r.hi - r.lo <= r.width_target(root_tol):
                r.done = True
    # secant polish stage
    for _ in range(2):
        polish = [r for r in roots if r.flo != r.fhi and r.hi > r.lo]
        xs = []
        for r in polish:
            x = r.hi - r.fhi * (r.hi - r.lo) / (r.fhi - r.flo)
            if not (r.lo < x < r.hi) or not math.isfinite(x):
                x = 0.5 * (r.lo + r.hi)
            xs.append(x)
        if not polish:
            break
        fs = char_batch(spec, np.array(xs))
        for r, x, fx in zip(polish, xs, fs):
            r.absorb(float(x), float(fx))
    return roots


def _certify(spec: ProblemSpec, refined: list[_Refine]) -> list[tuple[float, float]]:
    """Re-checkable sign-change brackets around already-polished roots.

    The refinement's final brackets sit at rounding width, where a fresh
    evaluation of the characteristic value returns rounding noise with an
    arbitrary sign.  Probe a symmetric window around each root instead: wide
    enough to clear the noise floor, far narrower than the gap to either
    neighbour, expanded geometrically in the rare case the endpoint signs
    still agree.
    """
    lams = [r.best_x for r in refined]
    n = len(lams)
    widths, caps = [], []
    for i, lam in enumerate(lams):
        gap = math.inf
        if i > 0:
            gap = min(gap, lam - lams[i - 1])
        if i + 1 < n:
            gap = min(gap, lams[i + 1] - lam)
        caps.append(0.45 * gap)
        widths.append(min(1e-8 * (1.0 + abs(lam)), caps[i]))
    certs: list[Optional[tuple[float, float]]] = [None] * n
    pending = list(range(n))
    for _ in range(6):
        if not pending:
            break
        probes = np.array([lams[i] + s * widths[i] for i in pending for s in (-1.0, 1.0)])
        fs = char_batch(spec, probes)
        still = []
        for k, i in enumerate(pending):
            if float(fs[2 * k]) * float(fs[2 * k + 1]) < 0.0:
                certs[i] = (lams[i] - widths[i], lams[i] + widths[i])
            elif widths[i] < caps[i]:
                widths[i] = min(8.0 * widths[i], caps[i])
                still.append(i)
        pending = still
    for i, cert in enumerate(certs):
        if cert is None:
            # fall back on the refinement's own bracket, whose recorded
            # endpoint evaluations did change sign
            certs[i] = refined[i].cert
    return certs


def locate_eigenvalues(
    spec: ProblemSpec, n_max: int, *, nu_budget: Optional[float] = None
) -> ScanResult:
    """Find the lowest ``n_max`` eigenvalues with sign-change certificates.

    ``nu_budget`` is an absolute ceiling for the scan in the signed
    ``nu = sign(lam)*sqrt|lam|`` coordinate (mainly a testing hook); the
    default comfortably covers ``n_max`` asymptotic gaps.  If the ceiling
    is reached first, the result is marked exhausted.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max!r}")
    total = phase(spec, 1.0)
    dnu = math.pi / (total * spec.solver.bracket_subdiv)
    lam_floor = scan_floor(spec)
    nu_floor = -math.sqrt(-lam_floor)
    if nu_budget is None:
        nu_budget = 1.25 * (n_max + 6) * math.pi / total

    brackets: list[tuple[float, float, float, float]] = []
    exhausted = False
    chunk = 96
    step_index = 0
    # last sample with a nonzero characteristic value; exact zeros on grid
    # points are skipped -- the surrounding sign change still brackets them
    prev: Optional[tuple[float, float]] = None
    scanned_to = lam_floor

    last_step = int(math.floor((nu_budget - nu_floor) / dnu))
    while len(brackets) < n_max:
        take = min(chunk, last_step - step_index + 1)
        if take <= 0:
            exhausted = True
            break
        nus = nu_floor + dnu * np.arange(step_index, step_index + take)
        step_index += take
        lams = nus * np.abs(nus)
        fs = char_batch(spec, lams)
        for lam, f in zip(lams, fs):
            lam, f = float(lam), float(f)
            scanned_to = lam
            if f == 0.0:
                continue
            if prev is not None and (prev[1] > 0.0) != (f > 0.0):
                brackets.append((prev[0], lam, prev[1], f))
            prev = (lam, f)
            if len(brackets) >= n_max:
                break

    brackets = brackets[:n_max]
    if not brackets:
        return ScanResult(records=(), exhausted=True, scanned_to=scanned_to)

    refined = _refine_lockstep(spec, brackets)
    certs = _certify(spec, refined)
    records = []
    last = -math.inf
    for idx, (r, cert) in enumerate(zip(refined, certs), start=1):
        lam = r.best_x
        if not (cert[0] < lam < cert[1]):
            raise NumericalError("refinement produced an invalid certificate")
        if lam <= last:
            raise NumericalError("eigenvalues not strictly increasing after refinement")
        last = lam
        records.append(
            EigenRecord(
                n=idx,
                lambda_n=lam,
                mu_n=math.sqrt(lam) if lam > 0.0 else None,
                bracket=cert,
                abs_delta=abs(r.best_f),
                refinement_iters=r.iters,
            )
        )
    return ScanResult(
        records=tuple(records),
        exhausted=exhausted or len(records) < n_max,
        scanned_to=scanned_to,
    )


# ---------------------------------------------------------------------------
# eigenfunctions


@dataclass(frozen=True)
class PieceSamples:
    """Sampled values on one piece, endpoints included (one-sided there)."""

    xs: np.ndarray
    u: np.ndarray
    du: np.ndarray


@dataclass(frozen=True)
class EigenFunction:
    """Normalized eigenfunction with per-piece samples and exact end data.

    ``normalization`` is the H-norm of the raw right-launched solution;
    samples and ``element`` (the eigenfunction on the quadrature grid, with
    its end states and ``f1``) are already divided by it (and sign fixed).
    """

    n: int
    lambda_n: float
    pieces: tuple[PieceSamples, PieceSamples, PieceSamples]
    normalization: float
    sign_flipped: bool
    element: HilbertElement

    @property
    def ends(self) -> BoundaryData:
        return self.element.ends

    @property
    def f1(self) -> float:
        return self.element.f1


def eigenfunctions(
    spec: ProblemSpec,
    recs: Sequence[EigenRecord],
    samples_per_piece: int = 40,
    grid: Optional[QuadratureGrid] = None,
) -> list[EigenFunction]:
    """Build the normalized eigenfunctions for located eigenvalues.

    Uses the right-launched solution (which satisfies the eigenvalue-
    dependent condition and the jumps identically; at a true root it also
    satisfies the left condition to residual tolerance), normalizes it to
    unit H-norm, and fixes the sign so the first significant sample is
    positive.  For indefinite forms the absolute value of the quadratic form
    is used for scaling.  One build serves every record, with one evaluation
    per piece for the quadrature nodes and the samples together, and one
    stacked inner product gives every norm; each record gets the values a
    build for its eigenvalue alone would give.

    A record whose solution has near-zero norm raises ``NumericalError``, as
    does one whose solution misses the left condition by more than
    ``1e-6 * (max|u| + max|u'| / (1 + sqrt|lam|))`` over the samples: the
    record is then not an eigenpair.
    """
    if samples_per_piece < 1:
        raise ValueError("samples_per_piece must be >= 1")
    if not recs:
        return []
    if grid is None:
        grid = QuadratureGrid.build(spec)
    lams = np.array([rec.lambda_n for rec in recs])
    sol = build_right(spec, lams)
    xs = [np.linspace(*piece_bounds(spec, i), samples_per_piece + 2) for i in (1, 2, 3)]
    stack, raw = element_from_solution(spec, sol, grid, extra=xs)

    e = sol.ends
    anchors = zip((e.left, e.h1_plus, e.h2_plus), (e.h1_minus, e.h2_minus, e.right))
    for (u, du), (start, end) in zip(raw, anchors):
        u[:, 0], du[:, 0] = start
        u[:, -1], du[:, -1] = end
    all_u = np.concatenate([u for u, _ in raw], axis=1)
    u_peak = np.max(np.abs(all_u), axis=1)
    du_peak = np.max(np.abs(np.concatenate([du for _, du in raw], axis=1)), axis=1)
    # left-condition residual relative to the sampled size of the solution
    left_miss = np.abs(spec.left_form(*e.left)) / (u_peak + du_peak / (1.0 + np.sqrt(np.abs(lams))))
    nrms = np.sqrt(np.abs(inner_product(spec, stack, stack)))
    launch_sizes = np.hypot(*e.right)
    for j, rec in enumerate(recs):
        if nrms[j] <= 1e-12 * (1.0 + launch_sizes[j]):
            raise NumericalError(
                f"right solution at lam={rec.lambda_n!r} has near-zero norm; "
                "the record does not look like an eigenpair"
            )
        if not left_miss[j] <= 1e-6:
            raise NumericalError(
                f"right solution at lam={rec.lambda_n!r} misses the left condition by "
                f"{left_miss[j]:.2e} of its size (tol 1e-06); the record is not an eigenpair"
            )

    # sign of the first sample above 1e-6 of the peak (rows that are all zero keep +1)
    significant = np.abs(all_u) > 1e-6 * u_peak[:, None]
    first = all_u[np.arange(len(recs)), np.argmax(significant, axis=1)]
    signs = np.where(np.any(significant, axis=1), np.where(first > 0.0, 1.0, -1.0), 1.0)
    scales = signs / nrms
    samples = [(x, scales[:, None] * u, scales[:, None] * du) for x, (u, du) in zip(xs, raw)]
    return [
        EigenFunction(
            n=rec.n,
            lambda_n=rec.lambda_n,
            pieces=tuple(PieceSamples(xs=x, u=u[j], du=du[j]) for x, u, du in samples),
            normalization=nrm,
            sign_flipped=sign < 0.0,
            element=elem,
        )
        for j, (rec, elem, nrm, sign) in enumerate(
            zip(recs, stack.scaled(scales).rows(), nrms.tolist(), signs.tolist())
        )
    ]


def eigenfunction(
    spec: ProblemSpec,
    rec: EigenRecord,
    samples_per_piece: int = 40,
    grid: Optional[QuadratureGrid] = None,
) -> EigenFunction:
    """Build the normalized eigenfunction for one located eigenvalue (see ``eigenfunctions``)."""
    return eigenfunctions(spec, [rec], samples_per_piece, grid)[0]


def eigenfunction_residuals(spec: ProblemSpec, ef: EigenFunction) -> dict[str, float]:
    """Raw boundary/transmission residuals of a normalized eigenfunction.

    Keys: ``left_bc`` (the fixed condition at -1), ``right_bc`` (the
    eigenvalue-dependent condition at +1), the four transmission relations,
    and ``max_abs_u`` for scaling.
    """
    e = ef.ends
    return {
        **e.residuals(spec),
        "right_bc": abs(spec.right_form(ef.lambda_n, *e.right)),
        "max_abs_u": max(float(np.max(np.abs(p.u))) for p in ef.pieces),
    }


def orthogonality_matrix(spec: ProblemSpec, fns: Sequence[EigenFunction]) -> np.ndarray:
    """Gram matrix of normalized eigenfunctions in the weighted inner product.

    The eigenfunctions' elements must share one quadrature grid.  The matrix
    comes from one inner product of the stacked elements as a column against
    them as a row.  Entry ``(i, j)`` equals
    ``inner_product(spec, fns[i].element, fns[j].element)``, and the matrix
    is exactly symmetric because the inner product is.
    """
    lams = [fn.lambda_n for fn in fns]
    for i in range(len(lams)):
        for j in range(i + 1, len(lams)):
            if abs(lams[i] - lams[j]) <= 1e-9 * (1.0 + abs(lams[i])):
                raise ValueError("eigenvalues must be distinct")
    if not fns:
        return np.zeros((0, 0))
    grid = fns[0].element.grid
    if not all(fn.element.grid.same_nodes(grid) for fn in fns):
        raise ValueError("elements live on different quadrature grids")
    values = [np.stack([fn.element.values[i] for fn in fns]) for i in range(3)]
    f1 = np.array([fn.f1 for fn in fns])
    row = HilbertElement(grid, tuple(values), f1)
    column = HilbertElement(grid, tuple(v[:, None] for v in values), f1[:, None])
    return inner_product(spec, column, row)
