"""Eigenvalue location and normalized eigenfunction assembly.

The search scans the characteristic function on a grid uniform in
``nu = sign(lam) * sqrt(|lam|)`` -- the natural spacing, since consecutive
large eigenvalues differ by about ``pi/Theta(1)`` in ``mu = sqrt(lam)`` --
and brackets every sign change.  All brackets are then refined in lockstep,
on arrays of bracket ends and end values: each round probes every unfinished
root in one ``char_batch`` call at its ITP point (interpolate, truncate,
project; Oliveira & Takahashi, ACM TOMS 47, 2020), a regula falsi step whose
projection keeps each root within four rounds of bisection.  Two secant
polishes follow, and a symmetric window around each root is checked for a
sign change.  Every returned eigenvalue carries that window (or its
refinement bracket) as a sign-change certificate.

Only odd-multiplicity roots (sign changes) are found; a double root of the
characteristic function would be missed.  This is a documented limitation
of certificate-based scanning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

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
    the returned point; ``refinement_iters`` counts the characteristic
    evaluations refinement spent on this root, polish included.
    """

    n: int
    lambda_n: float
    mu_n: Optional[float]
    bracket: tuple[float, float]
    abs_delta: float
    refinement_iters: int


#: one row per located root, in ascending order of ``lambda_n``
_ROOT_TABLE = np.dtype(
    [
        ("lambda_n", np.float64),
        ("bracket_lo", np.float64),
        ("bracket_hi", np.float64),
        ("abs_delta", np.float64),
        ("refinement_iters", np.int64),
    ]
)


@dataclass(frozen=True, eq=False, slots=True)
class ScanResult:
    """Outcome of an eigenvalue search.

    ``table`` holds the located roots as one read-only structured array, row
    ``n - 1`` for eigenvalue ``n``, with the columns ``lambda_n``,
    ``bracket_lo``, ``bracket_hi``, ``abs_delta`` and ``refinement_iters``.
    ``records`` builds the ``EigenRecord`` tuple from it anew on every
    access, so a kept result holds the numbers only; compare results by
    their records, not with ``==``.  ``exhausted`` is set when the scan
    budget ran out before ``n_max`` sign changes were found; the records are
    then a verified prefix.
    """

    table: np.ndarray
    exhausted: bool
    scanned_to: float

    @property
    def records(self) -> tuple[EigenRecord, ...]:
        return tuple(
            EigenRecord(
                n=n,
                lambda_n=lam,
                mu_n=math.sqrt(lam) if lam > 0.0 else None,
                bracket=(lo, hi),
                abs_delta=delta,
                refinement_iters=iters,
            )
            for n, (lam, lo, hi, delta, iters) in enumerate(self.table.tolist(), start=1)
        )


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


_EPS = float(np.finfo(float).eps)
#: ITP's slack: a bracket takes at most this many rounds more than bisection
_ITP_N0 = 4
#: ITP's truncation is ``_ITP_K1 * width**2 / w0``, ``w0`` the scan bracket's
#: width (the usual 0.2 spends the first rounds overshooting the root), but at
#: least ``_ITP_FLOOR`` of the stop width: once the regula falsi point has
#: converged, one probe on each side of it closes the bracket
_ITP_K1 = 0.01
_ITP_FLOOR = 0.4


def _stop_width(root_tol: float, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Bracket width at which refinement stops: ``max(root_tol, 8 eps max|end|)``."""
    return np.maximum(root_tol, 8.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)))


@dataclass
class _Refinement:
    """Lockstep refinement of many brackets, one array entry per root.

    ``lo``/``hi`` are the brackets and ``flo``/``fhi`` their end values, of
    opposite sign throughout.  ``x``/``fx`` is the probe with the smallest
    ``|f|`` so far and ``cert_lo``/``cert_hi`` the bracket it was probed in,
    which holds it strictly inside.  ``iters`` counts each root's
    evaluations; ``rounds`` the lockstep ITP rounds, polish excluded.
    """

    lo: np.ndarray
    hi: np.ndarray
    flo: np.ndarray
    fhi: np.ndarray
    x: np.ndarray
    fx: np.ndarray
    cert_lo: np.ndarray
    cert_hi: np.ndarray
    iters: np.ndarray
    rounds: int = 0

    def absorb(self, idx: np.ndarray, x: np.ndarray, fx: np.ndarray) -> None:
        """Take the values ``fx`` probed at ``x`` inside the brackets ``idx``."""
        self.iters[idx] += 1
        better = np.abs(fx) < np.abs(self.fx[idx])
        won = idx[better]
        # the bracket as it was when the point was probed certifies it
        self.cert_lo[won], self.cert_hi[won] = self.lo[won], self.hi[won]
        self.x[won], self.fx[won] = x[better], fx[better]
        low = (fx != 0.0) & ((fx > 0.0) == (self.flo[idx] > 0.0))
        high = (fx != 0.0) & ~low
        self.lo[idx[low]], self.flo[idx[low]] = x[low], fx[low]
        self.hi[idx[high]], self.fhi[idx[high]] = x[high], fx[high]


def _refine(
    f: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    flo: np.ndarray,
    fhi: np.ndarray,
    root_tol: float,
) -> _Refinement:
    """Refine sign-change brackets of ``f`` in lockstep, then polish each root.

    ``f`` maps an array of points to an array of values; each round calls it
    once, on one probe per unfinished root.  A root is finished when its
    bracket is no wider than ``_stop_width`` or a probe hits an exact zero.
    The probe is ITP's (interpolate, truncate, project): the regula falsi
    point, moved towards the midpoint by the truncation and then into the
    interval about the midpoint that keeps the ITP guarantee, at most
    ``ceil(log2(w0 / target)) + _ITP_N0`` rounds for a bracket of width
    ``w0`` whose narrowest reachable stop width is ``target``.  Two secant
    polishes on the final brackets follow.  The inputs are not modified.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    flo, fhi = np.array(flo, dtype=float), np.array(fhi, dtype=float)
    n = lo.size
    # absorb updates these arrays in place
    r = _Refinement(
        lo=lo, hi=hi, flo=flo, fhi=fhi, x=0.5 * (lo + hi), fx=np.full(n, np.inf),
        cert_lo=lo.copy(), cert_hi=hi.copy(), iters=np.zeros(n, dtype=np.int64),
    )
    w0 = hi - lo
    k1 = _ITP_K1 / w0
    nearest = np.where(lo * hi > 0.0, np.minimum(np.abs(lo), np.abs(hi)), 0.0)
    target = _stop_width(root_tol, nearest, nearest)
    budget = np.ceil(np.log2(w0 / target)) + _ITP_N0
    # the projection aims a quarter below the target: an ulp is at most an
    # eighth of any stop width, so probes rounded to floats still close every
    # bracket within the budget
    aim = 0.75 * target
    active = np.arange(n)
    while True:
        stop = _stop_width(root_tol, lo[active], hi[active])
        unfinished = hi[active] - lo[active] > stop
        active, stop = active[unfinished], stop[unfinished]
        if not active.size:
            break
        a, b, fa, fb = lo[active], hi[active], flo[active], fhi[active]
        w, mid = b - a, 0.5 * (a + b)
        xf = a - fa * w / (fb - fa)
        sigma = np.sign(mid - xf)
        delta = np.maximum(k1[active] * w * w, _ITP_FLOOR * stop)
        xt = np.where(delta <= np.abs(mid - xf), xf + sigma * delta, mid)
        # after this round the width is at most aim * 2**(budget - rounds - 1)
        radius = np.maximum(0.5 * (aim[active] * 2.0 ** (budget[active] - r.rounds) - w), 0.0)
        x = np.where(np.abs(xt - mid) <= radius, xt, mid - sigma * radius)
        x = np.where((a < x) & (x < b), x, mid)
        fx = np.asarray(f(x), dtype=float)
        r.absorb(active, x, fx)
        r.rounds += 1
        active = active[fx != 0.0]
    everyone = np.arange(n)
    for _ in range(2):
        x = hi - fhi * (hi - lo) / (fhi - flo)
        x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
        r.absorb(everyone, x, np.asarray(f(x), dtype=float))
    return r


def _certify(spec: ProblemSpec, refined: _Refinement) -> tuple[np.ndarray, np.ndarray]:
    """Re-checkable sign-change brackets around already-polished roots.

    The refinement's final brackets sit at rounding width, where a fresh
    evaluation of the characteristic value returns rounding noise with an
    arbitrary sign.  Probe a symmetric window around each root instead: wide
    enough to clear the noise floor, far narrower than the gap to either
    neighbour, expanded geometrically in the rare case the endpoint signs
    still agree.  A root whose window never changes sign keeps the
    refinement's bracket, whose recorded end values did.
    """
    lams = refined.x
    gaps = np.diff(lams)
    caps = 0.45 * np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf))
    widths = np.minimum(1e-8 * (1.0 + np.abs(lams)), caps)
    lo, hi = refined.cert_lo.copy(), refined.cert_hi.copy()
    pending = np.arange(lams.size)
    for _ in range(6):
        if not pending.size:
            break
        lam, w = lams[pending], widths[pending]
        fs = char_batch(spec, np.stack([lam - w, lam + w], axis=1).reshape(-1))
        ok = fs[0::2] * fs[1::2] < 0.0
        done = pending[ok]
        lo[done], hi[done] = lam[ok] - w[ok], lam[ok] + w[ok]
        pending = pending[~ok & (w < caps[pending])]
        widths[pending] = np.minimum(8.0 * widths[pending], caps[pending])
    return lo, hi


def _scan(spec: ProblemSpec, n_max: int, nu_budget: Optional[float]):
    """Sign-change brackets of the lowest ``n_max`` roots, in ascending order.

    Returns ``(lo, hi, flo, fhi, exhausted, scanned_to)``; the brackets join
    consecutive samples with nonzero values of opposite sign (an exact zero
    on a grid point is skipped, the surrounding sign change still brackets
    it).  The grid is scanned in chunks of 96 samples, up to ``nu_budget``.
    """
    total = phase(spec, 1.0)
    dnu = math.pi / (total * spec.solver.bracket_subdiv)
    lam_floor = scan_floor(spec)
    nu_floor = -math.sqrt(-lam_floor)
    if nu_budget is None:
        nu_budget = 1.25 * (n_max + 6) * math.pi / total
    last_step = int(math.floor((nu_budget - nu_floor) / dnu))

    found = [(np.empty(0),) * 4]
    count, step_index, chunk = 0, 0, 96
    prev_lam, prev_f = np.empty(0), np.empty(0)
    scanned_to = lam_floor
    while count < n_max:
        take = min(chunk, last_step - step_index + 1)
        if take <= 0:
            break
        nus = nu_floor + dnu * np.arange(step_index, step_index + take)
        step_index += take
        lams = nus * np.abs(nus)
        fs = char_batch(spec, lams)
        nonzero = fs != 0.0
        xs = np.concatenate([prev_lam, lams[nonzero]])
        vs = np.concatenate([prev_f, fs[nonzero]])
        at = np.flatnonzero((vs[:-1] > 0.0) != (vs[1:] > 0.0))[: n_max - count]
        found.append((xs[at], xs[at + 1], vs[at], vs[at + 1]))
        count += at.size
        scanned_to = float(xs[at[-1] + 1]) if count == n_max else float(lams[-1])
        prev_lam, prev_f = xs[-1:], vs[-1:]
    lo, hi, flo, fhi = (np.concatenate(cols) for cols in zip(*found))
    return lo, hi, flo, fhi, count < n_max, scanned_to


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
    lo, hi, flo, fhi, exhausted, scanned_to = _scan(spec, n_max, nu_budget)
    table = np.empty(lo.size, dtype=_ROOT_TABLE)
    if lo.size:
        refined = _refine(lambda lams: char_batch(spec, lams), lo, hi, flo, fhi, spec.solver.root_tol)
        cert_lo, cert_hi = _certify(spec, refined)
        lams = refined.x
        if not np.all((cert_lo < lams) & (lams < cert_hi)):
            raise NumericalError("refinement produced an invalid certificate")
        if np.any(np.diff(lams) <= 0.0):
            raise NumericalError("eigenvalues not strictly increasing after refinement")
        table["lambda_n"], table["bracket_lo"], table["bracket_hi"] = lams, cert_lo, cert_hi
        table["abs_delta"], table["refinement_iters"] = np.abs(refined.fx), refined.iters
    table.setflags(write=False)
    return ScanResult(table=table, exhausted=exhausted, scanned_to=scanned_to)


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
