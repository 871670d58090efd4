"""Eigenvalue references that never call ``sl2t``.

A reference problem is built from the raw config mapping, not from a parsed
``ProblemSpec``.  Roots are found by a sign-change scan that starts far below
the solver's heuristic floor, then refined by bisection until the bracket ends
are adjacent floats.

* q piecewise constant: the characteristic value is the exact transfer
  product of ``tests/oracles.py::transfer_char`` (closed-form cos/sin and
  cosh/sinh per piece).
* q polynomial: a fourth-order Magnus propagator on a fixed mesh, vectorised
  over lambda.  Each step exponential has the closed form
  ``exp M = cosh(d) I + sinh(d)/d M`` with ``d^2 = -det M``.  The mesh is
  doubled until the roots agree to ``MESH_RTOL``, and the finer roots are
  kept.  On constant q every Magnus step is exact, which is how the
  propagator is checked against ``transfer_char``.
"""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

#: reference scan points per asymptotic eigenvalue gap pi/Theta in sqrt(lam)
SCAN_POINTS_PER_GAP = 32
#: the scan starts at this multiple of the heuristic floor (below it)
FLOOR_MULTIPLE = 100.0
#: cap on Theta * sqrt(-lam_lo), so cosh/sinh products stay far from overflow
MAX_GROWTH = 200.0
#: Magnus steps per unit length on the first mesh
MESH_PER_UNIT = 256
#: two successive Magnus meshes must agree on every root to this relative error
MESH_RTOL = 1e-12
MAX_MESH_PER_UNIT = 16384


def load_oracles():
    """``tests/oracles.py`` loaded by path: it imports nothing from ``sl2t``."""
    spec = importlib.util.spec_from_file_location("sl2t_bench_oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class RefProblem:
    """The fields the oracles read, computed from the raw config mapping."""

    def __init__(self, cfg: dict):
        self.h1, self.h2 = float(cfg["h1"]), float(cfg["h2"])
        self.omega = tuple(float(w) for w in cfg["omega"])
        self.alpha = float(cfg["alpha"])
        self.beta = tuple(float(b) for b in cfg["beta"])
        self.beta_prime = tuple(float(b) for b in cfg["beta_prime"])
        self.gamma = tuple(float(g) for g in cfg["gamma"])
        self.delta = tuple(float(d) for d in cfg["delta"])
        pieces = cfg.get("q", {"pieces": [[0.0], [0.0], [0.0]]})["pieces"]
        self.q = SimpleNamespace(pieces=tuple(tuple(float(c) for c in p) for p in pieces))
        self.breakpoints = (-1.0, self.h1, self.h2, 1.0)
        g, d = self.gamma, self.delta
        self.m3 = (d[0] * d[1] * d[2] * d[3]) / (g[0] * g[1] * g[2] * g[3])
        self.q_constant = all(all(c == 0.0 for c in p[1:]) for p in self.q.pieces)

    @property
    def theta(self) -> float:
        """Weighted length: eigenvalue gaps in sqrt(lam) approach pi / theta."""
        b = self.breakpoints
        return sum(self.omega[i] * (b[i + 1] - b[i]) for i in range(3))

    def max_abs_q(self) -> float:
        b = self.breakpoints
        out = 0.0
        for i, coeffs in enumerate(self.q.pieces):
            xs = np.linspace(b[i], b[i + 1], 257)
            out = max(out, float(np.max(np.abs(np.polynomial.polynomial.polyval(xs, coeffs)))))
        return out

    def scan_start(self) -> float:
        """Lower end of the reference scan, well below the solver's floor."""
        heuristic = 10.0 * (1.0 + self.max_abs_q() / min(w * w for w in self.omega))
        nu = min(math.sqrt(FLOOR_MULTIPLE * heuristic), MAX_GROWTH / self.theta)
        return -nu * nu


# ---------------------------------------------------------------------------
# Magnus propagator


def magnus_char(prob: RefProblem, lams: np.ndarray, per_unit: int) -> np.ndarray:
    """Characteristic value at each ``lam`` by fourth-order Magnus steps.

    Normalised as ``transfer_char``: ``m3`` times the right boundary form of
    the left-launched solution at ``x = 1``.
    """
    lams = np.asarray(lams, dtype=float)
    u = np.full(lams.shape, math.sin(prob.alpha))
    v = np.full(lams.shape, -math.cos(prob.alpha))
    b = prob.breakpoints
    c = math.sqrt(3.0) / 6.0
    for i in range(3):
        if i == 1:
            u = u * (prob.gamma[0] / prob.delta[0])
            v = v * (prob.gamma[1] / prob.delta[1])
        elif i == 2:
            u = u * (prob.gamma[2] / prob.delta[2])
            v = v * (prob.gamma[3] / prob.delta[3])
        length = b[i + 1] - b[i]
        n = max(8, int(math.ceil(per_unit * length)))
        h = length / n
        left = b[i] + h * np.arange(n)
        x1 = left + (0.5 - c) * h
        x2 = left + (0.5 + c) * h
        coeffs = prob.q.pieces[i]
        w2 = prob.omega[i] ** 2
        # u'' = a(x) u with a = q - lam w^2, sampled at the two Gauss points
        a1 = np.polynomial.polynomial.polyval(x1, coeffs)[:, None] - lams[None, :] * w2
        a2 = np.polynomial.polynomial.polyval(x2, coeffs)[:, None] - lams[None, :] * w2
        # M = h/2 (A1 + A2) + sqrt(3) h^2 / 12 [A2, A1], A = [[0, 1], [a, 0]]
        m11 = (math.sqrt(3.0) * h * h / 12.0) * (a1 - a2)
        m21 = 0.5 * h * (a1 + a2)
        d2 = m11 * m11 + h * m21
        d = np.sqrt(np.abs(d2))
        small = d < 1e-8
        ds = np.where(small, 1.0, d)
        pos = d2 >= 0.0
        ch = np.where(pos, np.cosh(d), np.cos(d))
        sh = np.where(small, 1.0 + d2 / 6.0, np.where(pos, np.sinh(d), np.sin(d)) / ds)
        # step matrices [[ch + sh m11, sh h], [sh m21, ch - sh m11]]
        p = (ch + sh * m11, sh * h, sh * m21, ch - sh * m11)
        one, zero = np.ones((1, lams.size)), np.zeros((1, lams.size))
        while p[0].shape[0] > 1:
            if p[0].shape[0] % 2:
                p = tuple(np.concatenate((e, pad)) for e, pad in zip(p, (one, zero, zero, one)))
            # later step (odd rows) times earlier step (even rows)
            a, bb, cc, dd = (e[1::2] for e in p)
            e_, f_, g_, h_ = (e[0::2] for e in p)
            p = (a * e_ + bb * g_, a * f_ + bb * h_, cc * e_ + dd * g_, cc * f_ + dd * h_)
        u, v = p[0][0] * u + p[1][0] * v, p[2][0] * u + p[3][0] * v
    b1, b2 = prob.beta
    b1p, b2p = prob.beta_prime
    return prob.m3 * ((b1p * lams + b1) * u - (b2p * lams + b2) * v)


# ---------------------------------------------------------------------------
# scan and bisection


def _scan_grid(prob: RefProblem, lam_lo: float, lam_hi: float) -> np.ndarray:
    dnu = math.pi / (prob.theta * SCAN_POINTS_PER_GAP)
    nu_lo = -math.sqrt(-lam_lo) if lam_lo < 0.0 else math.sqrt(lam_lo)
    nu_hi = math.copysign(math.sqrt(abs(lam_hi)), lam_hi)
    nus = nu_lo + dnu * np.arange(int(math.ceil((nu_hi - nu_lo) / dnu)) + 1)
    return nus * np.abs(nus)


def _brackets(lams: np.ndarray, fs: np.ndarray) -> list[tuple[float, float, float, float]]:
    out = []
    prev = None
    for lam, f in zip(lams.tolist(), fs.tolist()):
        if f == 0.0:
            continue
        if prev is not None and (prev[1] > 0.0) != (f > 0.0):
            out.append((prev[0], lam, prev[1], f))
        prev = (lam, f)
    return out


def _bisect_batch(fn, brackets) -> list[tuple[float, float]]:
    """Lockstep bisection until each bracket's ends are adjacent floats."""
    lo = np.array([b[0] for b in brackets])
    hi = np.array([b[1] for b in brackets])
    flo = np.array([b[2] for b in brackets])
    while True:
        mid = 0.5 * (lo + hi)
        active = (mid > lo) & (mid < hi)
        if not np.any(active):
            return list(zip(lo.tolist(), hi.tolist()))
        idx = np.flatnonzero(active)
        fm = fn(mid[idx])
        for k, j in enumerate(idx.tolist()):
            f = float(fm[k])
            if f == 0.0:
                lo[j] = hi[j] = mid[j]
            elif (f > 0.0) == (flo[j] > 0.0):
                lo[j], flo[j] = mid[j], f
            else:
                hi[j] = mid[j]


def _scan(fn, prob: RefProblem, count: int) -> list[tuple[float, float, float, float]]:
    """Scan-grid brackets of the lowest ``count`` real sign changes of ``fn``."""
    lam_lo = prob.scan_start()
    lam_hi = (1.25 * (count + 6) * math.pi / prob.theta) ** 2
    for _ in range(8):
        lams = _scan_grid(prob, lam_lo, lam_hi)
        fs = np.concatenate([fn(chunk) for chunk in np.array_split(lams, max(1, lams.size // 256))])
        if not np.all(np.isfinite(fs)):
            raise ArithmeticError("reference characteristic value overflowed in the scan")
        brackets = _brackets(lams, fs)
        if len(brackets) >= count:
            return brackets[:count]
        lam_hi *= 2.0
    raise ArithmeticError(f"reference scan found {len(brackets)} of {count} roots")


def _midpoints(brackets) -> list[float]:
    return [0.5 * (lo + hi) for lo, hi in brackets]


def _max_rel_gap(xs, ys) -> float:
    return max(abs(x - y) / max(1.0, abs(y)) for x, y in zip(xs, ys))


def _magnus_fn(prob: RefProblem, per_unit: int):
    return lambda lams: magnus_char(prob, np.asarray(lams, dtype=float), per_unit)


class Reference:
    """The lowest ``count`` real eigenvalues of one config.

    ``roots[n-1]`` is the midpoint of a float-adjacent bracket around the
    n-th real sign change; ``value(lams)`` evaluates the reference
    characteristic value, for checking brackets returned by the solver.
    """

    def __init__(self, cfg: dict, count: int, oracles):
        self.prob = RefProblem(cfg)
        self.count = count
        if self.prob.q_constant:
            tc = oracles.transfer_char
            self.method = "transfer_char"
            self.mesh = None
            self._fn = lambda lams: np.array([tc(self.prob, float(x)) for x in lams])
            self.grid_brackets = _scan(self._fn, self.prob, count)
            self.roots = _midpoints(_bisect_batch(self._fn, self.grid_brackets))
        else:
            self.method = "magnus4"
            self.grid_brackets = _scan(_magnus_fn(self.prob, MESH_PER_UNIT), self.prob, count)
            self.roots, self.mesh = self._refine_mesh()
            self._fn = _magnus_fn(self.prob, self.mesh)

    def _refine_mesh(self) -> tuple[list[float], int]:
        """Double the Magnus mesh until two successive root sets agree."""
        coarse = None
        per_unit = MESH_PER_UNIT
        while per_unit <= MAX_MESH_PER_UNIT:
            fine = _midpoints(_bisect_batch(_magnus_fn(self.prob, per_unit), self.grid_brackets))
            if coarse is not None and _max_rel_gap(coarse, fine) <= MESH_RTOL:
                return fine, per_unit
            coarse = fine
            per_unit *= 2
        raise ArithmeticError("Magnus reference did not converge under mesh refinement")

    def value(self, lams) -> np.ndarray:
        return self._fn(np.atleast_1d(np.asarray(lams, dtype=float)))


def magnus_vs_transfer(ref: Reference) -> float:
    """Largest relative root gap between the Magnus and the closed-form route.

    Only defined on q-constant configs, where each Magnus step is exact; the
    Magnus roots are bisected from the same scan brackets.
    """
    if not ref.prob.q_constant:
        raise ValueError("the closed form needs piecewise-constant q")
    fn = _magnus_fn(ref.prob, MESH_PER_UNIT)
    return _max_rel_gap(_midpoints(_bisect_batch(fn, ref.grid_brackets)), ref.roots)


def closed_form_cross_check(name: str, ref: Reference, oracles) -> float:
    """Largest relative gap between ``ref.roots`` and the hand-derived roots.

    ``s0`` is the unit baseline (``baseline_char``), ``case1`` its steep
    variant (``steep_char``).  Both are bisected here to adjacent floats.
    """
    scalar = {"s0": oracles.baseline_char, "case1": oracles.steep_char}[name]
    fn = lambda lams: np.array([scalar(float(x)) for x in lams])
    other = _bisect_batch(fn, _scan(fn, ref.prob, ref.count))
    return _max_rel_gap(_midpoints(other), ref.roots)
