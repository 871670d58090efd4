"""Problem data and validation for a three-interval Sturm-Liouville solver.

The boundary-value problem lives on ``[-1, 1]`` split into three open pieces
by two interior interface points ``h1 < h2``:

    -u'' + q(x) u = lam * w(x) u,      w = omega_i**2 on piece i,

with a fixed boundary condition at ``x = -1``,

    cos(alpha) u(-1) + sin(alpha) u'(-1) = 0,

an eigenvalue-dependent one at ``x = +1``,

    lam * (beta1p u(1) - beta2p u'(1)) + (beta1 u(1) - beta2 u'(1)) = 0,

and jump conditions tying the one-sided limits at the interfaces:

    gamma1 u(h1-) = delta1 u(h1+),    gamma2 u'(h1-) = delta2 u'(h1+),
    gamma3 u(h2-) = delta3 u(h2+),    gamma4 u'(h2-) = delta4 u'(h2+).

This module owns the raw problem record (:class:`ProblemSpec`), the standing
admissibility checks (:func:`validate`), piecewise coefficient evaluation,
the accumulated phase function used by all asymptotic formulas, and the JSON
config front end used by the command-line tools.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from typing import Literal, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

__all__ = [
    "ConfigError",
    "NumericalError",
    "PiecewisePotential",
    "SolverConfig",
    "ProblemSpec",
    "validate",
    "piece_bounds",
    "piece_index_at",
    "weight_at",
    "q_at",
    "phase",
    "parse_config",
    "load_config",
    "config_dict",
    "spec_digest",
]

Side = Literal["left", "right"]

#: interior x values are classified against breakpoints with this slack
_BREAK_TOL = 1e-12


class ConfigError(ValueError):
    """Raised when problem data violates an admissibility condition.

    Collects every violation found, one message per offending field, so a
    bad config file is diagnosed in a single pass.
    """

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class NumericalError(RuntimeError):
    """Raised when integration or root refinement breaks down."""


# ---------------------------------------------------------------------------
# coefficient data


@dataclass(frozen=True)
class PiecewisePotential:
    """Polynomial potential coefficients, one tuple per piece.

    Each entry of ``pieces`` holds coefficients in increasing degree, so
    ``(c0, c1, c2)`` means ``c0 + c1*x + c2*x**2`` on that piece.  The
    polynomial is evaluated in the global ``x`` coordinate.
    """

    pieces: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]

    @classmethod
    def zero(cls) -> "PiecewisePotential":
        return cls(((0.0,), (0.0,), (0.0,)))

    def is_zero(self) -> bool:
        return all(all(c == 0.0 for c in piece) for piece in self.pieces)


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs shared by the propagator, scan, and quadrature."""

    rk_tol: float = 1e-12
    root_tol: float = 1e-11
    quad_nodes: int = 257
    bracket_subdiv: int = 8
    scan_floor_factor: float = 10.0

    def check(self) -> list[str]:
        errs = []
        if not (0.0 < self.rk_tol <= 1e-4):
            errs.append("solver.rk_tol: must lie in (0, 1e-4]")
        if not (0.0 < self.root_tol <= 1e-4):
            errs.append("solver.root_tol: must lie in (0, 1e-4]")
        if not (isinstance(self.quad_nodes, int) and self.quad_nodes >= 2):
            errs.append("solver.quad_nodes: must be an integer >= 2")
        if not (isinstance(self.bracket_subdiv, int) and self.bracket_subdiv >= 4):
            errs.append("solver.bracket_subdiv: must be an integer >= 4")
        if not (1.0 <= self.scan_floor_factor <= 1e6) or not math.isfinite(
            self.scan_floor_factor
        ):
            errs.append("solver.scan_floor_factor: must lie in [1, 1e6]")
        return errs


# ---------------------------------------------------------------------------
# the problem record


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one boundary-value problem.

    ``omega`` holds the three weight amplitudes (the equation's weight on
    piece ``i`` is ``omega[i]**2``), ``beta``/``beta_prime`` the constant and
    eigenvalue-proportional parts of the right boundary condition, and
    ``gamma``/``delta`` the four interface jump pairs.  Instances are frozen;
    run :func:`validate` once after construction and share freely.
    """

    h1: float
    h2: float
    omega: tuple[float, float, float]
    alpha: float
    beta: tuple[float, float]
    beta_prime: tuple[float, float]
    gamma: tuple[float, float, float, float]
    delta: tuple[float, float, float, float]
    q: PiecewisePotential = field(default_factory=PiecewisePotential.zero)
    solver: SolverConfig = field(default_factory=SolverConfig)

    # -- derived scalars ----------------------------------------------------

    @property
    def rho(self) -> float:
        """Coupling determinant of the right boundary condition."""
        b1, b2 = self.beta
        b1p, b2p = self.beta_prime
        return b1p * b2 - b1 * b2p

    @property
    def m2(self) -> float:
        """Inner-product weight multiplier for the middle piece."""
        return (self.delta[0] * self.delta[1]) / (self.gamma[0] * self.gamma[1])

    @property
    def m3(self) -> float:
        """Inner-product weight multiplier for the right piece."""
        return self.m2 * (self.delta[2] * self.delta[3]) / (self.gamma[2] * self.gamma[3])

    @property
    def is_definite(self) -> bool:
        """True when the weighted inner product is positive definite."""
        return self.m2 > 0.0 and self.m3 > 0.0

    @property
    def breakpoints(self) -> tuple[float, float, float, float]:
        return (-1.0, self.h1, self.h2, 1.0)

    # -- the boundary and transmission conditions ----------------------------
    #
    # Every other module reads the conditions through these methods; each
    # works on scalars and, elementwise, on arrays of ``u``, ``u'`` and ``lam``.

    def left_form(self, u, v):
        """``cos(alpha) u(-1) + sin(alpha) u'(-1)``: zero on the left condition."""
        return math.cos(self.alpha) * u + math.sin(self.alpha) * v

    @property
    def left_launch(self) -> tuple[float, float]:
        """``(u, u')`` at ``x = -1`` of the left solution: ``(sin(alpha), -cos(alpha))``."""
        return math.sin(self.alpha), -math.cos(self.alpha)

    def right_coefficients(self, lam):
        """``(beta1' lam + beta1, beta2' lam + beta2)``, the coefficients of ``right_form``."""
        return (
            self.beta_prime[0] * lam + self.beta[0],
            self.beta_prime[1] * lam + self.beta[1],
        )

    def right_form(self, lam, u, v):
        """``(beta1' lam + beta1) u(1) - (beta2' lam + beta2) u'(1)``: zero on the right condition.

        At ``lam = 0`` this is the condition's lambda-free part
        ``beta1 u(1) - beta2 u'(1)``.
        """
        c1, c2 = self.right_coefficients(lam)
        return c1 * u - c2 * v

    def f1_coupling(self, u, v):
        """``beta1' u(1) - beta2' u'(1)``: the scalar coordinate of a domain element."""
        return self.beta_prime[0] * u - self.beta_prime[1] * v

    def jump(self, k: int, u, v, leftward: bool = False):
        """Carry ``(u, u')`` across interface ``k`` (0 at h1, 1 at h2).

        Rightward the value and slope are multiplied by ``gamma/delta`` of
        their transmission condition; leftward by the reciprocals of those
        ratios.
        """
        ru = self.gamma[2 * k] / self.delta[2 * k]
        rv = self.gamma[2 * k + 1] / self.delta[2 * k + 1]
        if leftward:
            ru, rv = 1.0 / ru, 1.0 / rv
        return ru * u, rv * v

    def transmission_residuals(self, k: int, minus, plus) -> tuple[float, float]:
        """``|gamma u(h-) - delta u(h+)|`` for value and slope at interface ``k``.

        ``minus`` and ``plus`` are the one-sided ``(u, u')`` pairs there.
        """
        (um, vm), (up, vp) = minus, plus
        g, d = self.gamma[2 * k : 2 * k + 2], self.delta[2 * k : 2 * k + 2]
        return abs(g[0] * um - d[0] * up), abs(g[1] * vm - d[1] * vp)

    # -- admissibility ------------------------------------------------------

    def check(self) -> list[str]:
        """Return all admissibility violations (empty list when admissible)."""
        errs: list[str] = []
        scalars = [("h1", self.h1), ("h2", self.h2), ("alpha", self.alpha)]
        for name, value in scalars:
            if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
                errs.append(f"{name}: must be a finite number")
        for name, tup, n in [
            ("omega", self.omega, 3),
            ("beta", self.beta, 2),
            ("beta_prime", self.beta_prime, 2),
            ("gamma", self.gamma, 4),
            ("delta", self.delta, 4),
        ]:
            if len(tup) != n or any(
                isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)
                for v in tup
            ):
                errs.append(f"{name}: must be {n} finite numbers")
        if errs:
            return errs  # cannot sensibly check relations between bad fields

        if not (-1.0 < self.h1 < self.h2 < 1.0):
            errs.append("h1, h2: interface points must satisfy -1 < h1 < h2 < 1")
        if any(w <= 0.0 for w in self.omega):
            errs.append("omega: weight amplitudes must be positive")
        if not (0.0 <= self.alpha < math.pi):
            errs.append("alpha: boundary angle must lie in [0, pi)")
        if self.beta_prime == (0.0, 0.0):
            errs.append("beta_prime: (0, 0) makes the right boundary condition eigenvalue-independent")
        if self.rho <= 0.0:
            errs.append("beta, beta_prime: need beta1'*beta2 - beta1*beta2' > 0")
        for name, tup in [("gamma", self.gamma), ("delta", self.delta)]:
            for k, v in enumerate(tup):
                if v == 0.0:
                    errs.append(f"{name}[{k}]: jump constants must be nonzero")
        for index, coeffs in enumerate(self.q.pieces):
            if len(coeffs) == 0 or any(
                isinstance(c, bool) or not isinstance(c, (int, float)) or not math.isfinite(c)
                for c in coeffs
            ):
                errs.append(f"q.pieces[{index}]: coefficients must be finite numbers")
        errs.extend(self.solver.check())
        return errs


def validate(spec: ProblemSpec) -> ProblemSpec:
    """Check every admissibility condition; return ``spec`` itself when clean.

    Raises :class:`ConfigError` carrying all violations at once.  Idempotent:
    validating a validated spec returns the same object.
    """
    errs = spec.check()
    if errs:
        raise ConfigError(errs)
    return spec


# ---------------------------------------------------------------------------
# coefficient evaluation


def piece_bounds(spec: ProblemSpec, index: int) -> tuple[float, float]:
    """Closure endpoints of piece ``index`` (1-based, matching reports)."""
    if index not in (1, 2, 3):
        raise ValueError(f"piece index must be 1, 2, or 3, got {index!r}")
    bp = spec.breakpoints
    return bp[index - 1], bp[index]


def piece_index_at(spec: ProblemSpec, x: float, side: Side | None = None) -> int:
    """Return the 1-based piece index containing ``x``.

    At an interface point the side must be given ("left" or "right"); at the
    outer endpoints the only adjacent piece is chosen automatically.
    """
    if not (-1.0 - _BREAK_TOL <= x <= 1.0 + _BREAK_TOL):
        raise ValueError(f"x={x!r} lies outside [-1, 1]")
    for k, b in enumerate((spec.h1, spec.h2)):
        if abs(x - b) <= _BREAK_TOL:
            if side == "left":
                return k + 1
            if side == "right":
                return k + 2
            raise ValueError(
                f"x={x!r} sits on an interface point; pass side='left' or side='right'"
            )
    if x < spec.h1:
        return 1
    if x < spec.h2:
        return 2
    return 3


def weight_at(spec: ProblemSpec, x: float, side: Side | None = None) -> float:
    """Equation weight ``omega_i**2`` at ``x`` (one-sided at interfaces)."""
    return spec.omega[piece_index_at(spec, x, side) - 1] ** 2


def q_at(spec: ProblemSpec, x: float, side: Side | None = None) -> float:
    """Potential value at ``x`` (one-sided at interfaces)."""
    return float(polyval(x, spec.q.pieces[piece_index_at(spec, x, side) - 1]))


def phase(spec: ProblemSpec, x):
    """Accumulated phase ``integral of omega from -1 to x``.

    Piecewise linear with slope ``omega_i`` on piece ``i``; continuous and
    strictly increasing, with ``phase(spec, -1) == 0``.  Accepts scalars or
    arrays.  This is the clock against which eigenvalue and eigenfunction
    asymptotics are expressed.
    """
    xv = np.asarray(x, dtype=float)
    w1, w2, w3 = spec.omega
    acc = w1 * (np.minimum(xv, spec.h1) + 1.0)
    acc += w2 * np.clip(xv - spec.h1, 0.0, spec.h2 - spec.h1)
    acc += w3 * np.maximum(xv - spec.h2, 0.0)
    if np.ndim(x) == 0:
        return float(acc)
    return acc


# ---------------------------------------------------------------------------
# JSON config front end

_SOLVER_KEYS = tuple(f.name for f in fields(SolverConfig))
# annotations are strings under ``from __future__ import annotations``
_SOLVER_INT_KEYS = tuple(f.name for f in fields(SolverConfig) if f.type == "int")


def _decode(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc


def _solver_overrides(pairs: Sequence[str]) -> dict:
    """``KEY=VALUE`` strings as solver settings; a malformed one raises ``ValueError``."""
    out = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep or key not in _SOLVER_KEYS:
            raise ValueError(f"expects KEY=VALUE with KEY in {_SOLVER_KEYS}; got {item!r}")
        try:
            out[key] = int(value) if key in _SOLVER_INT_KEYS else float(value)
        except ValueError:
            raise ValueError(f"value is not numeric: {item!r}") from None
    return out


def _as_number(value, path: str, errs: list[str]) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        errs.append(f"{path}: expected a number")
        return math.nan
    if not math.isfinite(value):
        errs.append(f"{path}: must be finite")
        return math.nan
    return float(value)


def _as_tuple(mapping: dict, key: str, n: int, errs: list[str]):
    if key not in mapping:
        errs.append(f"{key}: missing required key")
        return tuple([math.nan] * n)
    raw = mapping[key]
    if not isinstance(raw, (list, tuple)) or len(raw) != n:
        errs.append(f"{key}: expected a list of {n} numbers")
        return tuple([math.nan] * n)
    return tuple(_as_number(v, f"{key}[{i}]", errs) for i, v in enumerate(raw))


def parse_config(data) -> ProblemSpec:
    """Build and validate a :class:`ProblemSpec` from a JSON-style mapping.

    ``data`` may be a dict or a JSON text.  Key errors are reported with
    their paths ("gamma[2]", "solver.rk_tol", ...), all at once.
    """
    if isinstance(data, (str, bytes)):
        data = _decode(data)
    if not isinstance(data, dict):
        raise ConfigError(["config root: expected a JSON object"])

    errs: list[str] = []
    known = {"h1", "h2", "omega", "alpha", "beta", "beta_prime", "gamma", "delta", "q", "solver"}
    for key in data:
        if key not in known:
            errs.append(f"{key}: unknown key")

    def scalar(key: str) -> float:
        if key not in data:
            errs.append(f"{key}: missing required key")
            return math.nan
        return _as_number(data[key], key, errs)

    h1 = scalar("h1")
    h2 = scalar("h2")
    alpha = scalar("alpha")
    omega = _as_tuple(data, "omega", 3, errs)
    beta = _as_tuple(data, "beta", 2, errs)
    beta_prime = _as_tuple(data, "beta_prime", 2, errs)
    gamma = _as_tuple(data, "gamma", 4, errs)
    delta = _as_tuple(data, "delta", 4, errs)

    q = PiecewisePotential.zero()
    if "q" in data:
        raw_q = data["q"]
        if not isinstance(raw_q, dict) or set(raw_q) != {"pieces"}:
            errs.append("q: expected an object with a single 'pieces' key")
        else:
            raw_pieces = raw_q["pieces"]
            if not isinstance(raw_pieces, list) or len(raw_pieces) != 3:
                errs.append("q.pieces: expected a list of 3 coefficient lists")
            else:
                pieces = []
                for i, rp in enumerate(raw_pieces):
                    if not isinstance(rp, list) or len(rp) == 0:
                        errs.append(f"q.pieces[{i}]: expected a nonempty list of numbers")
                        pieces.append((math.nan,))
                    else:
                        pieces.append(
                            tuple(
                                _as_number(c, f"q.pieces[{i}][{j}]", errs)
                                for j, c in enumerate(rp)
                            )
                        )
                if len(pieces) == 3:
                    q = PiecewisePotential((pieces[0], pieces[1], pieces[2]))

    solver = SolverConfig()
    if "solver" in data:
        raw_s = data["solver"]
        if not isinstance(raw_s, dict):
            errs.append("solver: expected an object")
        else:
            kwargs = {}
            for key, value in raw_s.items():
                if key not in _SOLVER_KEYS:
                    errs.append(f"solver.{key}: unknown key")
                    continue
                if key in _SOLVER_INT_KEYS:
                    if isinstance(value, bool) or not isinstance(value, int):
                        errs.append(f"solver.{key}: expected an integer")
                        continue
                    kwargs[key] = value
                else:
                    kwargs[key] = _as_number(value, f"solver.{key}", errs)
            solver = SolverConfig(**kwargs)

    if errs:
        raise ConfigError(errs)
    spec = ProblemSpec(
        h1=h1, h2=h2, omega=omega, alpha=alpha, beta=beta, beta_prime=beta_prime,
        gamma=gamma, delta=delta, q=q, solver=solver,
    )
    return validate(spec)


def load_config(path, overrides: Sequence[str] = ()) -> ProblemSpec:
    """Read a JSON config file and return the validated problem.

    ``overrides`` are ``KEY=VALUE`` solver settings (``"rk_tol=1e-10"``),
    merged over the file's ``solver`` block before parsing; a malformed one
    raises a plain ``ValueError`` before the file is read.  An unreadable
    file, invalid JSON and every admissibility violation raise
    :class:`ConfigError` (itself a ``ValueError``, so catch it first).
    """
    solver = _solver_overrides(overrides)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read config {str(path)!r}: {exc}"]) from exc
    data = _decode(text)
    # anything but an object or an absent solver block is left to parse_config
    if solver and isinstance(data, dict) and isinstance(data.get("solver", {}), dict):
        data["solver"] = {**data.get("solver", {}), **solver}
    return parse_config(data)


def config_dict(spec: ProblemSpec) -> dict:
    """Canonical plain-dict form of a spec (JSON round-trippable)."""
    return {
        "h1": spec.h1,
        "h2": spec.h2,
        "omega": list(spec.omega),
        "alpha": spec.alpha,
        "beta": list(spec.beta),
        "beta_prime": list(spec.beta_prime),
        "gamma": list(spec.gamma),
        "delta": list(spec.delta),
        "q": {"pieces": [list(p) for p in spec.q.pieces]},
        "solver": {name: getattr(spec.solver, name) for name in _SOLVER_KEYS},
    }


def spec_digest(spec: ProblemSpec) -> str:
    """Short stable hash of the problem content.

    Hashes the canonicalized config, so formatting-only edits of a config
    file (whitespace, key order) do not change the digest but any value
    change does.  Used to stamp output tables.
    """
    blob = json.dumps(config_dict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
