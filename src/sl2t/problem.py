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

This module owns the raw problem record (:class:`ProblemSpec`), its one
validator, the rule for which piece holds a point, the accumulated phase
function used by all asymptotic formulas, and the JSON config front end used
by the command-line tools.

:meth:`ProblemSpec.check` (with :meth:`SolverConfig.check`) is the only code
that judges a value: types, list lengths, finiteness, ranges and the standing
hypotheses.  It reports each violation once, with its path (``omega[1]``,
``q.pieces[2][0]``, ``solver.rk_tol``), whether the spec was built directly
or parsed.  :func:`parse_config` only maps JSON onto the record: it reports
unknown keys and a misshapen ``q``, and hands every value to ``check``.  The
records convert their own numbers (``_canonical``), so a spec built from ints
or lists equals, hashes and digests as its parsed float twin.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Literal, Sequence

import numpy as np

try:  # the interpreter's own SHA-256: hashlib is heavy to load, for it loads OpenSSL
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256 as _sha256

__all__ = [
    "ConfigError",
    "NumericalError",
    "SolverConfig",
    "ProblemSpec",
    "validate",
    "piece_bounds",
    "piece_index_at",
    "phase",
    "parse_config",
    "load_config",
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
# canonical form and value checks


def _canonical(value):
    """Lists as tuples and ints (not bools) as floats, all the way down.

    Anything else is left as it is, for ``check`` to judge.  An int past the
    float range becomes an infinity of its sign, which ``check`` refuses as
    not finite.
    """
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, int) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return math.inf if value > 0 else -math.inf
    return value


class _Record:
    """The one ``__post_init__`` of the frozen records: every field in canonical form.

    A field whose default is an ``int`` (an integer solver setting) is left
    as given, so ``check`` can refuse a float there.
    """

    def __post_init__(self):
        for f in fields(self):
            if not isinstance(f.default, int):
                object.__setattr__(self, f.name, _canonical(getattr(self, f.name)))


#: the numeric fields of a spec, each with its list length (0 for a scalar)
_NUMERIC_FIELDS = {
    "h1": 0, "h2": 0, "alpha": 0,
    "omega": 3, "beta": 2, "beta_prime": 2, "gamma": 4, "delta": 4,
}

#: stands in for a key a config leaves out; ``check`` reports it by path
_MISSING = object()


def _number_errors(path: str, value) -> list[str]:
    """The one message, if any, that says why ``value`` is not a finite number."""
    if value is _MISSING:
        return [f"{path}: missing required key"]
    if not isinstance(value, float):
        return [f"{path}: expected a number"]
    if not math.isfinite(value):
        return [f"{path}: must be finite"]
    return []


def _list_errors(path: str, value, n: int) -> list[str]:
    """Messages for a list of ``n`` numbers (of any nonempty length when ``n`` is 0)."""
    if value is _MISSING:
        return [f"{path}: missing required key"]
    if not isinstance(value, tuple) or (len(value) != n if n else not value):
        return [f"{path}: expected a {f'list of {n}' if n else 'nonempty list of'} numbers"]
    return [e for i, v in enumerate(value) for e in _number_errors(f"{path}[{i}]", v)]


def _integer(name: str, value) -> int:
    """``value`` as an ``int``: a Python or numpy integer passes, anything else raises.

    A bool, a float or a string raises ``ValueError("<name> must be an
    integer, ...")`` rather than being truncated or parsed.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


#: the admissible range of each solver setting, and the message when it is left;
#: the ceilings bound the work: a Gauss rule of n nodes takes O(n^2) recurrence
#: work on arrays of length n, and the scan takes bracket_subdiv samples per gap
_SOLVER_RANGES = {
    "rk_tol": (lambda v: 0.0 < v <= 1e-4, "must lie in (0, 1e-4]"),
    "root_tol": (lambda v: 0.0 < v <= 1e-4, "must lie in (0, 1e-4]"),
    "quad_nodes": (lambda v: 2 <= v <= 4096, "must be an integer in [2, 4096]"),
    "bracket_subdiv": (lambda v: 4 <= v <= 1024, "must be an integer in [4, 1024]"),
    "scan_floor_factor": (lambda v: 1.0 <= v <= 1e6, "must lie in [1, 1e6]"),
}


@dataclass(frozen=True)
class SolverConfig(_Record):
    """Numerical knobs shared by the propagator, scan, and quadrature.

    A setting whose default is an ``int`` takes integers only; the others
    take any finite number.
    """

    rk_tol: float = 1e-12
    root_tol: float = 1e-11
    quad_nodes: int = 257
    bracket_subdiv: int = 8
    scan_floor_factor: float = 10.0

    def check(self) -> list[str]:
        """Return one message per setting of the wrong type or out of range."""
        errs = []
        for f in fields(self):
            path, value = f"solver.{f.name}", getattr(self, f.name)
            if isinstance(f.default, int):
                ok = isinstance(value, int) and not isinstance(value, bool)
                wrong = [] if ok else [f"{path}: expected an integer"]
            else:
                wrong = _number_errors(path, value)
            admissible, rule = _SOLVER_RANGES[f.name]
            errs.extend(wrong or ([] if admissible(value) else [f"{path}: {rule}"]))
        return errs


# ---------------------------------------------------------------------------
# the problem record


@dataclass(frozen=True)
class ProblemSpec(_Record):
    """Full description of one boundary-value problem.

    ``omega`` holds the three weight amplitudes (the equation's weight on
    piece ``i`` is ``omega[i]**2``), ``beta``/``beta_prime`` the constant and
    eigenvalue-proportional parts of the right boundary condition, and
    ``gamma``/``delta`` the four interface jump pairs.  ``q`` holds the
    polynomial potential, one coefficient tuple per piece in increasing
    degree, so ``(c0, c1, c2)`` means ``c0 + c1*x + c2*x**2`` on that piece;
    the polynomial is evaluated in the global ``x`` coordinate.  Instances
    are frozen; run :func:`validate` once after construction and share
    freely.  Every field is kept in canonical form (lists as tuples, ints as
    floats), so every spec is hashable and equals its parsed twin.
    """

    h1: float
    h2: float
    omega: tuple[float, float, float]
    alpha: float
    beta: tuple[float, float]
    beta_prime: tuple[float, float]
    gamma: tuple[float, float, float, float]
    delta: tuple[float, float, float, float]
    q: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]] = ((0.0,), (0.0,), (0.0,))
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
        """Return every violation, one message per offending value, each with its path.

        This is the one validator of problem data: it judges types, lengths
        and finiteness (``omega[1]: expected a number``, ``q.pieces[2][0]:
        must be finite``, ``solver.rk_tol: ...``) and the standing
        hypotheses; ``q`` is judged as the config format's ``pieces``.
        Relations between fields are checked only when every field is a
        number, so a wrongly typed value gives one message and no exception.
        An empty list means the spec is admissible.
        """
        errs: list[str] = []
        for name, n in _NUMERIC_FIELDS.items():
            value = getattr(self, name)
            errs += _list_errors(name, value, n) if n else _number_errors(name, value)
        if not errs:
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
            for name in ("gamma", "delta"):
                for k, v in enumerate(getattr(self, name)):
                    if v == 0.0:
                        errs.append(f"{name}[{k}]: jump constants must be nonzero")
        if not isinstance(self.q, tuple) or len(self.q) != 3:
            errs.append("q.pieces: expected a list of 3 coefficient lists")
        else:
            for i, coeffs in enumerate(self.q):
                errs += _list_errors(f"q.pieces[{i}]", coeffs, 0)
        if isinstance(self.solver, SolverConfig):
            errs += self.solver.check()
        else:
            errs.append("solver: expected an object")
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


def _polyval(x, c):
    """``c[0] + c[1]*x + ... + c[-1]*x**(len(c) - 1)`` by Horner's rule.

    The operations are those of ``numpy.polynomial.polynomial.polyval``, in
    its order, so the value is the same to the bit.
    """
    value = c[-1] + x * 0.0
    for coeff in c[-2::-1]:
        value = coeff + value * x
    return value


def piece_bounds(spec: ProblemSpec, index: int) -> tuple[float, float]:
    """Closure endpoints of piece ``index`` (1-based, matching reports)."""
    if index not in (1, 2, 3):
        raise ValueError(f"piece index must be 1, 2, or 3, got {index!r}")
    bp = spec.breakpoints
    return bp[index - 1], bp[index]


def piece_index_at(spec: ProblemSpec, x, side: Side | None = None):
    """The 1-based piece holding ``x``: an int, or an int array for an array ``x``.

    The one rule for which piece holds a point: inside a piece, its position;
    within ``_BREAK_TOL`` of an interface, the piece ``side`` names ("left"
    or "right"), and without ``side`` it raises.  Points outside ``[-1, 1]``,
    NaN included, raise, as does any other ``side``, wherever ``x`` lies.
    """
    if side not in (None, "left", "right"):
        raise ValueError(f"side must be None, 'left' or 'right', got {side!r}")
    xv = np.asarray(x, dtype=float)
    if not np.all(np.abs(xv) <= 1.0 + _BREAK_TOL):
        raise ValueError(f"x={x!r} lies outside [-1, 1]")
    index = 1 + (xv >= spec.h1) + (xv >= spec.h2)
    for k, b in enumerate((spec.h1, spec.h2)):
        near = np.abs(xv - b) <= _BREAK_TOL
        if side is None and np.any(near):
            raise ValueError(f"x={x!r} sits on an interface point; pass side='left' or side='right'")
        index = np.where(near, k + 1 if side == "left" else k + 2, index)
    return int(index) if index.ndim == 0 else index


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

_SOLVER_DEFAULTS = {f.name: f.default for f in fields(SolverConfig)}


def _decode(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc


def _solver_overrides(pairs: Sequence[str]) -> dict:
    """``KEY=VALUE`` strings as solver settings; a malformed one raises ``ValueError``.

    A value is read as the type of the setting's default, ``int`` or ``float``.
    """
    out = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep or key not in _SOLVER_DEFAULTS:
            raise ValueError(f"expects KEY=VALUE with KEY in {tuple(_SOLVER_DEFAULTS)}; got {item!r}")
        try:
            out[key] = type(_SOLVER_DEFAULTS[key])(value)
        except ValueError:
            raise ValueError(f"value is not numeric: {item!r}") from None
    return out


def parse_config(data) -> ProblemSpec:
    """Map a JSON-style mapping onto a :class:`ProblemSpec` and validate it.

    ``data`` may be a dict or a JSON text.  This function only maps the JSON
    shape onto the record: it reports unknown keys and a ``q`` that is not
    an object with a single ``pieces`` key, and converts no value; the
    record puts its numbers in canonical form.  A missing key becomes a
    placeholder.
    :meth:`ProblemSpec.check` then judges every value, so each violation is
    reported once, with its path ("gamma[2]", "solver.rk_tol", ...), and all
    of them come together in one :class:`ConfigError`.
    """
    if isinstance(data, (str, bytes)):
        data = _decode(data)
    if not isinstance(data, dict):
        raise ConfigError(["config root: expected a JSON object"])

    known = {*_NUMERIC_FIELDS, "q", "solver"}
    errs = [f"{key}: unknown key" for key in data if key not in known]
    kwargs = {name: data.get(name, _MISSING) for name in _NUMERIC_FIELDS}
    if "q" in data:
        q = data["q"]
        if isinstance(q, dict) and set(q) == {"pieces"}:
            kwargs["q"] = q["pieces"]
        else:
            errs.append("q: expected an object with a single 'pieces' key")
    solver = data.get("solver", {})
    if isinstance(solver, dict):
        errs += [f"solver.{key}: unknown key" for key in solver if key not in _SOLVER_DEFAULTS]
        solver = SolverConfig(**{key: v for key, v in solver.items() if key in _SOLVER_DEFAULTS})
    spec = ProblemSpec(**kwargs, solver=solver)
    errs += spec.check()
    if errs:
        raise ConfigError(errs)
    return spec


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
    """Plain-dict form of a spec in the config format (tuples dump as JSON lists)."""
    return {**asdict(spec), "q": {"pieces": spec.q}}


def spec_digest(spec: ProblemSpec) -> str:
    """Short stable hash of the problem content.

    Hashes the canonicalized config, so formatting-only edits of a config
    file (whitespace, key order) do not change the digest but any value
    change does.  Used to stamp output tables.
    """
    blob = json.dumps(config_dict(spec), sort_keys=True, separators=(",", ":"))
    return _sha256(blob.encode("utf-8")).hexdigest()[:16]
