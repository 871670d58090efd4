"""Large-eigenvalue leading terms and decay-order verification.

For large ``mu = sqrt(lam)`` the left solution is, to leading order, a wave
in the accumulated phase ``Theta(x)`` on each piece.  ``_leading_wave``
carries the launch's leading part through the three pieces and both
transmission conditions: in scaled coordinates ``(u, u'/(mu*omega_i))`` each
piece is a rotation and each interface is ``ProblemSpec.jump`` with the slope
rescaled by ``omega_before/omega_after``.  ``phi_asymptotic`` reads that
product at ``x`` and ``delta_leading`` reads it at ``x = 1`` through the
right condition's top power of ``lam``.  Both hold with O(1/mu) relative
remainder whether or not the interfaces reflect.

The frequency formula ``mu_asymptotic`` and the decay check built on it are
still the closed form of the reflection-free regime, in which each interface
scales value and slope so that a single right-moving wave stays a single
wave:

    (gamma1/delta1) * omega2 == (gamma2/delta2) * omega1      (at h1)
    (gamma3/delta3) * omega3 == (gamma4/delta4) * omega2      (at h2)

There ``delta_leading`` is a single trig term in ``mu*Theta(1)``, and which
one depends on whether the right condition's eigenvalue part involves
``u'(1)`` (``beta2' != 0``) and whether the left condition involves
``u'(-1)`` (``sin(alpha) != 0``): four cases, each with its own index shift
in ``mu_n = pi*(n + shift)/Theta(1)``.  ``phase_coherent`` tests the
regime; with reflection the zeros of the leading term are not evenly
spaced, so ``mu_asymptotic`` does not apply.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .problem import _BREAK_TOL, ProblemSpec, phase

__all__ = [
    "AsymptoticCase",
    "case_of",
    "mu_asymptotic",
    "phi_asymptotic",
    "delta_leading",
    "phase_coherent",
    "DecayReport",
    "decay_check",
]

#: sin(alpha) counts as zero below this
_SIN_ALPHA_TOL = 1e-12


class AsymptoticCase(Enum):
    """Four-way split behind the reflection-free frequency formula.

    CASE1: beta2' != 0 and sin(alpha) != 0
    CASE2: beta2' != 0 and sin(alpha) == 0
    CASE3: beta2' == 0 and sin(alpha) != 0
    CASE4: beta2' == 0 and sin(alpha) == 0
    """

    CASE1 = 1
    CASE2 = 2
    CASE3 = 3
    CASE4 = 4


#: index shift s in mu_n = pi*(n + s)/Theta(1)
_MU_SHIFT = {
    AsymptoticCase.CASE1: -1.0,
    AsymptoticCase.CASE2: -0.5,
    AsymptoticCase.CASE3: -0.5,
    AsymptoticCase.CASE4: 0.0,
}


def case_of(spec: ProblemSpec) -> AsymptoticCase:
    """Classify the problem for the asymptotic formulas."""
    slope_in_lam = spec.beta_prime[1] != 0.0
    slope_at_left = abs(math.sin(spec.alpha)) > _SIN_ALPHA_TOL
    if slope_in_lam:
        return AsymptoticCase.CASE1 if slope_at_left else AsymptoticCase.CASE2
    return AsymptoticCase.CASE3 if slope_at_left else AsymptoticCase.CASE4


def mu_asymptotic(spec: ProblemSpec, n, *, phase_total: Optional[float] = None):
    """Leading-order prediction for the n-th positive frequency ``mu_n``.

    ``n`` is an int, giving a ``float``, or an integer array, giving one
    prediction per entry with the same arithmetic.  ``phase_total``
    overrides the accumulated phase over the whole interval; it exists so
    that negative controls can inject a deliberately wrong denominator.
    """
    if np.any(np.asarray(n) < 1):
        raise ValueError(f"index must be >= 1, got {n!r}")
    total = phase(spec, 1.0) if phase_total is None else float(phase_total)
    if total <= 0.0:
        raise ValueError("total phase must be positive")
    return math.pi * (n + _MU_SHIFT[case_of(spec)]) / total


def _leading_wave(spec: ProblemSpec, mu: float, x):
    """``(u, u')`` of the left solution's leading term at ``x``, for real ``mu > 0``.

    In scaled coordinates ``y = (u, u'/(mu*omega_i))`` the leading term
    rotates by ``mu*omega_i`` per unit distance on piece ``i``, so on that
    piece ``y(x) = R(mu*Theta(x)) c_i`` with ``R(t) = [[cos t, sin t],
    [-sin t, cos t]]``, the phase clock ``Theta`` and one coefficient pair
    ``c_i``.  ``c_1`` is the launch's leading part: ``(sin alpha, 0)``, or
    ``(0, -cos alpha/(mu*omega_1))`` when ``sin alpha`` vanishes.  Each
    interface applies ``spec.jump`` to ``y``, its slope factor also times
    ``omega_before/omega_after``, and rotates the result back to the next
    coefficient pair.  Interface points resolve to the right-hand piece.
    """
    w = spec.omega
    s0, v0 = spec.left_launch
    coeffs = [(s0, 0.0) if abs(s0) > _SIN_ALPHA_TOL else (0.0, v0 / (mu * w[0]))]
    for k, h in enumerate((spec.h1, spec.h2)):
        t = mu * phase(spec, h)
        cos_t, sin_t = math.cos(t), math.sin(t)
        a, b = coeffs[-1]
        u, s = spec.jump(k, a * cos_t + b * sin_t, (b * cos_t - a * sin_t) * w[k] / w[k + 1])
        coeffs.append((u * cos_t - s * sin_t, u * sin_t + s * cos_t))
    piece = np.searchsorted((spec.h1, spec.h2), x, side="right")
    a, b = np.array(coeffs)[piece].T
    t = mu * phase(spec, x)
    cos_t, sin_t = np.cos(t), np.sin(t)
    return a * cos_t + b * sin_t, mu * np.array(w)[piece] * (b * cos_t - a * sin_t)


def phi_asymptotic(spec: ProblemSpec, mu: float, x, k: int = 0):
    """Leading term of the left solution (``k = 0``) or its slope (``k = 1``).

    Accepts scalar or array ``x`` in ``[-1, 1]``; interface points resolve
    to the right-hand piece.  The remainder is O(1/mu) relative, with or
    without reflecting interfaces; its constant grows like
    ``|cot(alpha)|/omega1`` for a launch close to ``sin(alpha) = 0``.  On
    zero-potential, reflection-free problems the returned value is the
    solution itself.
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    xv = np.asarray(x, dtype=float)
    if np.any(np.abs(xv) > 1.0 + _BREAK_TOL):
        raise ValueError(f"x={x!r} lies outside [-1, 1]")
    out = _leading_wave(spec, mu, xv)[k]
    if np.ndim(x) == 0:
        return float(out)
    return out


def delta_leading(spec: ProblemSpec, mu: float) -> float:
    """Leading term of the canonical characteristic value.

    ``spec.m3`` times the right condition's top power of ``lam = mu**2``
    applied to the leading wave at ``x = 1``: ``-beta2' lam u'(1)`` when
    ``beta2' != 0``, else ``beta1' lam u(1)``.  The remainder is O(1/mu)
    relative to the envelope, with or without reflecting interfaces.
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    u, v = _leading_wave(spec, mu, 1.0)
    b1p, b2p = spec.beta_prime
    top = -b2p * v if b2p != 0.0 else b1p * u
    return float(spec.m3 * mu * mu * top)


def phase_coherent(spec: ProblemSpec, rel_tol: float = 1e-9) -> bool:
    """True when the interfaces transmit a single wave without reflection.

    This is the regime in which the single-phase asymptotic formulas (and
    hence the O(1/n) decay claims) apply; see the module docstring.
    """
    # reflection-free: each jump maps (omega after, omega before) to two equal numbers
    w = spec.omega
    lhs1, rhs1 = spec.jump(0, w[1], w[0])
    lhs2, rhs2 = spec.jump(1, w[2], w[1])
    ok1 = abs(lhs1 - rhs1) <= rel_tol * (abs(lhs1) + abs(rhs1))
    ok2 = abs(lhs2 - rhs2) <= rel_tol * (abs(lhs2) + abs(rhs2))
    return ok1 and ok2


# ---------------------------------------------------------------------------
# O(1/n) decay verification


@dataclass(frozen=True)
class DecayReport:
    """Outcome of comparing computed frequencies with the case formula.

    Per asymptotic index in ``ns``: the computed frequency ``mu_computed``
    (of the record at computed index ``n - offset``), the prediction
    ``mu_asym``, their distance ``errors`` and ``products = n * errors``.
    """

    ns: tuple[int, ...]
    mu_computed: tuple[float, ...]
    mu_asym: tuple[float, ...]
    errors: tuple[float, ...]
    products: tuple[float, ...]
    max_product: float
    offset: int
    verdict: bool


def _align_offset(records, shift: float, total: float) -> int:
    """Constant shift between computed indices and asymptotic indices.

    Each computed frequency votes for the asymptotic index nearest to it;
    the most common (computed index -> asymptotic index) shift among the
    entries with ``n >= 5`` (every entry with ``mu_n`` when none has) wins.
    Misaligned problems still get a value here -- their errors then grow
    with n and fail the bound, which is the desired failure mode for
    negative controls.  ``shift`` is the case's index shift in
    ``mu_n = pi*(n + shift)/total``.
    """
    usable = [rec for rec in records if rec.mu_n is not None]
    pool = [rec for rec in usable if rec.n >= 5] or usable
    if not pool:
        raise ValueError("no positive eigenvalues available for alignment")
    counts = Counter(round(rec.mu_n * total / math.pi - shift) - rec.n for rec in pool)
    best = max(counts.items(), key=lambda kv: (kv[1], -abs(kv[0])))
    return int(best[0])


def decay_check(
    computed: Sequence,
    spec: ProblemSpec,
    n_lo: int,
    n_hi: int,
    bound: float,
    *,
    phase_total: Optional[float] = None,
) -> DecayReport:
    """Check ``n * |mu_n - mu_n_asym| <= bound`` over ``n in [n_lo, n_hi]``.

    ``computed`` is the record list from the eigenvalue search.  Computed
    indices are aligned to asymptotic indices by a constant offset resolved
    once from the data (negative-eigenvalue records shift the count by one,
    and the formulas' index origin is a convention).  ``phase_total`` feeds
    through to the asymptotic formula for negative controls.
    """
    if n_lo < 1 or n_hi < n_lo:
        raise ValueError(f"bad index window [{n_lo}, {n_hi}]")
    if bound <= 0.0:
        raise ValueError("bound must be positive")
    total = phase(spec, 1.0) if phase_total is None else float(phase_total)
    offset = _align_offset(computed, _MU_SHIFT[case_of(spec)], total)
    by_index = {rec.n: rec for rec in computed}
    ns = np.arange(n_lo, n_hi + 1)
    mus = []
    for n in ns.tolist():
        j = n - offset
        rec = by_index.get(j)
        if rec is None or rec.mu_n is None:
            raise ValueError(
                f"missing computed record for asymptotic index {n} (computed index {j})"
            )
        mus.append(rec.mu_n)
    asyms = mu_asymptotic(spec, ns, phase_total=total)
    errors = np.abs(np.array(mus) - asyms)
    products = (ns * errors).tolist()
    max_product = max(products)
    return DecayReport(
        ns=tuple(ns.tolist()),
        mu_computed=tuple(mus),
        mu_asym=tuple(asyms.tolist()),
        errors=tuple(errors.tolist()),
        products=tuple(products),
        max_product=max_product,
        offset=offset,
        verdict=max_product <= bound,
    )
