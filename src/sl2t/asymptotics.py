"""Closed-form large-eigenvalue formulas and decay-order verification.

For large ``mu = sqrt(lam)`` the left solution oscillates like a single wave
in the accumulated phase ``Theta(x)``, and the characteristic value inherits
a leading term of the form ``C * mu^p * trig(mu*Theta(1))``.  Which trig
function, power, and constant appear depends on two independent boolean
facts about the problem: whether the eigenvalue part of the right boundary
condition involves ``u'(1)`` (``beta2' != 0``) and whether the left boundary
condition involves ``u'(-1)`` (``sin(alpha) != 0``).  That gives a four-way
case split; each case carries its own eigenvalue spacing formula.

The leading forms here are exact only in the reflection-free regime: each
interface must scale value and slope so that a single right-moving wave
stays a single wave, which happens exactly when

    (gamma1/delta1) * omega2 == (gamma2/delta2) * omega1      (at h1)
    (gamma3/delta3) * omega3 == (gamma4/delta4) * omega2      (at h2)

``phase_coherent`` tests this; callers should not expect the O(1/n)
remainder behavior on problems that violate it, since reflected waves
contribute at the same order as the primary one.
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
    "eigenfunction_asymptotic",
    "phase_coherent",
    "DecayReport",
    "decay_check",
]

#: sin(alpha) counts as zero below this
_SIN_ALPHA_TOL = 1e-12


class AsymptoticCase(Enum):
    """Four-way split controlling every asymptotic formula.

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


def _gamma_product(spec: ProblemSpec, piece: int) -> float:
    """Amplitude carried across the interfaces up to the given piece."""
    if piece == 1:
        return 1.0
    if piece == 2:
        return spec.gamma[0] / spec.delta[0]
    return (spec.gamma[0] * spec.gamma[2]) / (spec.delta[0] * spec.delta[2])


def phi_asymptotic(spec: ProblemSpec, mu: float, x, k: int = 0):
    """Leading term of the left solution (``k = 0``) or its slope (``k = 1``).

    Accepts scalar or array ``x`` in ``[-1, 1]``; interface points resolve
    to the right-hand piece.  The remainder is dropped entirely; on
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
    piece = np.searchsorted((spec.h1, spec.h2), xv, side="right")
    gp = np.array([_gamma_product(spec, i) for i in (1, 2, 3)])[piece]
    w = np.array(spec.omega)[piece]
    th = phase(spec, xv)
    sa, ca = math.sin(spec.alpha), math.cos(spec.alpha)
    if abs(sa) > _SIN_ALPHA_TOL:
        amp, wave, slope = sa * gp, np.cos(mu * th), -np.sin(mu * th)
    else:
        # pure-displacement launch: amplitude carries the 1/(mu*omega1) factor
        amp, wave, slope = -ca / (mu * spec.omega[0]) * gp, np.sin(mu * th), np.cos(mu * th)
    out = amp * wave if k == 0 else amp * mu * w * slope
    if np.ndim(x) == 0:
        return float(out)
    return out


def delta_leading(spec: ProblemSpec, mu: float) -> float:
    """Leading term of the canonical characteristic value, any case.

    Only CASE1's form has a worked derivation behind it; the other three are
    obtained the same way (substitute the matching solution asymptotics into
    the boundary form and rescale to the piece-1 normalization) and are
    validated against the numeric characteristic value by ratio tests.  Use
    for scale estimates and probe seeding, not as ground truth.
    """
    if mu <= 0.0:
        raise ValueError("mu must be positive")
    which = case_of(spec)
    p = (spec.delta[1] * spec.delta[3]) / (spec.gamma[1] * spec.gamma[3])
    total = phase(spec, 1.0)
    sa, ca = math.sin(spec.alpha), math.cos(spec.alpha)
    w1, w3 = spec.omega[0], spec.omega[2]
    b1p, b2p = spec.beta_prime
    if which is AsymptoticCase.CASE1:
        return p * w3 * b2p * sa * mu**3 * math.sin(mu * total)
    if which is AsymptoticCase.CASE2:
        return p * (w3 / w1) * b2p * ca * mu**2 * math.cos(mu * total)
    if which is AsymptoticCase.CASE3:
        return p * b1p * sa * mu**2 * math.cos(mu * total)
    return -p * (b1p * ca / w1) * mu * math.sin(mu * total)


def eigenfunction_asymptotic(
    spec: ProblemSpec, n: int, x, *, phase_total: Optional[float] = None
):
    """Leading eigenfunction shape at asymptotic index ``n``.

    The leading term ``phi_asymptotic`` of the left solution at
    ``mu_asymptotic(spec, n)``: cases with ``sin(alpha) != 0`` give a cosine
    profile with amplitude ``sin(alpha)``, the others a sine profile with
    amplitude ``-cos(alpha)/(mu*omega1)``; interface amplitudes are carried
    by the jump products.  Accepts scalar or array ``x``.
    """
    return phi_asymptotic(spec, mu_asymptotic(spec, n, phase_total=phase_total), x)


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
    """Outcome of comparing computed frequencies with the case formula."""

    ns: tuple[int, ...]
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
    errors = np.abs(np.array(mus) - mu_asymptotic(spec, ns, phase_total=total))
    products = (ns * errors).tolist()
    max_product = max(products)
    return DecayReport(
        ns=tuple(ns.tolist()),
        errors=tuple(errors.tolist()),
        products=tuple(products),
        max_product=max_product,
        offset=offset,
        verdict=max_product <= bound,
    )
