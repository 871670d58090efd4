"""Independent closed-form references used to pin solver outputs.

Everything here is derived by hand from the differential equation and solved
with plain bisection -- no package integration code, no scipy -- so these
values can serve as an oracle for the shooting/characteristic machinery.
The Airy-function reference for linear potentials uses mpmath.
"""

from __future__ import annotations

import math

# ---------------------------------------------------------------------------
# generic tools


def bisect(f, lo: float, hi: float, tol: float = 1e-13) -> float:
    """Plain bisection; requires a sign change on [lo, hi].

    Stops at width ``tol`` or when no float lies strictly between the ends,
    whichever comes first: beyond 64 one ulp already exceeds ``1e-14``.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def q_pieces(spec) -> tuple:
    """The potential's coefficient tuples, one per piece.

    A ``ProblemSpec`` holds them as ``q``; the raw-config record of
    ``bench/reference.py`` (``RefProblem``) holds them as ``q.pieces``.
    """
    return getattr(spec.q, "pieces", spec.q)


def propagate_constant(u: float, v: float, s: float, length: float) -> tuple[float, float]:
    """Advance (u, u') across an interval where u'' = -s*u with constant s."""
    if s > 0.0:
        k = math.sqrt(s)
        c, sn = math.cos(k * length), math.sin(k * length)
        return c * u + sn / k * v, -k * sn * u + c * v
    if s < 0.0:
        k = math.sqrt(-s)
        ch, sh = math.cosh(k * length), math.sinh(k * length)
        return ch * u + sh / k * v, k * sh * u + ch * v
    return u + length * v, v


def step_states(steps, u: float, v: float) -> list[tuple[float, float]]:
    """States ``(u, u')`` at every node, one 2x2 transfer ``(a, b, c, d)`` at a time.

    The plain sequential recurrence, for checking a carry that multiplies the
    same step matrices in another order.
    """
    states = [(u, v)]
    for a, b, c, d in steps:
        u, v = a * u + b * v, c * u + d * v
        states.append((u, v))
    return states


# ---------------------------------------------------------------------------
# exact characteristic value for piecewise-constant coefficients


def transfer_char(spec, lam: float) -> float:
    """Characteristic value by exact constant-coefficient propagation.

    Valid whenever every potential piece of ``spec`` is a constant; raises
    otherwise.  Launches the left solution, applies the interface jumps,
    propagates across each piece in closed form, and evaluates the right
    boundary form, scaled to the left-piece Wronskian normalization.
    """
    qc = []
    for coeffs in q_pieces(spec):
        if any(c != 0.0 for c in coeffs[1:]):
            raise ValueError("transfer_char needs piecewise-constant q")
        qc.append(coeffs[0])

    u, v = math.sin(spec.alpha), -math.cos(spec.alpha)
    bounds = spec.breakpoints
    for i in range(3):
        if i == 1:
            u *= spec.gamma[0] / spec.delta[0]
            v *= spec.gamma[1] / spec.delta[1]
        elif i == 2:
            u *= spec.gamma[2] / spec.delta[2]
            v *= spec.gamma[3] / spec.delta[3]
        s = lam * spec.omega[i] ** 2 - qc[i]
        u, v = propagate_constant(u, v, s, bounds[i + 1] - bounds[i])
    b1, b2 = spec.beta
    b1p, b2p = spec.beta_prime
    d3 = (b1p * lam + b1) * u - (b2p * lam + b2) * v
    return spec.m3 * d3


def square_integral_constant(u: float, v: float, s: float, length: float) -> float:
    """``integral of u**2`` over an interval where u'' = -s*u, from the start state (u, u').

    With ``k = sqrt|s|`` the solution is ``u cos kt + (v/k) sin kt`` (or its
    cosh/sinh twin), and each of its three squared terms integrates in closed
    form.
    """
    if s > 0.0:
        k = math.sqrt(s)
        half, osc = 0.5 * length, math.sin(2.0 * k * length) / (4.0 * k)
        cross = (1.0 - math.cos(2.0 * k * length)) / (2.0 * k)
        return u * u * (half + osc) + (v / k) ** 2 * (half - osc) + u * (v / k) * cross
    if s < 0.0:
        k = math.sqrt(-s)
        half, grow = 0.5 * length, math.sinh(2.0 * k * length) / (4.0 * k)
        cross = (math.cosh(2.0 * k * length) - 1.0) / (2.0 * k)
        return u * u * (grow + half) + (v / k) ** 2 * (grow - half) + u * (v / k) * cross
    return u * u * length + u * v * length**2 + v * v * length**3 / 3.0


def right_norm_constant(spec, lam: float) -> float:
    """H-norm of the right-launched solution, for piecewise-constant ``q``.

    The solution is launched at ``x = 1`` with ``(beta2' lam + beta2,
    beta1' lam + beta1)``, which makes the right boundary form vanish, and
    carried leftward piece by piece in closed form, each jump undone on the
    way.  The norm squared is ``sum of omega_i^2 m_i integral of u**2`` with
    the jump-product multipliers ``m = (1, m2, m3)``, plus ``(m3/rho) f1**2``
    for ``f1 = beta1' u(1) - beta2' u'(1)``; the result is the square root of
    its absolute value.  Reading a piece backward from its right end is the
    forward formula with the slope's sign flipped.
    """
    if any(c != 0.0 for coeffs in q_pieces(spec) for c in coeffs[1:]):
        raise ValueError("right_norm_constant needs piecewise-constant q")
    qc = [coeffs[0] for coeffs in q_pieces(spec)]
    g, d = spec.gamma, spec.delta
    m2 = d[0] * d[1] / (g[0] * g[1])
    m3 = m2 * d[2] * d[3] / (g[2] * g[3])
    (b1, b2), (b1p, b2p) = spec.beta, spec.beta_prime
    u, v = b2p * lam + b2, b1p * lam + b1
    total = (m3 / (b1p * b2 - b1 * b2p)) * (b1p * u - b2p * v) ** 2
    bounds = (-1.0, spec.h1, spec.h2, 1.0)
    for i, mult in ((2, m3), (1, m2), (0, 1.0)):
        s = lam * spec.omega[i] ** 2 - qc[i]
        length = bounds[i + 1] - bounds[i]
        total += spec.omega[i] ** 2 * mult * square_integral_constant(u, -v, s, length)
        u, v = propagate_constant(u, -v, s, length)
        v = -v
        if i > 0:
            u *= d[2 * i - 2] / g[2 * i - 2]
            v *= d[2 * i - 1] / g[2 * i - 1]
    return math.sqrt(abs(total))


# ---------------------------------------------------------------------------
# linear potential on every piece: Airy functions, evaluated with mpmath


def airy_left(spec, lam: float, points=((), (), ()), digits: int = 40):
    """Left solution ``(u, u')`` at ``x = 1`` and at ``points[i]`` in piece ``i + 1``.

    Every potential piece must be linear, ``q = q0 + q1 x`` with ``q1 != 0``.
    On piece ``i`` the solutions are spanned by ``Ai(z)`` and ``Bi(z)`` with
    ``z = k (x + (q0 - lam w) / q1)``, ``k**3 = q1``; their Wronskian in ``z``
    is ``1/pi``.  Values are computed at ``digits`` significant digits and
    returned as floats.
    """
    import mpmath as mp

    with mp.workdps(digits):
        lam = mp.mpf(lam)
        u, v = mp.sin(spec.alpha), -mp.cos(spec.alpha)
        bounds = spec.breakpoints
        inside = []
        for i in range(3):
            if i == 1:
                u *= mp.mpf(spec.gamma[0]) / spec.delta[0]
                v *= mp.mpf(spec.gamma[1]) / spec.delta[1]
            elif i == 2:
                u *= mp.mpf(spec.gamma[2]) / spec.delta[2]
                v *= mp.mpf(spec.gamma[3]) / spec.delta[3]
            q0, q1 = (mp.mpf(c) for c in q_pieces(spec)[i])
            k = mp.sign(q1) * mp.cbrt(abs(q1))
            shift = (q0 - lam * mp.mpf(spec.omega[i]) ** 2) / q1

            def basis(x):
                z = k * (mp.mpf(x) + shift)
                return mp.airyai(z), mp.airybi(z), k * mp.airyai(z, 1), k * mp.airybi(z, 1)

            ai, bi, dai, dbi = basis(bounds[i])
            c_ai = mp.pi / k * (dbi * u - bi * v)
            c_bi = mp.pi / k * (ai * v - dai * u)
            states = []
            for x in points[i]:
                ai, bi, dai, dbi = basis(x)
                states.append((float(c_ai * ai + c_bi * bi), float(c_ai * dai + c_bi * dbi)))
            inside.append(states)
            ai, bi, dai, dbi = basis(bounds[i + 1])
            u, v = c_ai * ai + c_bi * bi, c_ai * dai + c_bi * dbi
        return (float(u), float(v)), inside


# ---------------------------------------------------------------------------
# the unit baseline: q = 0, unit weights/jumps, u(-1) = 0, right condition
# lam*u(1) + u'(1) = 0.  Left solution is -sin(mu(x+1))/mu, and the
# characteristic value reduces to cos(2 mu) - mu sin(2 mu).


def baseline_char(lam: float) -> float:
    if lam > 0.0:
        mu = math.sqrt(lam)
        return math.cos(2.0 * mu) - mu * math.sin(2.0 * mu)
    if lam < 0.0:
        nu = math.sqrt(-lam)
        return math.cosh(2.0 * nu) + nu * math.sinh(2.0 * nu)
    return 1.0


def baseline_mu_roots(count: int) -> list[float]:
    """First ``count`` positive roots of cos(2 mu) = mu sin(2 mu).

    The characteristic value alternates sign at mu = k*pi/2, so each
    half-pi cell carries exactly one root.
    """
    f = lambda mu: math.cos(2.0 * mu) - mu * math.sin(2.0 * mu)
    roots = []
    for k in range(count):
        lo, hi = k * math.pi / 2.0, (k + 1) * math.pi / 2.0
        roots.append(bisect(f, lo + 1e-9, hi - 1e-9, tol=1e-14))
    return roots


# ---------------------------------------------------------------------------
# baseline variant with u'(-1) = 0 and right condition lam*u'(1) = -u(1);
# characteristic value mu^3 sin(2 mu) - cos(2 mu), one negative eigenvalue.


def steep_char(lam: float) -> float:
    if lam > 0.0:
        mu = math.sqrt(lam)
        return lam * mu * math.sin(2.0 * mu) - math.cos(2.0 * mu)
    if lam < 0.0:
        nu = math.sqrt(-lam)
        return -lam * nu * math.sinh(2.0 * nu) - math.cosh(2.0 * nu)
    return -1.0


def steep_negative_lambda() -> float:
    """The single negative eigenvalue of the steep variant."""
    f = lambda nu: nu**3 * math.sinh(2.0 * nu) - math.cosh(2.0 * nu)
    nu = bisect(f, 0.25, 2.0, tol=1e-14)
    return -nu * nu


def steep_mu_roots(count: int) -> list[float]:
    """First ``count`` positive roots of mu^3 sin(2 mu) = cos(2 mu)."""
    f = lambda mu: mu**3 * math.sin(2.0 * mu) - math.cos(2.0 * mu)
    roots = []
    for k in range(count):
        lo, hi = k * math.pi / 2.0, (k + 1) * math.pi / 2.0
        roots.append(bisect(f, lo + 1e-9, hi - 1e-9, tol=1e-14))
    return roots
