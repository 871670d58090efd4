"""Shared problem builders for the test suite."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from sl2t.problem import ProblemSpec, SolverConfig, validate

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

_BASE = dict(
    h1=-1.0 / 3.0,
    h2=1.0 / 3.0,
    omega=(1.0, 1.0, 1.0),
    alpha=0.0,
    beta=(0.0, 1.0),
    beta_prime=(1.0, 0.0),
    gamma=(1.0, 1.0, 1.0, 1.0),
    delta=(1.0, 1.0, 1.0, 1.0),
)


def build_spec(**overrides) -> ProblemSpec:
    """Unit baseline problem with selected fields overridden."""
    kwargs = dict(_BASE)
    kwargs.update(overrides)
    return validate(ProblemSpec(**kwargs))


def baseline_spec(**overrides) -> ProblemSpec:
    """q = 0, unit weights and jumps, u(-1) = 0, lam*u(1) + u'(1) = 0."""
    return build_spec(**overrides)


def steep_spec(**overrides) -> ProblemSpec:
    """Baseline geometry with u'(-1) = 0 and lam*u'(1) = -u(1).

    Carries exactly one negative eigenvalue; the positive ones approach
    (n-1)*pi/2 at an O(1/n^3) rate.
    """
    return build_spec(alpha=math.pi / 2.0, beta=(-1.0, 0.0), beta_prime=(0.0, 1.0), **overrides)


def mixed_spec(**overrides) -> ProblemSpec:
    """A thoroughly non-unit, definite problem used in generic checks."""
    kwargs = dict(
        h1=-0.4,
        h2=0.25,
        omega=(1.2, 0.8, 1.5),
        alpha=1.1,
        beta=(0.7, 1.3),
        beta_prime=(0.9, -0.4),
        gamma=(1.5, 0.8, 1.2, 2.0),
        delta=(1.1, 0.9, 0.7, 1.3),
        q=((0.3,), (-0.2, 0.1), (0.4, 0.0, -0.3)),
    )
    kwargs.update(overrides)
    return build_spec(**kwargs)


def airy_spec(**overrides) -> ProblemSpec:
    """Non-unit problem with a linear potential on every piece (Airy solutions)."""
    kwargs = dict(
        h1=-0.35,
        h2=0.3,
        omega=(1.3, 0.8, 1.1),
        alpha=0.9,
        beta=(0.4, 1.2),
        beta_prime=(1.1, -0.3),
        gamma=(1.4, 0.9, 1.2, 0.7),
        delta=(0.8, 1.1, 0.9, 1.5),
        q=((0.3, 1.5), (-0.2, -2.0), (0.5, 0.8)),
    )
    kwargs.update(overrides)
    return build_spec(**kwargs)


def indefinite_spec(**overrides) -> ProblemSpec:
    """Baseline with one sign-flipped jump constant; the form is indefinite."""
    return build_spec(gamma=(-1.0, 1.0, 1.0, 1.0), **overrides)


def random_spec(rng: np.random.Generator, constant_q: bool = True) -> ProblemSpec:
    """Random admissible problem (piecewise-constant q unless told otherwise)."""
    h1 = rng.uniform(-0.7, -0.05)
    h2 = rng.uniform(h1 + 0.2, 0.8)
    omega = tuple(rng.uniform(0.5, 2.0, size=3))
    alpha = rng.uniform(0.0, math.pi * 0.999)
    # right boundary pair with a guaranteed positive coupling determinant
    while True:
        beta = tuple(rng.uniform(-1.5, 1.5, size=2))
        beta_prime = tuple(rng.uniform(-1.5, 1.5, size=2))
        rho = beta_prime[0] * beta[1] - beta[0] * beta_prime[1]
        if rho > 0.1 and max(map(abs, beta_prime)) > 0.1:
            break
    gamma = tuple(rng.uniform(0.4, 1.8, size=4))
    delta = tuple(rng.uniform(0.4, 1.8, size=4))
    if constant_q:
        q = tuple((float(c),) for c in rng.uniform(-2.0, 2.0, size=3))
    else:
        q = tuple(tuple(rng.uniform(-1.0, 1.0, size=rng.integers(1, 4))) for _ in range(3))
    return build_spec(
        h1=float(h1), h2=float(h2), omega=tuple(map(float, omega)), alpha=float(alpha),
        beta=tuple(map(float, beta)), beta_prime=tuple(map(float, beta_prime)),
        gamma=tuple(map(float, gamma)), delta=tuple(map(float, delta)), q=q,
    )
