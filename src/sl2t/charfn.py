"""Characteristic function whose zeros are the eigenvalues.

On each piece the Wronskian of the left and right solutions is constant,
and the three per-piece constants differ only by fixed products of the jump
constants.  The piece-1 value is taken as *the* characteristic value; the
other two, rescaled by those products, must reproduce it, which gives a
cheap internal consistency check on every evaluation.

For scanning, a fast path computes the same canonical value from the left
solution alone: propagating the right boundary form onto the left solution's
terminal state and rescaling by the jump products is algebraically identical
to the piece-1 Wronskian, at half the integration cost, and it vectorizes
over a whole batch of spectral parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ProblemSpec, piece_bounds
from .shooting import build_left, build_right, left_terminal_batch, wronskian

__all__ = ["CharValue", "char_value", "piece_char", "char_grid", "char_batch"]


@dataclass(frozen=True)
class CharValue:
    """One evaluation of the characteristic function.

    ``on_piece`` holds the raw per-piece Wronskians; ``value`` is the
    canonical (piece-1) characteristic value; ``consistency_residual`` is
    how far the rescaled piece-2/3 values stray from it.
    """

    lam: float
    on_piece: tuple[float, float, float]
    value: float
    consistency_residual: float


def _midpoints(spec: ProblemSpec) -> tuple[float, float, float]:
    out = []
    for i in (1, 2, 3):
        a, b = piece_bounds(spec, i)
        out.append(0.5 * (a + b))
    return tuple(out)


def piece_char(spec: ProblemSpec, lam: float, piece: int) -> float:
    """Wronskian of the left and right solutions, read on one piece."""
    if piece not in (1, 2, 3):
        raise ValueError(f"piece index must be 1, 2, or 3, got {piece!r}")
    phi = build_left(spec, lam)
    chi = build_right(spec, lam)
    return wronskian(phi, chi, _midpoints(spec)[piece - 1])


def char_value(spec: ProblemSpec, lam: float) -> CharValue:
    """Full characteristic evaluation with the per-piece consistency check."""
    phi = build_left(spec, lam)
    chi = build_right(spec, lam)
    d = tuple(wronskian(phi, chi, mid) for mid in _midpoints(spec))
    resid = max(abs(d[0] - spec.m2 * d[1]), abs(d[0] - spec.m3 * d[2]))
    return CharValue(lam=lam, on_piece=d, value=d[0], consistency_residual=resid)


def char_grid(spec: ProblemSpec, lams) -> list[CharValue]:
    """``char_value`` over an iterable of spectral parameters."""
    return [char_value(spec, float(lam)) for lam in lams]


def char_batch(spec: ProblemSpec, lams) -> np.ndarray:
    """Canonical characteristic values for a batch of spectral parameters.

    Uses the left-solution-only route: the right boundary form evaluated on
    the left solution's terminal state, rescaled by the jump products.
    """
    arr = np.atleast_1d(np.asarray(lams, dtype=float))
    u, v = left_terminal_batch(spec, arr)
    b1, b2 = spec.beta
    b1p, b2p = spec.beta_prime
    boundary_form = (b1p * arr + b1) * u - (b2p * arr + b2) * v
    return spec.m3 * boundary_form
