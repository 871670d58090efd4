"""Characteristic function whose zeros are the eigenvalues.

On each piece the Wronskian of the left and right solutions is constant,
and the three per-piece constants differ only by fixed products of the jump
constants.  The piece-1 value is taken as *the* characteristic value; the
other two, rescaled by those products, must reproduce it, which gives a
cheap internal consistency check on every evaluation.  ``char_value``
reads each piece's Wronskian at its lower end from the anchor states
(``ends``) of one-``lam`` left and right builds, as ``verify``'s consistency
stage does for a whole batch of spectral parameters.

For scanning, a fast path computes the same canonical value from the left
solution alone: propagating the right boundary form onto the left solution's
terminal state and rescaling by the jump products is algebraically identical
to the piece-1 Wronskian, at half the integration cost, and it vectorizes
over a whole batch of spectral parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ProblemSpec
from .shooting import BoundaryData, build_left, build_right, left_terminal_batch

__all__ = ["CharValue", "char_value", "char_batch"]


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


def _piece_wronskians(spec: ProblemSpec, f: BoundaryData, g: BoundaryData):
    """Each piece's Wronskian at its lower end, and the consistency residual.

    ``f`` and ``g`` are the ``ends`` of the left and the right solution,
    built for one ``lam`` or for an array of them.  Returns the three
    per-piece Wronskians, piece 1 first, and the larger of ``|d1 - m2 d2|``
    and ``|d1 - m3 d3|``, each one value per ``lam``.
    """
    d = (f.left.wronskian(g.left), f.h1_plus.wronskian(g.h1_plus), f.h2_plus.wronskian(g.h2_plus))
    resid = np.maximum(np.abs(d[0] - spec.m2 * d[1]), np.abs(d[0] - spec.m3 * d[2]))
    return d, resid


def char_value(spec: ProblemSpec, lam: float) -> CharValue:
    """Full characteristic evaluation with the per-piece consistency check.

    Each piece's Wronskian is read at its lower end, as ``_piece_wronskians``
    reads it: at ``+1`` the right solution is still its launch.
    """
    lam = float(lam)
    d, resid = _piece_wronskians(spec, build_left(spec, lam).ends, build_right(spec, lam).ends)
    return CharValue(lam=lam, on_piece=d, value=d[0], consistency_residual=float(resid))


def char_batch(spec: ProblemSpec, lams) -> np.ndarray:
    """Canonical characteristic values for a batch of spectral parameters.

    Uses the left-solution-only route: the right boundary form evaluated on
    the left solution's terminal state, rescaled by the jump products.
    """
    arr = np.atleast_1d(np.asarray(lams, dtype=float))
    u, v = left_terminal_batch(spec, arr)
    return spec.m3 * spec.right_form(arr, u, v)
