"""Characteristic function whose zeros are the eigenvalues.

On each piece the Wronskian of the left and right solutions is constant,
and the three per-piece constants differ only by fixed products of the jump
constants.  The piece-1 value is taken as *the* characteristic value; the
other two, rescaled by those products, must reproduce it, which gives a
cheap internal consistency check on every evaluation.  ``char_grid`` reads
each piece's Wronskian at its lower end, from the anchor records of the
left and right sweeps (``shooting._crossings``, no node states kept) for a
whole batch of spectral parameters at once; ``char_value`` is its
one-``lam`` view.

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
from .shooting import BoundaryData, _check_lams, _crossings, left_terminal_batch

__all__ = ["CharValue", "char_value", "char_grid", "char_batch"]


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


def char_grid(spec: ProblemSpec, lams) -> list[CharValue]:
    """Full characteristic evaluations, with the consistency check, for many ``lam``.

    The Wronskians are read at ``-1``, ``h1+`` and ``h2+``, the lower end of
    each piece, from the anchor records of one λ-batched left sweep and one
    right sweep, the ``ends`` of ``build_left`` and ``build_right`` without
    their node states.  Not at ``+1``: there the right solution is still
    its launch, and the piece-3 value would repeat the boundary form of
    ``char_batch``.  The values equal those of one-``lam`` builds read with
    ``wronskian`` bit for bit.  ``lams`` is a scalar, taken as a batch of
    one, or a 1-d array of finite values, as the builds take it; an empty
    one gives ``[]``.
    """
    arr = np.atleast_1d(np.asarray(lams, dtype=float))
    if arr.shape == (0,):
        return []
    arr = _check_lams(arr)
    f, g = _crossings(spec, arr, "left"), _crossings(spec, arr, "right")
    d, resid = _piece_wronskians(spec, f, g)
    return [
        CharValue(lam=lam, on_piece=(d0, d1, d2), value=d0, consistency_residual=r)
        for lam, d0, d1, d2, r in zip(arr.tolist(), *(w.tolist() for w in d), resid.tolist())
    ]


def _piece_wronskians(spec: ProblemSpec, f: BoundaryData, g: BoundaryData):
    """Each piece's Wronskian at its lower end, and the consistency residual.

    ``f`` and ``g`` are the anchor records of the left and the right
    solution, with one entry per ``lam``.  Returns the three per-piece
    Wronskians, piece 1 first, and the larger of ``|d1 - m2 d2|`` and
    ``|d1 - m3 d3|``, each an array over ``lam``.
    """
    d = (f.left.wronskian(g.left), f.h1_plus.wronskian(g.h1_plus), f.h2_plus.wronskian(g.h2_plus))
    resid = np.maximum(np.abs(d[0] - spec.m2 * d[1]), np.abs(d[0] - spec.m3 * d[2]))
    return d, resid


def char_value(spec: ProblemSpec, lam: float) -> CharValue:
    """Full characteristic evaluation with the per-piece consistency check."""
    return char_grid(spec, [lam])[0]


def char_batch(spec: ProblemSpec, lams) -> np.ndarray:
    """Canonical characteristic values for a batch of spectral parameters.

    Uses the left-solution-only route: the right boundary form evaluated on
    the left solution's terminal state, rescaled by the jump products.
    """
    arr = np.atleast_1d(np.asarray(lams, dtype=float))
    u, v = left_terminal_batch(spec, arr)
    return spec.m3 * spec.right_form(arr, u, v)
