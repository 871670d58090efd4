"""The verification suite: the structural claims behind the spectrum, as records.

``verify(spec)`` runs six stages in order and returns a ``VerifyReport`` with
one frozen ``StageResult`` per stage:

consistency
    the three pieces give one characteristic value at 24 random λ, read off
    the builds' ``ends`` (the scaled consistency residual of ``char_value``);
wronskian-constancy
    W(φ, χ) is constant across each piece at three λ, with the left and the
    right solution read in one query over their six pieces;
symmetry
    ⟨AF, G⟩ = ⟨F, AG⟩ on six seeded pairs of domain elements, seeds 0-11 on
    the default quadrature grid (definite forms);
interface-wronskians
    the interface Wronskian scaling relations on four seeded pairs, seeds 1-4
    against 51-54, whose end data it samples on the 2-node grid;
orthogonality
    the Gram matrix of the first five eigenfunctions is the identity
    (definite forms); a scan that found fewer than five fails it;
decay
    n·|μₙ − μₙ,asym| stays within its bound for n in [5, 40]
    (reflection-free interfaces).

A stage lists each comparison it makes as a ``(measured, bound)`` pair in
``checks``.  One rule, in ``_run_stage``, gives the status: ``PASS`` when
every ``measured <= bound`` (so a NaN fails), ``FAIL`` otherwise or when the
stage raised ``NumericalError`` or ``ValueError``, and ``SKIPPED``, with its
reason in ``detail``, when the spec is outside the stage's hypotheses.  Each
bound is one module constant, which the stage's check and its message both
read.

A run pays only for its own numerics.  Its inputs are the same on every run:
the 27 λ of its builds (``_build_lams``) and the parameters of each Hilbert
stage's seeded elements (``hilbert``'s seed table) are drawn once per process
and kept read-only; the first run in a process pays those draws, every later
one reads them.  Both are drawn with the standard library's
``random.Random``, so a ``verify`` process never loads ``numpy.random``.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# entry points are called through their module so that tracing which patches
# the attributes of those modules also sees the calls made from here
from . import asymptotics, charfn, hilbert, shooting, spectrum
from .problem import NumericalError, ProblemSpec, piece_bounds

__all__ = ["StageResult", "VerifyReport", "VerifyRun", "verify"]

#: scaled piece-Wronskian consistency residual of the characteristic value
_CONSISTENCY_TOL = 1e-7
#: relative drift of W(φ, χ) across one piece
_CONSTANCY_TOL = 1e-8
#: scaled residual of ⟨AF, G⟩ − ⟨F, AG⟩
_SYMMETRY_TOL = 1e-7
#: residual of the interface Wronskian identities
_INTERFACE_TOL = 1e-10
#: off-diagonal entries of the eigenfunctions' Gram matrix
_OFF_DIAGONAL_TOL = 1e-6
#: distance of the Gram matrix's diagonal from 1
_DIAGONAL_TOL = 1e-8
#: bound on n·|μₙ − μₙ,asym| over the decay window
_DECAY_BOUND = 1.0
#: first and last index of the decay window
_DECAY_WINDOW = (5, 40)
#: eigenfunctions in the orthogonality stage's Gram matrix
_GRAM_SIZE = 5


@functools.cache
def _build_lams() -> np.ndarray:
    """The read-only λ of ``VerifyRun.builds``, drawn once per process.

    The consistency stage's 24 values, ``random.Random(93)``'s first 24
    ``uniform(-20, 200)`` draws, then the wronskian-constancy stage's three.
    """
    rng = random.Random(93)
    lams = np.array([*(rng.uniform(-20.0, 200.0) for _ in range(24)), -7.5, 3.7, 61.3])
    lams.flags.writeable = False
    return lams


@dataclass(frozen=True)
class StageResult:
    """What one stage found: its status, its message and its comparisons."""

    name: str
    #: ``PASS``, ``FAIL`` or ``SKIPPED``
    status: str
    #: the measured values against their bounds, or why the stage was skipped
    detail: str
    #: one ``(measured, bound)`` pair per comparison, in the order of ``detail``
    checks: tuple[tuple[float, float], ...]
    #: wall time of the stage, including the shared work first read in it
    seconds: float


@dataclass(frozen=True)
class VerifyReport:
    """The stage results of one ``verify`` run, in stage order."""

    stages: tuple[StageResult, ...]

    @property
    def status(self) -> str:
        """``FAIL`` when any stage failed, ``PASS`` otherwise."""
        return "FAIL" if any(s.status == "FAIL" for s in self.stages) else "PASS"


class VerifyRun:
    """What the stages of one ``verify`` run share, each computed at most once.

    Shared work is built on the first read of it, so a run whose stages all
    skip a piece of it never pays for it:

    * one left and one right λ-batched build over the 27 fixed λ of
      ``_build_lams()``: the consistency stage's 24 random values, then the
      wronskian-constancy stage's three.  Consistency reads their anchor
      records; constancy queries its three rows of both solutions with one
      ``shooting._query`` call.
    * the located spectrum and its records: enough roots for the decay window
      when the decay stage will read them and 5 otherwise; the orthogonality
      stage reads the first five, and fails when the scan found fewer.  A
      failed scan is kept and raised again in every stage that reads it.

    Each Hilbert stage builds its own grid and samples its own seeded
    elements on it, and drops both when it returns, so a run keeps neither.
    Nothing is kept across runs but the fixed inputs: every build and record
    belongs to its run.
    """

    #: rows of ``builds``: the consistency stage's λ, then the constancy stage's
    CONSISTENCY, CONSTANCY = slice(0, 24), slice(24, 27)

    def __init__(self, spec: ProblemSpec):
        self.spec = spec

    @functools.cached_property
    def builds(self) -> tuple[shooting.PiecewiseSolution, shooting.PiecewiseSolution]:
        lams = _build_lams()
        return shooting.build_left(self.spec, lams), shooting.build_right(self.spec, lams)

    @functools.cached_property
    def _scan(self) -> tuple[Optional[spectrum.ScanResult], Optional[Exception]]:
        coherent = asymptotics.phase_coherent(self.spec)
        n_max = _DECAY_WINDOW[1] + asymptotics.DECAY_ROOT_MARGIN if coherent else _GRAM_SIZE
        try:
            return spectrum.locate_eigenvalues(self.spec, n_max), None
        except (NumericalError, ValueError) as exc:
            return None, exc

    @functools.cached_property
    def records(self) -> tuple[spectrum.EigenRecord, ...]:
        res, exc = self._scan
        if exc is not None:
            raise exc
        return res.records


#: what a stage returns: its ``(measured, bound)`` pairs and its message, or
#: ``None`` and the reason it does not apply
_Outcome = tuple[Optional[tuple[tuple[float, float], ...]], str]


def _consistency(run: VerifyRun) -> _Outcome:
    d, resid = charfn._piece_wronskians(run.spec, *(sol.ends for sol in run.builds))
    rows = run.CONSISTENCY
    worst = float(np.max(resid[rows] / (1.0 + np.abs(d[0][rows]))))
    return ((worst, _CONSISTENCY_TOL),), (
        f"max scaled residual {worst:.2e} over 24 random lam (tol {_CONSISTENCY_TOL:.0e})"
    )


def _wronskian_constancy(run: VerifyRun) -> _Outcome:
    spec = run.spec
    left, right = (sol.take(run.CONSTANCY) for sol in run.builds)
    xs = [np.linspace(*piece_bounds(spec, i), 100) for i in (1, 2, 3)]
    # both solutions hold the same 3 lam, so one query serves their six pieces
    states = shooting._query(left.pieces + right.pieces, xs + xs)
    spreads = []
    for f, g in zip(states[:3], states[3:]):
        w = shooting.State(*f).wronskian(shooting.State(*g))  # one row of 100 points per lam
        spreads.append((w.max(axis=1) - w.min(axis=1)) / (1.0 + np.abs(w).max(axis=1)))
    worst = float(np.max(spreads))  # a NaN on any piece propagates
    return ((worst, _CONSTANCY_TOL),), (
        f"max relative drift {worst:.2e} over 3 lam x 3 pieces x 100 pts (tol {_CONSTANCY_TOL:.0e})"
    )


def _symmetry(run: VerifyRun) -> _Outcome:
    spec = run.spec
    if not spec.is_definite:
        return None, "indefinite form: symmetry certification not applicable"
    # pairs (0, 1), (2, 3), ..., (10, 11): the even rows of seeds 0-11 against the odd ones
    S = hilbert.sample_domain_element(spec, range(12))
    AS = hilbert.apply_operator(spec, S)
    F, G, AF, AG = (E.take(slice(j, 12, 2)) for E in (S, AS) for j in (0, 1))
    n, An = hilbert.norm(spec, S), hilbert.norm(spec, AS)
    scale = 1.0 + An[0::2] * n[1::2] + n[0::2] * An[1::2]
    worst = float(np.max(hilbert.symmetry_residual(spec, F, G, AF, AG) / scale))
    return ((worst, _SYMMETRY_TOL),), (
        f"max scaled residual {worst:.2e} over 6 seeded pairs (tol {_SYMMETRY_TOL:.0e})"
    )


def _interface_wronskians(run: VerifyRun) -> _Outcome:
    # pairs (1, 51), ..., (4, 54); the residuals read only end data, which
    # no grid changes, so the elements are sampled on the 2-node grid
    spec = run.spec
    grid = hilbert.QuadratureGrid.build(spec, 2)
    pairs = hilbert.sample_domain_element(spec, (1, 2, 3, 4, 51, 52, 53, 54), grid=grid)
    F, G = pairs.take(slice(0, 4)), pairs.take(slice(4, 8))
    worst = float(np.max(hilbert.interface_wronskian_residuals(spec, F, G)))
    return ((worst, _INTERFACE_TOL),), (
        f"max identity residual {worst:.2e} over 4 seeded pairs (tol {_INTERFACE_TOL:.0e})"
    )


def _orthogonality(run: VerifyRun) -> _Outcome:
    spec = run.spec
    if not spec.is_definite:
        return None, "indefinite form: orthogonality certification not applicable"
    records = run.records[:_GRAM_SIZE]
    if len(records) < _GRAM_SIZE:
        raise NumericalError(f"scan found only {len(records)} of {_GRAM_SIZE} eigenvalues")
    fns = spectrum.eigenfunctions(spec, records, samples_per_piece=4)
    gram = spectrum.orthogonality_matrix(spec, fns)
    off = float(np.max(np.abs(gram - np.diag(np.diag(gram)))))
    diag = float(np.max(np.abs(np.diag(gram) - 1.0)))
    return ((off, _OFF_DIAGONAL_TOL), (diag, _DIAGONAL_TOL)), (
        f"off-diagonal {off:.2e} (tol {_OFF_DIAGONAL_TOL:.0e}), "
        f"diagonal defect {diag:.2e} (tol {_DIAGONAL_TOL:.0e})"
    )


def _decay(run: VerifyRun) -> _Outcome:
    if not asymptotics.phase_coherent(run.spec):
        return None, asymptotics.REFLECTING
    lo, hi = _DECAY_WINDOW
    report = asymptotics.decay_check(run.records, run.spec, lo, hi, _DECAY_BOUND)
    return ((report.max_product, _DECAY_BOUND),), (
        f"max n*err {report.max_product:.3f} for n in [{lo}, {hi}] (bound {_DECAY_BOUND})"
    )


_STAGES: tuple[tuple[str, Callable[[VerifyRun], _Outcome]], ...] = (
    ("consistency", _consistency),
    ("wronskian-constancy", _wronskian_constancy),
    ("symmetry", _symmetry),
    ("interface-wronskians", _interface_wronskians),
    ("orthogonality", _orthogonality),
    ("decay", _decay),
)


def _run_stage(name: str, stage: Callable[[VerifyRun], _Outcome], run: VerifyRun) -> StageResult:
    t0 = time.perf_counter()
    try:
        checks, detail = stage(run)
    except (NumericalError, ValueError) as exc:
        status, checks, detail = "FAIL", (), f"stage raised: {exc}"
    else:
        if checks is None:
            status, checks = "SKIPPED", ()
        else:
            checks = tuple((float(measured), float(bound)) for measured, bound in checks)
            status = "PASS" if all(measured <= bound for measured, bound in checks) else "FAIL"
    return StageResult(name, status, detail, checks, time.perf_counter() - t0)


def verify(spec: ProblemSpec) -> VerifyReport:
    """Run every stage on ``spec``, in order, sharing one ``VerifyRun``."""
    run = VerifyRun(spec)
    return VerifyReport(tuple(_run_stage(name, stage, run) for name, stage in _STAGES))
