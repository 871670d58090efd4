"""The three workloads: their inputs, their operations and their output checks.

deep-spectrum
    ``locate_eigenvalues(spec, 100)`` alternating between ``configs/s0.json``
    and ``configs/case1.json``.  lambda reaches about 2.4e4, so batched
    propagation and lockstep refinement do nearly all the work; hilbert,
    asymptotics and the scalar two-ended route are never called.
verify-suite
    ``sl2t.cli.main(["verify", cfg])`` for s0, case1 and indefinite, in process
    with stdout captured: single-lambda dense solves with interpolation,
    quadrature, eigenfunctions and the Gram matrix.  The indefinite config runs
    no root search.
config-sweep
    ``SWEEP_COUNT`` admissible configs drawn from the seed; each runs
    ``locate_eigenvalues(spec, 10)`` and then ``eigenfunction`` of indices 1
    and 10.  lambda stays low, so per-call overhead, the scan up from the
    floor and first-call costs dominate.  Configs whose lowest eigenvalue lies
    below the solver's scan floor, and indefinite configs whose scan stops
    short of ten real roots, stay in the draw and count as failures.  The
    seed commit fails operations on every draw, so this workload is not in
    ``BENCHMARK.json``, whose workloads must fail none; it stays runnable to
    show those failures.

The seed only orders the bundled configs of the first two workloads, so their
work is the same on every seed; it draws the whole config set of the third.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"

DEEP_N = 100
SWEEP_N = 10
SWEEP_EIGENFUNCTIONS = (1, 10)
#: three (form, interface) kinds times three potential kinds, three of each
SWEEP_COUNT = 27
#: a returned eigenvalue matches the reference root when within this share of
#: max(1, |root|): the half-width of the solver's own certificate window
MATCH_RTOL = 1e-8
#: eigenfunction left-condition residual, relative to the sampled size
EIGENFUNCTION_RTOL = 1e-6
#: independent reference routes must agree to this relative root error
CROSS_CHECK_RTOL = 1e-12

VERIFY_STAGES = (
    "consistency", "wronskian-constancy", "symmetry",
    "interface-wronskians", "orthogonality", "decay",
)
#: stage statuses of the verify suite at the seed commit
VERIFY_EXPECTED = {
    "s0": ("PASS",) * 6,
    "case1": ("PASS",) * 6,
    "indefinite": ("PASS", "PASS", "SKIPPED", "PASS", "SKIPPED", "SKIPPED"),
}
_MEASURED_VS_TOL = re.compile(
    r"(\d[\d.e+-]*) (?:(?:over|for) [^()]*)?\((?:tol|bound) (\d[\d.e+-]*)\)"
)


def bundled(name: str) -> dict:
    return json.loads((CONFIG_DIR / f"{name}.json").read_text())


@dataclass
class Item:
    """One input of a workload: a labelled config, parsed once in set-up."""

    label: str
    cfg: dict
    digest: str = ""
    spec: object = None
    path: str = ""


# ---------------------------------------------------------------------------
# config-sweep draw


def _pm(rng: random.Random, lo: float, hi: float) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def draw_config(rng: random.Random, kind: int, q_kind: int) -> dict:
    """One candidate config of the given (form, interface) and potential kind.

    ``kind`` 0: definite, phase-coherent interfaces; 1: definite, reflecting;
    2: indefinite, reflecting (a coherent pattern forces a definite form).
    ``q_kind`` 0: q = 0; 1: constant per piece; 2: linear or quadratic.
    """
    h1 = rng.uniform(-0.6, -0.15)
    h2 = rng.uniform(0.15, 0.6)
    w = [rng.uniform(0.7, 1.6) for _ in range(3)]
    # scale to weighted length Theta = 2, as in the bundled configs: the scan
    # range then holds the same number of eigenvalue gaps in every draw
    theta = w[0] * (h1 + 1.0) + w[1] * (h2 - h1) + w[2] * (1.0 - h2)
    w = [wi * 2.0 / theta for wi in w]
    b1p, b2p = _pm(rng, 0.3, 1.5), _pm(rng, 0.3, 1.5)
    b1, b2 = _pm(rng, 0.0, 1.5), _pm(rng, 0.0, 1.5)
    if b1p * b2 - b1 * b2p < 0.0:
        b1, b2 = -b1, -b2
    g = [rng.uniform(0.5, 2.0) for _ in range(4)]
    d = [rng.uniform(0.5, 2.0) for _ in range(4)]
    if kind == 0:
        # (g0/d0) w2 = (g1/d1) w1 and (g2/d2) w3 = (g3/d3) w2
        g[1] = d[1] * (g[0] / d[0]) * w[1] / w[0]
        g[3] = d[3] * (g[2] / d[2]) * w[2] / w[1]
    elif kind == 2:
        g[rng.choice((0, 2))] *= -1.0
    if q_kind == 0:
        pieces = [[0.0], [0.0], [0.0]]
    elif q_kind == 1:
        pieces = [[rng.uniform(-3.0, 3.0)] for _ in range(3)]
    else:
        pieces = [[rng.uniform(-3.0, 3.0) for _ in range(rng.choice((2, 3)))] for _ in range(3)]
    return {
        "h1": h1, "h2": h2, "omega": w, "alpha": rng.uniform(0.0, math.pi),
        "beta": [b1, b2], "beta_prime": [b1p, b2p], "gamma": g, "delta": d,
        "q": {"pieces": pieces},
    }


def sweep_configs(seed: int, parse_config, config_error) -> list[dict]:
    """``SWEEP_COUNT`` configs from ``seed``; each redrawn until ``parse_config`` accepts."""
    rng = random.Random(seed)
    out = []
    for i in range(SWEEP_COUNT):
        while True:
            cfg = draw_config(rng, i % 3, (i // 3) % 3)
            try:
                parse_config(cfg)
            except config_error:
                continue
            out.append(cfg)
            break
    return out


# ---------------------------------------------------------------------------
# workloads


class CrossCheckError(RuntimeError):
    """Two independent reference routes disagree: the benchmark cannot judge outputs."""


class Workload:
    """Inputs from a seed, one operation per input, and the check of its output."""

    name = ""
    #: accuracy figure of the passed operations, reported beside the timings
    accuracy = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.items: list[Item] = []

    def prepare(self, api) -> None:
        """Parse every input once (set-up, not timed)."""
        for item in self.items:
            item.spec = api.parse_config(item.cfg)
            item.digest = api.spec_digest(item.spec)

    def run(self, api, item: Item):
        raise NotImplementedError

    def references(self, oracles) -> dict:
        """Per-label references, computed outside the timed phase."""
        return {}

    def check(self, item: Item, value, ref) -> tuple[list[str], float]:
        """Failures of one output, and its accuracy figure."""
        raise NotImplementedError

    def fingerprint(self, value):
        """What repeated operations on one input must reproduce exactly."""
        raise NotImplementedError


class SolveWorkload(Workload):
    """``locate_eigenvalues`` and optionally some eigenfunctions, per config."""

    accuracy = "max_rel_err"
    n_roots = 0
    eigenfunctions: tuple[int, ...] = ()

    def run(self, api, item: Item):
        res = api.locate_eigenvalues(item.spec, self.n_roots)
        fns = [
            api.eigenfunction(item.spec, res.records[n - 1])
            for n in self.eigenfunctions if n <= len(res.records)
        ]
        return res, fns

    def references(self, oracles) -> dict:
        refs = {}
        for item in self.items:
            ref = reference.Reference(item.cfg, self.n_roots, oracles)
            gaps = self.cross_checks(item, ref, oracles)
            if ref.prob.q_constant and not any(r.prob.q_constant for r in refs.values()):
                # the first q-constant config of a run checks the Magnus propagator
                gaps["Magnus vs transfer_char"] = reference.magnus_vs_transfer(ref)
            for what, gap in gaps.items():
                if gap > CROSS_CHECK_RTOL:
                    raise CrossCheckError(f"{what} on {item.label} ({item.digest}): {gap:.3e}")
            refs[item.label] = ref
        return refs

    def cross_checks(self, item: Item, ref, oracles) -> dict[str, float]:
        """Relative root gaps between independent reference routes."""
        return {}

    def check(self, item: Item, value, ref) -> tuple[list[str], float]:
        res, fns = value
        fails, errs = check_scan(res.records, ref, self.n_roots)
        for n, ef in zip(self.eigenfunctions, fns):
            fails += check_eigenfunction(item, res.records[n - 1], ef)
        return fails, max(errs, default=0.0)

    def fingerprint(self, value):
        return [(r.lambda_n, r.bracket) for r in value[0].records]

    def roots(self, value) -> int:
        return len(value[0].records)


class DeepSpectrum(SolveWorkload):
    name = "deep-spectrum"
    n_roots = DEEP_N

    def __init__(self, seed: int):
        super().__init__(seed)
        labels = ["s0", "case1"]
        random.Random(seed).shuffle(labels)
        self.items = [Item(label, bundled(label)) for label in labels]

    def cross_checks(self, item: Item, ref, oracles) -> dict[str, float]:
        return {"hand-derived closed form": reference.closed_form_cross_check(item.label, ref, oracles)}


class ConfigSweep(SolveWorkload):
    name = "config-sweep"
    n_roots = SWEEP_N
    eigenfunctions = SWEEP_EIGENFUNCTIONS

    def prepare(self, api) -> None:
        self.items = [
            Item(f"sweep{i:02d}", cfg)
            for i, cfg in enumerate(sweep_configs(self.seed, api.parse_config, api.ConfigError))
        ]
        super().prepare(api)


class VerifySuite(Workload):
    name = "verify-suite"
    accuracy = "verify_margin"

    def __init__(self, seed: int):
        super().__init__(seed)
        labels = list(VERIFY_EXPECTED)
        random.Random(seed).shuffle(labels)
        self.items = [
            Item(label, bundled(label), path=str(CONFIG_DIR / f"{label}.json")) for label in labels
        ]

    def run(self, api, item: Item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(["verify", item.path])
        return code, out.getvalue()

    def check(self, item: Item, value, ref) -> tuple[list[str], float]:
        code, stdout = value
        statuses, margin = verify_statuses(stdout)
        fails = []
        if code != 0:
            fails.append(f"exit code {code}")
        if statuses != VERIFY_EXPECTED[item.label]:
            fails.append(f"stage statuses {statuses}")
        return fails, margin

    def fingerprint(self, value):
        return value[1]


WORKLOADS = {w.name: w for w in (DeepSpectrum, VerifySuite, ConfigSweep)}


# ---------------------------------------------------------------------------
# output checks


def check_scan(records, ref, n_max: int) -> tuple[list[str], list[float]]:
    """Failures of one located spectrum against its reference, and the root errors."""
    fails = []
    if len(records) < n_max:
        fails.append(f"returned {len(records)} of {n_max} eigenvalues")
    lams = [r.lambda_n for r in records]
    if any(b <= a for a, b in zip(lams, lams[1:])):
        fails.append("eigenvalues not strictly increasing")
    ends = [x for r in records for x in r.bracket]
    signs = ref.value(ends) if ends else []
    errs = []
    wrong = []
    for k, r in enumerate(records):
        lo, hi = r.bracket
        if not lo < r.lambda_n < hi:
            fails.append(f"lambda_{r.n} = {r.lambda_n!r} outside its bracket [{lo!r}, {hi!r}]")
        if not signs[2 * k] * signs[2 * k + 1] < 0.0:
            fails.append(f"reference sees no sign change on the bracket of lambda_{r.n}")
        if r.n > len(ref.roots):
            continue
        root = ref.roots[r.n - 1]
        errs.append(abs(r.lambda_n - root) / max(1.0, abs(root)))
        if errs[-1] > MATCH_RTOL:
            wrong.append(r)
    if wrong:
        missed = [
            x for x in ref.roots
            if all(abs(lam - x) > MATCH_RTOL * max(1.0, abs(x)) for lam in lams)
        ]
        r = wrong[0]
        fails.append(
            f"lambda_{r.n} = {r.lambda_n!r} is not the reference's root {r.n} "
            f"({ref.roots[r.n - 1]!r}); {len(wrong)} indices wrong; "
            f"missed reference roots {missed!r}"
        )
    return fails, errs


def check_eigenfunction(item: Item, rec, ef) -> list[str]:
    """The returned eigenfunction belongs to ``rec`` and meets the left condition."""
    fails = []
    if ef.lambda_n != rec.lambda_n:
        fails.append(f"eigenfunction {rec.n} carries lambda {ef.lambda_n!r} != {rec.lambda_n!r}")
    u_peak = max(max(abs(float(x)) for x in p.u) for p in ef.pieces)
    du_peak = max(max(abs(float(x)) for x in p.du) for p in ef.pieces)
    if not (math.isfinite(u_peak) and math.isfinite(du_peak) and u_peak > 0.0):
        return fails + [f"eigenfunction {rec.n} has non-finite or zero samples"]
    alpha = float(item.cfg["alpha"])
    left = ef.ends.left
    resid = abs(math.cos(alpha) * left.u + math.sin(alpha) * left.v)
    scale = u_peak + du_peak / (1.0 + math.sqrt(abs(rec.lambda_n)))
    if resid > EIGENFUNCTION_RTOL * scale:
        fails.append(f"eigenfunction {rec.n} misses the left condition by {resid:.3e}")
    return fails


def verify_statuses(stdout: str) -> tuple[tuple[str, ...], float]:
    """Stage statuses in stage order, and the largest measured/tolerance ratio."""
    statuses = []
    margin = 0.0
    lines = {line.split(":", 1)[0]: line for line in stdout.splitlines() if ":" in line}
    for stage in VERIFY_STAGES:
        line = lines.get(stage, "")
        status = line.split(":", 1)[1].split("(", 1)[0].strip() if line else "MISSING"
        statuses.append(status)
        for measured, tol in _MEASURED_VS_TOL.findall(line):
            margin = max(margin, float(measured) / float(tol))
    return tuple(statuses), margin
