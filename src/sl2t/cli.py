"""Command-line front end.

Subcommands load a JSON problem config, run one pipeline, and emit
comma-separated tables with ``#``-prefixed header lines.  Tables go to
``--out`` (or stdout); diagnostics and wall time go to stderr, so identical
invocations produce byte-identical table output.

Exit codes: 0 success, 1 usage problem, 2 config validation failure,
3 numerical failure or a failed verification verdict.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .asymptotics import case_of, decay_check, mu_asymptotic
from .problem import ConfigError, NumericalError, ProblemSpec, load_config, spec_digest
from .spectrum import eigenfunction, locate_eigenvalues
from .verification import StageResult, verify


@dataclass(frozen=True)
class RunReport:
    """What a finished command did, for the stderr diagnostics."""

    digest: str
    command: str
    params: str
    outputs: tuple[str, ...]
    stages: tuple[StageResult, ...] = ()
    notes: tuple[str, ...] = ()

    def render(self) -> list[str]:
        lines = [f"sl2t {self.command}: digest {self.digest} ({self.params})"]
        lines += [f"  wrote {path}" for path in self.outputs]
        lines += [f"  stage {s.name}: {s.status} in {s.seconds:.4f} s" for s in self.stages]
        lines += [f"  note: {note}" for note in self.notes]
        return lines


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage problems; we reserve 2 for
    config validation, so remap to 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _header(spec: ProblemSpec, command: str, params: str, columns: str) -> list[str]:
    return [
        f"# sl2t {__version__}",
        f"# digest: {spec_digest(spec)}",
        f"# command: {command}",
        f"# params: {params}",
        f"# columns: {columns}",
    ]


def _emit(lines: list[str], out: Optional[str]) -> tuple[str, ...]:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return ()
    Path(out).write_text(text)
    return (out,)


def _report(rep: RunReport) -> None:
    for line in rep.render():
        print(line, file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(spec: ProblemSpec, args) -> int:
    res = locate_eigenvalues(spec, args.n_max)
    lines = _header(
        spec, "solve", f"n_max={args.n_max}",
        "n,lambda_n,mu_n,bracket_lo,bracket_hi,abs_delta",
    )
    for r in res.records:
        mu = _fmt(r.mu_n) if r.mu_n is not None else ""
        lines.append(",".join(
            [str(r.n), _fmt(r.lambda_n), mu, _fmt(r.bracket[0]), _fmt(r.bracket[1]), _fmt(r.abs_delta)]
        ))
    outputs = _emit(lines, args.out)
    notes = ()
    if res.exhausted:
        notes = (f"partial scan: {len(res.records)} of {args.n_max} roots, "
                 f"stopped at lambda={_fmt(res.scanned_to)}",)
    _report(RunReport(spec_digest(spec), "solve", f"n_max={args.n_max}", outputs, notes=notes))
    return 0


def _cmd_asym(spec: ProblemSpec, args) -> int:
    which = case_of(spec).name
    lines = _header(spec, "asym", f"n_max={args.n_max}", "n,case,mu_asym")
    ns = np.arange(1, args.n_max + 1)
    for n, mu in zip(ns.tolist(), mu_asymptotic(spec, ns).tolist()):
        lines.append(f"{n},{which},{_fmt(mu)}")
    outputs = _emit(lines, args.out)
    _report(RunReport(spec_digest(spec), "asym", f"n_max={args.n_max}", outputs))
    return 0


def _cmd_compare(spec: ProblemSpec, args) -> int:
    res = locate_eigenvalues(spec, args.n_hi + 6)
    try:
        report = decay_check(
            res.records, spec, args.n_lo, args.n_hi, args.bound,
            phase_total=args.phase_override,
        )
    except ValueError as exc:
        raise NumericalError(str(exc)) from exc
    params = f"n_lo={args.n_lo} n_hi={args.n_hi} bound={_fmt(args.bound)}"
    if args.phase_override is not None:
        params += f" phase_override={_fmt(args.phase_override)}"
    lines = _header(spec, "compare", params, "n,mu_computed,mu_asym,err,n_times_err")
    rows = zip(report.ns, report.mu_computed, report.mu_asym, report.errors, report.products)
    for n, mu, asym, err, prod in rows:
        lines.append(f"{n},{_fmt(mu)},{_fmt(asym)},{_fmt(err)},{_fmt(prod)}")
    verdict = "PASS" if report.verdict else "FAIL"
    lines.append(f"# verdict: {verdict}")
    outputs = _emit(lines, args.out)
    _report(RunReport(
        spec_digest(spec), "compare", params, outputs,
        notes=(f"verdict {verdict}: max n*err {_fmt(report.max_product)} vs bound {_fmt(args.bound)}",),
    ))
    return 0 if report.verdict else 3


def _cmd_eigenfunction(spec: ProblemSpec, args) -> int:
    res = locate_eigenvalues(spec, args.index)
    if len(res.records) < args.index:
        raise NumericalError(
            f"scan found only {len(res.records)} eigenvalues before exhausting its budget"
        )
    rec = res.records[args.index - 1]
    ef = eigenfunction(spec, rec, samples_per_piece=args.samples)
    lines = _header(
        spec, "eigenfunction", f"index={args.index} samples={args.samples}",
        "x,piece,u,u_prime",
    )
    lines.insert(4, f"# lambda_n: {_fmt(rec.lambda_n)}")
    lines.insert(5, f"# normalization: {_fmt(ef.normalization)}")

    def row(x, piece, u, v):
        return f"{_fmt(x)},{piece},{_fmt(u)},{_fmt(v)}"

    e = ef.ends
    for piece, samples in enumerate(ef.pieces, start=1):
        if piece == 2:
            lines.append(row(spec.h1, 1, e.h1_minus.u, e.h1_minus.v))
            lines.append(row(spec.h1, 2, e.h1_plus.u, e.h1_plus.v))
        if piece == 3:
            lines.append(row(spec.h2, 2, e.h2_minus.u, e.h2_minus.v))
            lines.append(row(spec.h2, 3, e.h2_plus.u, e.h2_plus.v))
        for x, u, v in zip(samples.xs[1:-1], samples.u[1:-1], samples.du[1:-1]):
            lines.append(row(x, piece, u, v))
    outputs = _emit(lines, args.out)
    _report(RunReport(
        spec_digest(spec), "eigenfunction",
        f"index={args.index} lambda_n={_fmt(rec.lambda_n)}", outputs,
    ))
    return 0


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(spec: ProblemSpec, args) -> int:
    report = verify(spec)
    digest = spec_digest(spec)
    print(f"# sl2t {__version__}")
    print(f"# digest: {digest}")
    for stage in report.stages:
        print(f"{stage.name}: {stage.status} ({stage.detail})")
    print(f"verify: {report.status}")
    _report(RunReport(digest, "verify", "", (), stages=report.stages))
    return 3 if report.status == "FAIL" else 0


# ---------------------------------------------------------------------------
# argument plumbing


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on first use and kept for the process."""
    parser = _Parser(prog="sl2t", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"sl2t {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("config", help="path to a JSON problem config")
        p.add_argument("--tol-override", action="append", metavar="KEY=VALUE",
                       help="override a solver setting (repeatable)")

    p = sub.add_parser("solve", help="locate eigenvalues and write the table")
    common(p)
    p.add_argument("--n-max", type=int, required=True, help="how many eigenvalues")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("asym", help="tabulate the asymptotic frequencies")
    common(p)
    p.add_argument("--n-max", type=int, required=True, help="how many indices")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("compare", help="computed vs asymptotic frequencies with a decay verdict")
    common(p)
    p.add_argument("--n-lo", type=int, required=True, help="first asymptotic index")
    p.add_argument("--n-hi", type=int, required=True, help="last asymptotic index")
    p.add_argument("--bound", type=float, default=1.0, help="bound on n*|err| (default 1.0)")
    p.add_argument("--phase-override", type=float, default=None,
                   help="replace the accumulated-phase denominator (negative control)")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("eigenfunction", help="sample one normalized eigenfunction")
    common(p)
    p.add_argument("--index", type=int, required=True, help="eigenvalue index (1-based)")
    p.add_argument("--samples", type=int, default=40, help="interior samples per piece")
    p.add_argument("--out", help="output file (default stdout)")

    p = sub.add_parser("verify", help="run the whole verification suite")
    common(p)
    return parser


def _flag_problem(args) -> Optional[str]:
    if args.command in ("solve", "asym") and args.n_max < 1:
        return "--n-max must be >= 1"
    if args.command == "eigenfunction":
        if args.index < 1:
            return "--index must be >= 1"
        if args.samples < 1:
            return "--samples must be >= 1"
    if args.command == "compare":
        if args.n_lo < 1:
            return "--n-lo must be >= 1"
        if args.n_hi < args.n_lo:
            return "--n-hi must be >= --n-lo"
        if not 0.0 < args.bound < math.inf:
            return "--bound must be positive and finite"
        if args.phase_override is not None and not 0.0 < args.phase_override < math.inf:
            return "--phase-override must be positive and finite"
    return None


_DISPATCH = {
    "solve": _cmd_solve,
    "asym": _cmd_asym,
    "compare": _cmd_compare,
    "eigenfunction": _cmd_eigenfunction,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    t0 = time.perf_counter()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    problem = _flag_problem(args)
    if problem is not None:
        print(f"sl2t {args.command}: error: {problem}", file=sys.stderr)
        return 1
    try:
        spec = load_config(args.config, args.tol_override or ())
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a malformed --tol-override
        print(f"sl2t: error: --tol-override {exc}", file=sys.stderr)
        return 1
    try:
        code = _DISPATCH[args.command](spec, args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"wall time: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
