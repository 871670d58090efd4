"""Command-line front end.

Subcommands load a JSON problem config and run one pipeline.  A table
command (solve, asym, compare, eigenfunction) writes to ``--out`` or stdout
the lines ``# sl2t <version>``, ``# digest: <digest>``, ``# command: <name>``
and ``# params: <flags>``, its own ``# key: value`` lines, ``# columns:
<names>``, one comma-separated row per record and an optional ``# key:
value`` footer.  stderr gets ``sl2t <command>: digest <digest> (<params>)``,
indented ``wrote``, ``stage`` and ``note`` lines, and ``wall time``, so
identical invocations produce byte-identical tables.

Exit codes: 0 success, 1 usage problem, 2 config validation failure,
3 numerical failure or a failed verification verdict.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .asymptotics import DECAY_ROOT_MARGIN, case_of, decay_check, mu_asymptotic
from .problem import ConfigError, NumericalError, ProblemSpec, load_config, spec_digest
from .spectrum import eigenfunction, locate_eigenvalues
from .verification import verify


class _UsageError(Exception):
    """A usage problem found after parsing, such as an unwritable ``--out``."""


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage problems; we reserve 2 for
    config validation, so remap to 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _fmt(value) -> str:
    """A table value: ``None`` empty, text and integers as they are, floats to 17 digits."""
    if value is None:
        return ""
    return str(value) if isinstance(value, (str, int)) else f"{float(value):.17g}"


def _report(digest: str, command: str, params: str, outputs=(), stages=(), notes=()) -> None:
    """Write what a finished command did to stderr (see the module docstring)."""
    lines = [f"sl2t {command}: digest {digest} ({params})"]
    lines += [f"  wrote {path}" for path in outputs]
    lines += [f"  stage {s.name}: {s.status} in {s.seconds:.4f} s" for s in stages]
    lines += [f"  note: {note}" for note in notes]
    print("\n".join(lines), file=sys.stderr)


def _write_table(spec: ProblemSpec, args, params: str, columns: str, rows, *,
                 meta=(), footer=(), summary: Optional[str] = None, notes=()) -> None:
    """Write one table command's output and report it.  ``rows`` are tuples of
    values, ``meta`` and ``footer`` ``(key, value)`` pairs for ``#`` lines
    before the columns and after the rows; ``summary`` replaces ``params`` on stderr."""
    digest = spec_digest(spec)
    lines = [
        f"# sl2t {__version__}",
        f"# digest: {digest}",
        f"# command: {args.command}",
        f"# params: {params}",
        *(f"# {key}: {_fmt(value)}" for key, value in meta),
        f"# columns: {columns}",
        *(",".join(map(_fmt, row)) for row in rows),
        *(f"# {key}: {_fmt(value)}" for key, value in footer),
    ]
    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise _UsageError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
    outputs = () if args.out is None else (args.out,)
    _report(digest, args.command, summary or params, outputs, notes=notes)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(spec: ProblemSpec, args) -> int:
    res = locate_eigenvalues(spec, args.n_max)
    partial = (f"partial scan: {len(res.records)} of {args.n_max} roots, "
               f"stopped at lambda={_fmt(res.scanned_to)}")
    _write_table(
        spec, args, f"n_max={args.n_max}", "n,lambda_n,mu_n,bracket_lo,bracket_hi,abs_delta",
        [(r.n, r.lambda_n, r.mu_n, *r.bracket, r.abs_delta) for r in res.records],
        notes=[partial] if res.exhausted else (),
    )
    return 0


def _cmd_asym(spec: ProblemSpec, args) -> int:
    which = case_of(spec).name
    ns = np.arange(1, args.n_max + 1)
    rows = [(n, which, mu) for n, mu in zip(ns.tolist(), mu_asymptotic(spec, ns).tolist())]
    _write_table(spec, args, f"n_max={args.n_max}", "n,case,mu_asym", rows)
    return 0


def _cmd_compare(spec: ProblemSpec, args) -> int:
    res = locate_eigenvalues(spec, args.n_hi + DECAY_ROOT_MARGIN)
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
    verdict = "PASS" if report.verdict else "FAIL"
    _write_table(
        spec, args, params, "n,mu_computed,mu_asym,err,n_times_err",
        zip(report.ns, report.mu_computed, report.mu_asym, report.errors, report.products),
        footer=[("verdict", verdict)],
        notes=[f"verdict {verdict}: max n*err {_fmt(report.max_product)} vs bound {_fmt(args.bound)}"],
    )
    return 0 if report.verdict else 3


def _cmd_eigenfunction(spec: ProblemSpec, args) -> int:
    res = locate_eigenvalues(spec, args.index)
    if len(res.records) < args.index:
        raise NumericalError(
            f"scan found only {len(res.records)} eigenvalues before exhausting its budget"
        )
    rec = res.records[args.index - 1]
    ef = eigenfunction(spec, rec, samples_per_piece=args.samples)
    # every sample but x = -1 and x = 1: each piece's end samples are its
    # one-sided states at the interfaces, so each interface shows once per side
    rows = [
        (x, piece, u, v)
        for piece, samples in enumerate(ef.pieces, start=1)
        for x, u, v in zip(samples.xs, samples.u, samples.du)
    ]
    _write_table(
        spec, args, f"index={args.index} samples={args.samples}", "x,piece,u,u_prime", rows[1:-1],
        meta=[("lambda_n", rec.lambda_n), ("normalization", ef.normalization)],
        summary=f"index={args.index} lambda_n={_fmt(rec.lambda_n)}",
    )
    return 0


def _cmd_verify(spec: ProblemSpec, args) -> int:
    report = verify(spec)
    digest = spec_digest(spec)
    print(f"# sl2t {__version__}")
    print(f"# digest: {digest}")
    for stage in report.stages:
        print(f"{stage.name}: {stage.status} ({stage.detail})")
    print(f"verify: {report.status}")
    _report(digest, "verify", "", stages=report.stages)
    return 3 if report.status == "FAIL" else 0


# ---------------------------------------------------------------------------
# argument plumbing


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on first use and kept for the process."""
    parser = _Parser(prog="sl2t", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"sl2t {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, help: str, table: bool = True) -> _Parser:
        p = sub.add_parser(name, help=help)
        p.add_argument("config", help="path to a JSON problem config")
        p.add_argument("--tol-override", action="append", metavar="KEY=VALUE",
                       help="override a solver setting (repeatable)")
        if table:  # every table command writes through _write_table, which reads --out
            p.add_argument("--out", help="output file (default stdout)")
        return p

    p = command("solve", "locate eigenvalues and write the table")
    p.add_argument("--n-max", type=int, required=True, help="how many eigenvalues")

    p = command("asym", "tabulate the asymptotic frequencies")
    p.add_argument("--n-max", type=int, required=True, help="how many indices")

    p = command("compare", "computed vs asymptotic frequencies with a decay verdict")
    p.add_argument("--n-lo", type=int, required=True, help="first asymptotic index")
    p.add_argument("--n-hi", type=int, required=True, help="last asymptotic index")
    p.add_argument("--bound", type=float, default=1.0, help="bound on n*|err| (default 1.0)")
    p.add_argument("--phase-override", type=float, default=None,
                   help="replace the accumulated-phase denominator (negative control)")

    p = command("eigenfunction", "sample one normalized eigenfunction")
    p.add_argument("--index", type=int, required=True, help="eigenvalue index (1-based)")
    p.add_argument("--samples", type=int, default=40, help="interior samples per piece")

    command("verify", "run the whole verification suite", table=False)
    return parser


#: most a count flag (``--n-max``, ``--index``, ``--samples``, ``--n-hi``)
#: may ask for, so a count from outside the program bounds the work and
#: memory it costs; the same number as the Magnus step cap of one piece
_MAX_COUNT = 100_000


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
    for name in ("n_max", "index", "samples", "n_hi"):
        if getattr(args, name, 0) > _MAX_COUNT:
            return f"--{name.replace('_', '-')} must be <= {_MAX_COUNT}"
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
    except _UsageError as exc:
        print(f"sl2t {args.command}: error: {exc}", file=sys.stderr)
        return 1
    print(f"wall time: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
