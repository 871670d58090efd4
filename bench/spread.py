"""Run the benchmark on several seeds and report each metric's median and spread.

Usage (from the repository root)::

    python3 bench/spread.py --workload verify-suite --seeds 1-10 [--trace 0] [--out runs.json]

Spread is the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, the figure
that ``BENCHMARK.json`` bounds.  Runs are made one after the other with the
``run_seconds`` of ``BENCHMARK.json``; ``--out`` keeps every result line and the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the result lines and the summary to this JSON file")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        wall = time.perf_counter() - start
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append({"seed": seed, "wall_s": wall, **result})
        values = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                          if args.trace == 0)
        print(f"seed {seed} ({wall:.0f} s): attempted={result['attempted']} "
              f"failed={result['failed']} {values}",
              flush=True)

    summary = {}
    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / abs(med) if med else None
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        shown = "n/a" if spread is None else f"{spread:.3f}"
        print(f"{name:<36} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {shown:>8}")
    if args.out:
        out = {"workload": args.workload, "trace": args.trace,
               "run_seconds": bench["run_seconds"], "runs": results, "summary": summary}
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
