"""sl2t benchmark: certified-root throughput with output checks and per-layer timings.

Usage (from the repository root)::

    python3 bench/run.py --workload deep-spectrum --seed 1 --seconds 25 --trace 0

One client in a closed loop: each operation starts when the previous one
returns, in this process, with BLAS limited to one thread.  The timed phase
runs whole cycles over the workload's inputs until ``--seconds`` have passed,
so every run does the same mix of operations.  Every output is checked against
references that never call ``sl2t`` (``reference.py``), computed after the
timed phase.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median of
``SETUP_PROBES`` fresh interpreters, ``setup_probe.py``, half of them started
before the timed phase and half after it), ``ops_per_s``,
``op_p50_s`` and ``peak_rss_mb``.  ``--trace 1`` runs the timed phase once
untraced and once with spans around every call into an ``sl2t`` module
(``spans.py``), prints the per-layer metrics, per operation, and writes the
spans to ``.bench_out/``.  Lines before the last one give every metric by name
and unit, the failures, and a JSON record of the machine and the inputs; the
last line is the JSON result.

``BENCHMARK.json`` lists ``deep-spectrum`` and ``verify-suite``, on which the
seed commit fails no operation.  ``config-sweep`` runs the same way but is not
a benchmark workload: the solver fails some of its operations (see
``workloads.py``), so its ``correct`` is false until that is fixed.
``--workload all`` runs every workload one after the other in this process;
its result line prefixes each metric with the workload name, and
``peak_rss_mb`` is then the process peak so far.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere: one BLAS thread, well under nproc
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from setup_probe import warm_up  # noqa: E402

SETUP_PROBES = 8
#: traced runs write their spans here, inside the checkout
SPANS_DIR = ROOT / ".bench_out"
PROBE_TIMEOUT_S = 60

UNITS = {
    # the end-to-end metrics of BENCHMARK.json
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MiB",
    # printed beside them: zero, absent or input-dependent on some workloads
    "roots_per_s": "1/s", "op_tail_s": "s", "max_rel_err": "1", "verify_margin": "1",
    "failed_frac": "1",
}


@dataclass
class Outcome:
    """What one operation returned, or the exception it raised."""

    item: wl.Item
    seconds: float
    value: object = None
    error: str = ""
    failures: list = field(default_factory=list)


def read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def machine_record() -> dict:
    cpu = ""
    for line in read_text("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
    }


def measure_setup(configs: list[dict], probes: int) -> list[float]:
    """Seconds of set-up in each of ``probes`` fresh interpreters."""
    payload = json.dumps(configs)
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py")],
            input=payload, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            cwd=ROOT, check=True,
        )
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def timed_phase(workload, api, seconds: float, tracer=None):
    """Whole cycles over the inputs until ``seconds`` have passed."""
    outcomes = []
    t0 = time.perf_counter()
    while True:
        for item in workload.items:
            op = len(outcomes)
            start = time.perf_counter()
            value, error = None, ""
            try:
                if tracer is None:
                    value = workload.run(api, item)
                else:
                    with tracer.span("bench.op", op):
                        value = workload.run(api, item)
            except Exception as exc:  # a raising operation is a failed operation
                error = f"{type(exc).__name__}: {exc}"
            outcomes.append(Outcome(item, time.perf_counter() - start, value, error))
        if time.perf_counter() - t0 >= seconds:
            return outcomes, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# checks


def check(workload, outcomes, refs):
    """Fill ``Outcome.failures``; return the worst accuracy figure of the passed ops."""
    first = {}
    figures = []
    for oc in outcomes:
        label = oc.item.label
        if oc.error:
            oc.failures.append(f"raised {oc.error}")
            continue
        fails, figure = workload.check(oc.item, oc.value, refs.get(label))
        oc.failures += fails
        fingerprint = workload.fingerprint(oc.value)
        if first.setdefault(label, fingerprint) != fingerprint:
            oc.failures.append("output differs from the first run of the same input")
        if not oc.failures:
            figures.append(figure)
    return max(figures, default=None)


# ---------------------------------------------------------------------------
# figures


def tail(latencies: list[float]):
    """Highest percentile with at least ten operations beyond it, or None."""
    n = len(latencies)
    if n < 11:
        return None
    ordered = sorted(latencies)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


def run_workload(sl2t, oracles, name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload end to end; prints its metric lines and returns its result object."""
    load_start = os.getloadavg()
    workload = wl.WORKLOADS[name](seed)
    workload.prepare(sl2t)
    configs = [item.cfg for item in workload.items]
    # probes on both sides of the timed phase sample two of the machine's speed phases
    setup = measure_setup(configs, SETUP_PROBES // 2)
    warm_up(sl2t, workload.items[0].spec)

    timed, elapsed = timed_phase(workload, sl2t, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += measure_setup(configs, SETUP_PROBES - len(setup))
    traced, layer = [], None
    if trace:
        tracer = spans.Tracer()
        tracer.install(sl2t)
        try:
            traced, traced_elapsed = timed_phase(workload, sl2t, seconds, tracer)
        finally:
            tracer.uninstall()
        layer = spans.layer_metrics(tracer, len(traced))
        tracer.dump(SPANS_DIR / f"spans-{name}-seed{seed}.json", {"workload": name, "seed": seed})
        untraced_per_op = elapsed / len(timed)
        layer["trace.overhead_frac"] = (
            traced_elapsed / len(traced) - untraced_per_op
        ) / untraced_per_op

    outcomes = timed + traced
    refs = workload.references(oracles)
    accuracy = check(workload, outcomes, refs)
    failed = [oc for oc in outcomes if oc.failures]
    latencies = [oc.seconds for oc in timed]

    end_to_end = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(timed) / elapsed,
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "roots_per_s": (
            sum(workload.roots(oc.value) for oc in timed if not oc.error) / elapsed
            if isinstance(workload, wl.SolveWorkload) else None
        ),
        "op_tail_s": tail(latencies),
        workload.accuracy: accuracy,
        "failed_frac": len(failed) / len(outcomes),
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_record(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "inputs": [
            {"label": it.label, "digest": it.digest,
             "reference": refs[it.label].method if it.label in refs else None}
            for it in workload.items
        ],
        "setup_samples_s": setup,
        "timed_phase_s": elapsed,
        "latencies_s": latencies,
        "end_to_end": end_to_end,
        "extra": extra,
        "per_layer": layer,
        "failures": [
            {"label": oc.item.label, "digest": oc.item.digest, "why": oc.failures}
            for oc in failed
        ],
    }

    print(f"# sl2t bench {name} seed={seed} trace={trace}")
    for metric, value in {**end_to_end, **extra}.items():
        if isinstance(value, dict):
            print(f"{metric} {value['value']!r} {UNITS[metric]} "
                  f"(p{value['percentile']:.1f} of {value['samples']} ops)")
        elif value is None:
            print(f"{metric} n/a {UNITS[metric]}")
        else:
            print(f"{metric} {value!r} {UNITS[metric]}")
    for oc in failed:
        print(f"FAIL {oc.item.label} {oc.item.digest}: {'; '.join(oc.failures)}")
    print("# record " + json.dumps(record))

    if layer is None:
        metrics = {m: {"value": v, "unit": UNITS[m]} for m, v in end_to_end.items()}
    else:
        metrics = {m: {"value": v, "unit": spans.unit(m)} for m, v in layer.items()}
    return {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sl2t" / "__init__.py").is_file():
        raise SystemExit(f"no sl2t sources under {ROOT / 'src'}: run from a checkout")
    import sl2t
    import sl2t.cli  # noqa: F401

    oracles = reference.load_oracles()
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {
        name: run_workload(sl2t, oracles, name, args.seed, args.seconds, args.trace)
        for name in names
    }
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
