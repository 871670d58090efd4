"""Spans around the calls into each ``sl2t`` module, held in memory.

The package imports names directly (``spectrum`` holds its own
``char_batch``, ``cli`` its own ``locate_eigenvalues`` and ``build_left``), so
a wrapper is installed under every name, in every module, that refers to the
wrapped function; patching only the defining module would miss those calls.
Methods and the ``QuadratureGrid.build`` classmethod are patched on their
class.  ``Tracer.uninstall`` puts every original back.

A span is ``[name, start, end, parent, op, count]``.  Spans are held in
memory and written out with ``Tracer.dump`` when the run ends.  *busy* time of
a name is the summed duration of its outermost spans (a span nested in one of
the same name is not counted twice); *self* time is duration minus the time
covered by direct child spans, so the self times of one operation's spans add
up to its wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("problem", "shooting", "charfn", "spectrum", "hilbert", "asymptotics", "cli")


def _arg_size(args, kwargs, out):
    return int(np.size(args[1]))


def _steps(args, kwargs, out):
    return sum(p.n_steps for p in out.pieces)


def _roots(args, kwargs, out):
    return len(out.records)


def _targets(sl2t):
    """(span name, owner, attribute, count) for every traced entry point."""
    shooting, charfn, spectrum, hilbert = sl2t.shooting, sl2t.charfn, sl2t.spectrum, sl2t.hilbert
    asym, problem, cli = sl2t.asymptotics, sl2t.problem, sl2t.cli
    return [
        ("problem.parse", problem, "parse_config", None),
        ("shooting.batch", shooting, "left_terminal_batch", _arg_size),
        ("shooting.dense", shooting, "build_left", _steps),
        ("shooting.dense", shooting, "build_right", _steps),
        ("shooting.eval", shooting.PiecewiseSolution, "eval", _arg_size),
        ("shooting.eval", shooting.PieceTrajectory, "eval", _arg_size),
        ("charfn.char_batch", charfn, "char_batch", _arg_size),
        ("charfn.char_value", charfn, "char_value", None),
        ("spectrum.locate", spectrum, "locate_eigenvalues", _roots),
        ("spectrum.eigenfunction", spectrum, "eigenfunction", None),
        ("spectrum.orthogonality", spectrum, "orthogonality_matrix", None),
        ("hilbert.grid_build", hilbert.QuadratureGrid, "build", None),
        ("hilbert.element", hilbert, "element_from_solution", None),
        ("hilbert.element", hilbert, "sample_domain_element", None),
        ("hilbert.inner_product", hilbert, "inner_product", None),
        ("hilbert.identity", hilbert, "apply_operator", None),
        ("hilbert.identity", hilbert, "symmetry_residual", None),
        ("hilbert.identity", hilbert, "interface_wronskian_residuals", None),
        ("hilbert.identity", hilbert, "norm", None),
        ("asymptotics.decay_check", asym, "decay_check", None),
        ("asymptotics.mu_asymptotic", asym, "mu_asymptotic", None),
        ("cli.main", cli, "main", None),
    ]


class Tracer:
    """Records spans while installed; ``op`` tags spans with the current operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.results: list[tuple[int, object]] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, out)
            if name == "spectrum.locate":
                self.results.append((self.op, out))
            return out

        return wrapper

    def install(self, sl2t) -> None:
        modules = [sl2t] + [getattr(sl2t, m) for m in LAYERS]
        for name, owner, attr, count in _targets(sl2t):
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, None))
                else:
                    wrapped = self._wrap(name, raw, count)
                self._undo.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        """Root span of one operation; spans opened inside it carry ``op``."""
        rec = [name, 0.0, 0.0, -1, op, 0]
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self.op = -1

    def dump(self, path: Path, meta: dict) -> None:
        """Write the spans, times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[n, s - t0, e - t0, parent, op, count] for n, s, e, parent, op, count in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            **meta, "columns": ["name", "start_s", "end_s", "parent", "op", "count"], "spans": rows,
        }))


# ---------------------------------------------------------------------------
# per-layer figures


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-operation busy/self times, counts and spectrum ratios from the spans."""
    spans = tracer.spans
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    selft = [d - c for d, c in zip(dur, child)]

    def ancestors(i):
        p = spans[i][3]
        while p >= 0:
            yield p
            p = spans[p][3]

    calls, busy, selfs, counts = (defaultdict(float) for _ in range(4))
    layer_busy, layer_self = defaultdict(float), defaultdict(float)
    locate_cols = locate_batches = 0
    for i, (name, _, _, _, _, count) in enumerate(spans):
        layer = name.split(".", 1)[0]
        up = [spans[p][0] for p in ancestors(i)]
        selfs[name] += selft[i]
        layer_self[layer] += selft[i]
        if name not in up:
            calls[name] += 1
            busy[name] += dur[i]
            counts[name] += count
        if not any(u.split(".", 1)[0] == layer for u in up):
            layer_busy[layer] += dur[i]
        if name == "charfn.char_batch" and "spectrum.locate" in up:
            locate_cols += count
            locate_batches += 1

    roots, iters, widths = 0, [], []
    for _, res in tracer.results:
        roots += len(res.records)
        for r in res.records:
            iters.append(r.refinement_iters)
            widths.append((r.bracket[1] - r.bracket[0]) / max(1.0, abs(r.lambda_n)))
    per = 1.0 / n_ops
    op_wall = busy["bench.op"]
    m = {
        "shooting.batch.calls": calls["shooting.batch"] * per,
        "shooting.batch.cols": counts["shooting.batch"] * per,
        "shooting.batch.busy_s": busy["shooting.batch"] * per,
        "shooting.dense.calls": calls["shooting.dense"] * per,
        "shooting.dense.busy_s": busy["shooting.dense"] * per,
        "shooting.dense.steps": counts["shooting.dense"] * per,
        "shooting.eval.points": counts["shooting.eval"] * per,
        "shooting.eval.busy_s": busy["shooting.eval"] * per,
        "charfn.char_batch.calls": calls["charfn.char_batch"] * per,
        "charfn.char_batch.cols": counts["charfn.char_batch"] * per,
        "charfn.char_batch.self_s": selfs["charfn.char_batch"] * per,
        "charfn.char_value.calls": calls["charfn.char_value"] * per,
        "charfn.char_value.busy_s": busy["charfn.char_value"] * per,
        "spectrum.locate.calls": calls["spectrum.locate"] * per,
        "spectrum.locate.busy_s": busy["spectrum.locate"] * per,
        "spectrum.locate.self_s": selfs["spectrum.locate"] * per,
        "spectrum.roots": roots * per,
        "spectrum.evals_per_root": locate_cols / roots if roots else 0.0,
        "spectrum.batches_per_locate": (
            locate_batches / calls["spectrum.locate"] if calls["spectrum.locate"] else 0.0
        ),
        "spectrum.refine_iters_p50": float(statistics.median(iters)) if iters else 0.0,
        "spectrum.cert_rel_width_max": max(widths) if widths else 0.0,
        "spectrum.eigenfunction.calls": calls["spectrum.eigenfunction"] * per,
        "spectrum.eigenfunction.busy_s": busy["spectrum.eigenfunction"] * per,
        "spectrum.eigenfunction.self_s": selfs["spectrum.eigenfunction"] * per,
        "spectrum.orthogonality.busy_s": busy["spectrum.orthogonality"] * per,
        "hilbert.grid_build.calls": calls["hilbert.grid_build"] * per,
        "hilbert.grid_build.busy_s": busy["hilbert.grid_build"] * per,
        "hilbert.element.busy_s": busy["hilbert.element"] * per,
        "hilbert.inner_product.calls": calls["hilbert.inner_product"] * per,
        "hilbert.inner_product.busy_s": busy["hilbert.inner_product"] * per,
        "asymptotics.decay_check.busy_s": busy["asymptotics.decay_check"] * per,
        "asymptotics.mu_asymptotic.calls": calls["asymptotics.mu_asymptotic"] * per,
        "problem.parse.calls": calls["problem.parse"] * per,
        "problem.parse.busy_s": busy["problem.parse"] * per,
        "cli.main.busy_s": busy["cli.main"] * per,
        "cli.main.self_s": selfs["cli.main"] * per,
    }
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = layer_busy[layer] * per
        m[f"{layer}.self_s"] = layer_self[layer] * per
    m["bench.self_s"] = selfs["bench.op"] * per
    m["trace.op_wall_s"] = op_wall * per
    attributed = sum(layer_self[layer] for layer in LAYERS)
    m["trace.attributed_frac"] = attributed / op_wall if op_wall else 0.0
    total_self = attributed + selfs["bench.op"]
    m["trace.self_sum_rel_err"] = abs(total_self - op_wall) / op_wall if op_wall else 0.0
    return m


def unit(name: str) -> str:
    """Unit of a per-layer metric; times and counts are per operation."""
    if name.endswith(("_s", "busy_s", "self_s")):
        return "s/op"
    if name.endswith((".calls", ".cols", ".steps", ".points", ".roots")):
        return "1/op"
    return {
        "spectrum.evals_per_root": "1/eigenvalue",
        "spectrum.batches_per_locate": "1/locate",
        "spectrum.refine_iters_p50": "count",
    }.get(name, "1")
