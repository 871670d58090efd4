"""The benchmark's span targets (``bench/spans.py``) name attributes the package has.

The tracer wraps each target by name; a renamed function would otherwise
only show when a traced benchmark run fails to install its spans.
"""

import importlib.util
from pathlib import Path

import sl2t
import sl2t.cli  # noqa: F401  (the targets include the CLI module)

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    targets = _spans_module()._targets(sl2t)
    assert targets
    missing = [
        (name, attr) for name, owner, attr, _ in targets
        if not (attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr))
    ]
    assert missing == []
