"""Set-up cost of one fresh interpreter: import sl2t, parse configs, pay lazy costs.

Reads a JSON list of config mappings on stdin and prints the seconds from just
before ``import sl2t`` to the end of the warm-up.  ``run.py`` starts this
script several times per run and reports the median as ``setup_s``.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path


def warm_up(sl2t, spec) -> None:
    """The first-call costs a user pays once per process: quadrature, both shooting routes."""
    sl2t.QuadratureGrid.build(spec)
    sl2t.char_batch(spec, [1.0, 2.0])
    sl2t.char_value(spec, 1.0)


def main() -> None:
    configs = json.load(sys.stdin)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    t0 = time.perf_counter()
    import sl2t
    import sl2t.cli  # noqa: F401  (the verify workload drives the CLI)

    specs = [sl2t.parse_config(cfg) for cfg in configs]
    warm_up(sl2t, specs[0])
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
