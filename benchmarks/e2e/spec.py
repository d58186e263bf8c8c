"""Where things are, and the one source of metric names, units and bounds.

``BENCHMARK.json`` at the repo root names every workload and metric;
the runner, the report and ``--compare`` all read it from here so the
three cannot drift apart.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: The checkout root (``benchmarks/e2e/spec.py`` is two levels down).
ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Everything the benchmark writes (temp traces, result files) lands
#: under this git-ignored directory inside the checkout.
WORK_DIR = ROOT / ".bench_e2e"

def bootstrap_path() -> None:
    """Make ``repro`` and ``benchmarks`` importable from a bare checkout."""
    for entry in (ROOT, ROOT / "src"):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)
