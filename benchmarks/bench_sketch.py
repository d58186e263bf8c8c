"""Metric-sketch cost: fold throughput and recording overhead.

A run folds every wide event's phase latencies into per-phase sketches
while the simulation runs (see DESIGN.md §14); the fold must be fast
enough to leave on (budget: within 15% of an uninstrumented run,
measured on a small full-stack download).  Percentiles are exact, so
``tests/obs/test_sketch.py`` holds their accuracy, not this file.
"""

from __future__ import annotations

from time import perf_counter

from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.obs.sketch import QuantileSketch
from repro.util import MB

#: Deterministic pseudo-random stream (LCG): no ``random`` state, no
#: seed plumbing, identical on every host.
def _values(n: int, state: int = 12345):
    for _ in range(n):
        state = (state * 1103515245 + 12345) % (1 << 31)
        yield state / float(1 << 31)


def test_quantile_fold_throughput(benchmark):
    values = list(_values(200_000))

    def fold():
        sketch = QuantileSketch()
        for value in values:
            sketch.add(value)
        return sketch.quantile(0.99)

    benchmark(fold)


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        fn()
        best = min(best, perf_counter() - started)
    return best


def test_sketch_recording_overhead_within_budget(benchmark):
    params = MicrobenchParams(file_size=2 * MB)

    def run(sketches):
        return run_download(
            "softstage", params=params, seed=0, sketches=sketches,
        )

    run(False)  # warm imports/caches outside the timed region
    plain = _best_of(lambda: run(False))
    sketched = _best_of(lambda: run(True))
    overhead = sketched / plain - 1.0

    def report():
        return plain, sketched

    benchmark.pedantic(report, rounds=1, iterations=1, warmup_rounds=0)
    print()
    print(f"download plain     : {plain:.3f} s")
    print(f"download +sketches : {sketched:.3f} s  "
          f"(overhead {overhead:+.1%})")
    assert overhead <= 0.15, f"sketch overhead {overhead:.1%} exceeds 15%"
