"""Parallel sweep bench: wall-clock speedup with byte-identical results.

Runs one fig6-style sweep panel twice — sequentially and fanned over a
worker pool (``repro.experiments.parallel``) — asserts the two
:class:`~repro.experiments.report.GainSeries` render byte-identically,
and reports the wall-clock speedup.

Runs two ways:

- ``pytest benchmarks/bench_parallel_sweep.py`` — under
  pytest-benchmark with the shared ``conftest.run_once`` policy;
- ``PYTHONPATH=src python -m benchmarks.bench_parallel_sweep`` — the
  standalone driver: measures, appends to ``BENCH_sweep.json`` via
  :mod:`repro.perf`, and with ``--check`` fails on lost parity or a
  same-machine speedup regression.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from time import perf_counter

from repro.experiments.microbench import BenchProfile, sweep
from repro.experiments.params import PANELS
from repro.util import MB


def _mini_profile(file_mb: float = 4.0, seeds: int = 2) -> BenchProfile:
    """A small-but-real profile: enough work for parallelism to show."""
    return BenchProfile(
        file_size=int(file_mb * MB),
        seeds=tuple(range(seeds)),
    )


def measure(panel: str = "f", jobs: int = 4,
            profile: BenchProfile | None = None) -> dict:
    """Run ``panel`` sequentially then with ``jobs`` workers."""
    profile = profile or _mini_profile()

    started = perf_counter()
    sequential = sweep(panel, replace(profile, jobs=1))
    wall_sequential = perf_counter() - started

    started = perf_counter()
    parallel = sweep(panel, replace(profile, jobs=jobs))
    wall_parallel = perf_counter() - started

    identical = (sequential == parallel
                 and sequential.render() == parallel.render())
    return {
        "panel": panel,
        "jobs": jobs,
        "runs": len(sequential.rows) * len(profile.seeds) * 2,
        "wall_sequential_s": wall_sequential,
        "wall_parallel_s": wall_parallel,
        "speedup": (wall_sequential / wall_parallel
                    if wall_parallel > 0 else 0.0),
        "byte_identical": identical,
    }


# -- pytest entry point ------------------------------------------------------


def test_parallel_sweep_speedup(benchmark):
    from benchmarks.conftest import run_once

    jobs = max(BenchProfile.from_env().jobs, 2)
    profile = _mini_profile(file_mb=2.0, seeds=2)
    result = run_once(benchmark, lambda: measure("f", jobs, profile))
    assert result["byte_identical"], "parallel sweep diverged from sequential"
    print()
    print(f"{result['runs']} runs, {result['jobs']} workers: "
          f"{result['speedup']:.2f}x speedup, byte-identical")


# -- standalone driver (CI perf smoke) ---------------------------------------


def _gates(args, metrics):
    if not metrics["byte_identical"]:
        yield "parallel sweep results diverged from sequential"
    if args.check:
        from repro import perf

        ok, base = perf.check_regression(
            "sweep", "speedup", metrics["speedup"], allowed_drop=0.30,
            same_machine=True, higher_is_better=True,
        )
        if not ok:
            yield (f"speedup {metrics['speedup']:.2f}x is >30% below "
                   f"baseline {base:.2f}x")


def main(argv=None) -> int:
    from repro import perf

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--panel", choices=sorted(PANELS), default="f")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--file-mb", type=float, default=4.0)
    parser.add_argument("--seeds", type=int, default=2)
    return perf.ledger_main(
        "sweep", parser,
        lambda args: measure(
            args.panel, args.jobs, _mini_profile(args.file_mb, args.seeds)
        ),
        gates=[_gates], argv=argv,
    )


if __name__ == "__main__":
    sys.exit(main())
