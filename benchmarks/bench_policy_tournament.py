"""Policy tournament: every staging policy over the Fig. 6 sweep.

Runs Xftp (the no-staging reference), the end-to-end single-stream
baseline, and all four registered staging policies — ``reactive``
(Eq. 1), ``predictive`` (EdgeBuffer-style), ``rich`` (in-order
prefetch window) and ``mobility`` (handoff-aware placement) — over the
same Fig. 6 parameter points, then ranks the competitors by mean gain
(Xftp time / competitor time, the paper's headline metric).

The run list fans over the parallel sweep engine
(:mod:`repro.experiments.parallel`), so ``--jobs N`` scales it across
cores with byte-identical results.

Runs two ways:

- ``pytest benchmarks/bench_policy_tournament.py`` — a tiny tournament
  under pytest-benchmark asserting the paper-shape ordering;
- ``PYTHONPATH=src python -m benchmarks.bench_policy_tournament`` — the
  standalone driver: measures, appends to
  ``BENCH_policy_tournament.json`` via :mod:`repro.perf`, with
  ``--registry`` deposits one run-registry record per competitor
  (``tournament-<name>``), and with ``--check`` fails when reactive
  Eq. 1 loses to the end-to-end baseline.

Each panel uses a trimmed three-point grid (the panel endpoints plus
one midpoint) rather than the full Fig. 6 grid — enough to rank
policies without a full bench run; the full grids stay with
``python -m repro sweep``.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from repro.experiments.microbench import BenchProfile
from repro.experiments.params import PANELS, MicrobenchParams
from repro.experiments.parallel import (
    Competitor,
    GridPoint,
    cell_mean,
    run_grid,
)
from repro.experiments.report import render_table
from repro.util import MB

#: The staging policies competing (registry names, see repro.core.policy).
POLICY_NAMES = ("reactive", "predictive", "rich", "mobility")

#: Non-policy competitors: the paper's end-to-end single-stream baseline.
BASELINE_SYSTEMS = ("endtoend",)


def measure(panels: str = "bc", file_mb: float = 8.0, seeds: int = 1,
            jobs: int = 1) -> dict:
    """Run the tournament; one result dict per competitor.

    Each panel contributes the endpoints and the midpoint of its
    Table III row's grid.  Panels b..f pin 1 MB chunks (instead of the
    Table III 2 MB default) so a small tournament file still holds
    enough chunks for staging depth to matter; panel a sweeps the
    chunk size itself.

    Returns ``{"competitors": {name: {...}}, "ranking": [names],
    "runs": N, ...}`` where each competitor carries its per-point mean
    times and gains plus the overall mean gain used for ranking.
    """
    base = MicrobenchParams(chunk_size=MB, file_size=int(file_mb * MB))
    competitors = list(BASELINE_SYSTEMS) + list(POLICY_NAMES)
    points = [
        GridPoint(f"{panel}/{label.replace(' ', '')}", params)
        for panel in panels
        for label, params, _gain in PANELS[panel].points(base, ends_only=True)
    ]
    cells = run_grid(
        points,
        [Competitor("xftp", "xftp")]
        + [Competitor(system, system) for system in BASELINE_SYSTEMS]
        + [Competitor(policy, "softstage", policy) for policy in POLICY_NAMES],
        tuple(range(seeds)),
        jobs=jobs,
    )

    results: dict[str, dict] = {}
    for competitor in competitors:
        point_gains, point_times = {}, {}
        for point in points:
            comp_time = cell_mean(cells[point.label, competitor])
            point_times[point.label] = comp_time
            point_gains[point.label] = (
                cell_mean(cells[point.label, "xftp"]) / comp_time
            )
        results[competitor] = {
            "mean_gain": statistics.mean(point_gains.values()),
            "mean_time": statistics.mean(point_times.values()),
            "point_gains": point_gains,
            "point_times": point_times,
        }
    ranking = sorted(results, key=lambda c: -results[c]["mean_gain"])
    return {
        "competitors": results,
        "ranking": ranking,
        "runs": sum(len(cell) for cell in cells.values()),
        "panels": panels,
        "file_mb": file_mb,
        "seeds": seeds,
    }


def render(outcome: dict) -> str:
    results = outcome["competitors"]
    points = sorted(next(iter(results.values()))["point_gains"])
    rows = []
    for rank, name in enumerate(outcome["ranking"], start=1):
        entry = results[name]
        per_point = "  ".join(
            f"{point}={entry['point_gains'][point]:.2f}x" for point in points
        )
        rows.append((rank, name, f"{entry['mean_gain']:.2f}x",
                     f"{entry['mean_time']:.1f}", per_point))
    return render_table(
        f"Policy tournament (panels {outcome['panels']}, "
        f"{outcome['file_mb']:g} MB, {outcome['seeds']} seed(s); "
        f"gain = Xftp time / competitor time)",
        ("rank", "competitor", "mean gain", "mean time (s)", "per point"),
        rows,
    )


# -- pytest entry point ------------------------------------------------------


def test_policy_tournament(benchmark):
    from benchmarks.conftest import run_once

    outcome = run_once(
        benchmark,
        lambda: measure(panels="b", file_mb=8.0, seeds=1,
                        jobs=max(BenchProfile.from_env().jobs, 2)),
    )
    print()
    print(render(outcome))
    results = outcome["competitors"]
    # Every competitor finished every point.
    for name, entry in results.items():
        assert all(t > 0 for t in entry["point_times"].values()), name
    # The paper's claim: reactive Eq. 1 staging beats the end-to-end
    # single-stream baseline.
    assert (results["reactive"]["mean_gain"]
            >= results["endtoend"]["mean_gain"]), outcome["ranking"]


# -- standalone driver (CI tournament smoke) ---------------------------------


def main(argv=None) -> int:
    from repro import perf

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--panels", default="bc",
                        help="Fig. 6 panels to sweep (string of a..f)")
    parser.add_argument("--file-mb", type=float, default=8.0)
    parser.add_argument("--seeds", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--registry", action="store_true",
                        help="append one run-registry record per competitor "
                             "(tournament-<name>)")
    parser.add_argument("--registry-dir", metavar="DIR",
                        help="registry directory (default .repro_runs, or "
                             "REPRO_RUNS_DIR)")
    outcome: dict = {}  # the ledger keeps the flat means; the rest is here

    def run(args) -> dict:
        if not set(args.panels) <= set(PANELS):
            parser.error(f"--panels must be letters from {''.join(PANELS)}")
        outcome.update(
            measure(args.panels, args.file_mb, args.seeds, args.jobs)
        )
        metrics = {"runs": outcome["runs"]}
        for name, entry in outcome["competitors"].items():
            metrics[f"gain_{name}"] = entry["mean_gain"]
            metrics[f"time_{name}"] = entry["mean_time"]
        return metrics

    def shape_gate(args, metrics):
        # The paper's claim: reactive Eq. 1 beats the end-to-end baseline.
        if args.check and metrics["gain_reactive"] < metrics["gain_endtoend"]:
            yield (f"reactive Eq. 1 ({metrics['gain_reactive']:.2f}x) lost to "
                   f"the end-to-end baseline "
                   f"({metrics['gain_endtoend']:.2f}x)")

    def deposit(args, _metrics):
        if not args.registry:
            return
        from repro.obs.registry import RunRegistry

        registry = RunRegistry(args.registry_dir)
        meta = {"panels": args.panels, "file_mb": args.file_mb,
                "seeds": args.seeds}
        for name, entry in outcome["competitors"].items():
            metrics = {"gain": entry["mean_gain"],
                       "mean_time": entry["mean_time"]}
            for point, value in entry["point_gains"].items():
                metrics[f"gain.{point.replace('/', '_')}"] = value
            record = registry.append(
                f"tournament-{name}", "tournament", metrics, meta=meta,
                policy=name if name in POLICY_NAMES else "",
            )
            print(f"registry: {record.rec_id}")

    return perf.ledger_main(
        "policy_tournament", parser, run, gates=[shape_gate],
        render=lambda _metrics: render(outcome), then=deposit, argv=argv,
    )


if __name__ == "__main__":
    sys.exit(main())
