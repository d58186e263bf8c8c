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
import os
import statistics
import sys

from repro.experiments.params import MicrobenchParams
from repro.experiments.parallel import SweepTask, run_tasks
from repro.experiments.report import render_table
from repro.util import MB, mbps, ms

#: The staging policies competing (registry names, see repro.core.policy).
POLICY_NAMES = ("reactive", "predictive", "rich", "mobility")

#: Non-policy competitors: the paper's end-to-end single-stream baseline.
BASELINE_SYSTEMS = ("endtoend",)


def panel_points(panel: str) -> list[tuple[str, MicrobenchParams]]:
    """Three (label, params) points for one Fig. 6 panel.

    Panels b..f pin 1 MB chunks (instead of the Table III 2 MB
    default) so a small tournament file still holds enough chunks for
    staging depth to matter; panel a sweeps the chunk size itself.
    """
    base = MicrobenchParams().with_(chunk_size=MB)
    if panel == "a":
        return [(f"{s} MB", base.with_(chunk_size=int(s * MB)))
                for s in (0.25, 1.25, 10)]
    if panel == "b":
        return [(f"{s:g} s", base.with_(encounter_time=float(s)))
                for s in (3, 4, 12)]
    if panel == "c":
        return [(f"{s:g} s", base.with_(disconnection_time=float(s)))
                for s in (8, 32, 100)]
    if panel == "d":
        return [(f"{int(loss * 100)}%", base.with_(packet_loss=loss))
                for loss in (0.22, 0.27, 0.37)]
    if panel == "e":
        return [(f"{bw} Mbps", base.with_(internet_bandwidth=mbps(bw)))
                for bw in (60, 30, 15)]
    if panel == "f":
        return [(f"{latency} ms", base.with_(internet_latency=ms(latency)))
                for latency in (5, 20, 100)]
    raise ValueError(f"unknown panel {panel!r}")


def measure(panels: str = "bc", file_mb: float = 8.0, seeds: int = 1,
            jobs: int = 1) -> dict:
    """Run the tournament; one result dict per competitor.

    Returns ``{"competitors": {name: {...}}, "ranking": [names],
    "runs": N, ...}`` where each competitor carries its per-point mean
    times and gains plus the overall mean gain used for ranking.
    """
    file_size = int(file_mb * MB)
    seed_list = tuple(range(seeds))
    competitors = list(BASELINE_SYSTEMS) + list(POLICY_NAMES)

    tasks: list[SweepTask] = []
    keys: list[tuple[str, str]] = []  # (point key, competitor) per task
    for panel in panels:
        for label, params in panel_points(panel):
            point = f"{panel}/{label.replace(' ', '')}"
            point_params = params.with_(file_size=file_size)
            for seed in seed_list:
                tasks.append(SweepTask("xftp", point_params, seed))
                keys.append((point, "xftp"))
                for system in BASELINE_SYSTEMS:
                    tasks.append(SweepTask(system, point_params, seed))
                    keys.append((point, system))
                for policy in POLICY_NAMES:
                    tasks.append(SweepTask("softstage", point_params, seed,
                                           policy=policy))
                    keys.append((point, policy))

    summaries = run_tasks(tasks, jobs=jobs)

    # point -> competitor -> [times over seeds]
    times: dict[str, dict[str, list[float]]] = {}
    for (point, competitor), summary in zip(keys, summaries):
        times.setdefault(point, {}).setdefault(competitor, []).append(
            summary.download_time
        )

    results: dict[str, dict] = {}
    for competitor in competitors:
        point_gains, point_times = {}, {}
        for point, by_competitor in times.items():
            xftp_time = statistics.mean(by_competitor["xftp"])
            comp_time = statistics.mean(by_competitor[competitor])
            point_times[point] = comp_time
            point_gains[point] = xftp_time / comp_time
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
        "runs": len(tasks),
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
                        jobs=max(int(os.environ.get("REPRO_BENCH_JOBS", "2")),
                                 2)),
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
    parser.add_argument("--label", default="")
    parser.add_argument("--no-record", action="store_true",
                        help="measure and print only")
    parser.add_argument("--registry", action="store_true",
                        help="append one run-registry record per competitor "
                             "(tournament-<name>)")
    parser.add_argument("--registry-dir", metavar="DIR",
                        help="registry directory (default .repro_runs, or "
                             "REPRO_RUNS_DIR)")
    parser.add_argument("--check", action="store_true",
                        help="fail when reactive Eq. 1 loses to the "
                             "end-to-end baseline")
    args = parser.parse_args(argv)

    for panel in args.panels:
        panel_points(panel)  # validate before running anything
    outcome = measure(args.panels, args.file_mb, args.seeds, args.jobs)
    print(render(outcome))

    if not args.no_record:
        metrics = {"runs": outcome["runs"]}
        for name, entry in outcome["competitors"].items():
            metrics[f"gain_{name}"] = entry["mean_gain"]
            metrics[f"time_{name}"] = entry["mean_time"]
        perf.record("policy_tournament", metrics, label=args.label)
        print(f"\nrecorded to {perf.bench_path('policy_tournament')}")

    if args.registry:
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

    if args.check:
        results = outcome["competitors"]
        if (results["reactive"]["mean_gain"]
                < results["endtoend"]["mean_gain"]):
            print("\nTOURNAMENT REGRESSION: reactive Eq. 1 "
                  f"({results['reactive']['mean_gain']:.2f}x) lost to the "
                  f"end-to-end baseline "
                  f"({results['endtoend']['mean_gain']:.2f}x)",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
