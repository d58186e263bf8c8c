"""``repro runs``: the persistent run registry, rendered.

Each command prints what its ``repro serve`` endpoint serves, from the
same :mod:`repro.obs.registry` / :mod:`repro.obs.explain` functions.  An
unknown key or a run without wide events raises out of them; ``main``
words that for every command.
"""

from __future__ import annotations

import json

from repro.cli import command, json_flag, registry_dir_flag
from repro.obs.dashboard import sparkline
from repro.obs.explain import explain_registry_pair, render_why, why_payload
from repro.obs.registry import (
    RunRegistry,
    diff_payload,
    diff_records,
    list_payload,
    regressions,
)
from repro.util import render_table


def _headline(metrics: dict) -> str:
    gains = {
        name: value for name, value in metrics.items()
        if "gain" in name and isinstance(value, (int, float))
    }
    if gains:
        values = list(gains.values())
        if len(values) == 1:
            return f"gain={values[0]:.2f}x"
        return (f"gains={min(values):.2f}x..{max(values):.2f}x "
                f"({len(values)} points)")
    time_s = metrics.get("download_time")
    if isinstance(time_s, (int, float)):
        return f"time={time_s:.1f}s"
    return f"{len(metrics)} metrics"


def cmd_runs_list(args) -> None:
    registry = RunRegistry(args.registry_dir)
    if args.json:
        print(json.dumps(list_payload(registry), indent=2, sort_keys=True))
        return
    records = registry.records()
    if not records:
        print(f"no records in {registry.path}")
        return
    print(render_table(
        f"Run registry ({registry.path})",
        ("rec", "kind", "run", "recorded", "sha", "gauges", "headline"),
        [(r.rec_id, r.kind, r.run_id, r.recorded_at, r.git_sha[:8],
          len(r.gauges), _headline(r.metrics)) for r in records],
    ))


def cmd_runs_show(args) -> None:
    record = RunRegistry(args.registry_dir).find(args.run)
    print(f"record   {record.rec_id} (kind={record.kind})")
    print(f"run      {record.run_id}")
    print(f"recorded {record.recorded_at}  sha {record.git_sha[:12]}")
    print(f"machine  {record.machine}")
    if record.meta:
        print(f"meta     {json.dumps(record.meta, sort_keys=True)}")
    print()
    print(render_table(
        "Metrics", ("metric", "value"),
        [(name, record.metrics[name]) for name in sorted(record.metrics)],
    ))
    if record.gauges:
        print()
        print(render_table(
            "Gauge timelines", ("gauge", "samples", "last"),
            [(name, len(series["t"]),
              series["v"][-1] if series["v"] else "-")
             for name, series in sorted(record.gauges.items())],
        ))


def cmd_runs_diff(args) -> None:
    registry = RunRegistry(args.registry_dir)
    record_a = registry.find(args.run_a)
    record_b = registry.find(args.run_b)
    deltas = diff_records(record_a, record_b)
    flagged = regressions(deltas)
    if args.json:
        print(json.dumps(diff_payload(record_a, record_b, deltas),
                         indent=2, sort_keys=True))
    elif not deltas:
        print(f"records {record_a.rec_id} and {record_b.rec_id} share "
              f"no numeric metrics")
    else:
        rows = []
        for d in deltas:
            ratio = f"{d.ratio:.3f}" if d.ratio is not None else "-"
            flag = "REGRESSION" if d.regression else ""
            rows.append((d.name, f"{d.value_a:.4g}", f"{d.value_b:.4g}",
                         ratio, flag))
        print(render_table(
            f"Registry diff: A={record_a.rec_id}  B={record_b.rec_id}",
            ("metric", "A", "B", "B/A", ""),
            rows,
        ))
        if flagged:
            print(f"\n{len(flagged)} gain regression(s) past the "
                  f"paper-shape threshold:")
            for d in flagged:
                print(f"  {d.name}: {d.value_a:.3f} -> {d.value_b:.3f} "
                      f"({d.ratio:.0%} of A)")
        else:
            print("\nno gain regressions")
    if flagged and args.fail_on_regression:
        raise SystemExit(1)


def cmd_runs_gauges(args) -> None:
    record = RunRegistry(args.registry_dir).find(args.run)
    series = record.gauge_series(args.metric)
    if not series:
        have = ", ".join(sorted(record.gauges)) or "none"
        raise SystemExit(
            f"record {record.rec_id} has no gauge matching "
            f"{args.metric!r} (recorded: {have})"
        )
    if args.csv:
        print("gauge,t,value")
        for name in sorted(series):
            for t, v in zip(series[name]["t"], series[name]["v"]):
                print(f"{name},{t:g},{v:g}")
        return
    print(f"gauge timelines [{record.rec_id}]")
    width = max(len(name) for name in series)
    for name in sorted(series):
        values = series[name]["v"]
        times = series[name]["t"]
        if not values:
            print(f"  {name:<{width}}  (empty)")
            continue
        print(f"  {name:<{width}}  {sparkline(values)}  "
              f"[{min(values):g}, {max(values):g}] over "
              f"t=[{times[0]:g}, {times[-1]:g}]s ({len(values)} samples)")


def cmd_runs_why(args) -> None:
    explanation = explain_registry_pair(
        RunRegistry(args.registry_dir), args.run_a, args.run_b,
        wide_dir=args.wide_dir,
    )
    if args.json:
        print(json.dumps(why_payload(explanation), indent=2,
                         sort_keys=True))
    else:
        print(render_why(explanation))


def register(subparsers) -> None:
    runs = subparsers.add_parser("runs", help="the persistent run registry")
    registry_dir_flag(runs)
    rsub = runs.add_subparsers(dest="runs_command", required=True)

    rlist = command(rsub, "list", cmd_runs_list, help="all registry records")
    json_flag(rlist, "the registry listing", "/runs")

    rshow = command(rsub, "show", cmd_runs_show, help="one record in full")
    rshow.add_argument("run", help="rec id or run id (substring; latest wins)")

    rdiff = command(rsub, "diff", cmd_runs_diff,
                    help="compare two records, flagging gain regressions")
    rdiff.add_argument("run_a")
    rdiff.add_argument("run_b")
    rdiff.add_argument("--fail-on-regression", action="store_true",
                       help="exit 1 when a gain metric regresses past the "
                            "paper-shape threshold")
    json_flag(rdiff, "the diff", "/diff")

    rwhy = command(
        rsub, "why", cmd_runs_why,
        help="attribute run B's movement from run A to pipeline "
             "phases (needs both runs' wide events)",
    )
    rwhy.add_argument("run_a", help="baseline rec id or run id")
    rwhy.add_argument("run_b", help="regressed rec id or run id")
    rwhy.add_argument("--wide-dir", metavar="DIR",
                      help="wide-event JSONL directory "
                           "(default <registry>/wide)")
    json_flag(rwhy, "the attribution", "explain")

    rgauges = command(rsub, "gauges", cmd_runs_gauges,
                      help="render a record's gauge timelines")
    rgauges.add_argument("run", help="rec id or run id")
    rgauges.add_argument("--metric", metavar="NAME",
                         help="substring filter, e.g. cache_occupancy or "
                              "staging.lead")
    rgauges.add_argument("--csv", action="store_true",
                         help="emit gauge,t,value CSV instead of sparklines")
