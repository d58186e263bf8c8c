"""The paper's experiments: ``fig5``, ``sweep``, ``profile``,
``handoff`` and ``traces``."""

from __future__ import annotations

import sys

from repro.cli import command, file_bytes, policy_arg, policy_flag, registry_dir_flag, trace_sink
from repro.experiments import microbench
from repro.experiments.handoff import PAPER_SAVING, run_comparison
from repro.experiments.microbench import BenchProfile
from repro.experiments.params import PANELS, MicrobenchParams
from repro.experiments.runner import run_download
from repro.experiments.tracedriven import run_all as run_traces
from repro.experiments.xia_benchmark import run_all as run_fig5
from repro.obs.registry import RunRegistry
from repro.util import render_table


def cmd_fig5(args) -> None:
    points = run_fig5(seed=args.seed)
    print(render_table(
        "Fig. 5: 10 MB transfer throughput",
        ("segment", "protocol", "measured (Mbps)", "paper (Mbps)"),
        [(p.segment, p.protocol, p.throughput_bps / 1e6, p.paper_mbps)
         for p in points],
    ))


def cmd_sweep(args) -> None:
    policy = policy_arg(args.policy)
    with trace_sink(args.trace) as trace_fh:
        if args.trace and args.jobs > 1:
            print("note: --trace forces sequential execution "
                  "(one shared trace sink)", file=sys.stderr)
        profile = BenchProfile(
            file_size=file_bytes(args.file_mb),
            seeds=tuple(range(args.seeds)),
            trace_sink=trace_fh,
            jobs=args.jobs,
            policy=policy or "",
        )
        series = microbench.sweep(args.panel, profile)
    print(series.render())
    if args.trace:
        print(f"\ntrace written to {args.trace}")
    if args.registry:
        registry = RunRegistry(args.registry_dir)
        metrics = {}
        for row in series.rows:
            key = row.label.replace(" ", "")
            metrics[f"gain.{key}"] = row.gain
            metrics[f"xftp_time.{key}"] = row.xftp_time
            metrics[f"softstage_time.{key}"] = row.softstage_time
        sweep_id = (f"sweep-{args.panel}-{policy}" if policy
                    else f"sweep-{args.panel}")
        record = registry.append(
            sweep_id, "sweep", metrics,
            meta={"panel": args.panel, "file_mb": args.file_mb,
                  "seeds": args.seeds},
            policy=policy or "",
        )
        print(f"registry: {record.rec_id} appended to {registry.path}")


def cmd_profile(args) -> None:
    params = MicrobenchParams(file_size=file_bytes(args.file_mb))
    result = run_download(
        args.system, params=params, seed=args.seed, profile=True,
    )
    print(f"{args.system}: {result.download_time:.1f}s simulated "
          f"({result.throughput_bps / 1e6:.1f} Mbps)")
    print()
    print(result.profile.render(
        title=f"Simulator profile [{result.run_id}]", top=args.top,
    ))


def cmd_handoff(args) -> None:
    comparison = run_comparison(
        file_size=file_bytes(args.file_mb),
        seeds=tuple(range(args.seeds)),
    )
    print(f"default: {comparison.default_time:.1f}s   "
          f"content-aware: {comparison.content_aware_time:.1f}s   "
          f"saving: {comparison.saving:.1%} (paper: {PAPER_SAVING:.1%})")


def cmd_traces(args) -> None:
    results = run_traces(
        seeds=tuple(range(args.seeds)),
        duration=args.duration,
    )
    print(render_table(
        "Fig. 7(b): objects downloaded within the trace",
        ("trace", "coverage", "Xftp", "SoftStage", "ratio"),
        [(r.trace_name, f"{r.coverage_fraction:.0%}", r.xftp_chunks,
          r.softstage_chunks, r.object_ratio) for r in results],
    ))


def register(subparsers) -> None:
    fig5 = command(subparsers, "fig5", cmd_fig5,
                   help="XIA substrate benchmark")
    fig5.add_argument("--seed", type=int, default=1)

    sweep = command(subparsers, "sweep", cmd_sweep, help="one Fig. 6 panel")
    sweep.add_argument("--panel", choices=list(PANELS), required=True)
    sweep.add_argument("--file-mb", type=float, default=32.0)
    sweep.add_argument("--seeds", type=int, default=1)
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (results stay byte-identical "
                            "to --jobs 1)")
    sweep.add_argument("--trace", metavar="PATH",
                       help="record every run into one JSONL trace")
    sweep.add_argument("--registry", action="store_true",
                       help="append the sweep's per-point gains to the "
                            "run registry")
    registry_dir_flag(sweep)
    policy_flag(sweep, "staging policy for the SoftStage runs "
                       "(reactive, rich, mobility, predictive)")

    prof = command(subparsers, "profile", cmd_profile,
                   help="one profiled download")
    prof.add_argument("--system", choices=("softstage", "xftp"),
                      default="softstage")
    prof.add_argument("--file-mb", type=float, default=8.0)
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--top", type=int, default=15)

    handoff = command(subparsers, "handoff", cmd_handoff,
                      help="handoff-policy comparison")
    handoff.add_argument("--file-mb", type=float, default=48.0)
    handoff.add_argument("--seeds", type=int, default=1)

    traces = command(subparsers, "traces", cmd_traces,
                     help="trace-driven experiment")
    traces.add_argument("--duration", type=float, default=300.0)
    traces.add_argument("--seeds", type=int, default=1)
