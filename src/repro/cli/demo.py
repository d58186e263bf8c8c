"""``repro demo``: the quickstart SoftStage-vs-Xftp comparison."""

from __future__ import annotations

import os
import sys
import threading

from repro.cli import command, file_bytes, policy_arg, policy_flag, registry_dir_flag, trace_sink
from repro.experiments.params import MicrobenchParams
from repro.experiments.report import render_spans
from repro.experiments.runner import run_download
from repro.obs.dashboard import run_from_subscription
from repro.obs.registry import (
    RunRegistry,
    record_from_result,
    sketches_from_result,
)
from repro.obs.stream import TelemetryHub
from repro.obs.wide import WideEventWriter, run_id_for
from repro.util import render_table


def demo_pair(file_size, seed, policy, trace=None, **attach):
    """Run the demo's Xftp + SoftStage pair with shared telemetry sinks.

    ``attach`` holds :func:`run_download`'s telemetry keywords
    (``spans``, ``gauges``, ``audit``, ``hub``, ``wide``,
    ``sketches``), applied to both runs.  ``trace`` (a path) and
    ``wide`` (an open :class:`~repro.obs.wide.WideEventWriter`) are
    shared across both runs, producing one multi-run file each;
    ``hub`` receives both runs' live telemetry.  Used by ``demo``
    (foreground and --live) and ``serve --demo``.
    """
    params = MicrobenchParams(file_size=file_size)
    with trace_sink(trace) as trace_fh:
        xftp = run_download(
            "xftp", params=params, seed=seed, trace_path=trace_fh, **attach
        )
        softstage = run_download(
            "softstage", params=params, seed=seed, trace_path=trace_fh,
            policy=policy, **attach,
        )
    return xftp, softstage


def _wide_writer(args, demo_id):
    """The demo's wide-event writer (or None).

    ``--emit-wide`` with no PATH lands in the registry's wide-event
    directory (``<registry>/wide/demo[-policy]-seed<N>.jsonl``) —
    exactly where ``repro serve`` looks for ``/runs/<id>/wide``.
    """
    if args.emit_wide is None:
        return None
    path = args.emit_wide
    if path == "":
        wide_dir = RunRegistry(args.registry_dir).wide_dir
        os.makedirs(wide_dir, exist_ok=True)
        path = os.path.join(wide_dir, f"{demo_id}.jsonl")
    return WideEventWriter(path)


def cmd_demo(args) -> None:
    policy = policy_arg(args.policy)
    file_size = file_bytes(args.file_mb)
    # The pair's own identity: its gain record and default wide file.
    demo_id = run_id_for("demo", args.seed, policy)
    wide_writer = _wide_writer(args, demo_id)
    attach = dict(
        trace=args.trace, spans=args.spans, gauges=args.gauges or args.live,
        audit=args.audit, wide=wide_writer, sketches=args.gauges,
    )
    try:
        if args.live:
            hub = TelemetryHub()
            sub = hub.subscribe()
            outcome: dict = {}

            def _work() -> None:
                try:
                    outcome["runs"] = demo_pair(
                        file_size, args.seed, policy, hub=hub, **attach
                    )
                except BaseException as exc:  # repaint loop must end
                    outcome["error"] = exc
                finally:
                    hub.close()

            worker = threading.Thread(
                target=_work, name="repro-demo", daemon=True
            )
            worker.start()
            run_from_subscription(sub, clear=sys.stdout.isatty())
            worker.join()
            print()
            if "error" in outcome:
                raise outcome["error"]
            xftp, softstage = outcome["runs"]
        else:
            xftp, softstage = demo_pair(
                file_size, args.seed, policy, **attach
            )
    finally:
        if wide_writer is not None:
            wide_writer.close()
    softstage_label = f"SoftStage[{policy}]" if policy else "SoftStage"
    print(render_table(
        f"{args.file_mb:g} MB download, Table III defaults",
        ("system", "time (s)", "Mbps", "edge chunks"),
        [
            ("Xftp", xftp.download_time,
             xftp.download.throughput_bps / 1e6, 0),
            (softstage_label, softstage.download_time,
             softstage.download.throughput_bps / 1e6,
             softstage.download.chunks_from_edge),
        ],
    ))
    print(f"gain: {xftp.download_time / softstage.download_time:.2f}x "
          f"(paper: ~1.77x)")
    if args.audit:
        for result in (xftp, softstage):
            print(f"[{result.run_id}] {result.auditor.render()}")
    if args.spans:
        for result in (xftp, softstage):
            print()
            print(render_spans(
                result.spans, title=f"Spans [{result.run_id}]"
            ))
    if args.trace:
        print(f"\ntrace written to {args.trace} "
              f"(runs: {xftp.run_id}, {softstage.run_id})")
    if wide_writer is not None:
        print(f"\n{wide_writer.records_written} wide events written to "
              f"{wide_writer.path}")
    if args.gauges:
        registry = RunRegistry(args.registry_dir)
        meta = {"file_mb": args.file_mb, "seed": args.seed}
        for result in (xftp, softstage):
            run_id, metrics, gauge_tl = record_from_result(result)
            registry.append(
                run_id, "demo", metrics, gauge_tl, meta,
                policy=result.policy,
                sketches=sketches_from_result(result),
            )
        gain_record = registry.append(
            demo_id, "demo",
            {"gain": xftp.download_time / softstage.download_time,
             "xftp_time": xftp.download_time,
             "softstage_time": softstage.download_time},
            meta=meta,
            policy=softstage.policy,
        )
        print(f"\nregistry: 3 records appended to {registry.path} "
              f"(latest {gain_record.rec_id})")


def register(subparsers) -> None:
    demo = command(subparsers, "demo", cmd_demo,
                   help="SoftStage vs Xftp quick comparison")
    demo.add_argument("--file-mb", type=float, default=32.0)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--trace", metavar="PATH",
                      help="record both runs into one JSONL trace")
    demo.add_argument("--spans", action="store_true",
                      help="derive and print causal span summaries")
    demo.add_argument("--gauges", action="store_true",
                      help="install the flight recorder and append both "
                           "runs (with gauge timelines) to the run registry")
    demo.add_argument("--audit", action="store_true",
                      help="run the invariant auditor over both runs")
    registry_dir_flag(demo)
    policy_flag(demo, "staging policy for the SoftStage run "
                      "(reactive, rich, mobility, predictive; "
                      "default: reactive Eq. 1)")
    demo.add_argument("--emit-wide", metavar="PATH", nargs="?", const="",
                      help="write wide events (one record per chunk "
                           "lifecycle/encounter/gap/handoff) as JSONL; "
                           "no PATH = <registry>/wide/<run>.jsonl, where "
                           "`repro serve` finds them")
    demo.add_argument("--live", action="store_true",
                      help="repaint the live terminal dashboard from an "
                           "in-process telemetry hub (implies gauge "
                           "sampling; metrics stay bit-identical)")
