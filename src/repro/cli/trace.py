"""``repro trace``: offline analysis of a recorded JSONL trace."""

from __future__ import annotations

import functools
import json

from repro.cli import command
from repro.experiments.report import render_breakdown, render_spans
from repro.obs.analyze import (
    chrome_trace,
    critical_path,
    diff_spans,
    latency_breakdown,
    load_runs,
    pick_run,
    summarize_breakdown,
)
from repro.obs.trace import read_trace
from repro.obs.wide import WideEventWriter, derive_wide, wide_json
from repro.util import render_table


def _front_door(handler):
    """A trace command whose unusable path — missing, a directory, not
    writable — is the one-line exit message, not a traceback (``main``
    words a corrupt trace and an unknown run id the same way)."""

    @functools.wraps(handler)
    def worded(args) -> None:
        try:
            handler(args)
        except OSError as exc:
            raise SystemExit(f"{exc.filename}: {exc.strerror}") from None

    return worded


def _load_runs(path: str):
    runs = load_runs(path)
    if not runs:
        raise SystemExit(f"{path}: trace contains no events")
    return runs


def _select_runs(runs, run_id):
    if run_id is not None:
        return [pick_run(runs, run_id)]
    return list(runs.values())


@_front_door
def cmd_trace_summary(args) -> None:
    runs = _load_runs(args.file)
    for run in _select_runs(runs, args.run):
        top = run.event_counts.most_common(8)
        counts = ", ".join(f"{name}={n}" for name, n in top)
        print(f"run {run.run_id}: {run.events_total} events over "
              f"[{run.first_time:.3f}s, {run.last_time:.3f}s]")
        print(f"  top events: {counts}")
        print()
        print(render_spans(run.spans, title=f"Spans [{run.run_id}]"))
        breakdown = latency_breakdown(run.spans)
        if breakdown:
            print()
            print(render_breakdown(
                summarize_breakdown(breakdown),
                title=f"Latency breakdown [{run.run_id}]",
            ))
        print()
    if runs.skipped:
        names = ", ".join(f"{name}×{n}" for name, n in runs.skipped.items())
        print(f"skipped {sum(runs.skipped.values())} unreadable record(s): "
              f"{names}")


@_front_door
def cmd_trace_spans(args) -> None:
    runs = _load_runs(args.file)
    for run in _select_runs(runs, args.run):
        spans = run.spans
        if args.kind:
            spans = [s for s in spans if s.kind == args.kind]
        rows = []
        for span in spans[: args.limit]:
            rows.append((
                span.span_id,
                span.kind,
                span.key,
                f"{span.start:.3f}",
                f"{span.end:.3f}" if span.end is not None else "-",
                f"{span.duration:.3f}" if span.duration is not None else "-",
                span.status,
                span.parent_id if span.parent_id is not None else "-",
                ",".join(name for name, _ in span.phases),
            ))
        print(render_table(
            f"Spans [{run.run_id}] ({len(spans)} total, "
            f"showing {min(len(spans), args.limit)})",
            ("id", "kind", "key", "start", "end", "dur (s)",
             "status", "parent", "phases"),
            rows,
        ))
        if args.critical:
            segments = critical_path(run.spans)
            print()
            print(render_table(
                f"Critical path [{run.run_id}]",
                ("chunk", "from (s)", "to (s)", "blocked (s)", "phase"),
                [(s.cid, f"{s.start:.3f}", f"{s.end:.3f}",
                  f"{s.duration:.3f}", s.phase) for s in segments],
            ))
        print()


@_front_door
def cmd_trace_chrome(args) -> None:
    runs = _load_runs(args.file)
    if args.run is not None:
        selected = _select_runs(runs, args.run)
        runs = {run.run_id: run for run in selected}
    payload = chrome_trace(runs)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    print(f"wrote {len(payload['traceEvents'])} trace events for "
          f"{len(runs)} run(s) to {args.output} "
          f"(open in Perfetto or chrome://tracing)")


@_front_door
def cmd_trace_diff(args) -> None:
    runs_a = _load_runs(args.file_a)
    if args.file_b:
        runs_b = _load_runs(args.file_b)
        run_a = pick_run(runs_a, args.run_a)
        run_b = pick_run(runs_b, args.run_b)
    else:
        # Single multi-run file: diff two runs inside it.  A side no flag
        # names is the first run the other side does not name.
        ids = list(runs_a)
        first = args.run_a or next((i for i in ids if i != args.run_b), None)
        second = args.run_b or next((i for i in ids if i != first), None)
        if first is None or second is None:
            raise SystemExit(
                f"{args.file_a} holds a single run ({ids[0]}); "
                f"pass a second file or --run-a/--run-b"
            )
        run_a = pick_run(runs_a, first)
        run_b = pick_run(runs_a, second)
    deltas = diff_spans(run_a.spans, run_b.spans)
    rows = []
    for d in deltas:
        ratio = f"{d.ratio:.2f}x" if d.ratio is not None else "-"
        rows.append((
            d.kind, d.count_a, d.count_b,
            f"{d.mean_a:.4f}", f"{d.mean_b:.4f}",
            f"{d.delta:+.4f}", ratio,
        ))
    print(render_table(
        f"Span diff: A={run_a.run_id}  B={run_b.run_id}",
        ("kind", "count A", "count B", "mean A (s)", "mean B (s)",
         "Δ mean (s)", "B/A"),
        rows,
    ))


@_front_door
def cmd_trace_wide(args) -> None:
    records = derive_wide(read_trace(args.file), run_id=args.run)
    if args.run is not None and not records[-1]["events"]:
        # Nothing folded: the one record is the summary of an empty run.
        raise SystemExit(f"run {args.run!r} not in trace")
    if args.output:
        with WideEventWriter(args.output) as writer:
            for record in records:
                writer.write(record)
        print(f"wrote {len(records)} wide events to {args.output} "
              f"(byte-identical to a live --emit-wide run)")
    else:
        for record in records:
            print(wide_json(record))


def _run_flag(parser) -> None:
    parser.add_argument("--run", help="restrict to one run id")


def register(subparsers) -> None:
    trace = subparsers.add_parser("trace", help="JSONL trace analysis")
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    tsummary = command(tsub, "summary", cmd_trace_summary,
                       help="events + span statistics")
    tsummary.add_argument("file")
    _run_flag(tsummary)

    tspans = command(tsub, "spans", cmd_trace_spans, help="list derived spans")
    tspans.add_argument("file")
    _run_flag(tspans)
    tspans.add_argument("--kind", choices=("chunk", "encounter", "gap", "handoff"))
    tspans.add_argument("--limit", type=int, default=30)
    tspans.add_argument("--critical", action="store_true",
                        help="also print the per-download critical path")

    tchrome = command(tsub, "chrome", cmd_trace_chrome,
                      help="export Chrome trace-event JSON (Perfetto)")
    tchrome.add_argument("file")
    tchrome.add_argument("-o", "--output", required=True)
    _run_flag(tchrome)

    tdiff = command(tsub, "diff", cmd_trace_diff,
                    help="per-span-kind latency deltas")
    tdiff.add_argument("file_a")
    tdiff.add_argument("file_b", nargs="?",
                       help="second trace (omit to diff runs inside file_a)")
    tdiff.add_argument("--run-a", help="run id in the first trace")
    tdiff.add_argument("--run-b", help="run id in the second trace")

    twide = command(
        tsub, "wide", cmd_trace_wide,
        help="derive wide events from a trace (byte-identical "
             "to a live --emit-wide run)",
    )
    twide.add_argument("file")
    twide.add_argument("-o", "--output", metavar="PATH",
                       help="write JSONL here instead of stdout")
    _run_flag(twide)
