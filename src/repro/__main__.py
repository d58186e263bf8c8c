"""Command-line front door: ``python -m repro <command>``.

Commands:

- ``demo``      — the quickstart comparison (SoftStage vs Xftp);
- ``fig5``      — the XIA substrate benchmark table;
- ``sweep``     — one Fig. 6 panel (``--panel a..f``);
- ``handoff``   — the §IV-D handoff-policy comparison;
- ``traces``    — the Fig. 7 trace-driven experiment;
- ``profile``   — one profiled download (kernel hot-path table);
- ``trace``     — JSONL trace analysis (``summary`` / ``spans`` /
  ``chrome`` / ``diff`` / ``wide``);
- ``runs``      — the persistent run registry (``list`` / ``show`` /
  ``diff`` / ``gauges``, with ``--json`` on list/diff);
- ``serve``     — the telemetry HTTP service over the registry
  (``/runs``, ``/diff``, ``/live`` SSE);
- ``watch``     — the live terminal dashboard against a ``serve``
  process's ``/live`` stream.

``demo`` and ``sweep`` take ``--trace PATH`` to record every run into
one multi-run JSONL trace that the ``trace`` subcommands consume.
``demo --gauges`` installs the flight recorder (sampled state gauges)
and appends each run — gauge timelines included — to the run registry
(``.repro_runs/``, override with ``REPRO_RUNS_DIR`` or
``--registry-dir``); ``--audit`` runs the invariant auditor alongside.
``demo --emit-wide [PATH]`` writes one wide event per chunk lifecycle
/ encounter / gap / handoff (``repro trace wide`` derives the same
bytes from a recorded trace); ``demo --live`` repaints the terminal
dashboard from an in-process telemetry hub while the demo runs.
``demo --policy NAME`` and ``sweep --policy NAME`` select the staging
policy for the SoftStage runs (``reactive``, ``rich``, ``mobility``,
``predictive``; see :mod:`repro.core.policy`).
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.experiments import microbench
from repro.experiments.handoff import PAPER_SAVING, run_comparison
from repro.experiments.microbench import BenchProfile
from repro.experiments.params import MicrobenchParams
from repro.experiments.report import render_breakdown, render_spans, render_table
from repro.experiments.runner import run_download
from repro.experiments.tracedriven import run_all as run_traces
from repro.experiments.xia_benchmark import run_all as run_fig5
from repro.util import MB


def _policy_arg(name):
    """Validate a ``--policy`` value before any simulation runs."""
    if name is None:
        return None
    from repro.core.policy import available_policies

    if name not in available_policies():
        options = ", ".join(sorted(available_policies()))
        raise SystemExit(
            f"unknown staging policy {name!r} (available: {options})"
        )
    return name


def _demo_pair(file_mb, seed, policy, trace=None, **attach):
    """Run the demo's Xftp + SoftStage pair with shared telemetry sinks.

    ``attach`` holds :func:`run_download`'s telemetry keywords
    (``spans``, ``gauges``, ``audit``, ``hub``, ``wide``,
    ``sketches``), applied to both runs.  ``trace`` (a path) and
    ``wide`` (an open :class:`~repro.obs.wide.WideEventWriter`) are
    shared across both runs, producing one multi-run file each;
    ``hub`` receives both runs' live telemetry.  Used by ``demo``
    (foreground and --live) and ``serve --demo``.
    """
    params = MicrobenchParams(file_size=int(file_mb * MB))
    trace_fh = open(trace, "w", encoding="utf-8") if trace else None
    try:
        xftp = run_download(
            "xftp", params=params, seed=seed, trace_path=trace_fh, **attach
        )
        softstage = run_download(
            "softstage", params=params, seed=seed, trace_path=trace_fh,
            policy=policy, **attach,
        )
    finally:
        if trace_fh is not None:
            trace_fh.close()
    return xftp, softstage


def _demo_wide_writer(args, policy):
    """The demo's wide-event writer (or None).

    ``--emit-wide`` with no PATH lands in the registry's wide-event
    directory (``<registry>/wide/demo[-policy]-seed<N>.jsonl``) —
    exactly where ``repro serve`` looks for ``/runs/<id>/wide``.
    """
    import os

    from repro.obs.registry import RunRegistry
    from repro.obs.wide import WideEventWriter

    if args.emit_wide is None:
        return None
    path = args.emit_wide
    if path == "":
        wide_dir = os.path.join(
            RunRegistry(args.registry_dir).directory, "wide"
        )
        os.makedirs(wide_dir, exist_ok=True)
        name = (f"demo-{policy}-seed{args.seed}" if policy
                else f"demo-seed{args.seed}")
        path = os.path.join(wide_dir, f"{name}.jsonl")
    return WideEventWriter(path)


def cmd_demo(args) -> None:
    policy = _policy_arg(args.policy)
    wide_writer = _demo_wide_writer(args, policy)
    attach = dict(
        trace=args.trace, spans=args.spans, gauges=args.gauges or args.live,
        audit=args.audit, wide=wide_writer, sketches=args.gauges,
    )
    try:
        if args.live:
            import threading

            from repro.obs.dashboard import run_from_subscription
            from repro.obs.stream import TelemetryHub

            hub = TelemetryHub()
            sub = hub.subscribe()
            outcome: dict = {}

            def _work() -> None:
                try:
                    outcome["runs"] = _demo_pair(
                        args.file_mb, args.seed, policy, hub=hub, **attach
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
            xftp, softstage = _demo_pair(
                args.file_mb, args.seed, policy, **attach
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
        from repro.obs.registry import (
            RunRegistry,
            record_from_result,
            sketches_from_result,
        )

        registry = RunRegistry(args.registry_dir)
        meta = {"file_mb": args.file_mb, "seed": args.seed}
        for result in (xftp, softstage):
            run_id, metrics, gauge_tl = record_from_result(result)
            registry.append(
                run_id, "demo", metrics, gauge_tl, meta,
                policy=result.policy,
                sketches=sketches_from_result(result),
            )
        gain_id = (f"demo-{policy}-seed{args.seed}" if policy
                   else f"demo-seed{args.seed}")
        gain_record = registry.append(
            gain_id, "demo",
            {"gain": xftp.download_time / softstage.download_time,
             "xftp_time": xftp.download_time,
             "softstage_time": softstage.download_time},
            meta=meta,
            policy=softstage.policy,
        )
        print(f"\nregistry: 3 records appended to {registry.path} "
              f"(latest {gain_record.rec_id})")


def cmd_fig5(args) -> None:
    points = run_fig5(seed=args.seed)
    print(render_table(
        "Fig. 5: 10 MB transfer throughput",
        ("segment", "protocol", "measured (Mbps)", "paper (Mbps)"),
        [(p.segment, p.protocol, p.throughput_bps / 1e6, p.paper_mbps)
         for p in points],
    ))


def cmd_sweep(args) -> None:
    policy = _policy_arg(args.policy)
    sweeps = {
        "a": microbench.sweep_chunk_size,
        "b": microbench.sweep_encounter_time,
        "c": microbench.sweep_disconnection_time,
        "d": microbench.sweep_packet_loss,
        "e": microbench.sweep_internet_bandwidth,
        "f": microbench.sweep_internet_latency,
    }
    trace_fh = open(args.trace, "w", encoding="utf-8") if args.trace else None
    try:
        if args.trace and args.jobs > 1:
            print("note: --trace forces sequential execution "
                  "(one shared trace sink)", file=sys.stderr)
        profile = BenchProfile(
            file_size=int(args.file_mb * MB),
            seeds=tuple(range(args.seeds)),
            trace_sink=trace_fh,
            jobs=args.jobs,
            policy=policy or "",
        )
        series = sweeps[args.panel](profile)
    finally:
        if trace_fh is not None:
            trace_fh.close()
    print(series.render())
    if args.trace:
        print(f"\ntrace written to {args.trace}")
    if args.registry:
        from repro.obs.registry import RunRegistry

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
    params = MicrobenchParams(file_size=int(args.file_mb * MB))
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
        file_size=int(args.file_mb * MB),
        seeds=tuple(range(args.seeds)),
    )
    print(f"default: {comparison.default_time:.1f}s   "
          f"content-aware: {comparison.content_aware_time:.1f}s   "
          f"saving: {comparison.saving:.1%} (paper: {PAPER_SAVING:.1%})")


# -- trace analysis ----------------------------------------------------------


def _load_runs(path: str):
    from repro.obs.analyze import load_runs

    runs = load_runs(path)
    if not runs:
        raise SystemExit(f"{path}: trace contains no events")
    return runs


def _select_runs(runs, run_id):
    if run_id is not None:
        from repro.obs.analyze import pick_run

        return [pick_run(runs, run_id)]
    return list(runs.values())


def cmd_trace_summary(args) -> None:
    from repro.obs.analyze import latency_breakdown, summarize_breakdown

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
            from repro.obs.analyze import critical_path

            segments = critical_path(run.spans)
            print()
            print(render_table(
                f"Critical path [{run.run_id}]",
                ("chunk", "from (s)", "to (s)", "blocked (s)", "phase"),
                [(s.cid, f"{s.start:.3f}", f"{s.end:.3f}",
                  f"{s.duration:.3f}", s.phase) for s in segments],
            ))
        print()


def cmd_trace_chrome(args) -> None:
    from repro.obs.analyze import chrome_trace

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


def cmd_trace_diff(args) -> None:
    from repro.obs.analyze import diff_spans, pick_run

    runs_a = _load_runs(args.file_a)
    if args.file_b:
        runs_b = _load_runs(args.file_b)
        run_a = pick_run(runs_a, args.run_a)
        run_b = pick_run(runs_b, args.run_b)
    else:
        # Single multi-run file: diff two runs inside it.
        ids = list(runs_a)
        if args.run_a is None and args.run_b is None and len(ids) < 2:
            raise SystemExit(
                f"{args.file_a} holds a single run ({ids[0]}); "
                f"pass a second file or --run-a/--run-b"
            )
        run_a = pick_run(runs_a, args.run_a or ids[0])
        run_b = pick_run(runs_a, args.run_b or ids[1 if len(ids) > 1 else 0])
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


def cmd_trace_wide(args) -> None:
    from repro.obs.trace import read_trace
    from repro.obs.wide import derive_wide, wide_json

    if args.output:
        from repro.obs.wide import WideEventWriter

        with WideEventWriter(args.output) as writer:
            records = derive_wide(
                read_trace(args.file), sinks=[writer.write],
                run_id=args.run,
            )
        print(f"wrote {len(records)} wide events to {args.output} "
              f"(byte-identical to a live --emit-wide run)")
    else:
        records = derive_wide(read_trace(args.file), run_id=args.run)
        for record in records:
            print(wide_json(record))


# -- telemetry service and live dashboard ------------------------------------


def _handle_sigterm() -> None:
    """Route SIGTERM through KeyboardInterrupt for one clean shutdown
    path (no-op off the main thread, where tests drive these
    commands)."""
    import signal

    def _graceful(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _graceful)
    except ValueError:  # not the main thread
        pass


def _stop_on_signals():
    """A :class:`threading.Event` that SIGINT and SIGTERM set.

    ``repro serve`` waits on it rather than catch KeyboardInterrupt: an
    exception raised by a signal handler lands wherever the main thread
    is, and inside socketserver's accept loop that closes the socket of
    the request being dispatched — a /live stream lost its SSE ``end``.
    """
    import signal
    import threading

    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda signum, frame: stop.set())
    return stop


def cmd_serve(args) -> None:
    from repro.obs.registry import RunRegistry
    from repro.obs.server import make_server

    stop = _stop_on_signals()
    hub = None
    if args.demo:
        from repro.obs.stream import TelemetryHub

        hub = TelemetryHub()
    registry = RunRegistry(args.registry_dir)
    server = make_server(
        args.host, args.port, registry, hub=hub, wide_dir=args.wide_dir,
    )
    print(f"serving registry {registry.path} on {server.url}")
    print("endpoints: /runs /runs/<key> /runs/<key>/gauges "
          "/runs/<key>/wide /runs/<key>/explain?base= /diff?a=&b= "
          "/slo /live /healthz")
    evaluator = None
    if args.demo:
        import threading

        from repro.obs.slo import DEFAULT_SLOS, AlertLog, LiveSLOEvaluator

        policy = _policy_arg(args.policy)
        evaluator = LiveSLOEvaluator(DEFAULT_SLOS).start(
            hub, AlertLog(registry.directory)
        )

        def _demo() -> None:
            try:
                _demo_pair(
                    args.file_mb, args.seed, policy,
                    gauges=True, hub=hub,
                )
            finally:
                hub.close()

        threading.Thread(
            target=_demo, name="repro-serve-demo", daemon=True
        ).start()
        print(f"live demo started ({args.file_mb:g} MB, seed {args.seed}) "
              f"— stream it from {server.url}/live "
              f"({len(DEFAULT_SLOS)} live SLOs attached)")
    server.serve_background()
    stop.wait()
    # Close the hub first so every /live subscriber gets the SSE
    # terminal frame before the listening socket goes away, and wait
    # for them to detach — handler threads are daemons, so exiting now
    # would kill them mid-frame.
    if hub is not None:
        hub.close()
        hub.wait_closed(timeout=3.0)
    if evaluator is not None:
        evaluator.join(timeout=2.0)
    server.shutdown()
    server.server_close()
    print("\nshut down cleanly")


def cmd_watch(args) -> None:
    from urllib.request import urlopen

    from repro.obs.dashboard import run_from_sse

    _handle_sigterm()
    url = args.url.rstrip("/")
    if not url.endswith("/live"):
        url += "/live"
    response = urlopen(url)
    try:
        dash = run_from_sse(
            response,
            clear=sys.stdout.isatty(),
            max_events=args.max_events,
        )
    except KeyboardInterrupt:
        print()
        print("watch interrupted; stream closed cleanly")
        return
    finally:
        response.close()
    print()
    print(f"stream ended: {dash.items_seen} items, "
          f"{dash.wide_seen} wide events")


# -- run registry ------------------------------------------------------------


def _registry(args):
    from repro.obs.registry import RunRegistry

    return RunRegistry(args.registry_dir)


def _find_record(registry, key: str):
    try:
        return registry.find(key)
    except KeyError as exc:
        raise SystemExit(str(exc)) from None


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
    registry = _registry(args)
    if args.json:
        from repro.obs.registry import list_payload

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
    registry = _registry(args)
    record = _find_record(registry, args.run)
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
    from repro.obs.registry import diff_records, regressions

    registry = _registry(args)
    record_a = _find_record(registry, args.run_a)
    record_b = _find_record(registry, args.run_b)
    deltas = diff_records(record_a, record_b)
    if args.json:
        from repro.obs.registry import diff_payload

        payload = diff_payload(record_a, record_b, deltas)
        print(json.dumps(payload, indent=2, sort_keys=True))
        if payload["regressions"] and args.fail_on_regression:
            raise SystemExit(1)
        return
    if not deltas:
        print(f"records {record_a.rec_id} and {record_b.rec_id} share "
              f"no numeric metrics")
        return
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
    flagged = regressions(deltas)
    if flagged:
        print(f"\n{len(flagged)} gain regression(s) past the "
              f"paper-shape threshold:")
        for d in flagged:
            print(f"  {d.name}: {d.value_a:.3f} -> {d.value_b:.3f} "
                  f"({d.ratio:.0%} of A)")
        if args.fail_on_regression:
            raise SystemExit(1)
    else:
        print("\nno gain regressions")


def cmd_runs_gauges(args) -> None:
    from repro.obs.dashboard import sparkline as _sparkline

    registry = _registry(args)
    record = _find_record(registry, args.run)
    series = (record.gauge_series(args.metric) if args.metric
              else record.gauges)
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
        print(f"  {name:<{width}}  {_sparkline(values)}  "
              f"[{min(values):g}, {max(values):g}] over "
              f"t=[{times[0]:g}, {times[-1]:g}]s ({len(values)} samples)")


def cmd_runs_why(args) -> None:
    from repro.obs.explain import (
        explain_registry_pair,
        render_why,
        why_payload,
    )

    registry = _registry(args)
    try:
        explanation = explain_registry_pair(
            registry, args.run_a, args.run_b, wide_dir=args.wide_dir,
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(str(exc).strip("'")) from None
    if args.json:
        print(json.dumps(why_payload(explanation), indent=2,
                         sort_keys=True))
    else:
        print(render_why(explanation))


# -- SLOs ---------------------------------------------------------------------


def cmd_slo_check(args) -> None:
    import os

    from repro.obs.explain import load_wide_for_run
    from repro.obs.registry import RunRegistry
    from repro.obs.slo import (
        DEFAULT_SLOS,
        AlertLog,
        AlertRecord,
        check_payload,
        evaluate_record,
        parse_slos,
        render_check,
        violations,
    )

    registry = RunRegistry(args.registry_dir)
    slos = parse_slos(args.slo) if args.slo else DEFAULT_SLOS
    if args.run:
        records = [_find_record(registry, key) for key in args.run]
    else:
        records = registry.records()
    if not records:
        raise SystemExit(f"no records to check in {registry.path}")
    wide_dir = os.path.join(registry.directory, "wide")
    per_record = []
    failed = []
    for record in records:
        wide_records = load_wide_for_run(wide_dir, record.run_id) or None
        results = evaluate_record(slos, record, wide_records=wide_records)
        per_record.append((record.rec_id, results))
        failed.extend(
            (record, result) for result in violations(results)
        )
    if failed and not args.no_alerts:
        log = AlertLog(registry.directory)
        for record, result in failed:
            log.append(AlertRecord(
                slo=result.slo.spec(), run=record.rec_id,
                value=result.value, threshold=result.slo.threshold,
            ))
    if args.json:
        print(json.dumps(check_payload(per_record), indent=2,
                         sort_keys=True))
    else:
        print(render_check(per_record))
        if failed and not args.no_alerts:
            print(f"{len(failed)} alert(s) appended to "
                  f"{AlertLog(registry.directory).path}")
    if failed:
        raise SystemExit(1)


def cmd_slo_alerts(args) -> None:
    from repro.obs.slo import AlertLog

    log = AlertLog(args.registry_dir)
    alerts = log.read()
    if args.json:
        print(json.dumps([a.to_json() for a in alerts], indent=2,
                         sort_keys=True))
        return
    if not alerts:
        print(f"no alerts in {log.path}")
        return
    for alert in alerts:
        print(alert.describe())


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="SoftStage vs Xftp quick comparison")
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
    demo.add_argument("--registry-dir", metavar="DIR",
                      help="registry directory (default .repro_runs, or "
                           "REPRO_RUNS_DIR)")
    demo.add_argument("--policy", metavar="NAME",
                      help="staging policy for the SoftStage run "
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
    demo.set_defaults(fn=cmd_demo)

    fig5 = sub.add_parser("fig5", help="XIA substrate benchmark")
    fig5.add_argument("--seed", type=int, default=1)
    fig5.set_defaults(fn=cmd_fig5)

    sweep = sub.add_parser("sweep", help="one Fig. 6 panel")
    sweep.add_argument("--panel", choices=list("abcdef"), required=True)
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
    sweep.add_argument("--registry-dir", metavar="DIR",
                       help="registry directory (default .repro_runs, or "
                            "REPRO_RUNS_DIR)")
    sweep.add_argument("--policy", metavar="NAME",
                       help="staging policy for the SoftStage runs "
                            "(reactive, rich, mobility, predictive)")
    sweep.set_defaults(fn=cmd_sweep)

    prof = sub.add_parser("profile", help="one profiled download")
    prof.add_argument("--system", choices=("softstage", "xftp"),
                      default="softstage")
    prof.add_argument("--file-mb", type=float, default=8.0)
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--top", type=int, default=15)
    prof.set_defaults(fn=cmd_profile)

    trace = sub.add_parser("trace", help="JSONL trace analysis")
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    tsummary = tsub.add_parser("summary", help="events + span statistics")
    tsummary.add_argument("file")
    tsummary.add_argument("--run", help="restrict to one run id")
    tsummary.set_defaults(fn=cmd_trace_summary)

    tspans = tsub.add_parser("spans", help="list derived spans")
    tspans.add_argument("file")
    tspans.add_argument("--run", help="restrict to one run id")
    tspans.add_argument("--kind", choices=("chunk", "encounter", "gap", "handoff"))
    tspans.add_argument("--limit", type=int, default=30)
    tspans.add_argument("--critical", action="store_true",
                        help="also print the per-download critical path")
    tspans.set_defaults(fn=cmd_trace_spans)

    tchrome = tsub.add_parser(
        "chrome", help="export Chrome trace-event JSON (Perfetto)"
    )
    tchrome.add_argument("file")
    tchrome.add_argument("-o", "--output", required=True)
    tchrome.add_argument("--run", help="restrict to one run id")
    tchrome.set_defaults(fn=cmd_trace_chrome)

    tdiff = tsub.add_parser("diff", help="per-span-kind latency deltas")
    tdiff.add_argument("file_a")
    tdiff.add_argument("file_b", nargs="?",
                       help="second trace (omit to diff runs inside file_a)")
    tdiff.add_argument("--run-a", help="run id in the first trace")
    tdiff.add_argument("--run-b", help="run id in the second trace")
    tdiff.set_defaults(fn=cmd_trace_diff)

    twide = tsub.add_parser(
        "wide", help="derive wide events from a trace (byte-identical "
                     "to a live --emit-wide run)"
    )
    twide.add_argument("file")
    twide.add_argument("-o", "--output", metavar="PATH",
                       help="write JSONL here instead of stdout")
    twide.add_argument("--run", help="restrict to one run id")
    twide.set_defaults(fn=cmd_trace_wide)

    runs = sub.add_parser("runs", help="the persistent run registry")
    runs.add_argument("--registry-dir", metavar="DIR",
                      help="registry directory (default .repro_runs, or "
                           "REPRO_RUNS_DIR)")
    rsub = runs.add_subparsers(dest="runs_command", required=True)

    rlist = rsub.add_parser("list", help="all registry records")
    rlist.add_argument("--json", action="store_true",
                       help="emit the registry listing as JSON (the same "
                            "serialization the HTTP /runs endpoint uses)")
    rlist.set_defaults(fn=cmd_runs_list)

    rshow = rsub.add_parser("show", help="one record in full")
    rshow.add_argument("run", help="rec id or run id (substring; latest wins)")
    rshow.set_defaults(fn=cmd_runs_show)

    rdiff = rsub.add_parser(
        "diff", help="compare two records, flagging gain regressions"
    )
    rdiff.add_argument("run_a")
    rdiff.add_argument("run_b")
    rdiff.add_argument("--fail-on-regression", action="store_true",
                       help="exit 1 when a gain metric regresses past the "
                            "paper-shape threshold")
    rdiff.add_argument("--json", action="store_true",
                       help="emit the diff as JSON (the same serialization "
                            "the HTTP /diff endpoint uses)")
    rdiff.set_defaults(fn=cmd_runs_diff)

    rwhy = rsub.add_parser(
        "why", help="attribute run B's movement from run A to pipeline "
                    "phases (needs both runs' wide events)"
    )
    rwhy.add_argument("run_a", help="baseline rec id or run id")
    rwhy.add_argument("run_b", help="regressed rec id or run id")
    rwhy.add_argument("--wide-dir", metavar="DIR",
                      help="wide-event JSONL directory "
                           "(default <registry>/wide)")
    rwhy.add_argument("--json", action="store_true",
                      help="emit the attribution as JSON (the same "
                           "serialization the HTTP explain endpoint uses)")
    rwhy.set_defaults(fn=cmd_runs_why)

    rgauges = rsub.add_parser("gauges", help="render a record's gauge timelines")
    rgauges.add_argument("run", help="rec id or run id")
    rgauges.add_argument("--metric", metavar="NAME",
                         help="substring filter, e.g. cache_occupancy or "
                              "staging.lead")
    rgauges.add_argument("--csv", action="store_true",
                         help="emit gauge,t,value CSV instead of sparklines")
    rgauges.set_defaults(fn=cmd_runs_gauges)

    slo = sub.add_parser("slo", help="service-level objectives over runs")
    slo.add_argument("--registry-dir", metavar="DIR",
                     help="registry directory (default .repro_runs, or "
                          "REPRO_RUNS_DIR)")
    ssub = slo.add_subparsers(dest="slo_command", required=True)

    scheck = ssub.add_parser(
        "check", help="judge registry records against the SLO set "
                      "(exit 1 on any violation)"
    )
    scheck.add_argument("run", nargs="*",
                        help="rec/run ids to check (default: every record)")
    scheck.add_argument("--slo", action="append", metavar="SPEC",
                        help="SLO spec like 'gain >= 1.2' or "
                             "'p95(stage_latency) <= 2.0' (repeatable; "
                             "default: the paper-shape set)")
    scheck.add_argument("--json", action="store_true",
                        help="emit results as JSON (the same serialization "
                             "the HTTP /slo endpoint uses)")
    scheck.add_argument("--no-alerts", action="store_true",
                        help="don't append violations to alerts.jsonl")
    scheck.set_defaults(fn=cmd_slo_check)

    salerts = ssub.add_parser("alerts", help="list the alert log")
    salerts.add_argument("--json", action="store_true")
    salerts.set_defaults(fn=cmd_slo_alerts)

    serve = sub.add_parser(
        "serve", help="HTTP telemetry service over the run registry"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8008)
    serve.add_argument("--registry-dir", metavar="DIR",
                       help="registry directory (default .repro_runs, or "
                            "REPRO_RUNS_DIR)")
    serve.add_argument("--wide-dir", metavar="DIR",
                       help="wide-event JSONL directory served at "
                            "/runs/<key>/wide (default <registry>/wide)")
    serve.add_argument("--demo", action="store_true",
                       help="also run one live demo on a background thread "
                            "so /live has traffic to stream")
    serve.add_argument("--file-mb", type=float, default=32.0,
                       help="--demo download size")
    serve.add_argument("--seed", type=int, default=0, help="--demo seed")
    serve.add_argument("--policy", metavar="NAME",
                       help="--demo staging policy")
    serve.set_defaults(fn=cmd_serve)

    watch = sub.add_parser(
        "watch", help="live dashboard over a serve process's /live stream"
    )
    watch.add_argument("url", help="server base URL (or /live URL) from "
                                   "`python -m repro serve`")
    watch.add_argument("--max-events", type=int, metavar="N",
                       help="stop after N SSE events (default: stream "
                            "until the run ends)")
    watch.set_defaults(fn=cmd_watch)

    handoff = sub.add_parser("handoff", help="handoff-policy comparison")
    handoff.add_argument("--file-mb", type=float, default=48.0)
    handoff.add_argument("--seeds", type=int, default=1)
    handoff.set_defaults(fn=cmd_handoff)

    traces = sub.add_parser("traces", help="trace-driven experiment")
    traces.add_argument("--duration", type=float, default=300.0)
    traces.add_argument("--seeds", type=int, default=1)
    traces.set_defaults(fn=cmd_traces)

    args = parser.parse_args(argv)
    args.fn(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
