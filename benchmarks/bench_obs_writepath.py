"""Observability ledger: what each bus attachment costs per event on the
way in, and each offline view per event on the way back out.

Records the stamped event stream of one fixed-seed Xftp + SoftStage
pair with the flight recorder on (the event mix ``obs_live`` publishes:
one ``GaugeSample`` per sampler tick carrying every gauge first, then
``CoordinatorTick`` and ``SegmentTimeout``, and the run totals —
``SegmentRetransmitted`` per sender session and ``PacketDropped`` per
link direction), then replays
exactly that stream, run by run, through fresh attachments wired the way
``run_download`` wires them: a no-op wildcard (the bus's own cost),
each bus attachment alone, and all of them together with the sketch
recorder as a sink of the fold — the hub with one draining thread, as
``benchmarks/e2e/workloads.lattice`` runs it.

Per row it reports

- ``events`` — events the row's handlers received (wildcard rows see
  the whole stream, ``hub`` only the gauge ticks);
- ``us_per_event`` — host µs per *published* event (median of
  ``--rounds`` replays), so rows are comparable and roughly additive;
- ``py_calls_per_event`` — Python frames entered per published event
  (``sys.setprofile`` ``call`` events on the publishing thread; exact on
  any machine, which is what ``--check`` gates).

The ``all`` row's frames are also reported per downloaded MB
(``all.py_calls_per_mb``): what the whole lattice costs a run, whatever
the event mix — the per-event figure alone rises when events are
merged into fewer, fatter ones (a tick's ~45 gauge readings in one
``GaugeSample``) or cheap ones leave the stream (per-drop and
per-retransmit events becoming run totals).

Every row includes ``EventBus.publish`` itself; subtract ``noop`` for a
handler's own share.

The read side gets the same two columns over the same stream, written
once to a temporary JSONL trace (both runs, one file) and read back by
the four views that re-read a trace — ``read`` (``read_trace`` alone,
counted by a generator expression as the referee's ``obs_offline``
counts it), ``replay`` (``replay_trace``), ``runs`` (``load_runs``) and
``wide`` (``derive_wide``).  Each includes the ``read`` row's work.

``PYTHONPATH=src python -m benchmarks.bench_obs_writepath`` prints the
table and, unless ``--no-record``, appends it to ``BENCH_obs.json`` via
:mod:`repro.perf`; ``--check`` fails when ``all.py_calls_per_event`` is
above ``ALL_PY_CALLS_PER_EVENT_CEILING``, when ``all.py_calls_per_mb``
is above ``ALL_PY_CALLS_PER_MB_CEILING``, when
``collector.py_calls_per_event`` is above
``COLLECTOR_PY_CALLS_PER_EVENT_CEILING``, when
``read.py_calls_per_event`` is above ``READ_PY_CALLS_PER_EVENT_CEILING``
or when the exporter's bytes for the stream differ from the reference
``asdict`` + ``json.dumps`` encoding the trace format is defined by
(with a run's gauge names stated once, :func:`reference_line`).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import asdict
from time import perf_counter

from benchmarks.bench_dataplane import count_python_calls
from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.metrics.collector import MetricsCollector
from repro.obs.analyze import load_runs
from repro.obs.bus import EventBus, Stamped
from repro.obs.events import GaugeSample
from repro.obs.flight import InvariantAuditor
from repro.obs.sketch import SketchRecorder
from repro.obs.stream import GaugeFeed, TelemetryHub
from repro.obs.trace import TraceExporter, read_trace, replay_trace
from repro.obs.wide import WideEventBuilder, WideEventWriter, derive_wide
from repro.util import MB

#: The recorded pair: ``obs_live``'s inputs (Table III defaults, 32 MB).
FILE_MB = 32
SEED = 0

#: Row → the consumers attached for it (``noop`` is a bare wildcard).
ROWS = {
    "noop": (),
    "collector": ("collector",),
    "trace": ("trace",),
    "audit": ("audit",),
    "fold": ("fold",),
    "hub": ("hub",),
    "all": ("collector", "trace", "audit", "sketches", "fold", "hub"),
}

#: Rows whose only subscription is the ``GaugeSample`` topic: their
#: ``events`` count sampler ticks.
GAUGE_ONLY_ROWS = ("hub",)

#: Read-side row → the offline view it runs over the trace at ``path``.
READ_ROWS = {
    "read": lambda path: sum(1 for _ in read_trace(path)),
    "replay": replay_trace,
    "runs": load_runs,
    "wide": lambda path: derive_wide(read_trace(path)),
}

#: ``--check`` fails above this many Python calls per published event
#: with the whole lattice attached.  The recorded seed-0 stream costs
#: 11.64: a sampler tick is one ``GaugeSample`` carrying its ~45
#: readings, which each consumer loops over, and the 295 ticks are 38 %
#: of the 785 events (11.89 on the 817-event stream that still carried
#: link up/down, ARQ and per-reason drop events; 28.29 before the
#: collector kept a tick whole; 18.09 on the 1,734-event stream with one
#: cheap event per drop and per retransmitted segment, 11.78 when each
#: gauge reading was an event).  The ceiling was set ~10 % above the
#: 28.29 and has not moved since.
ALL_PY_CALLS_PER_EVENT_CEILING = 31.0

#: ``--check`` fails above this many Python calls per downloaded MB with
#: the whole lattice attached: what a run pays, whatever its event mix.
#: The pair costs 143 per MB (152 with link up/down, ARQ and per-reason
#: drop events, 361 before the collector kept a tick whole, 490 with
#: one event per drop and per retransmitted segment, 2,695 with one
#: ``GaugeSample`` per gauge reading as well, 4,967 with one ARQ event
#: per retried frame too); a per-packet emit site coming back costs
#: more than the room left.
ALL_PY_CALLS_PER_MB_CEILING = 400

#: ``--check`` fails above this many Python calls per published event
#: with the collector alone attached.  It costs 3.10: the bus, the
#: collector's ``_on_event`` and, for an event it counts, one handler
#: and its ``count``/``observe`` frames; a gauge tick is kept whole, one
#: frame (3.52 while it also kept names nothing read, 19.90 when each
#: reading entered its own per-gauge series ``record`` frame).  One more
#: frame per event is +32 %.
COLLECTOR_PY_CALLS_PER_EVENT_CEILING = 4.0

#: ``--check`` fails above this many Python calls per event of a bare
#: ``read_trace`` pass.  It costs 3.42 — the event's constructor, the
#: reader's resume and the counting consumer's, plus, on the 38 % of
#: lines that are gauge ticks, the ``__post_init__`` that turns their
#: JSON lists back into tuples (3.22 when ticks were 17 % of a stream
#: with one event per drop) — since the reader calls the ``json`` C
#: scanner itself and builds ``Stamped`` as the tuple it is (7.01
#: before: three frames of ``json.loads`` and one of ``Stamped.__init__``
#: more); one more frame per event is +29 %.
READ_PY_CALLS_PER_EVENT_CEILING = 3.5


def reference_line(stamped: Stamped, written: dict) -> str:
    """The JSONL trace format's definition: what the exporter must write.

    ``written`` maps each run id to the gauge names of the last tick of
    that run this exporter wrote, and is updated here: a tick repeating
    them omits ``"gauges"`` (a run's names are stated once).
    """
    record = {
        "t": stamped.time,
        "run": stamped.run_id,
        "type": type(stamped.event).__name__,
    }
    record.update(asdict(stamped.event))
    if type(stamped.event) is GaugeSample:
        if written.get(stamped.run_id) == record["gauges"]:
            del record["gauges"]
        else:
            written[stamped.run_id] = record["gauges"]
    return json.dumps(record, separators=(",", ":")) + "\n"


def record_stream() -> tuple[list[list[Stamped]], str]:
    """The pair's stamped events, one list per run in publication order,
    and the JSONL trace (both runs' lines) they were read back from."""
    params = MicrobenchParams(file_size=FILE_MB * MB)
    texts = []
    for system in ("xftp", "softstage"):
        buffer = io.StringIO()
        run_download(system, params=params, seed=SEED,
                     trace_path=buffer, gauges=True)
        texts.append(buffer.getvalue())
    runs = [list(read_trace(io.StringIO(text), strict=True)) for text in texts]
    return runs, "".join(texts)


def _noop(stamped: Stamped) -> None:
    pass


def _attach(consumers, bus: EventBus, run_id: str, trace_fh, wide_fh, hub):
    """Subscribe ``consumers`` in ``run_download``'s order."""
    if not consumers:
        bus.subscribe_all(_noop)
    if "collector" in consumers:
        MetricsCollector().attach(bus)
    if "trace" in consumers:
        TraceExporter(trace_fh).attach(bus)
    if "audit" in consumers:
        InvariantAuditor(strict=True).attach(bus)
    if "fold" in consumers:
        sinks = [[].append, WideEventWriter(wide_fh).write]
        if "sketches" in consumers:
            sinks.append(SketchRecorder().feed_wide)
        if "hub" in consumers:
            sinks.append(lambda record: hub.publish("wide", record))
        WideEventBuilder(run_id=run_id, sinks=sinks).attach(bus)
    if "hub" in consumers:
        GaugeFeed(hub).attach(bus)


def replay(runs: list[list[Stamped]], consumers,
           profile_calls: bool = False) -> float:
    """Publish every run through fresh attachments; seconds spent
    publishing (or, with ``profile_calls``, Python calls made)."""
    hub = TelemetryHub()
    # A tight replay outruns the drain thread's share of the GIL (a live
    # run spreads the same samples over seconds), so the queue is sized
    # to hold the stream: a dropped item would skip the work measured.
    subscription = hub.subscribe(
        maxsize=2 * sum(len(stream) for stream in runs)
    )

    def drain() -> None:
        for _item in subscription:
            pass

    consumer = threading.Thread(target=drain, name="bench-hub-drain")
    consumer.start()
    total = 0.0
    try:
        with tempfile.TemporaryFile("w", encoding="utf-8") as trace_fh, \
                tempfile.TemporaryFile("w", encoding="utf-8") as wide_fh:
            for stream in runs:
                bus = EventBus()
                _attach(consumers, bus, stream[0].run_id, trace_fh, wide_fh,
                        hub)
                publish = bus.publish

                def pump() -> None:
                    for stamped in stream:
                        publish(stamped)

                if profile_calls:
                    total += count_python_calls(pump) - 1  # pump's own frame
                else:
                    started = perf_counter()
                    pump()
                    total += perf_counter() - started
                bus.clear()
        dropped = hub.stats()["dropped"]
    finally:
        hub.close()
        consumer.join()
        subscription.close()
    if dropped:
        raise RuntimeError(f"hub subscriber dropped {dropped} items")
    return total


def exporter_matches_reference(runs: list[list[Stamped]]) -> bool:
    """Whether ``TraceExporter`` writes the reference encoding, byte for byte."""
    buffer = io.StringIO()
    reference = []
    for stream in runs:
        bus = EventBus()
        exporter = TraceExporter(buffer).attach(bus)
        written: dict = {}  # one per exporter, as the exporter keeps it
        for stamped in stream:
            bus.publish(stamped)
            reference.append(reference_line(stamped, written))
        exporter.close()
    return buffer.getvalue() == "".join(reference)


def measure(runs: list[list[Stamped]], trace: str, rounds: int = 5) -> dict:
    """The ledger for one recorded stream and the JSONL ``trace`` of it,
    as a flat metrics dict."""
    events = sum(len(stream) for stream in runs)
    mix = Counter(type(s.event).__name__ for stream in runs for s in stream)
    metrics: dict = {"events": events, "rounds": rounds}
    for name, count in mix.most_common():
        metrics[f"mix.{name}"] = count
    calls: dict[str, int] = {}
    seconds: dict[str, list[float]] = {row: [] for row in (*ROWS, *READ_ROWS)}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "stream.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(trace)
        # Rounds outside, rows inside: the host's speed drifts over
        # seconds, and this way a slow spell lands on every row alike.
        for _round in range(rounds + 1):  # the first one warms up
            for row, consumers in ROWS.items():
                seconds[row].append(replay(runs, consumers))
            for row, view in READ_ROWS.items():
                started = perf_counter()
                view(path)
                seconds[row].append(perf_counter() - started)
        for row, consumers in ROWS.items():
            calls[row] = replay(runs, consumers, profile_calls=True)
        for row, view in READ_ROWS.items():
            calls[row] = count_python_calls(lambda: view(path))
    for row in seconds:
        metrics[f"{row}.events"] = (
            mix["GaugeSample"] if row in GAUGE_ONLY_ROWS else events
        )
        metrics[f"{row}.us_per_event"] = (
            statistics.median(seconds[row][1:]) / events * 1e6
        )
        metrics[f"{row}.py_calls_per_event"] = calls[row] / events
    metrics["all.py_calls_per_mb"] = calls["all"] / (len(runs) * FILE_MB)
    return metrics


def render(metrics: dict) -> str:
    events = metrics["events"]
    lines = [f"{events} events: " + ", ".join(
        f"{key[4:]} {value} ({value / events:.0%})"
        for key, value in metrics.items() if key.startswith("mix.")
    )]
    lines.append(f"{'row':>10} {'events':>8} {'us/event':>9} {'ms':>8} "
                 f"{'py calls/event':>15}")
    for row in (*ROWS, *READ_ROWS):
        us = metrics[f"{row}.us_per_event"]
        lines.append(
            f"{row:>10} {metrics[f'{row}.events']:>8} {us:>9.3f} "
            f"{us * events / 1e3:>8.1f} "
            f"{metrics[f'{row}.py_calls_per_event']:>15.2f}"
        )
    lines.append(f"all: {metrics['all.py_calls_per_mb']:,.0f} py calls "
                 f"per downloaded MB")
    return "\n".join(lines)


def main(argv=None) -> int:
    from repro import perf

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=5)
    runs: list[list[Stamped]] = []  # recorded once, shared with the gate

    def run(args) -> dict:
        recorded, trace = record_stream()
        runs.extend(recorded)
        return measure(runs, trace, rounds=args.rounds)

    def budget_gate(args, metrics):
        if not args.check:
            return
        calls = metrics["all.py_calls_per_event"]
        if calls > ALL_PY_CALLS_PER_EVENT_CEILING:
            yield (f"all.py_calls_per_event: {calls:.2f} is above the "
                   f"{ALL_PY_CALLS_PER_EVENT_CEILING} ceiling")
        calls = metrics["all.py_calls_per_mb"]
        if calls > ALL_PY_CALLS_PER_MB_CEILING:
            yield (f"all.py_calls_per_mb: {calls:,.0f} is above the "
                   f"{ALL_PY_CALLS_PER_MB_CEILING:,} ceiling")
        calls = metrics["collector.py_calls_per_event"]
        if calls > COLLECTOR_PY_CALLS_PER_EVENT_CEILING:
            yield (f"collector.py_calls_per_event: {calls:.2f} is above the "
                   f"{COLLECTOR_PY_CALLS_PER_EVENT_CEILING} ceiling")
        calls = metrics["read.py_calls_per_event"]
        if calls > READ_PY_CALLS_PER_EVENT_CEILING:
            yield (f"read.py_calls_per_event: {calls:.2f} is above the "
                   f"{READ_PY_CALLS_PER_EVENT_CEILING} ceiling")
        if not exporter_matches_reference(runs):
            yield ("TraceExporter's output differs from the reference "
                   "asdict + json.dumps encoding")

    return perf.ledger_main(
        "obs", parser, run, gates=[budget_gate], render=render, argv=argv,
    )


if __name__ == "__main__":
    sys.exit(main())
