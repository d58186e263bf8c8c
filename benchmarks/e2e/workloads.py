"""The four workloads: inputs, fixed run lists and output checks.

Every workload is a closed loop in one process: a run starts when the
previous one returns.  ``seed`` feeds ``run_download(seed=)`` and
offsets the wardriving synthesis seed; the program under test sees
only the inputs generated here.  An *iteration* is one pass over the
workload's fixed run list; an *operation* is one ``run_download`` (or
one derived view in ``obs_offline``).

Imported only by the child interpreters, so importing ``repro`` here
is part of ``setup_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from repro.experiments import runner
from repro.experiments.params import MicrobenchParams
from repro.experiments.scenario import TestbedScenario
from repro.experiments.tracedriven import PAPER_OBJECT_RATIO, synthesize_traces
from repro.obs.analyze import (
    chrome_trace,
    critical_path,
    latency_breakdown,
    load_runs,
    summarize_breakdown,
)
from repro.obs.explain import explain
from repro.obs.sketch import serialize_sketches, sketches_from_wide
from repro.obs.slo import evaluate_slos, parse_slos
from repro.obs.stream import TelemetryHub
from repro.obs.trace import read_trace, replay_trace
from repro.obs.wide import WideEventWriter, derive_wide, wide_json
from repro.util import MB, ms
from repro.xia import packet as packet_mod
from repro.xia.router import XIARouter

#: Fig. 6 headline at the Table III defaults (the demo prints the same).
PAPER_BULK_GAIN = 1.77

#: Every download size under ``--quick`` and every warm-up run.
SMALL_FILE = 4 * MB

#: The SLO specs ``obs_offline`` parses and judges each iteration
#: (the CLI's defaults, spelled out so the parse is part of the work).
SLO_SPECS = (
    "gain >= 1.2",
    "p95(stage_latency) <= 2.0",
    "p95(fetch_latency) <= 30.0",
    "ready_before_fetch_ratio >= 0.6",
)

#: ``obs_offline``'s derived views, in the order an iteration runs them.
OFFLINE_VIEWS = (
    "read", "replay", "spans", "chrome", "wide", "sketch", "explain", "slo",
)


@dataclass
class Iteration:
    """What one pass over a workload's run list produced."""

    wall_s: float
    attempted: int
    failures: list[str]
    #: One dict of simulated figures per run (``RunSummary``-shaped).
    figures: list[dict]
    gain: float
    #: Exact counters read from public attributes after each run,
    #: summed over the iteration's runs.
    counts: dict[str, float] = field(default_factory=dict)
    #: Host seconds per named part (``obs_offline``'s views).
    parts: dict[str, float] = field(default_factory=dict)

    @property
    def digest(self) -> str:
        return sim_digest(self.figures)


def sim_digest(figures: list[dict]) -> str:
    """sha1 over every run's simulated figures — the exact-compare handle."""
    text = json.dumps(figures, sort_keys=True)
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def sim_figures(result) -> dict:
    """The simulation-determined figures of one run (no host time)."""
    download = result.download
    return {
        "system": result.system,
        "seed": result.seed,
        "download_time": result.download_time,
        "bytes_received": download.bytes_received,
        "chunks_completed": download.chunks_completed,
        "chunks_total": download.chunks_total,
        "chunks_from_edge": download.chunks_from_edge,
        "chunks_from_origin": download.chunks_from_origin,
        "fallbacks": download.fallbacks,
        "handoffs": download.handoffs,
        "staging_signals": download.staging_signals,
        "fetch_durations": [o.duration for o in download.outcomes],
    }


@contextlib.contextmanager
def captured_scenarios():
    """Collect the scenarios ``run_download`` builds, to read their
    public counters afterwards (it does not return them).  One extra
    call per run — nothing on the packet path."""
    built: list[TestbedScenario] = []
    original = TestbedScenario.__init__

    def capturing_init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    TestbedScenario.__init__ = capturing_init
    try:
        yield built
    finally:
        TestbedScenario.__init__ = original


def warm_up(seed: int, **attach):
    """One 4 MB SoftStage run: fills pools, imports lazy modules."""
    return runner.run_download(
        "softstage", params=MicrobenchParams(file_size=SMALL_FILE),
        seed=seed, **attach,
    )


@contextlib.contextmanager
def lattice(workdir: str, stem: str, counts: dict):
    """The whole attachment lattice as ``run_download`` keywords:
    collector, JSONL trace and wide events to files under ``workdir``,
    spans, gauges, strict audit, sketches, and a hub with one draining
    subscriber.  Shared by every run inside the ``with`` (multi-run
    files); what it observed lands in ``counts`` on exit."""
    trace_path = os.path.join(workdir, f"{stem}.trace.jsonl")
    wide_path = os.path.join(workdir, f"{stem}.wide.jsonl")
    hub = TelemetryHub()
    subscription = hub.subscribe()

    def drain() -> None:
        for _item in subscription:
            pass

    consumer = threading.Thread(target=drain, name="bench-hub-drain")
    consumer.start()
    try:
        with open(trace_path, "w", encoding="utf-8") as trace_fh, \
                WideEventWriter(wide_path) as wide:
            yield {
                "trace_path": trace_fh, "spans": True, "gauges": True,
                "audit": True, "wide": wide, "sketches": True, "hub": hub,
            }
            counts["obs.wide_records"] = wide.records_written
        counts["obs.trace_bytes"] = os.path.getsize(trace_path)
        counts["obs.hub_dropped"] = hub.stats()["dropped"]
    finally:
        hub.close()
        consumer.join()
        subscription.close()


def _add(counts: dict, name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


def scenario_counts(scenario: TestbedScenario, counts: dict) -> None:
    """Add one finished scenario's public counters into ``counts``."""
    sim = scenario.sim
    _add(counts, "sim.steps", sim.steps_processed)
    _add(counts, "sim.heap_pushes", sim.heap_pushes)
    _add(counts, "sim.pool_reuses", sim.pool_reuses)
    _add(counts, "sim.pool_allocs", sim.pool_allocs)
    _add(counts, "xia.fwd_cache_hits", sim.fwd_cache_hits)
    _add(counts, "xia.fwd_cache_misses", sim.fwd_cache_misses)
    for link in scenario.network.links:
        for direction in (link.forward, link.backward):
            stats = direction.stats
            _add(counts, "net.tx_packets", stats.sent_packets)
            _add(counts, "net.delivered_packets", stats.delivered_packets)
            _add(counts, "net.drops_loss", stats.dropped_loss)
            _add(counts, "net.drops_queue", stats.dropped_queue)
            _add(counts, "net.arq_retransmissions",
                 getattr(direction, "retransmissions", 0))
    for device in scenario.network.devices.values():
        if isinstance(device, XIARouter):
            _add(counts, "xia.forwarded_packets", device.forwarded_packets)
    for edge in scenario.edges:
        store = edge.store
        _add(counts, "xcache.hits", store.hits)
        _add(counts, "xcache.misses", store.misses)
        _add(counts, "xcache.evictions", store.evictions)
        _add(counts, "xcache.stored_bytes", store.gauges()["occupancy_bytes"])


#: Collector counter → the per-layer count it feeds.
_COLLECTOR_COUNTS = {
    "transport.retransmissions": "transport.retransmissions",
    "transport.timeouts": "transport.timeouts",
    "transport.migrations": "transport.migrations",
    "coordinator.ticks": "core.ticks",
    "coordinator.decisions": "core.decisions",
    "staging.chunks_signalled": "core.chunks_signalled",
    "staging.resignals": "core.resignals",
    "staging.stale_responses": "core.stale_responses",
    "handoff.executed": "mobility.handoffs",
    "coverage.encounters": "mobility.encounters",
}

#: Collector sample series → the (sum, n) pair a mean is taken from.
_COLLECTOR_MEANS = {
    "staging.latency": "core.staging_latency",
    "fetch.latency": "core.fetch_latency",
    "handoff.duration": "mobility.handoff",
}


def result_counts(result, counts: dict) -> None:
    """Add what one run's result object knows into ``counts``."""
    download = result.download
    _add(counts, "payload_bytes", download.bytes_received)
    if result.system == "softstage":
        _add(counts, "core.chunks_completed", download.chunks_completed)
        _add(counts, "core.chunks_from_edge", download.chunks_from_edge)
    collector = result.metrics
    if collector is not None:
        report = collector.report()
        for source, name in _COLLECTOR_COUNTS.items():
            _add(counts, name, report.get(source, 0))
        for source, name in _COLLECTOR_MEANS.items():
            samples = collector.samples(source)
            _add(counts, f"{name}.sum", sum(samples))
            _add(counts, f"{name}.n", len(samples))
    if result.sampler is not None:
        _add(counts, "obs.gauge_samples", result.sampler.samples_taken)


class PairWorkload:
    """Xftp then SoftStage over one generated scenario."""

    name = ""
    paper_gain: Optional[float] = None
    #: Bare workloads must run with no bus subscriber at all; when
    #: ``instrument`` asks for counts, only the collector may attach.
    expect_subscribers: Optional[int] = 0

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        self.seed = seed
        self.quick = quick
        self.workdir = workdir

    # -- the generated inputs ------------------------------------------------

    def params(self) -> MicrobenchParams:
        raise NotImplementedError

    def run_kwargs(self) -> dict:
        """Per-run keywords beyond system/params/seed (fresh each run)."""
        return {}

    def gain(self, xftp, softstage) -> float:
        return xftp.download_time / softstage.download_time

    def check(self, result) -> Optional[str]:
        if not result.download.completed:
            done, total = (result.download.chunks_completed,
                           result.download.chunks_total)
            return f"{result.run_id}: completed {done}/{total} chunks"
        return None

    # -- running -------------------------------------------------------------

    def setup(self) -> None:
        warm_up(self.seed)

    @contextlib.contextmanager
    def attachments(self, counts: dict):
        """Keywords attaching observers to every run of one iteration."""
        yield {}

    def iterate(self, instrument: bool = False) -> Iteration:
        """One pass over the run list.

        ``instrument`` attaches a ``MetricsCollector`` to read the
        exact counts (the traced pass only; timed iterations of the
        bare workloads run with an idle bus).
        """
        counts: dict[str, float] = {}
        failures: list[str] = []
        results = []
        pool_before = (packet_mod.pool_reuses, packet_mod.pool_allocs)
        started = perf_counter()
        with captured_scenarios() as built, self.attachments(counts) as attach:
            for system in ("xftp", "softstage"):
                kwargs = dict(self.run_kwargs(), **attach)
                if instrument:
                    kwargs["instrument"] = True
                try:
                    result = runner.run_download(
                        system, params=self.params(), seed=self.seed,
                        **kwargs,
                    )
                except Exception as exc:  # an operation that raises failed
                    failures.append(f"{system}: {type(exc).__name__}: {exc}")
                    built.clear()
                    continue
                results.append(result)
                problem = self.check(result)
                if problem:
                    failures.append(problem)
                scenario = built.pop()
                scenario_counts(scenario, counts)
                result_counts(result, counts)
                subscribers = scenario.sim.probe.bus.subscriber_count
                expected = self.expect_subscribers
                if expected is not None and instrument:
                    expected += 1
                if expected is not None and subscribers != expected:
                    failures.append(
                        f"{result.run_id}: {subscribers} bus subscribers, "
                        f"expected {expected}"
                    )
        wall = perf_counter() - started
        counts["xia.packet_pool_reuses"] = (
            packet_mod.pool_reuses - pool_before[0]
        )
        counts["xia.packet_pool_allocs"] = (
            packet_mod.pool_allocs - pool_before[1]
        )
        gain = 0.0
        if len(results) == 2:
            try:
                gain = self.gain(*results)
            except ZeroDivisionError:
                failures.append("gain undefined: a run completed nothing")
        return Iteration(
            wall_s=wall, attempted=2, failures=failures,
            figures=[sim_figures(r) for r in results], gain=gain,
            counts=counts,
        )


class BulkPair(PairWorkload):
    """Fig. 6 centre point: Table III defaults, 32 MB, exact segments."""

    name = "bulk_pair"
    paper_gain = PAPER_BULK_GAIN
    file_size = 32 * MB

    def params(self) -> MicrobenchParams:
        size = SMALL_FILE if self.quick else self.file_size
        return MicrobenchParams(file_size=size)


class Fig7Drive(PairWorkload):
    """Fig. 7(b): a 100 s drive over synthesized ``trace-2``, counting
    completed 2 MB chunks of an unfinishable 512 MB target at the
    deadline (the ``tracedriven.run_trace`` settings)."""

    name = "fig7_drive"
    paper_gain = PAPER_OBJECT_RATIO
    #: ``tracedriven.synthesize_traces``'s default seed, offset by ours.
    trace_seed = 7

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        super().__init__(seed, quick, workdir)
        duration = 30.0 if quick else 100.0
        self.trace = synthesize_traces(self.trace_seed + seed, duration)[
            "trace-2"
        ]

    def params(self) -> MicrobenchParams:
        return MicrobenchParams(
            file_size=512 * MB, chunk_size=2 * MB, internet_latency=ms(50)
        )

    def run_kwargs(self) -> dict:
        return {
            "coverage": self.trace.to_coverage(["ap-A", "ap-B"]),
            "deadline": self.trace.duration,
        }

    def gain(self, xftp, softstage) -> float:
        return (softstage.download.chunks_completed
                / xftp.download.chunks_completed)

    def check(self, result) -> Optional[str]:
        if result.download.chunks_completed == 0:
            return f"{result.run_id}: no chunk completed by the deadline"
        return None


class ObsLive(BulkPair):
    """``bulk_pair``'s exact run list with every attachment on."""

    name = "obs_live"
    expect_subscribers = None  # the lattice attaches and detaches its own

    def setup(self) -> None:
        """Warm up with the lattice on, and check on the small run that
        attachments leave the simulated figures alone."""
        bare = warm_up(self.seed)
        with self.attachments({}) as attach:
            observed = warm_up(self.seed, **attach)
        if sim_figures(bare) != sim_figures(observed):
            raise AssertionError(
                "attachments perturbed the 4 MB warm-up run's simulated "
                "figures"
            )

    def attachments(self, counts: dict):
        return lattice(self.workdir, self.name, counts)

    def iterate(self, instrument: bool = False) -> Iteration:
        # The lattice already carries the collector.
        iteration = super().iterate(instrument=False)
        dropped = iteration.counts.get("obs.hub_dropped", 0)
        if dropped:
            iteration.failures.append(f"hub subscriber dropped {dropped} items")
        return iteration


class ObsOffline:
    """Every offline view derived from one recorded multi-run trace."""

    name = "obs_offline"
    paper_gain = PAPER_BULK_GAIN
    file_size = 16 * MB

    def __init__(self, seed: int, quick: bool, workdir: str) -> None:
        self.seed = seed
        self.quick = quick
        self.workdir = workdir
        self.trace_path = os.path.join(workdir, f"{self.name}.trace.jsonl")
        self.wide_path = os.path.join(workdir, f"{self.name}.wide.jsonl")
        self.live: dict = {}

    def setup(self) -> None:
        """Warm up, then record the trace, the live wide file and what
        every view must reproduce (the ``obs_live`` configuration)."""
        warm_up(self.seed)
        params = MicrobenchParams(
            file_size=SMALL_FILE if self.quick else self.file_size
        )
        results = []
        with lattice(self.workdir, self.name, {}) as attach:
            for system in ("xftp", "softstage"):
                results.append(runner.run_download(
                    system, params=params, seed=self.seed, **attach,
                ))
        xftp, softstage = results
        counters: dict[str, float] = {}
        timelines: dict = {}
        for result in results:
            for name, value in result.metrics.counters.items():
                counters[name] = counters.get(name, 0) + value
            timelines.update(result.metrics.timelines("gauge."))
        with open(self.wide_path, encoding="utf-8") as fh:
            wide_text = fh.read()
        explanation = explain(xftp.wide_records, softstage.wide_records)
        gain = explanation.t_end_a / explanation.t_end_b
        self.live = {
            "runs": [r.run_id for r in results],
            "figures": [sim_figures(r) for r in results],
            "counters": counters,
            "timelines": timelines,
            "span_counts": {r.run_id: len(r.spans) for r in results},
            "wide_text": wide_text,
            "sketches": {r.run_id: r.sketches.to_json() for r in results},
            "gain": gain,
            "slo": self._judge(gain, softstage.wide_records),
        }

    @staticmethod
    def _judge(gain: float, wide_records: list[dict]) -> list:
        results = evaluate_slos(
            parse_slos(SLO_SPECS), metrics={"gain": gain},
            wide_records=wide_records,
        )
        return [(r.slo.spec(), r.value, r.ok) for r in results]

    def iterate(self, instrument: bool = False) -> Iteration:
        live = self.live
        xftp_id, softstage_id = live["runs"]
        failures: list[str] = []
        parts: dict[str, float] = {}
        state: dict = {}

        def view(name: str, fn: Callable[[], Optional[str]]) -> None:
            started = perf_counter()
            try:
                problem = fn()
            except Exception as exc:  # a view that raises failed
                problem = f"{type(exc).__name__}: {exc}"
            parts[name] = perf_counter() - started
            if problem:
                failures.append(f"{name}: {problem}")

        def read() -> Optional[str]:
            state["events"] = sum(1 for _ in read_trace(self.trace_path))
            return None if state["events"] else "trace holds no events"

        def replay() -> Optional[str]:
            collector = replay_trace(self.trace_path)
            if dict(collector.counters) != live["counters"]:
                return "replayed counters differ from the live collectors'"
            if collector.timelines("gauge.") != live["timelines"]:
                return "replayed gauge timelines differ from the live ones"
            return None

        def spans() -> Optional[str]:
            runs = state["runs"] = load_runs(self.trace_path)
            for run in runs.values():
                summarize_breakdown(latency_breakdown(run.spans))
                critical_path(run.spans)
            counted = {run_id: len(run.spans) for run_id, run in runs.items()}
            if counted != live["span_counts"]:
                return f"span counts {counted} != live {live['span_counts']}"
            return None

        def chrome() -> Optional[str]:
            text = json.dumps(chrome_trace(state["runs"]))
            return None if len(text) > 2 else "empty Chrome trace"

        def wide() -> Optional[str]:
            records = state["wide"] = derive_wide(read_trace(self.trace_path))
            text = "".join(wide_json(r) + "\n" for r in records)
            if text != live["wide_text"]:
                return "derived wide records differ from the live file's bytes"
            return None

        def by_run(run_id: str) -> list[dict]:
            return [r for r in state["wide"] if r.get("run") == run_id]

        def sketch() -> Optional[str]:
            for run_id in live["runs"]:
                derived = serialize_sketches(sketches_from_wide(by_run(run_id)))
                recorded = live["sketches"][run_id]
                if any(recorded.get(k) != v for k, v in derived.items()):
                    return f"{run_id}: offline sketches differ from live"
            return None

        def why() -> Optional[str]:
            explanation = explain(by_run(xftp_id), by_run(softstage_id))
            state["gain"] = explanation.t_end_a / explanation.t_end_b
            if state["gain"] != live["gain"]:
                return f"gain {state['gain']!r} != live {live['gain']!r}"
            return None

        def slo() -> Optional[str]:
            judged = self._judge(state["gain"], by_run(softstage_id))
            return None if judged == live["slo"] else "SLO verdicts differ"

        started = perf_counter()
        for name, fn in zip(OFFLINE_VIEWS, (read, replay, spans, chrome,
                                            wide, sketch, why, slo)):
            view(name, fn)
        wall = perf_counter() - started
        return Iteration(
            wall_s=wall, attempted=len(OFFLINE_VIEWS), failures=failures,
            figures=live["figures"], gain=state.get("gain", 0.0),
            counts={"obs.offline.events": state.get("events", 0)},
            parts=parts,
        )


WORKLOADS = {
    cls.name: cls for cls in (BulkPair, Fig7Drive, ObsLive, ObsOffline)
}
