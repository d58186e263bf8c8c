"""Per-layer metrics, assembled from the traced iteration.

Host self times come from the tracer; counts are exact and come from
the public counters read after each run (``workloads.scenario_counts``
/ ``result_counts``).  Rates are taken against the *untraced* median
wall time, never the traced one: the counts are identical in both, so
the traced pass contributes the counts and the split, not the speed.
"""

from __future__ import annotations

import statistics
from typing import Optional

from benchmarks.e2e.tracer import HOP_HANDLERS, Tracer
from benchmarks.e2e.workloads import OFFLINE_VIEWS, Iteration

#: Layers whose self time is reported as ``<layer>.self_s``.
SELF_TIME_LAYERS = ("sim", "net", "xia", "transport", "xcache", "core",
                    "mobility")

#: Observability sub-layers reported as ``obs.<name>_self_s``.
OBS_PARTS = ("bus", "collector", "trace", "spans", "gauges", "audit",
             "wide", "sketches", "hub")

PUMP_ROUNDS = 3


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def micro_drivers() -> dict[str, float]:
    """Refresh the PR 3-4 micro numbers on this machine (medians of
    ``PUMP_ROUNDS`` after one short warm-up), from their own files."""
    from benchmarks import bench_dataplane, bench_kernel_hotpath

    bench_dataplane.pump(500)
    plane = [bench_dataplane.pump() for _ in range(PUMP_ROUNDS)]
    bench_kernel_hotpath.pump("wired", 1000)
    kernel = [bench_kernel_hotpath.pump("wired") for _ in range(PUMP_ROUNDS)]

    def median(samples: list[dict], key: str) -> float:
        return statistics.median(s[key] for s in samples)

    return {
        "xia.pump.packets_per_host_s": median(plane, "packets_per_sec"),
        "xia.pump.steps_per_packet": median(plane, "steps_per_packet"),
        "sim.kernel.events_per_host_s": median(kernel, "events_per_sec"),
    }


def per_layer_metrics(
    tracer: Tracer,
    traced: Iteration,
    untraced_wall_s: float,
    offline_parts: dict[str, float],
    pumps: dict[str, float],
    paper_gain: Optional[float],
) -> dict[str, float]:
    """Every ``per_layer`` metric of ``BENCHMARK.json``, by name."""
    counts = traced.counts

    def count(name: str) -> float:
        return counts.get(name, 0)

    self_s = tracer.layer_self_s()
    steps = count("sim.steps")
    payload_mb = count("payload_bytes") / 1e6
    run_s = tracer.inclusive_s("Simulator.run")
    build_s = tracer.inclusive_s("TestbedScenario.__init__")
    publish_s = tracer.inclusive_s("TestbedScenario.publish_default_content")
    profiled = sum(p.steps for p in tracer.profilers)
    hop_calls = sum(tracer.handlers.get(key, (0,))[0] for key in HOP_HANDLERS)
    data = tracer.packets.get("DATA", (0, 0))
    forwarded = count("xia.forwarded_packets")
    events = count("obs.offline.events")

    out = {
        "sim.steps": steps,
        "sim.heap_pushes": count("sim.heap_pushes"),
        "sim.steps_per_host_s": _ratio(steps, untraced_wall_s),
        "sim.steps_per_payload_mb": _ratio(steps, payload_mb),
        "sim.pool_reuse_rate": _ratio(
            count("sim.pool_reuses"),
            count("sim.pool_reuses") + count("sim.pool_allocs")),
        "sim.queue_depth_mean": _ratio(
            sum(p.mean_depth * p.steps for p in tracer.profilers), profiled),
        "sim.queue_depth_max": max(
            (p.max_depth for p in tracer.profilers), default=0),
        "net.tx_packets": count("net.tx_packets"),
        "net.events_per_hop": _ratio(hop_calls,
                                     count("net.delivered_packets")),
        "net.drops_loss": count("net.drops_loss"),
        "net.drops_queue": count("net.drops_queue"),
        "net.arq_retransmissions": count("net.arq_retransmissions"),
        "xia.forwarded_packets": forwarded,
        "xia.us_per_forward": _ratio(self_s.get("xia", 0.0), forwarded) * 1e6,
        "xia.fwd_cache_hit_rate": _ratio(
            count("xia.fwd_cache_hits"),
            count("xia.fwd_cache_hits") + count("xia.fwd_cache_misses")),
        "xia.packet_pool_reuse_rate": _ratio(
            count("xia.packet_pool_reuses"),
            count("xia.packet_pool_reuses")
            + count("xia.packet_pool_allocs")),
        "transport.data_packets": data[0],
        "transport.retransmissions": count("transport.retransmissions"),
        "transport.timeouts": count("transport.timeouts"),
        "transport.goodput_ratio": _ratio(count("payload_bytes"), data[1]),
        "transport.migrations": count("transport.migrations"),
        "xcache.puts": tracer.calls("ContentStore.put"),
        "xcache.gets": tracer.calls("ContentStore.get"),
        "xcache.hit_ratio": _ratio(
            count("xcache.hits"),
            count("xcache.hits") + count("xcache.misses")),
        "xcache.evictions": count("xcache.evictions"),
        "xcache.stored_mb": count("xcache.stored_bytes") / 1e6,
        "core.ticks": count("core.ticks"),
        "core.decisions": count("core.decisions"),
        "core.chunks_signalled": count("core.chunks_signalled"),
        "core.resignals": count("core.resignals"),
        "core.stale_responses": count("core.stale_responses"),
        "core.edge_hit_ratio": _ratio(count("core.chunks_from_edge"),
                                      count("core.chunks_completed")),
        "core.staging_latency_mean_s": _ratio(
            count("core.staging_latency.sum"), count("core.staging_latency.n")),
        "core.fetch_latency_mean_s": _ratio(
            count("core.fetch_latency.sum"), count("core.fetch_latency.n")),
        "mobility.handoffs": count("mobility.handoffs"),
        "mobility.encounters": count("mobility.encounters"),
        "mobility.handoff_mean_s": _ratio(
            count("mobility.handoff.sum"), count("mobility.handoff.n")),
        "obs.events_published": tracer.calls("EventBus.publish"),
        "obs.gauge_samples": count("obs.gauge_samples"),
        "obs.trace_mb": count("obs.trace_bytes") / 1e6,
        "obs.wide_records": count("obs.wide_records"),
        "obs.hub_dropped": count("obs.hub_dropped"),
        "obs.offline.events": events,
        "obs.offline.events_per_host_s": _ratio(events, untraced_wall_s),
        "experiments.scenario_build_s": build_s,
        "experiments.publish_s": publish_s,
        "experiments.run_s": run_s,
        # What run_download spends outside build, publish and the
        # kernel loop: client wiring, attaching, detaching, results.
        "experiments.teardown_s": max(
            0.0,
            tracer.inclusive_s("run_download") - build_s - publish_s - run_s),
        "experiments.gain": traced.gain,
        "experiments.paper_gain_err": (
            abs(traced.gain - paper_gain) / paper_gain if paper_gain else 0.0
        ),
        "trace.overhead_ratio": _ratio(traced.wall_s, untraced_wall_s) - 1.0,
    }
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for part in OBS_PARTS:
        out[f"obs.{part}_self_s"] = self_s.get(f"obs.{part}", 0.0)
    for view in OFFLINE_VIEWS:
        out[f"obs.offline.{view}_s"] = offline_parts.get(view, 0.0)
    out.update(pumps)
    return out
