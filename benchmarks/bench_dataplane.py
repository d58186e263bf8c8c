"""XIA data-plane microbench: packets/sec through a multi-hop staging path.

Floods DATA packets both ways through the evaluation's forwarding
chain — ``client == edge router == core router == origin router ==
server``, the edge carrying an XCache exactly like a staging edge
network — so every packet pays the full per-hop cost of the XIA data
plane: DAG candidate walk, visited-set update, principal dispatch and
forwarding-table lookup.  Wall-clock here is dominated by the cost
*inside* ``XIARouter.handle_packet``; ``steps_per_packet`` counts the
kernel events a hop costs (an ``arrival``, a ``cpu`` where the node
charges processing time, and a ``tx-done`` hand-over only when the
next packet is already queued behind it).

A second measurement runs one small full-stack SoftStage download with
the kernel profiler installed and reports its wall-clock plus the
forwarding-decision-cache hit rate (0 on pre-fast-path builds), then
repeats it under ``sys.setprofile`` to count the Python-level calls it
makes per payload MB — the packet path's *frame budget*, which unlike
wall-clock is the same number on every machine — in total and per
``repro`` package (``download.py_calls_per_mb.<package>``), so a
change to the total shows which layer it landed in, with its ten
costliest functions (``download.top.<module>:<qualname>``).  The same
count is taken for a ``fig7_drive``-shaped download (``drive.*``:
trace coverage, handoffs, a deadline) and for the first download with
every in-thread observer attached (``attached.*``: its ``obs`` row is
what watching a run costs).

Runs two ways:

- ``pytest benchmarks/bench_dataplane.py`` — under pytest-benchmark
  with the shared warm-up/median policy from ``conftest.run_once``;
- ``PYTHONPATH=src python -m benchmarks.bench_dataplane`` — the
  standalone driver CI uses: repeats the measurement, takes medians,
  appends them to ``BENCH_dataplane.json`` via :mod:`repro.perf`, and
  with ``--check`` fails on a regression against the recorded
  baseline (packets/sec: same-machine entries only, 30% tolerance;
  steps/packet: machine-independent, 5% tolerance and an absolute
  ceiling of ``STEPS_PER_PACKET_CEILING``; the download's kernel steps
  and Python calls per payload MB: machine-independent, an absolute
  ceiling per download size in ``DOWNLOAD_STEPS_PER_MB_CEILING`` and
  ``DOWNLOAD_PY_CALLS_PER_MB_CEILING``, per package in
  ``DOWNLOAD_PY_CALLS_PER_MB_PACKAGE_CEILING``; the drive's calls per
  MB under ``DRIVE_PY_CALLS_PER_MB_CEILING``).
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from collections import Counter
from time import perf_counter
from typing import Optional

from repro.net import Host, Link, Network
from repro.net.link import Port
from repro.sim import Simulator
from repro.util import mbps, ms
from repro.xia import CID, DagAddress, HID, NID
from repro.xia.packet import Packet, PacketType
from repro.xia.router import XIARouter

PACKET_BYTES = 1500
DEFAULT_PACKETS = 10_000  # per direction

#: ``--check`` fails above this many kernel steps per delivered packet,
#: whatever the recorded trajectory says.  The chain costs 5.34 since
#: link hand-overs became on-demand (it was 8.00 with a tx-done event
#: per hop); 5.5 leaves room for nothing but a new per-hop event.
STEPS_PER_PACKET_CEILING = 5.5

#: ``--check`` fails above this many kernel steps per payload MB of the
#: profiled SoftStage download (seed 0, so the count is exact), keyed
#: by ``--download-mb`` because a run's fixed costs (scanner, ticks)
#: weigh more on a small file.  Since the sender became a callback
#: pump the download costs 23 049 (2 MB, the CI size) and 18 849
#: (4 MB); with a Timeout per segment and a wake-up event per window
#: stall it was 24 777 and 20 551.  The ceilings have room for neither.
DOWNLOAD_STEPS_PER_MB_CEILING = {2.0: 23_900.0, 4.0: 19_700.0}

#: ``--check`` fails above this many Python-level calls (frames
#: entered; C calls not counted) per payload MB of the same download.
#: The count repeats exactly (seed 0; any ``PYTHONHASHSEED``).  History
#: (2 MB, the CI size / 4 MB): 267 346 / 226 716 through
#: ``Port.send``/``deliver``, ``sample_loss`` and ``_packet_ready`` on
#: every hop; 195 327 / 166 557 with Event-free ``call_at`` steps and
#: the flattened hop (PR 15; 195 235 / 166 507.5 by PR 22);
#: 142 587.5 / 122 335.5 since PR 23 took ``admit``,
#: ``DagAddress.__hash__``, ``_start`` and the wired ``airtime`` off
#: the hop and the property reads out of the transport; 137 882 /
#: 118 423.5 since HIDs and NIDs are interned, so a host tells its own
#: address by identity in every scenario a process builds (137 577.5 /
#: 117 992.5 as later changes settled); 124 683 / 111 545.25 since the testbed's Fig. 6
#: coverage is generated as the clock reaches it, not 4 320 windows up
#: front (the ``mobility`` row: 13 038.5 / 6 553.5 -> 144 / 106.25; no
#: other row moved); 84 326 / 74 994.75 since packet-path diet VI
#: pushes the per-packet kernel steps without a ``call_at`` frame and
#: folds the segment round trip's helpers into their callers (the
#: ``sim`` row 20 532.5 -> 901.75 at 4 MB, ``transport`` 23 308.5 ->
#: 11 312.75, ``net`` 48 526.75 -> 43 602.75).  The ceilings sit 3 %
#: above: room for a helper on a per-chunk path, not for one more
#: frame per packet-hop (+5 % and more).
DOWNLOAD_PY_CALLS_PER_MB_CEILING = {2.0: 86_900.0, 4.0: 77_300.0}

#: The same count per ``repro`` package (``download.py_calls_per_mb.
#: <package>``), for the packages a packet or a chunk runs through:
#: about 3 % above what diet VI measures, so a regression names its
#: layer.  At the parent of diet VI the ``sim`` (20 532.5 at 4 MB),
#: ``transport`` (23 308.5) and ``net`` (48 526.75) rows fail them.
DOWNLOAD_PY_CALLS_PER_MB_PACKAGE_CEILING = {
    2.0: {"net": 53_550.0, "xia": 19_960.0, "transport": 11_700.0,
          "sim": 945.0, "core": 456.0, "mobility": 149.0},
    4.0: {"net": 44_910.0, "xia": 19_090.0, "transport": 11_650.0,
          "sim": 930.0, "core": 489.0, "mobility": 110.0},
}

#: ``--check`` fails above this many Python-level calls per payload MB
#: of the ``fig7_drive``-shaped download (:func:`drive_download`):
#: 131 337.21 after a 4 MB and 131 340.93 after a 2 MB ledger run (the
#: process-wide packet pool enters it warmer or colder), 3 % above.
DRIVE_PY_CALLS_PER_MB_CEILING = 135_300.0


class _Sink(Host):
    """Counts DATA packets; no processing cost, no closures."""

    def __init__(self, sim, name):
        super().__init__(sim, name, HID(name))
        self.count = 0
        self.register_handler(PacketType.DATA, self._on_data)

    def _on_data(self, packet, port):
        self.count += 1


class _EdgeStore:
    """A content store holding *other* chunks: every CID candidate at
    the edge pays the store lookup and misses, as during staging."""

    def has(self, cid):
        return False

    def peek(self, cid):
        return None


def _build():
    """client == edge == core == origin == server, all wired."""
    sim = Simulator()
    net = Network(sim)
    client = net.add_device(_Sink(sim, "client"))
    server = net.add_device(_Sink(sim, "server"))
    routers = {}
    for name in ("edge", "core", "origin"):
        router = net.add_device(
            XIARouter(sim, name, HID(name), NID(f"{name}-net"))
        )
        net.register_network(router.nid, router)
        routers[name] = router

    def wire(a, b, label):
        queue = float(4 * DEFAULT_PACKETS * PACKET_BYTES)
        net.connect(a, b, Link(sim, label, bandwidth_bps=mbps(10_000),
                               delay=ms(1), queue_bytes=queue))

    wire(client, routers["edge"], "client-edge")
    wire(routers["edge"], routers["core"], "edge-core")
    wire(routers["core"], routers["origin"], "core-origin")
    wire(routers["origin"], server, "origin-server")
    net.build_static_routes()
    # The staging edge runs an XCache: CID candidates are checked
    # against the store on the way through (and miss).
    routers["edge"].content_store = _EdgeStore()
    routers["edge"].cid_request_handler = lambda packet, port: None
    return sim, net, client, server, routers


def pump(packets: int = DEFAULT_PACKETS) -> dict:
    """Flood ``packets`` DATA frames each way along the chain.

    Upstream packets carry the staging shape ``CID | NID : HID``
    (origin fallback), downstream packets the host shape ``NID : HID``
    — the two DAGs every SoftStage transfer routes on.  Delivery
    requires three full ``handle_packet`` walks per packet.
    """
    sim, net, client, server, routers = _build()
    cid = CID(b"dataplane-bench-chunk")
    up_dst = DagAddress.content(cid, routers["origin"].nid, server.hid)
    up_src = DagAddress.host(client.hid, routers["edge"].nid)
    down_dst = DagAddress.host(client.hid, routers["edge"].nid)
    down_src = DagAddress.host(server.hid, routers["origin"].nid)
    for seq in range(packets):
        client.send(Packet(PacketType.DATA, dst=up_dst, src=up_src,
                           size_bytes=PACKET_BYTES, seq=seq, payload={}))
        server.send(Packet(PacketType.DATA, dst=down_dst, src=down_src,
                           size_bytes=PACKET_BYTES, seq=seq, payload={}))
    started = perf_counter()
    sim.run()
    wall = perf_counter() - started
    delivered = client.count + server.count
    forwarded = sum(r.forwarded_packets for r in routers.values())
    steps = getattr(sim, "steps_processed", None) or sim.heap_pushes
    hits = getattr(sim, "fwd_cache_hits", 0)
    misses = getattr(sim, "fwd_cache_misses", 0)
    return {
        "packets": packets,
        "delivered": delivered,
        "forwarded": forwarded,
        "wall_s": wall,
        "steps": steps,
        "packets_per_sec": delivered / wall if wall > 0 else 0.0,
        "steps_per_packet": steps / delivered if delivered else 0.0,
        "fwd_cache_hits": hits,
        "fwd_cache_misses": misses,
        "fwd_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }


def count_python_calls(fn) -> int:
    """Python-level calls ``fn()`` makes: ``sys.setprofile`` ``call``
    events only, so C functions and the hook itself do not count."""
    return sum(python_calls(fn)[0].values())


def python_calls(fn) -> tuple[Counter, object]:
    """:func:`count_python_calls` keyed by ``(package, function)``, and
    what ``fn()`` returned.  The package is the ``repro`` package of the
    called function's code (``mobility``, ``net``, ...); code outside
    ``repro`` (a dataclass's generated ``__init__``, the stdlib) counts
    for the nearest ``repro`` function below it on the stack, or as
    ``other`` when there is none.  The function is ``module:qualname``
    of the called code itself (the module relative to ``repro``, or the
    file name outside it)."""
    import repro

    root = os.path.dirname(repro.__file__) + os.sep
    packages: dict[str, Optional[str]] = {}
    calls: Counter = Counter()

    def package(filename):
        if filename not in packages:
            head = filename[len(root):].split(os.sep, 1)[0]
            packages[filename] = (
                head.removesuffix(".py") if filename.startswith(root) else None
            )
        return packages[filename]

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            filename = code.co_filename
            name = package(filename)
            while name is None and frame.f_back is not None:
                frame = frame.f_back
                name = package(frame.f_code.co_filename)
            module = (filename[len(root):] if filename.startswith(root)
                      else os.path.basename(filename))
            calls[name or "other", f"{module}:{code.co_qualname}"] += 1

    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls, result


def frame_ledger(prefix: str, run, top: int = 0) -> dict:
    """``{prefix}.py_calls_per_mb`` and its split per package (and, with
    ``top``, the ``top`` costliest functions as
    ``{prefix}.top.{module}:{qualname}``) for one download ``run()``
    returns, per MB of payload it received."""
    from repro.util import MB

    calls, result = python_calls(run)
    payload_mb = result.download.bytes_received / MB
    by_package: Counter = Counter()
    for (package, _function), count in calls.items():
        by_package[package] += count
    ledger = {f"{prefix}.py_calls_per_mb": sum(calls.values()) / payload_mb}
    for package, count in by_package.items():
        ledger[f"{prefix}.py_calls_per_mb.{package}"] = count / payload_mb
    for (_package, function), count in calls.most_common(top):
        ledger[f"{prefix}.top.{function}"] = count / payload_mb
    return ledger


def staging_download(file_mb: float = 4.0) -> dict:
    """One profiled full-stack SoftStage download (multi-hop staging),
    then the same download again (imports warm, so the count is the
    run's own) under the call counter, its ten costliest functions
    included."""
    from repro.experiments.params import MicrobenchParams
    from repro.experiments.runner import run_download
    from repro.util import MB

    params = MicrobenchParams(file_size=int(file_mb * MB))
    started = perf_counter()
    result = run_download("softstage", params=params, seed=0, profile=True)
    wall = perf_counter() - started
    report = result.profile.report()
    payload_mb = result.download.bytes_received / MB
    return {
        "download_wall_s": wall,
        "download.steps_per_mb": (
            report["steps"] / payload_mb if payload_mb else 0.0
        ),
        **frame_ledger(
            "download",
            lambda: run_download("softstage", params=params, seed=0),
            top=10,
        ),
        "download.fwd_cache_hit_rate": float(
            report.get("fwd_cache_hit_rate", 0.0)
        ),
        "download.packet_pool_reuse_rate": float(
            report.get("packet_pool_reuse_rate", 0.0)
        ),
    }


def drive_download() -> dict:
    """The frame ledger of a ``fig7_drive``-shaped SoftStage download:
    a 30 s drive over synthesized ``trace-2`` (coverage churn and
    handoffs), 2 MB chunks of a 512 MB target, stopped at the
    deadline — the referee's quick drive, seed 0."""
    from repro.experiments.params import MicrobenchParams
    from repro.experiments.runner import run_download
    from repro.experiments.tracedriven import synthesize_traces
    from repro.util import MB, ms

    trace = synthesize_traces(7, 30.0)["trace-2"]
    params = MicrobenchParams(
        file_size=512 * MB, chunk_size=2 * MB, internet_latency=ms(50))
    return frame_ledger("drive", lambda: run_download(
        "softstage", params=params, seed=0,
        coverage=trace.to_coverage(["ap-A", "ap-B"]),
        deadline=trace.duration,
    ))


def attached_download(file_mb: float = 4.0) -> dict:
    """The frame ledger of the download :func:`staging_download` counts,
    with every attachment that runs in the simulating thread on: the
    JSONL trace, wide events, spans, gauges, the strict auditor and the
    sketches (the hub is left out: its consumer is another thread) —
    its ``obs`` row is what observing a run costs."""
    import tempfile

    from repro.experiments.params import MicrobenchParams
    from repro.experiments.runner import run_download
    from repro.obs.wide import WideEventWriter
    from repro.util import MB

    params = MicrobenchParams(file_size=int(file_mb * MB))
    with tempfile.TemporaryDirectory() as tmp:
        def run():
            with open(os.path.join(tmp, "trace.jsonl"), "w",
                      encoding="utf-8") as trace, \
                    WideEventWriter(os.path.join(tmp, "wide.jsonl")) as wide:
                return run_download(
                    "softstage", params=params, seed=0, trace_path=trace,
                    wide=wide, spans=True, gauges=True, audit=True,
                    sketches=True,
                )

        return frame_ledger("attached", run)


def measure(packets: int = DEFAULT_PACKETS, rounds: int = 3,
            download_mb: float = 4.0) -> dict:
    """Warm up once, repeat ``rounds`` times, return median metrics."""
    pump(max(packets // 10, 100))  # warm-up
    samples = [pump(packets) for _ in range(rounds)]

    def med(key):
        return statistics.median(s[key] for s in samples)

    return {
        "packets": packets,
        "rounds": rounds,
        "pump.packets_per_sec": med("packets_per_sec"),
        "pump.steps_per_packet": med("steps_per_packet"),
        "pump.fwd_cache_hit_rate": med("fwd_cache_hit_rate"),
        **staging_download(download_mb),
        **drive_download(),
        **attached_download(download_mb),
    }


# -- pytest entry points -----------------------------------------------------


def test_dataplane_pump(benchmark):
    from benchmarks.conftest import run_once

    result = run_once(benchmark, lambda: pump(5_000), warmup_rounds=1)
    assert result["delivered"] == 10_000
    print()
    print(f"dataplane: {result['packets_per_sec']:,.0f} packets/s, "
          f"{result['steps_per_packet']:.2f} steps/packet, "
          f"cache hit rate {result['fwd_cache_hit_rate']:.1%}")


# -- standalone driver (CI perf smoke) ---------------------------------------


def _gates(args, metrics):
    if not args.check:
        return
    from repro import perf

    steps = metrics["pump.steps_per_packet"]
    # Deterministic metric: any machine's entries count.
    ok, base = perf.check_regression(
        "dataplane", "pump.steps_per_packet", steps, allowed_drop=0.05,
        same_machine=False, higher_is_better=False,
    )
    if not ok:
        yield f"pump.steps_per_packet: {steps:.3f} vs baseline {base:.3f}"
    if steps > STEPS_PER_PACKET_CEILING:
        yield (f"pump.steps_per_packet: {steps:.3f}"
               f" is above the {STEPS_PER_PACKET_CEILING} ceiling")
    size = args.download_mb
    if size not in DOWNLOAD_PY_CALLS_PER_MB_CEILING:
        yield (f"download: no ceilings for --download-mb {size:g} "
               f"(have {sorted(DOWNLOAD_PY_CALLS_PER_MB_CEILING)})")
    ceilings = {
        "download.steps_per_mb": DOWNLOAD_STEPS_PER_MB_CEILING.get(size),
        "download.py_calls_per_mb": DOWNLOAD_PY_CALLS_PER_MB_CEILING.get(size),
        **{f"download.py_calls_per_mb.{package}": ceiling
           for package, ceiling
           in DOWNLOAD_PY_CALLS_PER_MB_PACKAGE_CEILING.get(size, {}).items()},
        "drive.py_calls_per_mb": DRIVE_PY_CALLS_PER_MB_CEILING,
    }
    for key, ceiling in ceilings.items():
        if ceiling is not None and metrics.get(key, 0.0) > ceiling:
            yield (f"{key}: {metrics[key]:,.0f} is above the "
                   f"{ceiling:,.0f} ceiling")
    # Wall-clock metric: same-machine entries only, 30% tolerance.
    rate = metrics["pump.packets_per_sec"]
    ok, base = perf.check_regression(
        "dataplane", "pump.packets_per_sec", rate, allowed_drop=0.30,
        same_machine=True, higher_is_better=True,
    )
    if not ok:
        yield (f"pump.packets_per_sec: {rate:,.0f}"
               f" is >30% below baseline {base:,.0f}")


def _deposit(args, metrics):
    if not args.registry:
        return
    from repro.obs.registry import RunRegistry

    record = RunRegistry().append(
        "bench-dataplane", "bench", metrics,
        meta={"label": args.label} if args.label else None,
    )
    print(f"registry: {record.rec_id} appended to {RunRegistry().path}")


def main(argv=None) -> int:
    from repro import perf

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=DEFAULT_PACKETS)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--download-mb", type=float, default=4.0)
    parser.add_argument("--registry", action="store_true",
                        help="also append the medians to the run registry "
                             "(.repro_runs, or REPRO_RUNS_DIR)")
    return perf.ledger_main(
        "dataplane", parser,
        lambda args: measure(args.packets, args.rounds, args.download_mb),
        gates=[_gates], then=_deposit, argv=argv,
    )


if __name__ == "__main__":
    sys.exit(main())
