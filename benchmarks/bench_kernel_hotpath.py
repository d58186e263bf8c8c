"""Kernel hot-path microbench: events/sec and heap pushes per packet.

Pumps a fixed number of packets through the two packet paths the whole
evaluation stands on — a wired point-to-point link and a half-duplex
wireless link — and measures the event-loop throughput (kernel steps
per wall second), the heap pushes per delivered packet, and the
wall-clock of one small fig5-style ``run_download``.

Runs two ways:

- ``pytest benchmarks/bench_kernel_hotpath.py`` — under
  pytest-benchmark, with the shared warm-up/median policy from
  ``conftest.run_once``;
- ``PYTHONPATH=src python -m benchmarks.bench_kernel_hotpath`` — the
  standalone driver CI uses: repeats the measurement, takes medians,
  appends them to ``BENCH_kernel.json`` via :mod:`repro.perf`, and
  with ``--check`` fails on a regression against the recorded
  baseline (events/sec: same-machine entries only, 30% tolerance;
  pushes/packet: machine-independent, 5% tolerance).
"""

from __future__ import annotations

import argparse
import statistics
import sys
from time import perf_counter

from repro.net import Host, Link, Network, WirelessLink
from repro.sim import Simulator
from repro.util import mbps, ms
from repro.xia import DagAddress, HID
from repro.xia.packet import Packet, PacketType

PACKET_BYTES = 1500
DEFAULT_PACKETS = 20_000


class _Sink(Host):
    """Counts DATA packets; no processing cost, no closures."""

    def __init__(self, sim, name):
        super().__init__(sim, name, HID(name))
        self.count = 0
        self.register_handler(PacketType.DATA, self._on_data)

    def _on_data(self, packet, port):
        self.count += 1


def _build(link_kind: str, packets: int):
    sim = Simulator()
    queue = float((packets + 1) * PACKET_BYTES)  # flood without tail drops
    if link_kind == "wireless":
        link = WirelessLink(sim, "w", mac_rate_bps=mbps(300), delay=ms(1),
                            queue_bytes=queue)
    else:
        link = Link(sim, "l", bandwidth_bps=mbps(1000), delay=ms(1),
                    queue_bytes=queue)
    net = Network(sim)
    a = net.add_device(_Sink(sim, "a"))
    b = net.add_device(_Sink(sim, "b"))
    net.connect(a, b, link)
    return sim, a, b


def pump(link_kind: str, packets: int = DEFAULT_PACKETS) -> dict:
    """Flood ``packets`` frames through one link; return kernel numbers.

    The whole batch is enqueued up front (the queue is sized to take
    it), so the measured loop is purely the kernel + link pipeline:
    serialize, (wireless: contend for the medium), propagate, deliver.
    No processes, no timeouts, no transport.  Because the queue never
    drains, every packet finds a successor waiting and so pays the
    link's worst case of two events — its ``arrival`` plus the
    ``tx-done`` hand-over a paced flow mostly skips.
    """
    sim, a, b = _build(link_kind, packets)
    dst = DagAddress.host(b.hid)
    src = DagAddress.host(a.hid)
    for seq in range(packets):
        a.send(Packet(PacketType.DATA, dst=dst, src=src,
                      size_bytes=PACKET_BYTES, seq=seq, payload={}))
    started = perf_counter()
    sim.run()
    wall = perf_counter() - started
    delivered = b.count
    steps = getattr(sim, "steps_processed", None)
    if steps is None:
        # Pre-pool kernels: every push is eventually popped once the
        # queue drains, so pushes == steps at quiescence.
        steps = sim.heap_pushes
    return {
        "kind": link_kind,
        "packets": packets,
        "delivered": delivered,
        "wall_s": wall,
        "steps": steps,
        "heap_pushes": sim.heap_pushes,
        "events_per_sec": steps / wall if wall > 0 else 0.0,
        "pushes_per_packet": sim.heap_pushes / delivered if delivered else 0.0,
    }


def fig5_download_wall(file_mb: float = 4.0) -> float:
    """Wall-clock seconds of one small fig5-style full-stack download."""
    from repro.experiments.params import MicrobenchParams
    from repro.experiments.runner import run_download
    from repro.util import MB

    params = MicrobenchParams(file_size=int(file_mb * MB))
    started = perf_counter()
    run_download("softstage", params=params, seed=0)
    return perf_counter() - started


def measure(packets: int = DEFAULT_PACKETS, rounds: int = 3,
            download_mb: float = 4.0) -> dict:
    """Warm up once, repeat ``rounds`` times, return median metrics."""
    pump("wired", max(packets // 10, 100))  # shared warm-up
    wired = [pump("wired", packets) for _ in range(rounds)]
    wireless = [pump("wireless", packets) for _ in range(rounds)]

    def med(samples, key):
        return statistics.median(s[key] for s in samples)

    return {
        "packets": packets,
        "rounds": rounds,
        "wired.events_per_sec": med(wired, "events_per_sec"),
        "wired.pushes_per_packet": med(wired, "pushes_per_packet"),
        "wireless.events_per_sec": med(wireless, "events_per_sec"),
        "wireless.pushes_per_packet": med(wireless, "pushes_per_packet"),
        "download_wall_s": fig5_download_wall(download_mb),
    }


# -- pytest entry points -----------------------------------------------------


def test_kernel_hotpath_wired(benchmark):
    from benchmarks.conftest import run_once

    result = run_once(benchmark, lambda: pump("wired", 5_000),
                      warmup_rounds=1)
    assert result["delivered"] == 5_000
    print()
    print(f"wired: {result['events_per_sec']:,.0f} events/s, "
          f"{result['pushes_per_packet']:.2f} pushes/packet")


def test_kernel_hotpath_wireless(benchmark):
    from benchmarks.conftest import run_once

    result = run_once(benchmark, lambda: pump("wireless", 5_000),
                      warmup_rounds=1)
    assert result["delivered"] == 5_000
    print()
    print(f"wireless: {result['events_per_sec']:,.0f} events/s, "
          f"{result['pushes_per_packet']:.2f} pushes/packet")


# -- standalone driver (CI perf smoke) ---------------------------------------


def _gates(args, metrics):
    if not args.check:
        return
    from repro import perf

    # Deterministic metric: any machine's entries count.
    for key in ("wired.pushes_per_packet", "wireless.pushes_per_packet"):
        ok, base = perf.check_regression(
            "kernel", key, metrics[key], allowed_drop=0.05,
            same_machine=False, higher_is_better=False,
        )
        if not ok:
            yield f"{key}: {metrics[key]:.3f} vs baseline {base:.3f}"
    # Wall-clock metric: same-machine entries only, 30% tolerance.
    for key in ("wired.events_per_sec", "wireless.events_per_sec"):
        ok, base = perf.check_regression(
            "kernel", key, metrics[key], allowed_drop=0.30,
            same_machine=True, higher_is_better=True,
        )
        if not ok:
            yield f"{key}: {metrics[key]:,.0f} is >30% below baseline {base:,.0f}"


def main(argv=None) -> int:
    from repro import perf

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--packets", type=int, default=DEFAULT_PACKETS)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--download-mb", type=float, default=4.0)
    return perf.ledger_main(
        "kernel", parser,
        lambda args: measure(args.packets, args.rounds, args.download_mb),
        gates=[_gates], argv=argv,
    )


if __name__ == "__main__":
    sys.exit(main())
