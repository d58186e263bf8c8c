"""Ablation: analytic flow model vs packet-level transport.

The :class:`~repro.transport.flowmodel.FlowModel` predicts transfer
durations in closed form; this bench checks it against the
packet-level transport on clean paths (where the Mathis assumptions
hold).
"""

from benchmarks.conftest import run_once
from repro.experiments.report import render_table
from repro.experiments.xia_benchmark import _build_segment
from repro.transport import FlowModel, PathCharacteristics, XIA_STREAM
from repro.transport.xstream import XstreamClient
from repro.util import MB, mbps


def packet_level_time(size_bytes: int, seed: int = 1) -> float:
    sim, publisher, endpoint = _build_segment("wired", XIA_STREAM, seed)
    content = publisher.publish_synthetic("blob", size_bytes, size_bytes)
    client = XstreamClient(sim, endpoint, XIA_STREAM)
    process = sim.process(client.download(content.addresses[0]))
    result = sim.run(until=process)
    return result.duration


def analytic_time(size_bytes: int) -> float:
    model = FlowModel(XIA_STREAM)
    # The wired bench segment: 100 Mbps access, ~0.5 ms RTT with
    # processing, no loss.
    path = PathCharacteristics(bottleneck_bps=mbps(100), rtt=0.0012)
    return model.transfer_time(size_bytes, path, include_request=True)


def test_flow_model_agrees_with_packet_level(benchmark):
    sizes = (1 * MB, 4 * MB, 10 * MB)

    def harness():
        return [
            (size, packet_level_time(size), analytic_time(size))
            for size in sizes
        ]

    rows = run_once(benchmark, harness)
    print()
    print(render_table(
        "Flow model vs packet level (wired, loss-free)",
        ("bytes", "packet-level (s)", "analytic (s)"),
        rows,
    ))
    for size, measured, predicted in rows:
        # Within 25% on clean paths.
        assert abs(measured - predicted) / measured < 0.25, (
            size, measured, predicted,
        )
