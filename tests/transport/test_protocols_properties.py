"""Property-based tests: transport completeness under random conditions."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net import Host, Link, Network
from repro.net.loss import BernoulliLoss
from repro.sim import RandomStreams, Simulator
from repro.transport import TransportConfig, TransportEndpoint, XIA_STREAM
from repro.util import mbps, ms
from repro.xia import DagAddress, HID


@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    total_bytes=st.integers(min_value=1, max_value=400_000),
    loss=st.floats(min_value=0.0, max_value=0.15),
    delay_ms=st.floats(min_value=0.1, max_value=30.0),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_every_byte_arrives_exactly_once(total_bytes, loss, delay_ms, seed):
    """Property: for any size/loss/RTT/seed, the receiver reassembles
    exactly the sent bytes — no loss, no duplication, in order."""
    sim = Simulator()
    net = Network(sim, RandomStreams(seed))
    a = net.add_device(Host(sim, "a", HID("a")))
    b = net.add_device(Host(sim, "b", HID("b")))
    loss_model = (
        BernoulliLoss(loss, RandomStreams(seed).stream("loss"))
        if loss > 0 else None
    )
    net.connect(a, b, Link(sim, "ab", mbps(80), ms(delay_ms),
                           loss_a_to_b=loss_model))
    config = XIA_STREAM.with_(per_packet_cost=0.0)
    ep_a = TransportEndpoint(sim, a, config)
    ep_b = TransportEndpoint(sim, b, config)

    session = sim.new_session_id()
    receiver = ep_b.open_receiver(session)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TransportConfig, "min_rto", 0.05)
        ep_a.start_send(
            session,
            dst=DagAddress.host(b.hid),
            src=DagAddress.host(a.hid),
            total_bytes=total_bytes,
        )
        sim.run(until=receiver.done)
    assert receiver.bytes_received == total_bytes
    assert receiver.completed
    assert not receiver._out_of_order
