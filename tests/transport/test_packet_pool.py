"""Packet recycling: free-list lifecycle, poison mode, metric parity.

The free list mirrors ``Simulator.pooled_event`` (DESIGN.md §10):
transports acquire DATA/ACK/request packets and release them in their
terminal receive handlers.  Recycling must be invisible to everything
``packet_id``-independent, and poison mode must turn any
use-after-release into a loud :class:`PacketLifecycleError`.
"""

import pytest

from repro.errors import PacketLifecycleError
from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.xia import DagAddress, HID, NID
from repro.xia import packet as packet_mod
from repro.xia.packet import Packet, PacketType


@pytest.fixture(autouse=True)
def _restore_pool_flags():
    """Every test leaves the module-level pool configuration pristine."""
    yield
    packet_mod.set_packet_poison(False)
    packet_mod.set_packet_pool(True)


def _dag():
    return DagAddress.host(HID(b"h"), NID(b"n"))


def _acquire(**kwargs):
    return Packet.acquire(
        PacketType.DATA, dst=_dag(), src=_dag(), payload={"x": 1}, **kwargs
    )


# ---------------------------------------------------------------------------
# Free-list mechanics
# ---------------------------------------------------------------------------


def test_release_recycles_and_acquire_reuses():
    first = _acquire(seq=7)
    first_id = first.packet_id
    first.release()
    second = _acquire(seq=9)
    assert second is first  # same object back from the free list
    assert second.packet_id != first_id  # but a fresh identity
    assert second.seq == 9 and second.visited_mask == 0
    second.release()


def test_plain_constructor_packets_never_recycle():
    packet = Packet(PacketType.DATA, dst=_dag(), src=_dag())
    packet.release()  # no-op: the caller keeps full ownership
    packet.release()
    assert packet.dst is not None


def test_double_release_of_pooled_packet_raises():
    packet = _acquire()
    packet.release()
    with pytest.raises(PacketLifecycleError, match="released twice"):
        packet.release()


def test_pool_disable_drops_releases_to_gc():
    packet_mod.set_packet_pool(False)
    packet = _acquire()
    packet.release()
    second = _acquire()
    assert second is not packet


# ---------------------------------------------------------------------------
# Poison mode
# ---------------------------------------------------------------------------


def test_poisoned_packet_raises_on_any_touch():
    packet_mod.set_packet_poison(True)
    packet = _acquire()
    packet.release()
    with pytest.raises(PacketLifecycleError, match="use-after-release"):
        packet.dst.intent
    with pytest.raises(PacketLifecycleError):
        packet.payload["x"]
    assert packet.ptype is PacketType.DATA  # demux still works (by design)


def test_transport_touching_released_packet_raises():
    """A transport handler fed an already-released packet fails at its
    first field read instead of acting on recycled state."""
    from repro.net.nodes import Host
    from repro.sim import Simulator
    from repro.transport.config import XIA_STREAM
    from repro.transport.reliable import TransportEndpoint

    packet_mod.set_packet_poison(True)
    sim = Simulator()
    host = Host(sim, "h", HID(b"h"))
    endpoint = TransportEndpoint(sim, host, XIA_STREAM)
    receiver = endpoint.open_receiver(1)
    stale = _acquire(session_id=1)
    stale.release()
    with pytest.raises(PacketLifecycleError):
        receiver.on_packet(stale, None)


def test_poison_quarantines_instead_of_recycling():
    packet_mod.set_packet_poison(True)
    packet = _acquire()
    packet.release()
    replacement = _acquire()
    assert replacement is not packet
    replacement.release()


def test_end_to_end_download_is_poison_clean():
    """No transport in the full SoftStage stack touches a packet after
    releasing it: a whole staging download survives poison mode."""
    packet_mod.set_packet_poison(True)
    result = run_download(
        "softstage", params=MicrobenchParams(file_size=256 * 1024), seed=0
    )
    assert result.download.completed


# ---------------------------------------------------------------------------
# Parity: recycling is invisible to packet_id-independent metrics
# ---------------------------------------------------------------------------


def test_fixed_seed_parity_with_and_without_recycling():
    # Both sides run under the strict invariant auditor: recycling
    # must stay invisible *and* conservation-clean.
    params = MicrobenchParams(file_size=512 * 1024)
    with_pool = run_download("softstage", params=params, seed=11, audit=True)
    packet_mod.set_packet_pool(False)
    without_pool = run_download(
        "softstage", params=params, seed=11, audit=True
    )

    assert with_pool.auditor.ok and without_pool.auditor.ok
    for attr in ("download_time",):
        assert getattr(with_pool, attr) == getattr(without_pool, attr)
    a, b = with_pool.download, without_pool.download
    for attr in (
        "bytes_received",
        "chunks_completed",
        "chunks_from_edge",
        "chunks_from_origin",
        "fallbacks",
        "handoffs",
    ):
        assert getattr(a, attr) == getattr(b, attr), attr
    # The audited event streams agree event-for-event, too.
    assert (
        with_pool.auditor.event_counts == without_pool.auditor.event_counts
    )
