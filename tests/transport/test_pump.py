"""The sender pump: arithmetic pacing, one wake-up event, the tie rule.

Reference values (close times, the two-session interleaving) were
captured on the commit before ``SenderSession._sender_loop`` — a
generator process paying one ``Timeout`` per segment — became the
``_pump`` callback (PR 14); the pump must reproduce them exactly.
"""

from repro.obs.events import SessionMigrated
from repro.sim.profiler import SimProfiler
from repro.transport import XIA_STREAM
from repro.transport.reliable import new_session_id
from repro.util import mbps, ms
from repro.xia import DagAddress
from repro.xia.packet import Packet, PacketType

from tests.transport.test_reliable import Pair, open_transfer

MSS = XIA_STREAM.mss_bytes


def wakeups(sim):
    """Fire times of the ``sender-wakeup`` steps currently on the heap."""
    return sim.pending("sender-wakeup")


def record_closes(pair):
    """Simulated times at which sender sessions on ``a`` unregister."""
    closed = []
    close_session = pair.ep_a.close_session

    def recording(session_id):
        closed.append(pair.sim.now)
        close_session(session_id)

    pair.ep_a.close_session = recording
    return closed


def record_data(pair, sessions):
    """(time, session index, seq) of every DATA packet ``a`` emits."""
    log = []
    send = pair.a.send

    def recording(packet):
        if packet.ptype is PacketType.DATA:
            log.append(
                (pair.sim.now, sessions.index(packet.session_id), packet.seq)
            )
        send(packet)

    pair.a.send = recording
    return log


def deliver_ack(pair, sender):
    """Hand ``sender`` an ACK for its next segment, at this instant."""
    ack = Packet.acquire(
        PacketType.ACK, dst=sender.src, src=sender.dst,
        payload={"ack": sender.head + 1}, size_bytes=64,
        session_id=sender.session_id,
    )
    sender.on_packet(ack, pair.a.port())


def test_lossless_transfer_pays_no_process_or_timeout_per_segment():
    pair = Pair(config=XIA_STREAM)
    with SimProfiler(pair.sim) as profiler:
        sender, _ = pair.transfer(300 * MSS)
        pair.sim.run()
    assert sender.total_segments == 300 and sender.retransmissions == 0
    # DATA arrival + ACK arrival per segment, plus on-demand tx-done
    # hand-overs and pace events while the window outruns the CPU
    # (1052 steps).  The generator loop paid a Timeout per segment and
    # a wake-up event per stall on top: 1416.
    assert pair.sim.steps_processed < 4 * sender.total_segments
    keys = {row.key for row in profiler.stats()}
    assert "event:sender-wakeup" in keys
    assert "process:_sender_loop" not in keys and "event:timeout" not in keys


def test_pace_event_exists_only_while_window_open_and_cpu_busy():
    pair = Pair(config=XIA_STREAM, bandwidth=mbps(20), delay=ms(1))
    sender, _ = open_transfer(pair, total_bytes=120 * MSS)
    sim = pair.sim
    paced = stalled = 0
    while not sender.done.triggered:
        sim.step()
        pending = wakeups(sim)
        assert len(pending) <= 1
        assert sender._pump_pending == bool(pending)
        busy = sim.now < sender._send_free_at
        if busy and (sender._can_send() or sender.completed):
            assert pending == [sender._send_free_at]
            paced += 1
        elif pending:
            # Only a deferred wake-up at this very instant may remain.
            assert not busy and pending[0] == sim.now
        else:
            stalled += 1
    assert paced and stalled  # both regimes were exercised
    assert sender.retransmissions == 0


def test_session_closes_at_completion_when_the_cpu_is_free():
    pair = Pair(config=XIA_STREAM)
    closed = record_closes(pair)
    sender, _ = pair.transfer(300 * MSS)
    pair.sim.run()
    # The final ACK arrives long after the last segment's CPU time.
    assert closed == [0.08645376000000017]
    assert sender.session_id not in pair.ep_a.senders


def test_session_closes_at_send_free_at_when_completed_while_busy():
    """A 1 Gbps, 10 us link acknowledges the last segment before its
    150 us of sender CPU are over: the session closes when they are."""
    for segments, closes_at in ((1, 0.00015), (3, 0.00045)):
        pair = Pair(config=XIA_STREAM, bandwidth=mbps(1000), delay=10e-6)
        closed = record_closes(pair)
        sender, _ = pair.transfer(segments * MSS)
        assert sender.done.triggered and closed == []  # CPU still busy
        assert len(wakeups(pair.sim)) == 1
        pair.sim.run()
        assert closed == [closes_at] == [sender._send_free_at]


def test_two_sessions_started_together_keep_their_interleaving():
    pair = Pair(config=XIA_STREAM, bandwidth=mbps(20), delay=ms(1))
    sessions = [new_session_id(), new_session_id()]
    log = record_data(pair, sessions)
    for session in sessions:
        pair.ep_b.open_receiver(session)
        pair.ep_a.start_send(
            session, dst=DagAddress.host(pair.b.hid),
            src=DagAddress.host(pair.a.hid), total_bytes=40 * MSS,
        )
    pair.sim.run()
    assert len(log) == 80
    # Both first segments leave at t=0 in start order, both second
    # ones when their (per-session) CPU frees up — two pace events at
    # the same float — then ACK clocking alternates the sessions.
    assert log[:12] == [
        (0.0, 0, 0), (0.0, 1, 0), (0.00015, 0, 1), (0.00015, 1, 1),
        (0.0026456, 0, 2), (0.0027956, 0, 3),
        (0.0032512, 1, 2), (0.0034012, 1, 3),
        (0.0038568, 0, 4), (0.0040068000000000005, 0, 5),
        (0.0044624, 1, 4), (0.0046124, 1, 5),
    ]
    order = "".join(str(index) for _time, index, _seq in log)
    assert order == (
        "0101" "0011" "0011" "00001111" "00001111"
        "0000000011111111" "0000000011111111" "0000000000" "1111111111"
    )


def test_ack_path_pump_does_not_overtake_a_wakeup_queued_at_the_same_time():
    """The tie rule.  Session 0 has a wake-up queued at ``now``; an ACK
    for session 1 arriving at that same instant must queue behind it,
    not emit inline — else the two swap their order on the wire."""
    pair = Pair()  # per_packet_cost = 0: the CPU is always free
    first, _ = open_transfer(pair)
    second, _ = open_transfer(pair)
    sessions = [first.session_id, second.session_id]
    pair.sim.run(until=0.003)  # both windows full, ACKs still in flight
    assert not first._can_send() and not second._can_send()
    log = record_data(pair, sessions)

    first.cwnd += 1
    first._wake()
    assert len(wakeups(pair.sim)) == 1 and log == []
    deliver_ack(pair, second)
    assert len(wakeups(pair.sim)) == 2 and log == []
    pair.sim.run(until=pair.sim.now)
    assert [index for _time, index, _seq in log[:2]] == [0, 1]

    # With nothing queued at this instant the ACK path pumps inline.
    emitted = len(log)
    deliver_ack(pair, second)
    assert len(log) > emitted and wakeups(pair.sim) == []


def test_pace_event_requested_mid_cpu_time_keeps_the_emission_order():
    """Sessions in lock-step free their CPUs at the same float.  One
    whose window an ACK reopens halfway through still sends first if it
    sent first last time — its pace event takes the place reserved at
    emission (the per-segment Timeout it replaces was pushed there)."""
    pair = Pair(config=XIA_STREAM, delay=ms(20))
    first, _ = open_transfer(pair)
    second, _ = open_transfer(pair)
    sessions = [first.session_id, second.session_id]
    pair.sim.run(until=0.01)  # initial windows sent, first ACKs 30 ms away
    assert not first._can_send() and not second._can_send()
    log = record_data(pair, sessions)

    first.cwnd += 1   # room for one segment: window closed again after it
    second.cwnd += 2  # room for two: paced at once
    first._pump()
    second._pump()
    free_at = pair.sim.now + XIA_STREAM.per_packet_cost
    assert first._send_free_at == second._send_free_at == free_at
    assert wakeups(pair.sim) == [free_at]  # one pace event, and it is...
    assert second._pump_pending and not first._pump_pending  # ...second's
    deliver_ack(pair, first)  # CPU busy: paced, not pumped
    assert len(log) == 2 and len(wakeups(pair.sim)) == 2
    pair.sim.run(until=free_at)
    assert [(time, index) for time, index, _seq in log] == [
        (0.01, 0), (0.01, 1), (free_at, 0), (free_at, 1),
    ]


def test_rto_go_back_n_restarts_sending_after_an_outage():
    pair = Pair(config=XIA_STREAM)
    sender, receiver = open_transfer(pair, total_bytes=200 * MSS)
    pair.sim.run(until=0.01)
    link = pair.a.port().link
    link.set_up(False)
    pair.sim.run(until=pair.sim.now + 2 * sender.rto)
    assert sender.timeouts >= 1 and not receiver.done.triggered
    link.set_up(True)
    pair.sim.run(until=receiver.done)
    pair.sim.run(until=sender.done)
    assert receiver.bytes_received == 200 * MSS


def test_migration_resume_restarts_sending_after_the_pause():
    pair = Pair(config=XIA_STREAM)
    sender, receiver = open_transfer(pair, total_bytes=400 * MSS)
    pair.sim.run(until=0.01)
    migrated = []
    pair.sim.probe.bus.subscribe(SessionMigrated, migrated.append)
    migrate = pair.sim.process(receiver.migrate(DagAddress.host(pair.b.hid, None)))
    sender.dst = DagAddress.host(pair.a.hid)  # so the announced address is new
    pair.sim.run(until=migrate)
    assert len(migrated) == 1 and sender._paused
    frozen = sender.next_seq
    pair.sim.run(until=pair.sim.now + XIA_STREAM.migration_delay / 2)
    assert sender.next_seq == frozen and wakeups(pair.sim) == []
    pair.sim.run(until=receiver.done)
    assert not sender._paused and receiver.bytes_received == 400 * MSS
