"""JSONL trace export, round-trip and offline replay."""

import io
import json

import pytest

from repro.errors import ReproError, TraceCorrupt
from repro.obs import EventBus, Stamped, TraceExporter, read_trace, replay_trace
from repro.obs.events import (
    CacheStored,
    ChunkFetched,
    CoordinatorTick,
    PacketDropped,
    SegmentTimeout,
)
from repro.obs.trace import TORN_LINE
from repro.obs.wide import derive_wide

SAMPLE = [
    Stamped(0.5, "r0", CoordinatorTick(signalled=2, decision=True, offline=False)),
    Stamped(1.25, "r0", CacheStored(store="edge", cid="abcd", size_bytes=512, pinned=True)),
    Stamped(2.0, "r0", SegmentTimeout(session="s1", seq=7, rto=0.375)),
    Stamped(3.125, "r0", ChunkFetched(cid="abcd", latency=0.875, from_edge=True, fallback=False)),
]


def export_to_string(stampeds):
    bus = EventBus()
    buffer = io.StringIO()
    exporter = TraceExporter(buffer).attach(bus)
    for stamped in stampeds:
        bus.publish(stamped)
    exporter.close()
    return buffer.getvalue()


def test_exported_lines_are_flat_json_objects():
    text = export_to_string(SAMPLE)
    lines = text.strip().splitlines()
    assert len(lines) == len(SAMPLE)
    first = json.loads(lines[0])
    assert first == {
        "t": 0.5,
        "run": "r0",
        "type": "CoordinatorTick",
        "signalled": 2,
        "decision": True,
        "offline": False,
    }


def test_read_trace_round_trips_events_exactly():
    text = export_to_string(SAMPLE)
    restored = list(read_trace(io.StringIO(text)))
    assert restored == SAMPLE


def test_exporter_detaches_on_close():
    bus = EventBus()
    buffer = io.StringIO()
    exporter = TraceExporter(buffer).attach(bus)
    bus.publish(SAMPLE[0])
    exporter.close()
    bus.publish(SAMPLE[1])
    assert buffer.getvalue().count("\n") == 1
    assert not bus.active


def test_exporter_owns_path_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    bus = EventBus()
    with TraceExporter(str(path)) as exporter:
        exporter.attach(bus)
        for stamped in SAMPLE:
            bus.publish(stamped)
    assert exporter.path == str(path)
    assert [s.event for s in read_trace(str(path))] == [s.event for s in SAMPLE]


def test_replay_trace_rebuilds_metrics():
    text = export_to_string(SAMPLE)
    collector = replay_trace(io.StringIO(text))
    assert collector.report() == {
        "coordinator.ticks": 1,
        "coordinator.decisions": 1,
        "transport.timeouts": 1,
        "fetch.latency.mean": 0.875,
        "fetch.latency.min": 0.875,
        "fetch.latency.max": 0.875,
    }


def test_replay_matches_live_collector_report():
    from repro.metrics.collector import MetricsCollector

    bus = EventBus()
    live = MetricsCollector().attach(bus)
    buffer = io.StringIO()
    exporter = TraceExporter(buffer).attach(bus)
    for stamped in SAMPLE:
        bus.publish(stamped)
    exporter.close()

    replayed = replay_trace(io.StringIO(buffer.getvalue()))
    assert replayed.report() == live.report()


# -- forward compatibility (traces from newer code versions) -----------------


def test_read_trace_skips_unknown_event_types_with_warning():
    import pytest

    text = (
        '{"t":1.0,"run":"r0","type":"CacheHit","store":"s","cid":"c"}\n'
        '{"t":2.0,"run":"r0","type":"QuantumTeleport","qubits":3}\n'
        '{"t":3.0,"run":"r0","type":"SessionMigrated","session":4}\n'
    )
    counts = {}
    with pytest.warns(UserWarning, match="QuantumTeleport"):
        restored = list(
            read_trace(io.StringIO(text), unknown_counts=counts)
        )
    assert [type(s.event).__name__ for s in restored] == [
        "CacheHit", "SessionMigrated"]
    assert counts == {"QuantumTeleport": 1}


def test_read_trace_skips_a_deleted_event_type_from_an_old_trace():
    """Backward compatibility is the same rule as forward: a trace
    recorded when ``ProfilerSample`` and ``CacheMiss`` existed still
    loads — each type's lines are skipped with one warning between
    them, and counted."""
    import warnings as warnings_mod

    text = (
        '{"t":1.0,"run":"r0","type":"CacheHit","store":"s","cid":"c"}\n'
        '{"t":1.5,"run":"r0","type":"ProfilerSample","depth":3,"steps":2}\n'
        '{"t":2.5,"run":"r0","type":"ProfilerSample","depth":1,"steps":4}\n'
        '{"t":2.75,"run":"r0","type":"CacheMiss","store":"s","cid":"d"}\n'
        '{"t":3.0,"run":"r0","type":"SessionMigrated","session":4}\n'
        '{"t":3.5,"run":"r0","type":"CacheMiss","store":"s","cid":"e"}\n'
    )
    counts = {}
    with warnings_mod.catch_warnings(record=True) as caught:
        warnings_mod.simplefilter("always")
        restored = list(read_trace(io.StringIO(text), unknown_counts=counts))
    assert [type(s.event).__name__ for s in restored] == [
        "CacheHit", "SessionMigrated"]
    assert [str(w.message) for w in caught] == [
        f"skipping unknown event type {name!r} "
        "(trace written by another version?)"
        for name in ("ProfilerSample", "CacheMiss")
    ]
    assert counts == {"ProfilerSample": 2, "CacheMiss": 2}


def test_read_trace_strict_raises_on_unknown_type():
    import pytest

    text = '{"t":2.0,"run":"r0","type":"QuantumTeleport","qubits":3}\n'
    with pytest.raises(KeyError, match="QuantumTeleport"):
        list(read_trace(io.StringIO(text), strict=True))


def test_read_trace_drops_unknown_fields_on_known_types():
    import pytest

    text = '{"t":1.0,"run":"r0","type":"CacheHit","store":"s","cid":"c","tier":2}\n'
    with pytest.warns(UserWarning, match="tier"):
        (restored,) = list(read_trace(io.StringIO(text)))
    assert type(restored.event).__name__ == "CacheHit"
    assert restored.event.store == "s"
    with pytest.raises(TypeError):
        list(read_trace(io.StringIO(text), strict=True))


def test_read_trace_skips_records_missing_required_fields():
    # A known type whose (newer) writer dropped a required field.
    text = '{"t":1.0,"run":"r0","type":"CacheHit","store":"s","extra":1}\n'
    counts = {}
    import warnings as warnings_mod

    with warnings_mod.catch_warnings():
        warnings_mod.simplefilter("ignore")
        restored = list(read_trace(io.StringIO(text), unknown_counts=counts))
    assert restored == []
    assert counts == {"CacheHit": 1}


def test_replay_trace_survives_unknown_types():
    import warnings as warnings_mod

    text = (
        '{"t":1.0,"run":"r0","type":"SegmentTimeout","session":1,"seq":0,'
        '"rto":0.5}\n'
        '{"t":2.0,"run":"r0","type":"FutureEvent","x":1}\n'
    )
    with warnings_mod.catch_warnings():
        warnings_mod.simplefilter("ignore")
        collector = replay_trace(io.StringIO(text))
    assert collector.report() == {"transport.timeouts": 1}


def _dropped_packets(text):
    """The wide fold's ``dropped_packets`` over one run's trace text."""
    (run,) = derive_wide(read_trace(io.StringIO(text)))
    return run["dropped_packets"]


def test_pre_count_packet_dropped_traces_still_load():
    """Traces written before PacketDropped.count default to one drop;
    their ``reason`` is dropped on read."""
    old_line = '{"t":1.0,"run":"legacy","type":"PacketDropped","link":"l","reason":"loss"}\n'
    with pytest.warns(UserWarning, match=r"\['reason'\] on PacketDropped"):
        (restored,) = list(read_trace(io.StringIO(old_line)))
    assert restored.event == PacketDropped(link="l", count=1)
    with pytest.warns(UserWarning):
        assert _dropped_packets(old_line * 3) == 3


def test_batched_packet_dropped_replays_full_count():
    line = '{"t":1.0,"run":"r","type":"PacketDropped","link":"l","count":7}\n'
    assert _dropped_packets(line) == 7


# -- the trace of a run that died ---------------------------------------------

GOOD_LINE = '{"t":1.0,"run":"r0","type":"CacheHit","store":"s","cid":"c"}\n'


@pytest.mark.parametrize("torn, cause", [
    (GOOD_LINE[:30], json.JSONDecodeError),  # cut mid-line by a kill
    ('{"t":2.0,"run":"r0"}', KeyError),      # an object without "type"
    ('{"type":"CacheHit","store":"s","cid":"c"}', KeyError),  # ... or "t"
    ("[1,2]", TypeError),                    # JSON, but not an object
], ids=["truncated", "no-type", "no-time", "array"])
def test_read_trace_skips_a_torn_final_line_only(torn, cause):
    for tail in ("", "\n", "\n\n  \n"):
        counts = {}
        with pytest.warns(UserWarning, match="torn final trace line"):
            restored = list(read_trace(
                io.StringIO(GOOD_LINE * 2 + torn + tail), unknown_counts=counts
            ))
        assert [s.event.cid for s in restored] == ["c", "c"]
        assert counts == {TORN_LINE: 1}
    # The same line with events after it is corruption, not a torn tail,
    # and the error says where ...
    with pytest.raises(TraceCorrupt, match=r"<trace>:3: ") as caught:
        list(read_trace(io.StringIO(
            GOOD_LINE + "\n" + torn + "\n  \n" + GOOD_LINE * 2
        )))
    assert caught.value.lineno == 3 and caught.value.path is None
    assert isinstance(caught.value.__cause__, cause)
    # ... and strict mode accepts neither.
    with pytest.raises(TraceCorrupt, match=r":2: ") as caught:
        list(read_trace(io.StringIO(GOOD_LINE + torn), strict=True))
    assert isinstance(caught.value.__cause__, cause)


def test_trace_corruption_names_the_file_and_is_a_value_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(GOOD_LINE * 4 + "{oops}\n" + GOOD_LINE, encoding="utf-8")
    with pytest.raises(ValueError) as caught:
        list(read_trace(str(path)))
    error = caught.value
    assert isinstance(error, TraceCorrupt) and isinstance(error, ReproError)
    assert (error.path, error.lineno) == (str(path), 5)
    assert str(error).startswith(f"{path}:5: unreadable trace line '{{oops}}'")
    assert isinstance(error.__cause__, json.JSONDecodeError)


def test_trace_corruption_in_a_stream_that_cannot_rewind_has_no_line_number():
    class Pipe(io.StringIO):
        def seek(self, *args):
            raise io.UnsupportedOperation("underlying stream is not seekable")

    with pytest.raises(TraceCorrupt, match=r"<trace>:\?: ") as caught:
        list(read_trace(Pipe(GOOD_LINE + "{oops}\n" + GOOD_LINE)))
    assert caught.value.lineno is None


def test_offline_views_survive_a_torn_trace(tmp_path):
    path = tmp_path / "killed.jsonl"
    text = export_to_string(SAMPLE)
    path.write_text(text + text.splitlines()[0][:25], encoding="utf-8")
    with pytest.warns(UserWarning, match="torn"):
        collector = replay_trace(str(path))
    assert collector.report()["fetch.latency.mean"] == 0.875


def test_a_pair_traced_twice_in_one_process_is_the_same_bytes():
    """Session ids are numbered per simulator, so a run's trace does not
    depend on the runs before it in the process.  With ``gauges=True``
    the two would still differ in ``pool.packet_releases`` and
    ``pool.packets_free``: the packet pool is process-wide."""
    from repro.experiments.params import MicrobenchParams
    from repro.experiments.runner import run_download
    from repro.util import MB

    def traced_pair():
        buffer = io.StringIO()
        for system in ("xftp", "softstage"):
            run_download(system, params=MicrobenchParams(file_size=4 * MB),
                         seed=0, trace_path=buffer)
        return buffer.getvalue()

    first = traced_pair()
    assert '"type":"SegmentTimeout"' in first
    assert traced_pair() == first
