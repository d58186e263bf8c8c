"""A run's gauge names are stated once in a trace.

A ``GaugeSample`` line omits ``"gauges"`` when they equal the names of
the previous tick of the same run that the same exporter wrote, and
``read_trace`` puts each run's last names back — so every reader sees
whole ticks, from this format and from the older one that named every
tick alike."""

import io
import json
import warnings

import pytest

from repro.errors import TraceCorrupt
from repro.experiments.params import MicrobenchParams
from repro.experiments.runner import run_download
from repro.obs.bus import EventBus, Stamped
from repro.obs.events import CacheHit, GaugeSample
from repro.obs.trace import TORN_LINE, TraceExporter, read_trace, replay_trace
from repro.util import MB

AB = ("a", "b")
ABC = ("a", "b", "c")


def tick(time, run, names, *values):
    return Stamped(time, run, GaugeSample(gauges=names, values=values))


def exported(*stampeds, into=None):
    """The lines one exporter writes for ``stampeds`` (appended to
    ``into`` if given, as a second exporter on the same file would)."""
    buffer = io.StringIO()
    if into is not None:
        buffer.write(into)
    bus = EventBus()
    exporter = TraceExporter(buffer).attach(bus)
    for stamped in stampeds:
        bus.publish(stamped)
    exporter.close()
    return buffer.getvalue()


def named(text):
    """Per line: whether it names its gauges (``None``: not a tick)."""
    return [
        "gauges" in record if record["type"] == "GaugeSample" else None
        for record in map(json.loads, text.splitlines())
    ]


def with_names_on_every_tick(text):
    """``text`` as the older exporter wrote it: every tick named."""
    names, lines = {}, []
    for line in text.splitlines(keepends=True):
        record = json.loads(line)
        if record["type"] == "GaugeSample":
            if "gauges" in record:
                names[record["run"]] = record["gauges"]
            else:
                values = record.pop("values")
                record.update(gauges=names[record["run"]], values=values)
                line = json.dumps(record, separators=(",", ":")) + "\n"
        lines.append(line)
    return "".join(lines)


def test_names_are_written_on_a_runs_first_tick_and_when_they_change():
    stampeds = [
        tick(0.0, "r", AB, 1.0, 2.0),
        Stamped(0.1, "r", CacheHit(store="s", cid="c")),
        tick(0.5, "r", AB, 1.5, 2.0),
        tick(1.0, "r", ABC, 1.0, 2.0, 3.0),
        tick(1.5, "r", ABC, 1.0, 2.0, 3.5),
        tick(2.0, "r", AB, 0.0, 0.0),
    ]
    text = exported(*stampeds)
    assert named(text) == [True, None, False, True, False, True]
    assert text.splitlines()[2] == (
        '{"t":0.5,"run":"r","type":"GaugeSample","values":[1.5,2.0]}')
    assert list(read_trace(io.StringIO(text), strict=True)) == stampeds


def test_an_older_trace_with_names_on_every_tick_reads_to_the_same_events():
    buffer = io.StringIO()
    for system in ("xftp", "softstage"):
        run_download(system, params=MicrobenchParams(file_size=2 * MB),
                     seed=0, trace_path=buffer, gauges=True)
    text = buffer.getvalue()
    # One named tick per run; the rest repeat it.
    assert named(text).count(True) == 2
    assert named(text).count(False) > 5
    older = with_names_on_every_tick(text)
    assert named(older).count(False) == 0 and len(older) > 2 * len(text)
    events = list(read_trace(io.StringIO(text), strict=True))
    assert list(read_trace(io.StringIO(older), strict=True)) == events
    assert exported(*events) == text  # and re-exports to the same bytes
    new, old = replay_trace(io.StringIO(text)), replay_trace(io.StringIO(older))
    assert new.timelines("gauge.") == old.timelines("gauge.")
    assert new.report() == old.report()


def test_two_runs_interleaved_in_one_file_each_name_their_first_tick():
    stampeds = [
        tick(0.0, "x", AB, 1.0, 2.0),
        tick(0.0, "y", ABC, 1.0, 2.0, 3.0),
        tick(0.5, "x", AB, 1.5, 2.5),
        tick(0.5, "y", ABC, 1.5, 2.5, 3.5),
    ]
    text = exported(*stampeds)
    assert named(text) == [True, True, False, False]
    events = list(read_trace(io.StringIO(text), strict=True))
    assert events == stampeds
    assert replay_trace(io.StringIO(text)).timelines("gauge.") == {
        "gauge.x.a": [(0.0, 1.0), (0.5, 1.5)],
        "gauge.x.b": [(0.0, 2.0), (0.5, 2.5)],
        "gauge.y.a": [(0.0, 1.0), (0.5, 1.5)],
        "gauge.y.b": [(0.0, 2.0), (0.5, 2.5)],
        "gauge.y.c": [(0.0, 3.0), (0.5, 3.5)],
    }


def test_two_runs_with_one_run_id_and_different_gauge_sets_share_a_file():
    first = [tick(0.0, "r", AB, 1.0, 2.0), tick(0.5, "r", AB, 1.5, 2.5)]
    second = [tick(0.0, "r", ABC, 7.0, 8.0, 9.0),
              tick(0.5, "r", ABC, 7.5, 8.5, 9.5)]
    # A second exporter appending to the file names its first tick anew,
    # even with the names the first exporter wrote last.
    text = exported(*second, into=exported(*first))
    assert named(text) == [True, False, True, False]
    assert list(read_trace(io.StringIO(text), strict=True)) == first + second
    again = exported(*first, into=exported(*first))
    assert named(again) == [True, False, True, False]


def test_two_real_runs_with_one_run_id_and_different_gauge_sets():
    buffer = io.StringIO()
    live = []
    for system in ("xftp", "softstage"):
        result = run_download(
            system, params=MicrobenchParams(file_size=2 * MB), seed=0,
            trace_path=buffer, gauges=True, run_id="same")
        live.append(result.sampler)
    text = buffer.getvalue()
    ticks = [s.event for s in read_trace(io.StringIO(text), strict=True)
             if type(s.event) is GaugeSample]
    xftp, softstage = live
    assert len(ticks) == xftp.samples_taken + softstage.samples_taken
    assert named(text).count(True) == 2
    first, last = ticks[0].gauges, ticks[-1].gauges
    assert "staging.lead_bytes" in set(last) - set(first)
    assert all(t.gauges in (first, last) for t in ticks)


def test_a_tick_without_names_and_no_named_tick_before_it_is_skipped():
    text = exported(tick(0.0, "r", AB, 1.0, 2.0), tick(0.5, "r", AB, 3.0, 4.0),
                    tick(1.0, "r", AB, 5.0, 6.0))
    hit = '{"t":0.25,"run":"r","type":"CacheHit","store":"s","cid":"c"}\n'
    # Cut at the front: the two ticks left have no names to take.
    cut = hit + "".join(text.splitlines(keepends=True)[1:])
    counts: dict = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        events = list(read_trace(io.StringIO(cut), unknown_counts=counts))
    assert [type(s.event) for s in events] == [CacheHit]
    assert counts == {"GaugeSample": 2}
    assert len(caught) == 1
    assert "without gauge names" in str(caught[0].message)
    # Another run's names are not this run's.
    other = exported(tick(0.0, "q", AB, 1.0, 2.0)) + cut
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert len(list(read_trace(io.StringIO(other)))) == 2


def test_strict_reading_raises_trace_corrupt_at_a_tick_without_names(tmp_path):
    text = exported(tick(0.0, "r", AB, 1.0, 2.0), tick(0.5, "r", AB, 3.0, 4.0))
    path = tmp_path / "cut.jsonl"
    path.write_text(
        '{"t":0.25,"run":"r","type":"CacheHit","store":"s","cid":"c"}\n'
        + text.splitlines(keepends=True)[1]
        + '{"t":0.75,"run":"r","type":"CacheHit","store":"s","cid":"c"}\n')
    with pytest.raises(TraceCorrupt, match=r"cut\.jsonl:2: .*no gauge names"):
        list(read_trace(str(path), strict=True))


@pytest.mark.parametrize("last", ["named", "unnamed"])
def test_a_torn_last_tick_loses_only_itself(last):
    stampeds = [tick(0.0, "r", AB, 1.0, 2.0), tick(0.5, "r", AB, 1.5, 2.5)]
    if last == "named":
        stampeds.append(tick(1.0, "r", ABC, 1.0, 2.0, 3.0))
    else:
        stampeds.append(tick(1.0, "r", AB, 1.25, 2.25))
    text = exported(*stampeds)
    final = text.splitlines(keepends=True)[-1]
    head = text[:-len(final)]
    for cut in range(1, len(final) - 2):  # never a whole object
        counts: dict = {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            events = list(read_trace(io.StringIO(head + final[:cut]),
                                     unknown_counts=counts))
        assert events == stampeds[:-1]
        assert counts == {TORN_LINE: 1}
