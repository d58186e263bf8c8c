"""The exporter's compiled line layout writes the trace format's
definition — ``json.dumps`` of ``{"t", "run", "type", **asdict(event)}``
with compact separators, minus the ``"gauges"`` of a tick repeating its
run's last written names — byte for byte, for every event class and
every value a field can hold; and the reader's direct scanner call
accepts, rejects and returns what ``json.loads`` does, line by line."""

import io
import json
import typing
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceCorrupt
from repro.obs import EventBus, Stamped, TraceExporter, read_trace
from repro.obs.events import (
    EVENT_TYPES,
    CacheHit,
    ChunkStaged,
    GaugeSample,
    ObsEvent,
    PacketDropped,
    event_schema,
)
from repro.obs.jsonl import decode_line
from repro.obs.trace import TORN_LINE


def reference_line(stamped: Stamped, written: Optional[dict] = None) -> str:
    """The format's definition (what the exporter ran per event until
    it compiled one line layout per class).  ``written`` — run id -> the
    gauge names of that run's last tick written — carries the
    names-once rule across the lines of one exporter."""
    record = {
        "t": stamped.time,
        "run": stamped.run_id,
        "type": type(stamped.event).__name__,
    }
    record.update(asdict(stamped.event))
    if written is not None and type(stamped.event) is GaugeSample:
        if written.get(stamped.run_id) == record["gauges"]:
            del record["gauges"]
        else:
            written[stamped.run_id] = record["gauges"]
    return json.dumps(record, separators=(",", ":")) + "\n"


def exported(*stampeds: Stamped) -> str:
    bus = EventBus()
    buffer = io.StringIO()
    exporter = TraceExporter(buffer).attach(bus)
    for stamped in stampeds:
        bus.publish(stamped)
    exporter.close()
    return buffer.getvalue()


# -- one strategy per annotated field type -------------------------------------

_TEXT = st.one_of(
    # Every code point, lone surrogates included.
    st.text(st.characters(exclude_categories=())),
    st.sampled_from([
        "", 'say "hi"', "back\\slash", "line\nfeed\ttab", "\x00\x1f\x7f",
        "café   \U0001f600", "\ud800", "\udfff tail", "100%s %d %%",
    ]),
)
_FLOATS = st.one_of(
    st.floats(),  # nan, ±inf, subnormals and signed zeros included
    st.sampled_from([
        -0.0, 1e-320, 1e22, 1e16, 1e-7, 0.1 + 0.2, 5.0,
        float("nan"), float("inf"), float("-inf"),
    ]),
)
_INTS = st.one_of(
    st.integers(), st.sampled_from([2**64, 2**64 + 1, -(2**70), 10**40])
)
_BY_TYPE = {
    str: _TEXT,
    int: _INTS,
    float: _FLOATS,
    bool: st.booleans(),
    Optional[float]: st.none() | _FLOATS,
    # A tick's parallel columns: any names, any floats, drawn apart.
    tuple[str, ...]: st.lists(_TEXT, max_size=6).map(tuple),
    tuple[float, ...]: st.lists(_FLOATS, max_size=6).map(tuple),
}


def stampeds_of(cls) -> st.SearchStrategy:
    hints = typing.get_type_hints(cls)
    event = st.builds(
        cls, **{f.name: _BY_TYPE[hints[f.name]] for f in fields(cls)}
    )
    return st.builds(
        Stamped, time=_FLOATS | _INTS, run_id=_TEXT, event=event
    )


@pytest.mark.parametrize("cls", EVENT_TYPES.values(), ids=list(EVENT_TYPES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_event_class_exports_the_reference_line(cls, data):
    stamped = data.draw(stampeds_of(cls))
    line = exported(stamped)
    assert line == reference_line(stamped)
    # ... and read_trace gives back an event that writes the same bytes
    # (NaN != NaN and -0.0 == 0.0, so compare the encoding, not the value).
    (restored,) = read_trace(io.StringIO(line), strict=True)
    assert type(restored.event) is cls
    assert exported(restored) == line


#: One sampler tick: names (non-ASCII, quotes, lone surrogates) beside
#: as many readings (NaN, ±inf, subnormals, signed zeros).
_TICKS = st.lists(st.tuples(_TEXT, _FLOATS), max_size=8).map(
    lambda pairs: GaugeSample(gauges=tuple(n for n, _ in pairs),
                              values=tuple(v for _, v in pairs))
)


@settings(max_examples=200, deadline=None)
@given(tick=_TICKS, time=_FLOATS, run_id=_TEXT)
def test_a_gauge_tick_round_trips_as_tuples(tick, time, run_id):
    stamped = Stamped(time, run_id, tick)
    line = exported(stamped)
    assert line == reference_line(stamped)
    # JSON decodes the columns as lists; the event holds tuples again,
    # on the reader's fast path and on its careful one (a key too many).
    (restored,) = read_trace(io.StringIO(line), strict=True)
    careful_line = line[:-2] + ',"later":0}\n'
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (careful,) = read_trace(io.StringIO(careful_line))
    for event in (restored.event, careful.event):
        assert type(event.gauges) is tuple and type(event.values) is tuple
        assert event.gauges == tick.gauges
        assert len(event.values) == len(tick.values)
        assert exported(Stamped(restored.time, restored.run_id, event)) == line


#: Name sets a run's ticks switch between (the empty one included).
_NAME_SETS = [("a", "b"), ("b", "a"), ("a", "b", "c"), ()]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_tick_sequence_states_each_runs_names_once(data):
    shapes = data.draw(st.lists(
        st.tuples(st.sampled_from(["r", "q"]), st.sampled_from(_NAME_SETS)),
        max_size=12,
    ))
    stampeds = [
        Stamped(float(i), run, GaugeSample(gauges=names, values=tuple(
            data.draw(st.lists(_FLOATS, min_size=len(names),
                               max_size=len(names)))
        )))
        for i, (run, names) in enumerate(shapes)
    ]
    text = exported(*stampeds)
    written: dict = {}
    assert text == "".join(reference_line(s, written) for s in stampeds)
    restored = list(read_trace(io.StringIO(text), strict=True))
    assert [(s.run_id, s.event.gauges) for s in restored] == shapes
    assert exported(*restored) == text


# -- the fallback arms -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class _LocalEvent(ObsEvent):
    """Not in ``EVENT_TYPES``: its schema is compiled on first sight."""

    note: str
    level: int = 0


def test_event_classes_outside_the_registry_export_on_first_sight():
    assert event_schema(_LocalEvent) == ("_LocalEvent", ("note", "level"))
    stampeds = [
        Stamped(0.25, "r", _LocalEvent(note="a\"b", level=7)),
        Stamped(0.5, "r", ObsEvent()),  # no fields at all
    ]
    text = exported(*stampeds)
    assert text == "".join(reference_line(s) for s in stampeds)
    assert text.splitlines()[1] == '{"t":0.5,"run":"r","type":"ObsEvent"}'
    # The reader does not know them, and says so without failing.
    counts: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert list(read_trace(io.StringIO(text), unknown_counts=counts)) == []
    assert counts == {"_LocalEvent": 1, "ObsEvent": 1}


def test_a_field_may_not_shadow_the_line_envelope():
    @dataclass(frozen=True)
    class Shadowing(ObsEvent):
        type: str

    with pytest.raises(TypeError, match="envelope"):
        exported(Stamped(1.0, "r", Shadowing(type="x")))


class _Name(str):
    pass


class _Level(int):
    pass


class _Ratio(float):
    def __repr__(self):  # the encoder must not be fooled by this
        return "ratio!"


@pytest.mark.parametrize("stamped", [
    Stamped(1.0, _Name("run\n1"), CacheHit(store=_Name('s"'), cid="c")),
    Stamped(_Ratio(1.5), "r", GaugeSample(gauges=(_Name("g\u00e9"), "h"),
                                          values=(_Ratio(0.1), 2.0))),
    Stamped(_Level(2), "r", PacketDropped(link="l", count=_Level(3))),
    # By value, not by annotation: a bool in an int field, an int in a
    # float field, None and non-finite floats.
    Stamped(True, "r", PacketDropped(link="l", count=True)),
    Stamped(3, "r", GaugeSample(gauges=("g", "h"), values=(4, True))),
    Stamped(float("inf"), "r",
            ChunkStaged(cid="c", staging_latency=None,
                        control_rtt=float("nan"))),
    Stamped(-0.0, "r", GaugeSample(gauges=("g", "h", "i"),
                                   values=(float("-inf"), -0.0, 5e-324))),
], ids=["str-subclass", "float-subclass", "int-subclass", "bool", "int",
        "none-nan-inf", "negative-zero"])
def test_values_outside_the_exact_type_arms_match_the_reference(stamped):
    assert exported(stamped) == reference_line(stamped)


# -- the reader's half: one C scanner call per line ------------------------------
#
# ``jsonl.decode_line`` is defined as ``json.loads`` and ``read_trace``
# unrolls its fast path, so both are held to the slow spelling here.

#: What ``scan_once(line, 0)`` alone gets wrong or reports differently:
#: nothing scanned (``StopIteration``, which must never leave a
#: generator), text left over, whole values that are not objects, and
#: the number and string forms ``json`` is lenient or exact about.
_PITFALLS = [
    "", " ", "abc", "-", "nul", "{", '{"a":1', '{"a":1}{"b":2}', '{"a":1} x',
    '{"a":1} ', ' {"a":1}', '\t[1,2]\r', "[1,2]", '"s"', "null", "true", "7",
    "NaN", "Infinity", "-Infinity", "-0.0", "1e22", "1E400", "-1e-400",
    str(2**64 + 1), "-" + "9" * 40, "01", "1.", ".5", "+1",
    "\ud800", '"\\ud800"', '"\ud800"', "﻿{}", '{"a":1}\x1f', "\x0b1",
    '{"a":1,"a":2}', '{"type":"CacheHit","store":"s","cid":"c"}',
    # A whole event with text left over: only the end test can tell.
    '{"t":1.0,"run":"r0","type":"CacheHit","store":"s","cid":"c"} x',
    '{"t":1.0,"run":"r0","type":"CacheHit","store":"s","cid":"c"}' * 2,
]


def _outcome(decode, text):
    try:
        return ("value", repr(decode(text)))
    except ValueError as exc:  # JSONDecodeError is one
        return ("error", type(exc).__name__, str(exc))


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | _INTS | _FLOATS | _TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=8,
)
_PADDING = st.text(" \t\r\n\x0b\x1f\xa0x,}", max_size=2)


@pytest.mark.parametrize("text", _PITFALLS, ids=ascii)
def test_decode_line_is_json_loads_on_the_scanner_pitfalls(text):
    assert _outcome(decode_line, text) == _outcome(json.loads, text)


@settings(max_examples=300, deadline=None)
@given(text=_TEXT)
def test_decode_line_is_json_loads_on_any_text(text):
    assert _outcome(decode_line, text) == _outcome(json.loads, text)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES, cut=st.integers(0, 5), before=_PADDING,
       after=_PADDING)
def test_decode_line_is_json_loads_on_whole_cut_and_padded_documents(
    value, cut, before, after
):
    document = json.dumps(value, separators=(",", ":"))
    for text in (document, document[:len(document) - cut],
                 before + document + after):
        assert _outcome(decode_line, text) == _outcome(json.loads, text)


def _slow_read_last_line(line: str):
    """``read_trace``'s rules for a final line, spelled with
    ``json.loads``, three pops and keyword construction — what the
    reader ran on every line until it called the scanner directly:
    ``(events, unknown_counts)``."""
    text = line.strip()
    if not text:
        return [], {}
    try:
        record = json.loads(text)
        type_name = record.pop("type")
        time, run_id = record.pop("t"), record.pop("run")
        cls = EVENT_TYPES.get(type_name)
    except (ValueError, KeyError, TypeError, AttributeError):
        return [], {TORN_LINE: 1}
    if cls is None:
        return [], {type_name: 1}
    known = event_schema(cls)[1]
    try:
        event = cls(**{k: v for k, v in record.items() if k in known})
    except TypeError:  # a required field is missing
        return [], {type_name: 1}
    return [Stamped(time, run_id, event)], {}


def _read_quietly(text: str):
    counts: dict = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        events = list(read_trace(io.StringIO(text), unknown_counts=counts))
    return events, counts


_GOOD = Stamped(1.0, "r0", CacheHit(store="s", cid="c"))
_GOOD_LINE = '{"t":1.0,"run":"r0","type":"CacheHit","store":"s","cid":"c"}\n'


@pytest.mark.parametrize("text", _PITFALLS, ids=ascii)
def test_read_trace_on_the_scanner_pitfalls(text):
    # Last: torn (or blank), never an event, never an exception ...
    events, counts = _read_quietly(_GOOD_LINE + text)
    assert (events, counts) == ([_GOOD], _slow_read_last_line(text)[1])
    assert counts in ({}, {TORN_LINE: 1})
    # ... and with an event behind it, corruption with the place named
    # (``RuntimeError: generator raised StopIteration`` is what a
    # scanner call loose in a generator would give instead).
    if counts:
        with pytest.raises(TraceCorrupt, match="<trace>:2: "):
            _read_quietly(_GOOD_LINE + text + "\n" + _GOOD_LINE)
        with pytest.raises(TraceCorrupt, match="<trace>:2: "):
            list(read_trace(io.StringIO(_GOOD_LINE + text), strict=True))


#: Lines around the reader's fast path: a whole event, then keys
#: dropped, added, reordered and retyped one draw at a time.
_EVENT_LIKE_LINES = st.builds(
    lambda items, dropped, added, suffix: json.dumps(
        {**{k: v for k, v in items if k not in dropped}, **added},
        separators=(",", ":"),
    ) + suffix,
    suffix=st.sampled_from(["", "", "", " ", "x", "{}", "]"]),
    items=st.sampled_from([
        {"t": 2.5, "run": "r1", "type": "CacheHit", "store": "s", "cid": "c"},
        {"t": 3, "run": "r1", "type": "PacketDropped", "link": "l",
         "count": 2},
        {"t": 4.0, "run": "r1", "type": "CoverageGap", "duration": 1.5},
    ]).flatmap(lambda line: st.permutations(list(line.items()))),
    dropped=st.sets(st.sampled_from(
        ["t", "run", "type", "cid", "count", "duration"]), max_size=2),
    added=st.dictionaries(
        st.sampled_from(["t", "type", "cid", "count", "tier", "hops"]),
        st.sampled_from([0, 1.5, "x", "CacheMiss", "Future", None, [1]]),
        max_size=2,
    ),
)


@settings(max_examples=400, deadline=None)
@given(line=_EVENT_LIKE_LINES | _TEXT.map(lambda t: t.replace("\n", " ")))
def test_read_trace_last_line_follows_the_slow_spelling(line):
    events, counts = _read_quietly(_GOOD_LINE + line)
    expected_events, expected_counts = _slow_read_last_line(line)
    assert repr(events) == repr([_GOOD] + expected_events)
    assert counts == expected_counts


@pytest.fixture(scope="module")
def two_run_trace() -> str:
    """A real trace: an Xftp then a SoftStage download, gauges on."""
    from repro.experiments.params import MicrobenchParams
    from repro.experiments.runner import run_download
    from repro.util import MB

    buffer = io.StringIO()
    params = MicrobenchParams(file_size=2 * MB, chunk_size=1 * MB)
    for system in ("xftp", "softstage"):
        run_download(system, params=params, seed=1, trace_path=buffer,
                     gauges=True)
    return buffer.getvalue()


def test_a_trace_cut_at_every_byte_of_its_last_line_loses_at_most_that_line(
    two_run_trace
):
    head, last = two_run_trace[:-1].rsplit("\n", 1)
    head += "\n"
    whole = list(read_trace(io.StringIO(two_run_trace), strict=True))
    assert len({s.run_id for s in whole}) == 2 and len(whole) > 50
    # Exported lines are ASCII: a byte offset is a character offset.
    assert last.isascii() and last.startswith("{") and last.endswith("}")
    line = last + "\n"
    for cut in range(len(line) + 1):
        counts: dict = {}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            events = list(read_trace(
                io.StringIO(head + line[:cut]), unknown_counts=counts
            ))
        if cut >= len(last):  # whole, with or without its newline
            assert (events, counts, caught) == (whole, {}, [])
        elif cut == 0:  # the writer died between two lines
            assert (events, counts, caught) == (whole[:-1], {}, [])
        else:
            assert (events, counts) == (whole[:-1], {TORN_LINE: 1}), cut
            (warning,) = caught
            assert "torn final trace line" in str(warning.message)
