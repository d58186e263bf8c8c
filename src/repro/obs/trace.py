"""JSONL trace export and offline replay.

A :class:`TraceExporter` subscribes to a bus and appends one JSON
object per event::

    {"t": 12.5, "run": "seed0", "type": "ChunkFetched", "cid": "…", ...}

Because event fields are JSON primitives and Python's ``json`` module
round-trips floats exactly, replaying a trace through a fresh
:class:`~repro.metrics.collector.MetricsCollector` reproduces the live
collector's ``report()`` and gauge ``timelines()`` bit-for-bit (events
are replayed in recorded order, so streaming statistics accumulate
identically and each run's ticks are kept as they were published).

The line format is defined as what the standard ``json`` encoder with
``(",", ":")`` separators writes for the dict of ``t``, ``run``,
``type`` and then the event's fields — with one exception, so that a
run's gauge names are stated once: a :class:`GaugeSample` line omits
``"gauges"`` when they equal the names of the previous tick of the
same run that the same exporter wrote::

    {"t":0.0,"run":"seed0","type":"GaugeSample","gauges":["a","b"],"values":[1.0,2.0]}
    {"t":0.5,"run":"seed0","type":"GaugeSample","values":[1.5,2.0]}

:func:`read_trace` keeps the last names it read for each run and puts
them back, so every consumer sees whole ticks.

The exporter produces those bytes from a line layout compiled once per
event class (:func:`_line_spec`) rather than by reflecting over every
event, and the reader takes a line apart the same way: one call of the
``json`` C scanner (:func:`repro.obs.jsonl.decode_line` is the
definition) and a per-class :func:`_read_spec` instead of
``json.loads`` and keyword matching per line.
``tests/obs/test_trace_identity.py`` holds both to their definitions.
"""

from __future__ import annotations

import warnings
from json.encoder import JSONEncoder, encode_basestring_ascii
from operator import attrgetter, itemgetter
from typing import IO, Iterator, Optional, Union

from repro.errors import TraceCorrupt
from repro.obs.bus import EventBus, Stamped
from repro.obs.events import (
    ENVELOPE_KEYS,
    EVENT_TYPES,
    GaugeSample,
    event_schema,
)
from repro.obs.jsonl import JsonlSink, decode_line, opened, scan_line

#: ``unknown_counts`` key under which :func:`read_trace` counts a torn
#: final line (no event type can be named this).
TORN_LINE = "<torn line>"

_INF = float("inf")
_float_repr = float.__repr__
_int_repr = int.__repr__
#: Encodes whatever the exact-type arms of ``TraceExporter._on_event``
#: leave: ``bool``, ``None``, non-finite floats, ``str``/``int``/``float``
#: subclasses.
_encode_other = JSONEncoder(separators=(",", ":")).encode

#: Event class -> its compiled :func:`_line_spec`, filled on first sight.
_LINE_SPECS: dict[type, tuple] = {}

#: ``Stamped(time, run_id, event)`` is a Python-level ``__new__`` around
#: this call; the reader makes it directly, once per line.
_tuple_new = tuple.__new__


def _line_spec(cls: type, field_names: Optional[tuple] = None) -> tuple:
    """The JSONL line layout ``(getter, template)`` of event class ``cls``.

    ``getter(stamped)`` returns the line's values — time, run id, then
    the event's fields in schema order (or just ``field_names``) — and
    ``template`` is the line with every key pre-encoded and one ``%s``
    per value.
    """
    name, schema_fields = event_schema(cls)
    if field_names is None:
        field_names = schema_fields

    def key(text: str) -> str:
        return encode_basestring_ascii(text).replace("%", "%%")

    template = (
        f'{{"t":%s,"run":%s,"type":{key(name)}'
        + "".join(f",{key(field)}:%s" for field in field_names)
        + "}\n"
    )
    getter = attrgetter(
        "time", "run_id", *(f"event.{field}" for field in field_names)
    )
    return getter, template


#: The layout of a tick that repeats its run's last written names.
_TICK_VALUES = _line_spec(GaugeSample, ("values",))


class TraceExporter(JsonlSink):
    """Writes every bus event to a JSONL file (or file-like object)."""

    def __init__(self, path_or_file: Union[str, IO[str]]) -> None:
        super().__init__(path_or_file)
        self._bus: Optional[EventBus] = None
        #: Run id -> the gauge names of the last tick of that run this
        #: exporter wrote.
        self._gauge_names: dict[str, tuple] = {}

    def attach(self, bus: EventBus) -> "TraceExporter":
        self._bus = bus
        bus.subscribe_all(self._on_event)
        return self

    def _on_event(self, stamped: Stamped) -> None:
        cls = type(stamped.event)
        spec = _LINE_SPECS.get(cls)
        if spec is None:
            spec = _LINE_SPECS[cls] = _line_spec(cls)
        if cls is GaugeSample:
            gauges = stamped.event.gauges
            written = self._gauge_names
            if written.get(stamped.run_id) == gauges:
                spec = _TICK_VALUES
            else:
                written[stamped.run_id] = gauges
        getter, template = spec
        texts = []
        # Exact types only, each arm being what ``json``'s own encoder
        # does for that type; everything else goes through it.
        for value in getter(stamped):
            kind = type(value)
            if kind is str:
                text = encode_basestring_ascii(value)
            elif kind is float and -_INF < value < _INF:
                text = _float_repr(value)
            elif kind is int:
                text = _int_repr(value)
            else:
                text = _encode_other(value)
            texts.append(text)
        self._fh.write(template % tuple(texts))

    def close(self) -> None:
        """Detach from the bus and close the file (if we opened it)."""
        if self._bus is not None:
            self._bus.unsubscribe_all(self._on_event)
            self._bus = None
        super().close()


def _read_spec(cls: type, field_names: Optional[tuple] = None) -> tuple:
    """How :func:`read_trace` decodes a whole line of event class
    ``cls``: ``(cls, values_of, width)``.  ``values_of(record)`` is the
    line's time, run id and the event's fields in constructor order (or
    just ``field_names``), fetched in one C call; ``width`` is the
    number of keys a line of this layout holds."""
    if field_names is None:
        field_names = event_schema(cls)[1]
    return (cls, itemgetter("t", "run", *field_names),
            len(ENVELOPE_KEYS) + len(field_names))


#: Wire name -> its :func:`_read_spec`.  A ``GaugeSample`` line's fast
#: layout is the one without names (class ``None``: the reader puts its
#: run's last names back); a named tick takes the careful path, once per
#: run.
_READ_SPECS = {name: _read_spec(cls) for name, cls in EVENT_TYPES.items()}
_READ_SPECS["GaugeSample"] = _read_spec(None, ("values",))


def _corrupt(lines: IO[str], line: str, behind: int,
             problem: str = "is not a torn last line") -> TraceCorrupt:
    """The error for an unreadable ``line`` with ``behind`` lines after
    it.  Its number is counted here, on the way out — the exhausted file
    is rewound and its lines counted — so the reader keeps no counter
    per event; a stream that cannot rewind goes without."""
    try:
        lines.seek(0)
        lineno = sum(1 for _ in lines) - behind
    except (OSError, ValueError):  # io.UnsupportedOperation is both
        lineno = None
    return TraceCorrupt(
        getattr(lines, "name", None), lineno,
        f"unreadable trace line {line[:40]!r} that {problem}",
    )


def read_trace(
    path_or_file: Union[str, IO[str]],
    strict: bool = False,
    unknown_counts: Optional[dict[str, int]] = None,
) -> Iterator[Stamped]:
    """Yield :class:`Stamped` events from a JSONL trace, in file order.

    Traces written by a *newer* code version may contain event types
    (or event fields) this version does not know.  By default those
    records are skipped (unknown fields: dropped) with one
    :func:`warnings.warn` per unknown name, so old code can still
    replay the rest of the trace; pass ``strict=True`` to raise
    instead.  ``unknown_counts``, if given, is a dict the reader
    fills with ``{type_name: skipped_record_count}``.

    A process killed mid-run leaves a torn last line (the exporter
    writes through a buffer).  A *final* line that is not a JSON object
    with the envelope's ``"t"``, ``"run"`` and ``"type"`` is therefore
    skipped with a warning and counted under :data:`TORN_LINE`; the
    same line with anything after it is corruption and raises
    :class:`~repro.errors.TraceCorrupt`, which names the file and the
    line, as does ``strict=True``.

    A ``GaugeSample`` line without ``"gauges"`` gets the names of the
    last named tick of its run read before it.  With none, the line is
    skipped with one warning and counted under ``"GaugeSample"`` (a
    trace cut at the front, say), or raises ``TraceCorrupt`` under
    ``strict=True``.
    """
    warned: set[str] = set()
    #: Run id -> the names of its last named tick read so far.
    gauge_names: dict = {}
    with opened(path_or_file) as lines:
        lines_left = iter(lines)
        for line in lines_left:
            line = line.strip()
            if not line:
                continue
            try:
                # ``jsonl.decode_line``'s fast path, unrolled, for a
                # whole line of a known event holding exactly its
                # schema's keys: no frame per event but the event's own
                # constructor.
                record, end = scan_line(line, 0)
                cls, values_of, width = _READ_SPECS[record["type"]]
                if end != len(line) or len(record) != width:
                    raise ValueError
                values = values_of(record)
                if cls is None:  # a tick without names: its run's last
                    cls = GaugeSample
                    values = (*values[:2], gauge_names[values[1]], values[2])
            except (StopIteration, ValueError, LookupError, TypeError):
                pass  # any other line: from scratch, by the rules above
            else:
                yield _tuple_new(
                    Stamped, (values[0], values[1], cls(*values[2:]))
                )
                continue
            try:
                record = decode_line(line)
                type_name = record.pop("type")
                time = record.pop("t")
                run_id = record.pop("run")
                cls = EVENT_TYPES.get(type_name)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                # Torn if nothing but blank lines follow, else corrupt.
                behind, final = 0, True
                for rest in lines_left:
                    behind += 1
                    if rest.strip():
                        final = False
                        break
                if strict or not final:
                    behind += sum(1 for _ in lines_left)
                    raise _corrupt(lines, line, behind) from exc
                if unknown_counts is not None:
                    unknown_counts[TORN_LINE] = (
                        unknown_counts.get(TORN_LINE, 0) + 1
                    )
                warnings.warn(
                    f"skipping torn final trace line {line[:40]!r} "
                    f"(trace of a run that died?)",
                    stacklevel=2,
                )
                break
            if cls is None:
                if strict:
                    raise KeyError(f"unknown event type {type_name!r} in trace")
                if unknown_counts is not None:
                    unknown_counts[type_name] = unknown_counts.get(type_name, 0) + 1
                if type_name not in warned:
                    warned.add(type_name)
                    warnings.warn(
                        f"skipping unknown event type {type_name!r} "
                        f"(trace written by a newer version?)",
                        stacklevel=2,
                    )
                continue
            if (cls is GaugeSample and "gauges" not in record
                    and "values" in record):
                names = gauge_names.get(run_id)
                if names is None:
                    if strict:
                        raise _corrupt(
                            lines, line, sum(1 for _ in lines_left),
                            "has no gauge names and no named tick of its "
                            "run before it",
                        )
                    if unknown_counts is not None:
                        unknown_counts[type_name] = (
                            unknown_counts.get(type_name, 0) + 1
                        )
                    if "GaugeSample<no names>" not in warned:
                        warned.add("GaugeSample<no names>")
                        warnings.warn(
                            f"skipping GaugeSample line(s) of run "
                            f"{run_id!r} without gauge names: no named "
                            f"tick of the run before them",
                            stacklevel=2,
                        )
                    continue
                record["gauges"] = names
            try:
                event = cls(**record)
            except TypeError:
                if strict:
                    raise
                known = event_schema(cls)[1]
                extra = sorted(set(record).difference(known))
                key = f"{type_name}.{','.join(extra)}"
                if key not in warned:
                    warned.add(key)
                    warnings.warn(
                        f"dropping unknown field(s) {extra} on {type_name} "
                        f"(trace written by a newer version?)",
                        stacklevel=2,
                    )
                try:
                    event = cls(**{k: v for k, v in record.items() if k in known})
                except TypeError:
                    # Also missing required fields: unreadable, skip it.
                    if unknown_counts is not None:
                        unknown_counts[type_name] = (
                            unknown_counts.get(type_name, 0) + 1
                        )
                    continue
            if cls is GaugeSample:
                gauge_names[run_id] = event.gauges
            yield Stamped(time, run_id, event)


def replay_trace(path_or_file: Union[str, IO[str]]):
    """Replay a JSONL trace into a fresh :class:`MetricsCollector`.

    Returns the collector; its ``report()`` and ``timelines()`` equal
    a live collector's over the traced run.
    """
    from repro.metrics.collector import MetricsCollector

    collector = MetricsCollector()
    bus = EventBus()
    collector.attach(bus)
    for stamped in read_trace(path_or_file):
        bus.publish(stamped)
    return collector
