"""The exporter's compiled line layout writes the trace format's
definition — ``json.dumps`` of ``{"t", "run", "type", **asdict(event)}``
with compact separators — byte for byte, for every event class and
every value a field can hold."""

import io
import json
import typing
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def reference_line(stamped: Stamped) -> str:
    """The format's definition (what the exporter ran per event until
    it compiled one line layout per class)."""
    record = {
        "t": stamped.time,
        "run": stamped.run_id,
        "type": type(stamped.event).__name__,
    }
    record.update(asdict(stamped.event))
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
    Stamped(_Ratio(1.5), "r", GaugeSample(gauge="g", value=_Ratio(0.1))),
    Stamped(_Level(2), "r", PacketDropped(link="l", reason="loss", count=_Level(3))),
    # By value, not by annotation: a bool in an int field, an int in a
    # float field, None and non-finite floats.
    Stamped(True, "r", PacketDropped(link="l", reason="loss", count=True)),
    Stamped(3, "r", GaugeSample(gauge="g", value=4)),
    Stamped(float("inf"), "r",
            ChunkStaged(cid="c", staging_latency=None,
                        control_rtt=float("nan"))),
    Stamped(-0.0, "r", GaugeSample(gauge="g", value=float("-inf"))),
], ids=["str-subclass", "float-subclass", "int-subclass", "bool", "int",
        "none-nan-inf", "negative-zero"])
def test_values_outside_the_exact_type_arms_match_the_reference(stamped):
    assert exported(stamped) == reference_line(stamped)
