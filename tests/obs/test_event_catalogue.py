"""The event catalogue is closed: every type in ``EVENT_TYPES`` is
emitted somewhere, consumed by some view and named in DESIGN.md §7,
and every field of it is read by a handler of its type.

And it holds state changes, not frames: the run totals are built only
where a run ends, and no function on the packet path builds an event."""

import ast
import inspect
import re
import textwrap
from collections import defaultdict
from dataclasses import fields
from pathlib import Path
from typing import Optional

import pytest

from repro.metrics.collector import _EVENT_METRICS, MetricsCollector
from repro.obs.events import EVENT_TYPES, GaugeSample
from repro.obs.flight import InvariantAuditor
from repro.obs.wide import _HANDLERS

REPO = Path(__file__).resolve().parents[2]


def _scope(tree: ast.Module, qualname: str) -> ast.AST:
    """The function or class ``qualname`` (``Class.method``) defines."""
    node = tree
    for name in qualname.split("."):
        node = next(
            child for child in ast.iter_child_nodes(node)
            if isinstance(child, (ast.ClassDef, ast.FunctionDef))
            and child.name == name
        )
    return node


def constructed_events(source: str, scope: Optional[str] = None) -> set[str]:
    """The ``repro.obs.events`` classes a module calls: through a name
    ``from repro.obs.events import X [as Y]`` binds, or as ``ev.X`` where
    ``ev`` is that module.  A same-named class from elsewhere
    (``errors.CacheMiss``) is not the event.  With ``scope``, only the
    calls inside that function or class count."""
    tree = ast.parse(source)
    names, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "repro.obs.events":
            names.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "repro.obs":
            modules.update(a.asname or a.name for a in node.names
                           if a.name == "events")
    built = set()
    for node in ast.walk(tree if scope is None else _scope(tree, scope)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in names:
            built.add(names[func.id])
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in modules):
            built.add(func.attr)
    return built


#: Event class name -> the modules under ``src/repro`` that construct it.
SITES = defaultdict(list)
for _path in sorted((REPO / "src" / "repro").rglob("*.py")):
    for _name in constructed_events(_path.read_text(encoding="utf-8")):
        SITES[_name].append(str(_path))

#: ``GaugeSample`` is the collector's one special case (it needs the
#: stamped time, so it bypasses the event→metric table).
CONSUMED = set(_EVENT_METRICS) | set(_HANDLERS) | set(InvariantAuditor._BOOKS) | {
    GaugeSample
}

_DESIGN = (REPO / "DESIGN.md").read_text(encoding="utf-8")
_SECTION_7 = _DESIGN[_DESIGN.index("## 7. "):_DESIGN.index("## 8. ")]
_TABLE = _SECTION_7[_SECTION_7.index("| layer | events |"):]
#: DESIGN.md §7's taxonomy table (up to the first blank line after it).
TAXONOMY = _TABLE[:_TABLE.index("\n\n")]


@pytest.mark.parametrize("name", EVENT_TYPES)
def test_event_type_is_emitted_consumed_and_documented(name):
    cls = EVENT_TYPES[name]
    assert SITES[name], f"{name} is never constructed under src/repro"
    assert cls in CONSUMED, f"no collector/fold/auditor table consumes {name}"
    assert re.search(rf"`{name}\b", TAXONOMY), (
        f"DESIGN.md §7's taxonomy table omits {name}"
    )


def handlers(cls: type) -> list:
    """The functions the collector, the fold and the auditor run on an
    event of class ``cls`` (the collector keeps a ``GaugeSample`` in its
    ``_on_event`` itself)."""
    found = [table[cls] for table in
             (_EVENT_METRICS, _HANDLERS, InvariantAuditor._BOOKS)
             if cls in table]
    if cls is GaugeSample:
        found.append(MetricsCollector._on_event)
    return found


def fields_read(handler) -> set[str]:
    """The attributes ``handler`` reads off the event: its last
    parameter, or a name bound to that parameter's ``.event``."""
    function = ast.parse(textwrap.dedent(inspect.getsource(handler))).body[0]
    names = {function.args.args[-1].arg}
    for node in ast.walk(function):
        if (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "event"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in names):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {
        node.attr for node in ast.walk(function)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in names
    }


#: ``Type.field`` -> why it stays although no handler reads it: the key
#: that says what a count or happening is of, and the crash record.
UNREAD = {
    "PacketDropped.link": "key: the link direction the run total is of",
    "SegmentRetransmitted.session": "key: the sender session the run "
                                    "total is of",
    "SegmentTimeout.session": "key: the sender session the run total is of",
    "SessionMigrated.session": "key: the sender session that moved",
    "CacheHit.store": "key: the store that served the hit",
    "CacheEvicted.cid": "key: the chunk that left the store",
    "VnfStageFailed.vnf": "key: the VNF whose prefetch failed",
    "ProcessFailed.process": "the one record of a crash, which people read: "
                             "the process that died",
    "ProcessFailed.error": "the one record of a crash, which people read: "
                           "what it raised",
}


def _unread(name: str) -> list[str]:
    cls = EVENT_TYPES[name]
    read = set().union(*map(fields_read, handlers(cls)))
    return [f"{name}.{f.name}" for f in fields(cls) if f.name not in read]


@pytest.mark.parametrize("name", EVENT_TYPES)
def test_every_field_of_an_event_has_a_reader(name):
    unread = [field for field in _unread(name) if field not in UNREAD]
    assert not unread, (
        f"no handler of {name} reads {unread}: delete the field, or say in "
        f"UNREAD why it stays"
    )


def test_the_unread_table_is_live():
    unread = {field for name in EVENT_TYPES for field in _unread(name)}
    assert set(UNREAD) <= unread, sorted(set(UNREAD) - unread)


def test_a_handler_reads_through_its_parameter_or_its_event():
    def book(self, stamped, event):
        return event.cid, stamped.time

    def on_event(self, stamped):
        event = stamped.event
        return event.gauges, self.values

    assert fields_read(book) == {"cid"}
    assert fields_read(on_event) == {"event", "gauges"}


#: Event types that are run totals: counted by the objects as the run
#: goes and published once, by ``run_download``, when it ends.
RUN_TOTALS = ("PacketDropped", "SegmentRetransmitted", "SegmentTimeout",
              "CoordinatorTick")


@pytest.mark.parametrize("name", RUN_TOTALS)
def test_a_run_total_is_built_only_where_the_run_ends(name):
    assert SITES[name] == [
        str(REPO / "src" / "repro" / "experiments" / "runner.py")
    ]


#: The packet path, by module: what every forwarded hop, delivered
#: packet and segment round trip runs (DESIGN.md §15).  Per-packet
#: happenings are counted on the objects, never built into events.
HOP_FUNCTIONS = {
    "net/link.py": (
        "Medium._tx_done", "LinkDirection.enqueue", "LinkDirection.clear",
        "LinkDirection._lost_on_air", "LinkDirection._arrive",
        "LinkDirection.airtime", "Port.send", "Port.deliver",
    ),
    "net/wireless.py": ("WirelessDirection.airtime",),
    "net/nodes.py": ("Device.receive", "Host.send", "Host.handle_packet"),
    "xia/router.py": (
        "XIARouter.send", "XIARouter._route", "XIARouter.handle_packet",
        "XIARouter._deliver_local", "AccessPoint.handle_packet",
    ),
    "transport/reliable.py": (
        "SenderSession._pump", "SenderSession._pace", "SenderSession._wake",
        "SenderSession._emit", "SenderSession.on_packet",
        "SenderSession._fast_retransmit",
        "ReceiverSession.on_packet", "ReceiverSession._on_data",
        "ReceiverSession._send_ack",
    ),
}


@pytest.mark.parametrize("module", HOP_FUNCTIONS)
def test_no_packet_path_function_builds_an_event(module):
    source = (REPO / "src" / "repro" / module).read_text(encoding="utf-8")
    built = {
        qualname: constructed_events(source, qualname)
        for qualname in HOP_FUNCTIONS[module]
    }
    assert built == {qualname: set() for qualname in HOP_FUNCTIONS[module]}


def test_a_scoped_search_sees_only_that_function():
    source = (
        "from repro.obs.events import CacheHit, CacheMiss\n"
        "class Store:\n"
        "    def get(self):\n"
        "        CacheHit(store='s', cid='c')\n"
        "    def miss(self):\n"
        "        CacheMiss(store='s', cid='c')\n"
    )
    assert constructed_events(source, "Store.get") == {"CacheHit"}
    assert constructed_events(source, "Store") == {"CacheHit", "CacheMiss"}
    with pytest.raises(StopIteration):
        constructed_events(source, "Store.put")


def test_a_same_named_class_from_elsewhere_is_not_a_construction():
    source = (
        "from repro import errors\n"
        "from repro.errors import CacheMiss\n"
        "raise errors.CacheMiss('cid')\n"
        "raise CacheMiss('cid')\n"
        "class CacheMiss(Exception): pass\n"
    )
    assert constructed_events(source) == set()


def test_an_aliased_or_module_qualified_event_call_is_a_construction():
    source = (
        "from repro.obs import events as ev\n"
        "from repro.obs.events import CacheHit, CacheMiss as CacheMissEvent\n"
        "CacheMissEvent(cid=1)\n"
        "ev.GaugeSample(name='x', value=1.0)\n"
        "CacheHit\n"
    )
    assert constructed_events(source) == {"CacheMiss", "GaugeSample"}
