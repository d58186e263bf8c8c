"""The event catalogue is closed: every type in ``EVENT_TYPES`` is
emitted somewhere, consumed by some view and named in DESIGN.md §7."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import pytest

from repro.metrics.collector import _EVENT_METRICS
from repro.obs.events import EVENT_TYPES, GaugeSample
from repro.obs.flight import InvariantAuditor
from repro.obs.wide import _HANDLERS

REPO = Path(__file__).resolve().parents[2]


def constructed_events(source: str) -> set[str]:
    """The ``repro.obs.events`` classes a module calls: through a name
    ``from repro.obs.events import X [as Y]`` binds, or as ``ev.X`` where
    ``ev`` is that module.  A same-named class from elsewhere
    (``errors.CacheMiss``) is not the event."""
    tree = ast.parse(source)
    names, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "repro.obs.events":
            names.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "repro.obs":
            modules.update(a.asname or a.name for a in node.names
                           if a.name == "events")
    built = set()
    for node in ast.walk(tree):
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
