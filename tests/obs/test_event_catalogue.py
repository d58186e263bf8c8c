"""The event catalogue is closed: every type in ``EVENT_TYPES`` is
emitted somewhere, consumed by some view and named in DESIGN.md §7."""

import re
from pathlib import Path

import pytest

from repro.metrics.collector import _EVENT_METRICS
from repro.obs.events import EVENT_TYPES, GaugeSample
from repro.obs.flight import InvariantAuditor
from repro.obs.wide import _HANDLERS

REPO = Path(__file__).resolve().parents[2]
SOURCES = {
    path: path.read_text(encoding="utf-8")
    for path in sorted((REPO / "src" / "repro").rglob("*.py"))
    if path.relative_to(REPO / "src" / "repro").as_posix() != "obs/events.py"
}
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
    construction = re.compile(rf"\b{name}\(")
    sites = [str(path) for path, text in SOURCES.items() if construction.search(text)]
    assert sites, f"{name} is never constructed under src/repro"
    assert cls in CONSUMED, f"no collector/fold/auditor table consumes {name}"
    assert re.search(rf"`{name}\b", TAXONOMY), (
        f"DESIGN.md §7's taxonomy table omits {name}"
    )
