"""The referee's contract with ``src/``, checked in tier-1.

The frozen tracer under ``benchmarks/e2e/`` patches ``owner.__dict__``
entries by name (its ``BOUNDARIES``, every public method of its
``WHOLE_CLASSES``, ``EventBus.subscribe*``, ``Packet.acquire``) and its
workloads read simulator counters such as ``sim.pool_reuses``.  A change
that removes, renames or moves one of these into a base class breaks the
referee run, not the suite; these two in-process self-tests of the
referee (a quick ``bulk_pair`` pair, traced and untraced, and a traced
pass that raises) fail here first.  Its subprocess test asserts a
wall-clock bound and stays with ``python -m pytest benchmarks/e2e``.

The collector's names are the other half: every name it counts or
observes is one the referee reads, bar ``sim.process_failures``, the one
record of a crashed process.
"""

import ast
from pathlib import Path

from benchmarks.e2e.test_e2e_bench import (
    test_shims_are_removed_when_the_traced_pass_raises,
    test_traced_iteration_matches_untraced_and_restores,
)
from benchmarks.e2e.workloads import _COLLECTOR_COUNTS, _COLLECTOR_MEANS

__all__ = [
    "test_shims_are_removed_when_the_traced_pass_raises",
    "test_traced_iteration_matches_untraced_and_restores",
]

COLLECTOR = (Path(__file__).resolve().parents[1]
             / "src" / "repro" / "metrics" / "collector.py")


def collector_names(source: str) -> set:
    """The first argument of every ``.count(...)`` / ``.observe(...)``
    call in ``source``; a name built at run time (an f-string, say)
    is kept as its source text, so it can never match a key."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("count", "observe") and node.args):
            first = node.args[0]
            names.add(first.value if isinstance(first, ast.Constant)
                      else ast.unparse(first))
    return names


def test_the_collector_keeps_only_names_the_referee_reads():
    read = set(_COLLECTOR_COUNTS) | set(_COLLECTOR_MEANS)
    assert collector_names(COLLECTOR.read_text(encoding="utf-8")) == (
        read | {"sim.process_failures"})
