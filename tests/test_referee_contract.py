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
"""

from benchmarks.e2e.test_e2e_bench import (
    test_shims_are_removed_when_the_traced_pass_raises,
    test_traced_iteration_matches_untraced_and_restores,
)

__all__ = [
    "test_shims_are_removed_when_the_traced_pass_raises",
    "test_traced_iteration_matches_untraced_and_restores",
]
