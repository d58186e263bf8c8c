"""Command-line front door: ``python -m repro <command>``.

Commands:

- ``demo``      — the quickstart comparison (SoftStage vs Xftp);
- ``fig5``      — the XIA substrate benchmark table;
- ``sweep``     — one Fig. 6 panel (``--panel a..f``);
- ``handoff``   — the §IV-D handoff-policy comparison;
- ``traces``    — the Fig. 7 trace-driven experiment;
- ``profile``   — one profiled download (kernel hot-path table);
- ``trace``     — JSONL trace analysis (``summary`` / ``spans`` /
  ``chrome`` / ``diff`` / ``wide``);
- ``runs``      — the persistent run registry (``list`` / ``show`` /
  ``diff`` / ``gauges`` / ``why``, with ``--json`` on list/diff/why);
- ``slo``       — service-level objectives over registry records
  (``check`` exits 1 on a violation / ``alerts``);
- ``serve``     — the telemetry HTTP service over the registry
  (``/runs``, ``/diff``, ``/live`` SSE);
- ``watch``     — the live terminal dashboard against a ``serve``
  process's ``/live`` stream.

``demo`` and ``sweep`` take ``--trace PATH`` to record every run into
one multi-run JSONL trace that the ``trace`` subcommands consume.
``demo --gauges`` installs the flight recorder (sampled state gauges)
and appends each run — gauge timelines included — to the run registry
(``.repro_runs/``, override with ``REPRO_RUNS_DIR`` or
``--registry-dir``); ``--audit`` runs the invariant auditor alongside.
``demo --emit-wide [PATH]`` writes one wide event per chunk lifecycle
/ encounter / gap / handoff (``repro trace wide`` derives the same
bytes from a recorded trace); ``demo --live`` repaints the terminal
dashboard from an in-process telemetry hub while the demo runs.
``demo --policy NAME`` and ``sweep --policy NAME`` select the staging
policy for the SoftStage runs (``reactive``, ``rich``, ``mobility``,
``predictive``; see :mod:`repro.core.policy`).
"""

from __future__ import annotations

import argparse
import sys

from repro.cli import demo, experiments, runs, serve, slo, trace
from repro.errors import ConfigurationError, TraceCorrupt
from repro.obs.analyze import RunNotInTrace
from repro.obs.explain import NoWideEvents
from repro.obs.registry import RecordNotFound

#: The command families, in ``--help`` order; each registers its
#: parsers and binds every leaf command to its handler (``fn``).
FAMILIES = (demo, experiments, trace, runs, slo, serve)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for family in FAMILIES:
        family.register(sub)
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except (RecordNotFound, NoWideEvents, ConfigurationError, TraceCorrupt,
            RunNotInTrace) as exc:
        # The layers below raise these with the facts; this door words
        # them as the exit message (`repro serve` answers 404); args[0]
        # because ``str`` of a KeyError is the repr of its message.
        raise SystemExit(exc.args[0]) from None
    return 0


if __name__ == "__main__":
    sys.exit(main())
