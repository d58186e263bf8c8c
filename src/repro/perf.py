"""Persistent performance trajectory: ``BENCH_*.json`` recorders.

Every perf-sensitive harness (the kernel microbench, the parallel
sweep bench) appends its measured numbers to a small JSON file —
``BENCH_kernel.json``, ``BENCH_sweep.json`` — so the repository keeps
a *trajectory* of how fast the simulator is, and future changes can
assert "no regression" against a recorded baseline instead of a
guessed constant.

Wall-clock numbers are only comparable on the same machine, so every
entry carries a coarse machine :func:`fingerprint` (platform, CPU
count, Python version) and :func:`baseline` only consults entries
recorded on a matching machine.  Deterministic metrics (heap pushes
per packet, event counts) are machine-independent and can be checked
against any entry.

Usage::

    from repro import perf

    perf.record("kernel", {"events_per_sec": 1.3e6, "pushes_per_packet": 2.0})
    ok, base = perf.check_regression("kernel", "events_per_sec",
                                     current=1.1e6, allowed_drop=0.30)
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover
    # Every run imports this module (the registry stamps records with
    # the machine fingerprint); only the bench drivers build parsers.
    import argparse

#: Entries kept per BENCH file (oldest dropped first).
HISTORY_LIMIT = 50


def fingerprint() -> str:
    """A coarse machine identity wall-clock numbers are comparable on."""
    import platform  # here, not above: a run that records nothing never needs it

    return (
        f"{platform.system().lower()}-{platform.machine()}"
        f"-cpu{os.cpu_count() or 1}"
        f"-py{sys.version_info.major}.{sys.version_info.minor}"
    )


def bench_path(kind: str) -> str:
    """Where ``BENCH_{kind}.json`` lives (``REPRO_BENCH_DIR`` or cwd)."""
    directory = os.environ.get("REPRO_BENCH_DIR") or "."
    return os.path.join(directory, f"BENCH_{kind}.json")


def load(kind: str) -> dict:
    """The recorded trajectory (``{"kind": ..., "entries": [...]}``)."""
    path = bench_path(kind)
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return {"kind": kind, "entries": []}
    payload.setdefault("entries", [])
    return payload


def record(kind: str, metrics: dict, label: str = "") -> dict:
    """Append one measurement entry and rewrite ``BENCH_{kind}.json``.

    ``metrics`` must be JSON-serialisable (numbers, strings).  Returns
    the full payload after the append.
    """
    payload = load(kind)
    payload["kind"] = kind
    payload["entries"].append(
        {
            "label": label,
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "machine": fingerprint(),
            "metrics": dict(metrics),
        }
    )
    payload["entries"] = payload["entries"][-HISTORY_LIMIT:]
    path = bench_path(kind)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def baseline(
    kind: str,
    metric: str,
    same_machine: bool = True,
    mode: str = "max",
) -> Optional[float]:
    """The reference value of ``metric`` from the recorded trajectory.

    ``mode="max"`` (the default) takes the best value ever recorded —
    the strictest regression reference for higher-is-better metrics;
    ``mode="min"`` is the mirror for lower-is-better metrics;
    ``mode="latest"`` takes the most recent entry.  With
    ``same_machine=True`` only entries whose
    fingerprint matches this machine count (use for wall-clock
    metrics); pass ``False`` for deterministic metrics like heap
    pushes per packet.  Returns ``None`` when no eligible entry holds
    the metric — i.e. no baseline exists yet.
    """
    entries = load(kind)["entries"]
    me = fingerprint()
    values = [
        entry["metrics"][metric]
        for entry in entries
        if metric in entry.get("metrics", {})
        and (not same_machine or entry.get("machine") == me)
    ]
    if not values:
        return None
    if mode == "max":
        return max(values)
    if mode == "min":
        return min(values)
    return values[-1]


def check_regression(
    kind: str,
    metric: str,
    current: float,
    allowed_drop: float = 0.30,
    same_machine: bool = True,
    higher_is_better: bool = True,
) -> tuple[bool, Optional[float]]:
    """Whether ``current`` is within ``allowed_drop`` of the baseline.

    Returns ``(ok, baseline_value)``.  With no recorded baseline the
    check trivially passes (``(True, None)``) — the caller should then
    :func:`record` the first entry.
    """
    base = baseline(
        kind,
        metric,
        same_machine=same_machine,
        mode="max" if higher_is_better else "min",
    )
    if base is None or base == 0:
        return True, base
    if higher_is_better:
        return current >= base * (1.0 - allowed_drop), base
    return current <= base * (1.0 + allowed_drop), base


def ledger_main(
    kind: str,
    parser: argparse.ArgumentParser,
    measure: Callable[[argparse.Namespace], dict],
    gates: Sequence[Callable[[argparse.Namespace, dict], Iterable[str]]] = (),
    render: Optional[Callable[[dict], str]] = None,
    then: Optional[Callable[[argparse.Namespace, dict], None]] = None,
    argv: Optional[Sequence[str]] = None,
) -> int:
    """The standalone driver every ``BENCH_{kind}.json`` ledger shares.

    ``parser`` arrives with the bench's own flags and gains ``--label``,
    ``--no-record`` and ``--check``.  ``measure(args)`` returns the flat
    metrics dict, which is printed (``render(metrics)``, by default one
    aligned ``key = value`` line per metric) and, unless
    ``--no-record``, appended to the ledger.  Each gate is
    ``gate(args, metrics)`` yielding one string per failure — a gate
    that only applies under ``--check`` reads ``args.check`` itself;
    ``then(args, metrics)`` runs after the record (``--registry``
    deposits).  Returns the process exit code: 1, with the failures on
    stderr, when any gate failed.
    """
    parser.add_argument("--label", default="")
    parser.add_argument("--no-record", action="store_true",
                        help="measure and print only")
    parser.add_argument("--check", action="store_true",
                        help="fail (exit 1) when a gate of this ledger "
                             "reports a regression")
    args = parser.parse_args(argv)
    try:
        metrics = measure(args)
    except ConfigurationError as exc:
        parser.error(str(exc))  # bad flags, worded by the layer that read them
    if render is not None:
        print(render(metrics))
    else:
        width = max(map(len, metrics))
        for key in sorted(metrics):
            value = metrics[key]
            print(f"{key:>{width}} = {value:,.2f}" if isinstance(value, float)
                  else f"{key:>{width}} = {value}")
    failures = [failure for gate in gates for failure in gate(args, metrics)]
    if not args.no_record:
        record(kind, metrics, label=args.label)
        print(f"\nrecorded to {bench_path(kind)}")
    if then is not None:
        then(args, metrics)
    if failures:
        print("\nPERF REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0
