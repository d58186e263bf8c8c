"""The command families behind ``python -m repro``.

One module per family (``demo``, ``experiments``, ``trace``, ``runs``,
``slo``, ``serve``), each a ``register(subparsers)`` plus its handlers.
A handler renders: the answers come from the module that owns the data
(:mod:`repro.obs.registry`, :mod:`repro.obs.slo`,
:mod:`repro.obs.explain`), the functions ``repro serve`` answers its
endpoints with.  This package holds what several families declare.
"""

from __future__ import annotations

import math
from contextlib import nullcontext

from repro.core.policy import available_policies
from repro.errors import ConfigurationError
from repro.util import MB


def command(subparsers, name: str, fn, **kwargs):
    """A leaf command's parser, bound to its handler ``fn(args)``."""
    parser = subparsers.add_parser(name, **kwargs)
    parser.set_defaults(fn=fn)
    return parser


def registry_dir_flag(parser) -> None:
    parser.add_argument("--registry-dir", metavar="DIR",
                        help="registry directory (default .repro_runs, or "
                             "REPRO_RUNS_DIR)")


def policy_flag(parser, help: str) -> None:  # noqa: A002 (argparse's word)
    """``--policy NAME``; the handler validates with :func:`policy_arg`."""
    parser.add_argument("--policy", metavar="NAME", help=help)


def json_flag(parser, what: str = "", endpoint: str = "") -> None:
    """``--json``, described as the twin of an HTTP endpoint's body."""
    parser.add_argument(
        "--json", action="store_true",
        help=(f"emit {what} as JSON (the same serialization the HTTP "
              f"{endpoint} endpoint uses)") if what else None,
    )


def trace_sink(path):
    """``--trace PATH`` as a context: the one open file every run of
    the command appends to (``None`` without a path), closed on exit."""
    return open(path, "w", encoding="utf-8") if path else nullcontext()


def file_bytes(file_mb: float) -> int:
    """``--file-mb`` in bytes; ``main`` words a non-finite size as the
    exit message, the way the layers below reject one that is not > 0."""
    if not math.isfinite(file_mb):
        raise ConfigurationError(f"--file-mb must be finite, got {file_mb}")
    return int(file_mb * MB)


def policy_arg(name):
    """Validate a ``--policy`` value before any simulation runs."""
    if name is not None and name not in available_policies():
        options = ", ".join(sorted(available_policies()))
        raise SystemExit(
            f"unknown staging policy {name!r} (available: {options})"
        )
    return name

