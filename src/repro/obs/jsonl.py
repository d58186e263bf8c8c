"""The one JSONL codec: sinks, line readers and the locked append.

Traces, wide events, the run registry and the alert log are all
JSON-lines files.  What they share lives here and nowhere else: the
:class:`JsonlSink` over a path (opened and closed here) or an open file
(borrowed, only flushed); the line decoder (:func:`decode_line` over
:data:`scan_line`); the reader (:func:`read_records` over
:func:`opened`); and :func:`append`, one whole line under an advisory
``flock``, in the directory :func:`runs_dir` resolves.

Two torn-line rules exist on purpose.  Registry, alert and wide files
are append-only with many writers: a line one of them tore stops being
the last as soon as another appends, so :func:`read_records` skips an
unparseable line *anywhere*.  A trace has one writer, so only its final
line can be torn and :func:`repro.obs.trace.read_trace` treats anything
else as corruption.
"""

from __future__ import annotations

import json
import os
import warnings
from contextlib import AbstractContextManager, contextmanager
from typing import IO, Callable, Iterator, Optional, TypeVar, Union

try:  # advisory append locking (POSIX; no-op where unavailable)
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

#: Default registry directory (override with ``REPRO_RUNS_DIR``).
DEFAULT_DIR = ".repro_runs"

_Record = TypeVar("_Record")

#: The C scanner every reader here decodes a line with:
#: ``value, end = scan_line(line, 0)``.  It is the stock decoder's — the
#: settings ``json.loads`` runs with — and, like ``json._default_decoder``,
#: built once per process.
scan_line = json.JSONDecoder().scan_once


def decode_line(line: str):
    """``json.loads(line)``, minus its wrapping when the line is one
    whole JSON value with no whitespace around it (a stripped line of
    a file written here).

    ``json.loads`` spends three Python frames and two whitespace regex
    matches around one call of the scanner.  When the scanner, started
    at offset 0, consumes the line to its end, that call *is* the
    answer: it started where ``json.loads`` would have (offset 0 is
    not whitespace, or the scan had failed) and left no "extra data".
    Anything else — nothing scanned, text left over — is handed to
    ``json.loads`` itself, so what is accepted, what is returned and
    what is raised are its by construction.
    """
    try:
        value, end = scan_line(line, 0)
    except StopIteration:  # no JSON value starts at offset 0
        return json.loads(line)
    return value if end == len(line) else json.loads(line)


def runs_dir(directory: Optional[str] = None) -> str:
    """Where the registry and its alert log live: ``directory``, else
    ``REPRO_RUNS_DIR``, else :data:`DEFAULT_DIR`."""
    return directory or os.environ.get("REPRO_RUNS_DIR") or DEFAULT_DIR


class JsonlSink(AbstractContextManager):
    """A JSONL output over a path (owned) or an open file (borrowed)."""

    def __init__(self, path_or_file: Union[str, IO[str]]) -> None:
        if hasattr(path_or_file, "write"):
            self._fh: IO[str] = path_or_file
            self._owns_fh = False
            self.path: Optional[str] = None
        else:
            self._fh = open(path_or_file, "w", encoding="utf-8")
            self._owns_fh = True
            self.path = str(path_or_file)

    def close(self) -> None:
        """Flush, and close the file if this sink opened it."""
        if getattr(self._fh, "closed", False):
            return
        self._fh.flush()
        if self._owns_fh:
            self._fh.close()

    def __exit__(self, *exc_info) -> None:
        self.close()


@contextmanager
def opened(path_or_file: Union[str, IO[str]]) -> Iterator[IO[str]]:
    """The line iterator of a JSONL path (opened and closed here) or of
    an open file (the caller's to close)."""
    if hasattr(path_or_file, "read"):
        yield path_or_file
    else:
        with open(path_or_file, encoding="utf-8") as fh:
            yield fh


def read_records(
    path_or_file: Union[str, IO[str]],
    decode: Optional[Callable[[dict], _Record]] = None,
) -> Iterator:
    """Yield every non-blank line's JSON object, in file order (through
    ``decode`` when given).

    A line that does not parse (torn by a writer that died mid-append),
    that is not a JSON object, or that ``decode`` rejects (``KeyError``,
    ``TypeError``, ``ValueError``: a required key missing or of the
    wrong shape) is skipped wherever it sits; once the file is read
    through, one :func:`warnings.warn` reports how many were.
    """
    skipped = 0
    with opened(path_or_file) as lines:
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                value = decode_line(line)
                if not isinstance(value, dict):
                    raise TypeError("not a JSON object")
                record = value if decode is None else decode(value)
            except (KeyError, TypeError, ValueError):
                skipped += 1
                continue
            yield record
    if skipped:
        name = getattr(path_or_file, "name", path_or_file)
        warnings.warn(
            f"skipped {skipped} unparseable line(s) in {name} "
            f"(torn by a writer that died?)",
            stacklevel=2,
        )


def read_log(path: str, decode: Callable[[dict], _Record]) -> list[_Record]:
    """Every record of an append-only log, decoded; a log nobody has
    appended to yet is empty."""
    try:
        return list(read_records(path, decode))
    except FileNotFoundError:
        return []


def append(path: str, make_record: Callable[[int], _Record]) -> _Record:
    """Append ``make_record(count).to_json()`` to ``path`` as one whole
    line; returns the record.

    ``count`` is the number of non-blank lines already there, read
    under the same exclusive lock as the write, so concurrent writers
    (sweep workers, a live HTTP service, several CLIs) never interleave
    and sequence numbers built from it stay unique.  A torn last line
    counts, and is terminated first so the record is not glued onto it.
    Without ``fcntl`` this degrades to unlocked single-writer appends.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "ab+") as fh:
        if fcntl is not None:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            fh.seek(0)
            count, last = 0, b"\n"
            for last in fh:
                count += bool(last.strip())
            record = make_record(count)
            line = json.dumps(record.to_json(), separators=(",", ":")) + "\n"
            # Mode "a" writes always land at EOF, even after the seek
            # above; one write call keeps the line whole.
            fh.write((b"" if last.endswith(b"\n") else b"\n") + line.encode())
            fh.flush()
        finally:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
    return record
