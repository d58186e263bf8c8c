"""Exception hierarchy shared across the reproduction."""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A component was configured with invalid or inconsistent values."""


class AddressError(ReproError):
    """Malformed or unroutable XIA address."""


class RoutingError(ReproError):
    """No route exists for a destination."""


class TransportError(ReproError):
    """A transport-level failure (reset, too many retries, migration)."""


class CacheMiss(ReproError):
    """A requested chunk is not present in a content store."""


class ChunkIntegrityError(ReproError):
    """A chunk's payload does not hash to its CID."""


class TraceFormatError(ReproError):
    """A connectivity/mobility trace file is malformed."""


class TraceCorrupt(ReproError, ValueError):
    """A JSONL event trace holds an unreadable line that is not its last.

    ``path`` is the trace's file name (``None`` for an unnamed stream)
    and ``lineno`` the 1-based number of the offending line (``None``
    when the stream cannot be rewound to count it); the decoding error
    is the ``__cause__``.
    """

    def __init__(self, path, lineno, problem: str) -> None:
        where = f"{path or '<trace>'}:{lineno if lineno is not None else '?'}"
        super().__init__(f"{where}: {problem}")
        self.path = path
        self.lineno = lineno


class PacketLifecycleError(ReproError):
    """A recycled packet was touched after release (see xia.packet)."""
