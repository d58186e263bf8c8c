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


class StagingError(ReproError):
    """The staging control plane failed (no VNF, bad request, overload)."""


class TraceFormatError(ReproError):
    """A connectivity/mobility trace file is malformed."""


class PacketLifecycleError(ReproError):
    """A recycled packet was touched after release (see xia.packet)."""
