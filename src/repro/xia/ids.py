"""XIA identifiers (XIDs).

XIA addresses name *principals*: hosts (HID), networks (NID), content
(CID) and services (SID).  All XIDs are 160-bit self-certifying
identifiers.  A CID is the SHA-1 hash of the chunk payload, so any
receiver can verify integrity; HIDs and SIDs are hashes of the owner's
public key, enabling AIP-style accountability.  We reproduce those
derivations faithfully (over public-key *surrogate* byte strings — the
cryptographic strength of the keys is irrelevant to the evaluation).
"""

from __future__ import annotations

import enum
import hashlib
from typing import Any

from repro.errors import AddressError

_XID_BYTES = 20  # 160-bit identifiers, as in XIA


class PrincipalType(enum.Enum):
    """The XIA principal types used by SoftStage."""

    CID = "CID"
    HID = "HID"
    NID = "NID"
    SID = "SID"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class XID:
    """An immutable 160-bit XIA identifier of a given principal type.

    Instances are interned-friendly value objects: equality and hashing
    are by ``(type, id_bytes)``.
    """

    __slots__ = ("principal_type", "id_bytes", "_hash")

    def __init__(self, principal_type: PrincipalType, id_bytes: bytes) -> None:
        if not isinstance(principal_type, PrincipalType):
            raise AddressError(f"bad principal type: {principal_type!r}")
        if len(id_bytes) != _XID_BYTES:
            raise AddressError(
                f"XID must be {_XID_BYTES} bytes, got {len(id_bytes)}"
            )
        object.__setattr__(self, "principal_type", principal_type)
        object.__setattr__(self, "id_bytes", bytes(id_bytes))
        object.__setattr__(self, "_hash", hash((principal_type, id_bytes)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("XID is immutable")

    @property
    def hex(self) -> str:
        return self.id_bytes.hex()

    @property
    def short(self) -> str:
        """First 8 hex digits — convenient for logs."""
        return self.hex[:8]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, XID)
            and self.principal_type is other.principal_type
            and self.id_bytes == other.id_bytes
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "XID") -> bool:
        if not isinstance(other, XID):
            return NotImplemented
        return (self.principal_type.value, self.id_bytes) < (
            other.principal_type.value,
            other.id_bytes,
        )

    def __repr__(self) -> str:
        return f"{self.principal_type.value}:{self.hex}"


def _sha1(data: bytes) -> bytes:
    return hashlib.sha1(data).digest()


def CID(content: bytes) -> XID:
    """Content identifier: SHA-1 hash of the chunk payload."""
    return XID(PrincipalType.CID, _sha1(content))


#: One XID object per host or network identifier for the life of the
#: process, so ``intent is hid`` holds in every scenario a process
#: builds, also for addresses ``DagAddress.host`` interned in an earlier
#: one (DESIGN.md §15).  Hosts and networks are few; CIDs are not kept.
_interned: dict[tuple[PrincipalType, bytes], XID] = {}


def _intern(principal_type: PrincipalType, id_bytes: bytes) -> XID:
    key = (principal_type, id_bytes)
    xid = _interned.get(key)
    if xid is None:
        xid = _interned[key] = XID(principal_type, id_bytes)
    return xid


def HID(public_key: bytes | str) -> XID:
    """Host identifier: hash of the host's public key (surrogate)."""
    if isinstance(public_key, str):
        public_key = public_key.encode("utf-8")
    return _intern(PrincipalType.HID, _sha1(b"HID|" + public_key))


def NID(network_name: bytes | str) -> XID:
    """Network identifier (the XIA analogue of an IP prefix)."""
    if isinstance(network_name, str):
        network_name = network_name.encode("utf-8")
    return _intern(PrincipalType.NID, _sha1(b"NID|" + network_name))


def SID(service_key: bytes | str) -> XID:
    """Service identifier: hash of the service's public key (surrogate)."""
    if isinstance(service_key, str):
        service_key = service_key.encode("utf-8")
    return XID(PrincipalType.SID, _sha1(b"SID|" + service_key))
