"""The Network Joining Protocol (NetJoin) advertisements.

XIA's NetJoin lets an access network advertise its presence *and any
usable VNF information* in its beacon messages — this is how SoftStage
clients discover Staging VNFs without contacting anything (§III-C,
footnote 2).  We model the beacon payload as a
:class:`NetworkAdvertisement` carried alongside RSS in scan results;
the :class:`AdvertisementDirectory` is the per-testbed registry the
scanning machinery draws from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.xia.ids import PrincipalType, XID


@dataclass(frozen=True)
class NetworkAdvertisement:
    """One access network's NetJoin beacon payload."""

    nid: XID
    #: HID of the gateway/XCache router of this network.
    gateway_hid: XID
    #: SID of the staging VNF, when one is deployed.
    vnf_sid: Optional[XID] = None

    def __post_init__(self) -> None:
        if self.nid.principal_type is not PrincipalType.NID:
            raise ConfigurationError(f"advertisement NID expected, got {self.nid!r}")
        if self.gateway_hid.principal_type is not PrincipalType.HID:
            raise ConfigurationError(
                f"advertisement gateway HID expected, got {self.gateway_hid!r}"
            )
        if (
            self.vnf_sid is not None
            and self.vnf_sid.principal_type is not PrincipalType.SID
        ):
            raise ConfigurationError(
                f"advertisement VNF SID expected, got {self.vnf_sid!r}"
            )

    @property
    def has_vnf(self) -> bool:
        return self.vnf_sid is not None


class AdvertisementDirectory:
    """Registry of NetJoin advertisements, keyed by AP name."""

    def __init__(self) -> None:
        self._by_ap: dict[str, NetworkAdvertisement] = {}

    def announce(self, ap_name: str, advertisement: NetworkAdvertisement) -> None:
        if ap_name in self._by_ap:
            raise ConfigurationError(f"AP {ap_name!r} already announces")
        self._by_ap[ap_name] = advertisement

    def lookup(self, ap_name: str) -> Optional[NetworkAdvertisement]:
        return self._by_ap.get(ap_name)
