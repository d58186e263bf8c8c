"""eXpressive Internet Architecture (XIA) substrate.

Implements the pieces of XIA that SoftStage builds on:

- self-certifying identifiers (:mod:`repro.xia.ids`): CID, HID, NID, SID;
- DAG addresses with fallback semantics (:mod:`repro.xia.dag`) including
  the paper's ``CID|NID:HID`` shorthand;
- packets (:mod:`repro.xia.packet`);
- the per-principal forwarding engine and route tables
  (:mod:`repro.xia.router`, :mod:`repro.xia.routing`);
- the Network Joining Protocol beacons used for VNF discovery
  (:mod:`repro.xia.netjoin`).

XIA's *active session migration* (Snoeren-style re-binding of live
transport sessions after a move) is implemented inside the transport —
see :meth:`repro.transport.reliable.ReceiverSession.migrate` and
:meth:`repro.transport.reliable.TransportEndpoint.migrate_receivers`.
"""

from repro.xia.ids import CID, HID, NID, SID, XID, PrincipalType
from repro.xia.dag import DagAddress
from repro.xia.packet import Packet, PacketType

__all__ = [
    "CID",
    "DagAddress",
    "HID",
    "NID",
    "Packet",
    "PacketType",
    "PrincipalType",
    "SID",
    "XID",
]
