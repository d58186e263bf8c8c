"""DAG addresses with fallback semantics.

An XIA address is a directed acyclic graph whose sink is the *intent*
(the principal the sender ultimately wants to reach) and whose other
paths encode *fallbacks*: ways of reaching the intent when a router
cannot act on it directly.  SoftStage only needs the restricted shape
the paper writes as ``CID | NID : HID`` — "forward on the CID if you
can, otherwise route to network NID, then host HID, which can serve the
CID".  We represent that as an intent plus an ordered tuple of
*routes*, each route being a sequence of waypoint XIDs that ends,
implicitly, at the intent.  Route priority is positional: earlier
routes are preferred (direct-to-intent first).

The textual form uses ``|`` between alternatives and ``->`` between
waypoints of one route, e.g.::

    CID:ab... | NID:cd... -> HID:ef...
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Set

from repro.errors import AddressError
from repro.xia.ids import PrincipalType, XID


class DagPlan:
    """A :class:`DagAddress` compiled for the forwarding fast path.

    Routers walk the same tiny DAG for every packet of a flow, so the
    plan assigns each distinct node a bit index once and memoizes the
    candidate walk per visited *bitmask*: after the first packet with a
    given mask, ``candidates(mask)`` is a single dict lookup instead of
    a per-route scan with set membership tests.  Plans are compiled
    lazily (first use) and cached on the address itself — addresses are
    immutable, so a plan can never go stale.
    """

    __slots__ = ("address", "bit_of", "node_order", "_candidates_by_mask")

    def __init__(self, address: "DagAddress") -> None:
        self.address = address
        bit_of: dict[XID, int] = {}
        order: list[XID] = []
        for route in address.routes:
            for waypoint in route:
                if waypoint not in bit_of:
                    bit_of[waypoint] = 1 << len(order)
                    order.append(waypoint)
        if address.intent not in bit_of:
            bit_of[address.intent] = 1 << len(order)
            order.append(address.intent)
        #: XID -> its bit in a visited mask.
        self.bit_of = bit_of
        #: Nodes in bit order (bit ``1 << i`` is ``node_order[i]``).
        self.node_order = tuple(order)
        self._candidates_by_mask: dict[int, tuple[XID, ...]] = {}

    def mask_of(self, visited: Iterable[XID]) -> int:
        """The bitmask for an iterable of visited XIDs.

        XIDs outside the DAG are ignored: they can never match a
        waypoint during the candidate walk, so they cannot change the
        forwarding decision.
        """
        mask = 0
        bit_of = self.bit_of
        for xid in visited:
            bit = bit_of.get(xid)
            if bit:
                mask |= bit
        return mask

    def visited_xids(self, mask: int) -> frozenset:
        """The set of DAG nodes a visited mask stands for."""
        bit_of = self.bit_of
        return frozenset(x for x in self.node_order if bit_of[x] & mask)

    def candidates(self, mask: int) -> tuple[XID, ...]:
        """Priority-ordered forwarding candidates for a visited mask.

        Memoized: the walk runs once per distinct mask over the life
        of the plan, then becomes a table lookup.
        """
        cached = self._candidates_by_mask.get(mask)
        if cached is None:
            cached = self._candidates_by_mask[mask] = self._walk(mask)
        return cached

    def _walk(self, mask: int) -> tuple[XID, ...]:
        address = self.address
        bit_of = self.bit_of
        candidates: list[XID] = []
        seen = 0
        for route in address.routes:
            candidate = address.intent
            for waypoint in route:
                if not (bit_of[waypoint] & mask):
                    candidate = waypoint
                    break
            bit = bit_of[candidate]
            if not (seen & bit):
                seen |= bit
                candidates.append(candidate)
        return tuple(candidates)

    def __repr__(self) -> str:
        return (
            f"<DagPlan nodes={len(self.node_order)} "
            f"masks={len(self._candidates_by_mask)} for {self.address!r}>"
        )


#: Distinct ``(hid, nid)`` host addresses kept interned before the
#: table is cleared wholesale.  A scenario has a handful of hosts in a
#: handful of networks; the cap only guards against address churn.
HOST_TABLE_LIMIT = 4096

_interned_hosts: dict[tuple[XID, Optional[XID]], "DagAddress"] = {}


class DagAddress:
    """An XIA DAG address: an intent plus prioritized fallback routes."""

    __slots__ = ("intent", "routes", "_hash", "_plan")

    def __init__(
        self,
        intent: XID,
        routes: Sequence[Sequence[XID]] = ((),),
    ) -> None:
        if not isinstance(intent, XID):
            raise AddressError(f"intent must be an XID, got {intent!r}")
        normalized = tuple(tuple(route) for route in routes)
        if not normalized:
            normalized = ((),)
        for route in normalized:
            for waypoint in route:
                if not isinstance(waypoint, XID):
                    raise AddressError(f"waypoint must be an XID, got {waypoint!r}")
                if waypoint == intent:
                    raise AddressError("a route must not contain the intent itself")
        object.__setattr__(self, "intent", intent)
        object.__setattr__(self, "routes", normalized)
        object.__setattr__(self, "_hash", hash((intent, normalized)))
        object.__setattr__(self, "_plan", None)

    def __setattr__(self, name, value):
        raise AttributeError("DagAddress is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def content(cls, cid: XID, nid: XID, hid: XID) -> "DagAddress":
        """The paper's ``CID | NID : HID`` shape."""
        cls._expect(cid, PrincipalType.CID)
        cls._expect(nid, PrincipalType.NID)
        cls._expect(hid, PrincipalType.HID)
        return cls(cid, routes=((), (nid, hid)))

    @classmethod
    def host(cls, hid: XID, nid: Optional[XID] = None) -> "DagAddress":
        """Host-based addressing, ``NID : HID`` (the IP equivalent).

        Interned: equal arguments return the *same* immutable instance
        (until :data:`HOST_TABLE_LIMIT` distinct pairs clear the
        table), so the source and destination of every packet of every
        session between two hosts are one object and a router's
        ``(dst, mask)`` decision lookup matches by identity instead of
        walking ``__eq__``.  Equality stays by value either way.
        """
        key = (hid, nid)
        address = _interned_hosts.get(key)
        if address is None:
            cls._expect(hid, PrincipalType.HID)
            if nid is None:
                address = cls(hid)
            else:
                cls._expect(nid, PrincipalType.NID)
                address = cls(hid, routes=((nid,),))
            if len(_interned_hosts) >= HOST_TABLE_LIMIT:
                _interned_hosts.clear()
            _interned_hosts[key] = address
        return address

    @classmethod
    def service(cls, sid: XID, nid: XID, hid: XID) -> "DagAddress":
        """Service addressing with a host fallback, ``SID | NID : HID``."""
        cls._expect(sid, PrincipalType.SID)
        return cls(sid, routes=((), (nid, hid)))

    @staticmethod
    def _expect(xid: XID, principal_type: PrincipalType) -> None:
        if xid.principal_type is not principal_type:
            raise AddressError(
                f"expected a {principal_type.value}, got {xid!r}"
            )

    # -- accessors ----------------------------------------------------------

    @property
    def fallback_hid(self) -> Optional[XID]:
        """The HID of the last-resort route, if any."""
        for route in reversed(self.routes):
            for waypoint in reversed(route):
                if waypoint.principal_type is PrincipalType.HID:
                    return waypoint
        return None

    def replace_fallback(self, nid: XID, hid: XID) -> "DagAddress":
        """Return a new address whose fallback path is ``NID -> HID``.

        This is exactly what the Staging VNF does when a chunk has been
        staged: the CID intent is kept, but the fallback now points at
        the edge network's XCache instead of the origin server
        (Table I, "New DAG").
        """
        self._expect(nid, PrincipalType.NID)
        self._expect(hid, PrincipalType.HID)
        has_direct = any(len(route) == 0 for route in self.routes)
        routes: list[tuple[XID, ...]] = [()] if has_direct else []
        routes.append((nid, hid))
        return DagAddress(self.intent, routes=tuple(routes))

    # -- forwarding support ---------------------------------------------------

    @property
    def plan(self) -> DagPlan:
        """The compiled traversal plan (built on first access)."""
        plan = self._plan
        if plan is None:
            plan = DagPlan(self)
            object.__setattr__(self, "_plan", plan)
        return plan

    def next_candidates(self, visited: Set[XID] = frozenset()) -> list[XID]:
        """XIDs a router should try, in priority order.

        For each route (most preferred first) the candidate is the first
        waypoint not yet *visited*; once all of a route's waypoints are
        visited the candidate is the intent itself.  Duplicates are
        dropped, keeping the highest priority occurrence.

        This is the set-based shim over :attr:`plan`; the per-hop path
        works on visited bitmasks via :meth:`DagPlan.candidates`.
        """
        plan = self.plan
        mask = plan.mask_of(visited) if visited else 0
        return list(plan.candidates(mask))

    # -- text form -------------------------------------------------------------

    def to_string(self) -> str:
        parts = []
        for route in self.routes:
            if not route:
                parts.append(repr(self.intent))
            else:
                steps = " -> ".join(repr(waypoint) for waypoint in route)
                parts.append(f"{steps} -> {self.intent!r}")
        return " | ".join(parts)

    # -- value semantics -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DagAddress)
            and self.intent == other.intent
            and self.routes == other.routes
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"<DagAddress {self.to_string()}>"
