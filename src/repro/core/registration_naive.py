"""The "natural attempt" registration of [AP90a] (Section 3.2).

Every registration/deregistration is an individual message relayed hop by
hop to the cluster root, which tallies ids and issues the Go-Ahead when all
registered nodes have deregistered; replies retrace the recorded path.

This is the scheme the paper proves inadequate: all traffic crosses the
root's incident tree edges, so with ``r`` registrants the edge congestion —
and hence the completion time under the one-message-in-flight discipline —
is Ω(r) even on a constant-height tree, versus O(height) for the dirty-mark
scheme.  Benchmark E9 measures exactly this gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Set, Tuple

from ..net.graph import NodeId
from .registration import ClusterView

MSG_PREFIX = "nreg"

Tag = Any
Key = Tuple[int, Tag]


@dataclass
class _RootLedger:
    registered: Set[NodeId] = field(default_factory=set)
    deregistered: Set[NodeId] = field(default_factory=set)
    #: Registrant -> the hop path its registration took, which its
    #: Go-Ahead retraces.
    paths: Dict[NodeId, Tuple[NodeId, ...]] = field(default_factory=dict)


class NaiveRegistrationModule:
    """Drop-in (API-compatible) replacement for :class:`RegistrationModule`."""

    def __init__(
        self,
        node_id: NodeId,
        clusters: Dict[int, ClusterView],
        on_registered: Callable[[int, Tag], None],
        on_go_ahead: Callable[[int, Tag], None],
        priority_fn: Callable[[Tag], Any],
        links: Mapping[NodeId, int],
        send_link: Callable[[int, Tuple, Any], None],
    ) -> None:
        self.node_id = node_id
        self.clusters = clusters
        self._links = links
        self._send_link = send_link
        self.on_registered = on_registered
        self.on_go_ahead = on_go_ahead
        self.priority_fn = priority_fn
        self._ledgers: Dict[Key, _RootLedger] = {}
        self._states: Dict[Key, str] = {}
        self.messages_sent = 0

    # ------------------------------------------------------------------
    def _emit(self, to: NodeId, payload: Tuple, tag: Tag) -> None:
        self.messages_sent += 1
        self._send_link(self._links[to], payload, self.priority_fn(tag))

    def _route_up(self, cluster_id: int, tag: Tag, kind: str, origin: NodeId, path: Tuple[NodeId, ...]) -> None:
        view = self.clusters[cluster_id]
        if view.is_root:
            self._root_receive(cluster_id, tag, kind, origin, path)
        else:
            self._emit(
                view.parent,
                (MSG_PREFIX, "up", kind, cluster_id, tag, origin, path + (self.node_id,)),
                tag,
            )

    def register(self, cluster_id: int, tag: Tag) -> None:
        key = (cluster_id, tag)
        if self._states.get(key) is not None:
            raise ValueError("double registration")
        self._states[key] = "registering"
        self._route_up(cluster_id, tag, "reg", self.node_id, ())

    def deregister(self, cluster_id: int, tag: Tag) -> None:
        key = (cluster_id, tag)
        if self._states.get(key) != "registered":
            raise ValueError("deregister before registration completed")
        self._states[key] = "deregistered"
        self._route_up(cluster_id, tag, "dereg", self.node_id, ())

    def state_of(self, cluster_id: int, tag: Tag) -> str:
        return self._states.get((cluster_id, tag), "none")

    # ------------------------------------------------------------------
    def _root_receive(
        self, cluster_id: int, tag: Tag, kind: str, origin: NodeId, path: Tuple[NodeId, ...]
    ) -> None:
        key = (cluster_id, tag)
        ledger = self._ledgers.setdefault(key, _RootLedger())
        if kind == "reg":
            ledger.registered.add(origin)
            ledger.paths[origin] = path
            self._reply(cluster_id, tag, "ack", origin, path)
        elif kind == "dereg":
            ledger.deregistered.add(origin)
            if ledger.deregistered >= ledger.registered and ledger.registered:
                for target in sorted(ledger.deregistered):
                    self._reply_go(cluster_id, tag, target)
        else:  # pragma: no cover
            raise ValueError(kind)

    def _reply(self, cluster_id: int, tag: Tag, kind: str, origin: NodeId, path: Tuple[NodeId, ...]) -> None:
        if origin == self.node_id and not path:
            self._deliver_reply(cluster_id, tag, kind)
            return
        next_hop = path[-1] if path else origin
        self._emit(
            next_hop,
            (MSG_PREFIX, "down", kind, cluster_id, tag, origin, path[:-1]),
            tag,
        )

    def _reply_go(self, cluster_id: int, tag: Tag, target: NodeId) -> None:
        # A Go-Ahead retraces the path its target's registration took.
        path = self._ledgers[(cluster_id, tag)].paths[target]
        self._reply(cluster_id, tag, "go", target, path)

    def _deliver_reply(self, cluster_id: int, tag: Tag, kind: str) -> None:
        key = (cluster_id, tag)
        if kind == "ack":
            self._states[key] = "registered"
            self.on_registered(cluster_id, tag)
        elif kind == "go":
            self._states[key] = "free"
            self.on_go_ahead(cluster_id, tag)

    # ------------------------------------------------------------------
    def handle(self, sender: NodeId, payload: Tuple) -> bool:
        if not (isinstance(payload, tuple) and payload and payload[0] == MSG_PREFIX):
            return False
        _, direction, kind, cluster_id, tag, origin, path = payload
        if direction == "up":
            self._route_up(cluster_id, tag, kind, origin, path)
        elif direction == "down":
            self._reply(cluster_id, tag, kind, origin, path)
        else:  # pragma: no cover
            raise ValueError(direction)
        return True
