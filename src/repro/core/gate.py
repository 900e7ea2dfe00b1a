"""The pulse gate shared by the thresholded BFS and the synchronizer.

Section 5 runs the Section 4 machinery over virtual nodes, so the two hosts
differ only in their execution structure (one join tree per node vs. the
synchronizer's virtual nodes ``(v, p)``), in how a flow assembles, and in
how a Go-Ahead walks back down.  :class:`PulseGate` is everything else, the
one place that knows:

* the gate (Section 4.1.2): when flow ``q`` assembles non-empty at a vertex
  of pulse ``prev(q) > 0``, the node p-registers for every ``p`` in
  ``gating_pulses(q)`` in all its clusters of level
  ``clamp_level(cover_level(p))``, and passes the report on only once all
  those registrations confirm;
* the terminus: flow ``q`` assembled at the pulse ``prev(prev(q))`` vertex
  q-deregisters (right away, or once a registration still in flight
  confirms) and releases Go-Ahead(q) once every member cluster sent it;
* the Section 4.2 base case for pulses with ``prev(prev(p)) = 0``: a
  source-registration barrier every cluster-tree node joins at start (a
  source sends only once all of its barriers closed) and a
  source-deregistration barrier a source member joins when flow ``p``
  reaches it.

Both barriers ride the aggregation module under int tags
``stage << 2 | kind`` (kind 0 = source registration, 1 = source
deregistration; kind 3 is left to the host, the thresholded BFS's checking
stage), so an aggregate tag's stage field is its link priority.

A host subclasses :class:`PulseGate` and supplies the hooks named in its
docstring.  Execution-structure vertices are :class:`Vertex` objects: the
synchronizer's virtual nodes, or the thresholded-BFS node itself, which is
the only vertex of its join tree.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Set, Tuple

from ..net.graph import NodeId
from .cluster_ops import ClusterAggregateModule, and_merge
from .pulse import gating_pulses_cached, cover_level, prev, prev_prev, source_pulses
from .registration import RegistrationModule, resolve_link_pair
from .registry import CoverRegistry

#: Aggregate tag kinds: ``tag = stage << 2 | kind``.
AGG_SREG = 0
AGG_SDEREG = 1


def _reg_stage(tag: int) -> int:
    """A registration tag is the pulse it gates, which is its stage."""
    return tag


def _agg_stage(tag: int) -> int:
    return tag >> 2


def _and_merge_for(tag: int) -> Any:
    return and_merge


class Flow:
    """Safety/emptiness flow ``q`` at one vertex (plain slots: allocated on
    the hot path, a dataclass init costs ~3x as much).  ``self_report`` is
    the report of a vertex's child on the same physical node (the
    synchronizer's self-child); hosts without such edges leave it None."""

    __slots__ = ("reports", "self_report", "assembled", "empty",
                 "gate_wait", "gate_done")

    def __init__(self) -> None:
        self.reports: Dict[NodeId, bool] = {}
        self.self_report: Optional[bool] = None
        self.assembled = False
        self.empty: Optional[bool] = None
        self.gate_wait = 0
        self.gate_done = False


class Vertex:
    """A vertex of a host's execution structure: a ``pulse`` and its flows
    (``flows``, keyed by flow pulse ``q``)."""

    __slots__ = ()

    def flow(self, q: int) -> Flow:
        flows = self.flows
        f = flows.get(q)
        if f is None:
            f = flows[q] = Flow()
        return f


class PulseGate:
    """Gate, terminus and base-barrier machinery of one node.

    Owns the node's :class:`RegistrationModule` (``self.reg``) and
    :class:`ClusterAggregateModule` (``self.agg``) over the consumer's cover
    levels.  A host supplies:

    * ``_dispatch`` — the opcode-indexed handler tuple :meth:`handle` reads;
    * ``_vertex(pulse)`` — the vertex of that pulse gating or ending a flow;
    * ``_source_send()`` — send a source's first messages (called whenever
      its registration barriers may all have closed; must be idempotent);
    * ``_report_up(at, q, flow)`` — pass the assembled flow-``q`` report to
      ``at``'s parent;
    * ``_release_down(at, q)`` — Go-Ahead(q) reached ``at``; walk it down;
    * ``_prune_execution(dead)`` — detach a crashed neighbor from the
      execution structure (recovery mode);

    and may override ``_on_source_safe`` and ``_on_other_result``.
    """

    def __init__(
        self,
        node_id: NodeId,
        registry: CoverRegistry,
        last_pulse: int,
        levels: Sequence[int],
        send,  # (to, payload, priority) -> None
        links=None,  # neighbor -> dense link id (ProcessContext.links)
        send_link=None,  # (link_id, payload, priority) -> None
        recovery: bool = False,
    ) -> None:
        links, send_link = resolve_link_pair(
            type(self).__name__, send, links, send_link
        )
        self.node_id = node_id
        self.registry = registry
        self._links = links
        self._send_link = send_link
        self._last_pulse = last_pulse
        self._base_pulses = source_pulses(last_pulse)
        views = registry.views_of(node_id, levels)
        self.reg = RegistrationModule(
            node_id=node_id,
            clusters=views,
            send=send,
            on_registered=self._on_registered,
            on_go_ahead=self._on_cluster_go_ahead,
            priority_fn=_reg_stage,
            links=links,
            send_link=send_link,
        )
        self.agg = ClusterAggregateModule(
            node_id=node_id,
            clusters=views,
            send=send,
            on_result=self._on_agg_result,
            merge_fn=_and_merge_for,
            priority_fn=_agg_stage,
            links=links,
            send_link=send_link,
        )
        # Recovery mode (DESIGN.md §11): the host tracks which acks/answers
        # are outstanding so :meth:`prune_neighbor` can cancel exactly the
        # ones a crashed neighbor still owed.
        self.recovery = recovery
        self._pruned: Set[NodeId] = set()
        self._sreg_pending: Dict[int, Set[int]] = {}
        self._sdereg_pending: Dict[int, Set[int]] = {}
        self._reg_pending: Dict[int, int] = {}
        self._registered: Set[int] = set()
        self._awaiting_dereg: Set[int] = set()
        self._goahead_pending: Dict[int, Set[int]] = {}

    def _level_for(self, p: int) -> int:
        return self.registry.clamp_level(cover_level(p))

    # ------------------------------------------------------------------
    # Section 4.2 base case
    # ------------------------------------------------------------------
    def _start_base_barriers(self, is_source: bool) -> None:
        """Every cluster-tree node contributes to both barriers at start; a
        source member defers its deregistration contribution until p-safe
        (:meth:`_terminus`).  Pending sets exist before the first
        contribution: on single-node clusters a barrier completes
        synchronously and the protocol can cascade inside ``contribute``."""
        registry, node_id = self.registry, self.node_id
        if is_source:
            for p in self._base_pulses:
                members = registry.member_clusters(node_id, self._level_for(p))
                self._sreg_pending[p] = set(members)
                self._sdereg_pending[p] = set(members)
        contribute = self.agg.contribute
        for p in self._base_pulses:
            sreg, sdereg = p << 2 | AGG_SREG, p << 2 | AGG_SDEREG
            for cid in registry.tree_clusters_of(node_id, self._level_for(p)):
                contribute(cid, sreg, True)
                if not (is_source and registry.is_member(node_id, cid)):
                    contribute(cid, sdereg, True)
        self._maybe_source_send()

    def _maybe_source_send(self) -> None:
        if all(not pending for pending in self._sreg_pending.values()):
            self._source_send()

    def _on_agg_result(self, cid: int, tag: int, result: Any) -> None:
        kind = tag & 3
        if kind == AGG_SREG:
            pending = self._sreg_pending.get(tag >> 2)
            if pending is not None and cid in pending:
                pending.discard(cid)
                self._maybe_source_send()
        elif kind == AGG_SDEREG:
            q = tag >> 2
            pending = self._sdereg_pending.get(q)
            if pending is None or cid not in pending:
                return
            pending.discard(cid)
            if not pending:
                source = self._vertex(0)
                flow = source.flows.get(q)
                if flow is not None and flow.assembled:
                    self._release_down(source, q)
        else:
            self._on_other_result(cid, tag, result)

    def _on_other_result(self, cid: int, tag: int, result: Any) -> None:
        raise ValueError(f"unknown aggregate result tag {tag!r}")

    def _on_source_safe(self, q: int) -> None:
        """Flow ``q`` reached a source (its pulse-0 terminus)."""

    # ------------------------------------------------------------------
    # gate and terminus
    # ------------------------------------------------------------------
    def _flow_assembled(self, at: Vertex, q: int, empty: bool) -> None:
        flow = at.flow(q)
        if flow.assembled:
            return
        flow.assembled = True
        flow.empty = empty
        # Gate: register for every pulse p with prev(p) = q before passing
        # the report on (Section 4.1.2, first bullet).  All gate_wait slots
        # are reserved before any registration is issued, because a
        # root-cluster registration confirms synchronously.
        if at.pulse == prev(q) and at.pulse > 0 and not empty:
            gates = []
            for p in gating_pulses_cached(q, self._last_pulse):
                cids = self.registry.member_clusters(self.node_id, self._level_for(p))
                if not cids:  # pragma: no cover - home cluster always exists
                    continue
                self._reg_pending[p] = len(cids)
                flow.gate_wait += 1
                gates.append((p, cids))
            for p, cids in gates:
                for cid in cids:
                    self.reg.register(cid, p)
        if flow.gate_wait == 0:
            self._after_gate(at, q, flow)

    def _on_registered(self, cid: int, p: int) -> None:
        self._reg_pending[p] -= 1
        if self._reg_pending[p] > 0:
            return
        self._registered.add(p)
        if p in self._awaiting_dereg:
            self._awaiting_dereg.discard(p)
            self._do_deregister(p)
        q = prev(p)
        at = self._vertex(prev_prev(p))
        flow = at.flow(q)
        flow.gate_wait -= 1
        if flow.gate_wait == 0 and flow.assembled:
            self._after_gate(at, q, flow)

    def _after_gate(self, at: Vertex, q: int, flow: Flow) -> None:
        if flow.gate_done:
            return
        flow.gate_done = True
        if at.pulse == prev_prev(q):
            self._terminus(at, q, flow)
        else:
            self._report_up(at, q, flow)

    def _terminus(self, at: Vertex, q: int, flow: Flow) -> None:
        if at.pulse == 0:
            # Base case (Section 4.2): q-safety reached the source; its
            # deregistration is the convergecast contribution.  Iterate a
            # sorted copy: a single-node cluster confirms synchronously,
            # mutating the pending set, and the contribution order is part
            # of the schedule, so it must not follow the set's hash order.
            sdereg = q << 2 | AGG_SDEREG
            for cid in sorted(self._sdereg_pending.get(q, ())):
                self.agg.contribute(cid, sdereg, True)
            if not self._sdereg_pending.get(q):
                self._release_down(at, q)
            self._on_source_safe(q)
            return
        if q in self._registered:
            self._do_deregister(q)
        elif self._reg_pending.get(q, 0) > 0:
            self._awaiting_dereg.add(q)
        else:
            # Never registered for q: flow prev(q) was empty here, hence so
            # is flow q; nothing to release.
            assert flow.empty, (
                f"node {self.node_id} reached flow-{q} terminus non-empty"
                " without having registered"
            )

    def _do_deregister(self, q: int) -> None:
        cids = self.registry.member_clusters(self.node_id, self._level_for(q))
        self._goahead_pending[q] = set(cids)
        for cid in cids:
            self.reg.deregister(cid, q)

    def _on_cluster_go_ahead(self, cid: int, q: int) -> None:
        pending = self._goahead_pending.get(q)
        if pending is None:
            return
        pending.discard(cid)
        if not pending:
            self._release_down(self._vertex(prev_prev(q)), q)

    # ------------------------------------------------------------------
    # churn recovery (DESIGN.md §11, §15)
    # ------------------------------------------------------------------
    def _require_recovery(self, what: str) -> None:
        if not self.recovery:
            raise RuntimeError(
                f"{what} requires recovery mode ({type(self).__name__}"
                " was built with recovery=False)"
            )

    def prune_neighbor(self, dead: NodeId) -> None:
        """Detach a crashed neighbor: the prune is forwarded to the
        registration and aggregation modules so cluster convergecasts
        re-close over the survivors, then the host drops it from the
        execution structure (``_prune_execution``).  Idempotent."""
        self._require_recovery("prune_neighbor")
        if dead in self._pruned:
            return
        self._pruned.add(dead)
        self.reg.prune_child(dead)
        self.agg.prune_child(dead)
        self._prune_execution(dead)

    def readmit_neighbor(self, returned: NodeId) -> None:
        """Re-admit a re-joined neighbor into the protocol stacks (§15).

        Inverse of :meth:`prune_neighbor`, restricted to what is sound
        going *forward*: the neighbor leaves the pruned set (its messages
        reach the modules again), and the registration and aggregation
        views are restored so stages and barrier instances created after
        the readmission address it in its original deterministic position.
        Nothing is rewound — execution state that already re-closed its
        waits over the survivors stays closed (the fresh incarnation never
        answers for pulses it did not witness), and poisoned registration
        stages stay poisoned, so they are never retired.  Idempotent per
        neighbor; a no-op for a neighbor that was never pruned.
        """
        self._require_recovery("readmit_neighbor")
        if returned not in self._pruned:
            return
        self._pruned.discard(returned)
        self.reg.readmit_child(returned)
        self.agg.readmit_child(returned)

    # ------------------------------------------------------------------
    def handle(self, sender: NodeId, payload: Tuple) -> None:
        op = payload[0]
        try:
            # The explicit sign check keeps a malformed negative opcode from
            # silently indexing the table from the end.
            handler = self._dispatch[op] if op >= 0 else None
        except (IndexError, TypeError):
            handler = None
        if handler is None:
            raise ValueError(
                f"unknown {type(self).__name__} message {payload!r}")
        handler(sender, payload)
