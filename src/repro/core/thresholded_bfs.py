"""Asynchronous 2^t-thresholded multi-source BFS (Sections 4.1 and 4.2).

One :class:`ThresholdedBFSCore` instance per node implements the paper's
pulse machinery, given a layered sparse cover:

* Nodes join the *execution tree* by accepting the first ``join`` proposal;
  ``pulse(v) = pulse(parent) + 1`` (Section 4.1.1).  Lemma 4.10 — which the
  tests check against true BFS distances under every adversary — states that
  pulses equal distances.
* For every pulse ``q``, a *safety/emptiness flow* travels up the execution
  tree from pulse ``q-1`` nodes to the pulse ``prev(prev(q))`` ancestor: a
  node reports for flow ``q`` once its own join proposals are answered and
  all children reported (Definition 4.6).
* When flow ``q`` assembles at a node of pulse ``prev(q) > 0`` (the *gate*)
  and is non-empty, the node p-registers — for every ``p`` with
  ``prev(p) = q`` — in all clusters of the ``2^{l(p)+5}``-cover containing
  it, and only then forwards the report upward.
* When flow ``q`` assembles at the pulse ``prev(prev(q))`` ancestor (the
  *terminus*), the node q-deregisters and waits for Go-Ahead(q) from all
  those clusters; the Go-Ahead then walks down non-empty branches and
  releases the pulse-q nodes' join proposals.
* Pulses with ``prev(prev(p)) = 0`` use the Section 4.2 base case: their
  registration is a whole-cluster convergecast completed *before any source
  sends*, and their deregistration/Go-Ahead is likewise a convergecast whose
  sources contribute upon p-safety.
* The checking stage (Section 4.1.2) gathers "every source in this
  2^t-cluster is 2^t-safe" so unreached nodes can output infinity.

The threshold must be a power of two; arbitrary thresholds are provided by
the multi-stage wrapper (Section 4.3 / Remark 4.18) in
:mod:`repro.core.multi_stage`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..net.graph import NodeId
from .cluster_ops import ClusterAggregateModule, and_merge
from .pulse import (
    COVER_LEVEL_OFFSET,
    gating_pulses_cached,
    assemble_pulses,
    cover_level,
    prev,
    prev_prev,
    source_pulses,
)
from .registration import RegistrationModule, resolve_link_pair
from .registry import CoverRegistry

UNREACHED = float("inf")

#: Protocol-private wire opcodes, continuing the shared-module range
#: (aggregation 0..1, registration 2..5 — see DESIGN.md §6).
OP_JOIN = 6
OP_ANSWER = 7
OP_FLOW = 8
OP_GA = 9

#: The two join answers, prebuilt: every join triggers exactly one of them,
#: and payloads are opaque to the transport, so sharing the tuples shaves an
#: allocation off the hottest reply path without touching the schedule.
_ANSWER_YES = (OP_ANSWER, True)
_ANSWER_NO = (OP_ANSWER, False)

SendFn = Callable[[NodeId, Tuple, int], None]  # (to, payload, stage-priority)

#: Int-coded aggregate tags (DESIGN.md §10): the Section 4.2 base-case
#: barriers and the checking stage ride the shared aggregation module as
#: ``pulse << 2 | kind`` ints (kind 0 = source-registration barrier, 1 =
#: source-deregistration barrier, 3 = the checking stage) instead of the
#: historical ``("sreg", p)`` tuples, so every aggregate wire key packs to
#: one pre-hashed int (the synchronizer made the same move in DESIGN.md §6)
#: and the ~95% of a thresholded-BFS run that is aggregation traffic stops
#: hashing tuples on every dict probe.
_AGG_KIND_SREG = 0
_AGG_KIND_SDEREG = 1
_AGG_KIND_CHECK = 3
_CHECK_TAG = _AGG_KIND_CHECK  # pulse field 0


def _sreg_tag(p: int) -> int:
    return (p << 2) | _AGG_KIND_SREG


def _sdereg_tag(p: int) -> int:
    return (p << 2) | _AGG_KIND_SDEREG


def _stage_of_pulse_tag(tag: Any) -> Any:
    return tag


def _and_merge_for(tag: Any) -> Any:
    return and_merge


class _Flow:
    """Per-pulse safety/emptiness flow state at one node (plain slots:
    allocated on the hot path, a dataclass init costs ~3x as much)."""

    __slots__ = ("reports", "assembled", "empty", "gate_wait", "gate_done")

    def __init__(self) -> None:
        self.reports: Dict[NodeId, bool] = {}
        self.assembled = False
        self.empty: Optional[bool] = None
        self.gate_wait = 0
        self.gate_done = False


class ThresholdedBFSCore:
    """Per-node engine for one thresholded-BFS instance.

    The owner routes messages to :meth:`handle`, calls :meth:`activate` once
    (telling the node whether it is a source), and receives the node's
    distance (or ``None`` for "beyond threshold") via ``on_complete``.
    """

    def __init__(
        self,
        node_id: NodeId,
        neighbors: Sequence[NodeId],
        registry: CoverRegistry,
        threshold: int,
        send: SendFn,
        on_complete: Callable[[Optional[int]], None],
        links=None,  # neighbor -> dense link id (ProcessContext.links)
        send_link=None,  # (link_id, payload, priority) -> None
        pool: bool = True,  # recycle registration stage slots (DESIGN.md §10)
        recovery: bool = False,  # track join answers for churn pruning
    ) -> None:
        if threshold < 1 or threshold & (threshold - 1):
            raise ValueError(f"threshold must be a power of two, got {threshold}")
        self.node_id = node_id
        self.neighbors = tuple(neighbors)
        self.registry = registry
        self.threshold = threshold
        self.t = threshold.bit_length() - 1
        required = cover_level(threshold)
        if registry.top_level < min(required, self.t):
            raise ValueError(
                f"layered cover top level {registry.top_level} too small for"
                f" threshold {threshold}"
            )
        links, send_link = resolve_link_pair(
            "ThresholdedBFSCore", send, links, send_link
        )
        self._links = links
        self._send_link = send_link
        self._neighbor_links = tuple(links[v] for v in self.neighbors)
        self.on_complete = on_complete

        views = registry.views_of(
            node_id, self.cover_levels(registry, threshold))
        # The module priorities are plain stage ints, exactly what the host
        # ``send`` expects — the modules call it directly (priorities are
        # cached per tag inside each module).
        self.reg = RegistrationModule(
            node_id=node_id,
            clusters=views,
            send=send,
            on_registered=self._on_registered,
            on_go_ahead=self._on_cluster_go_ahead,
            priority_fn=_stage_of_pulse_tag,  # tag is the pulse = its stage
            links=links,
            send_link=send_link,
            pool=pool,
        )
        self.agg = ClusterAggregateModule(
            node_id=node_id,
            clusters=views,
            send=send,
            on_result=self._on_agg_result,
            merge_fn=_and_merge_for,
            priority_fn=self._agg_stage,
            links=links,
            send_link=send_link,
        )
        # Opcode-indexed dispatch table (DESIGN.md §6): one tuple index per
        # delivered message, calling straight into the per-kind handlers.
        self._dispatch = (
            self.agg.handle_up,        # 0 OP_AGG_UP
            self.agg.handle_down,      # 1 OP_AGG_DOWN
            self.reg.handle_reg_up,    # 2 OP_REG_UP
            self.reg.handle_reg_done,  # 3 OP_REG_DONE
            self.reg.handle_dereg,     # 4 OP_REG_DEREG
            self.reg.handle_go_ahead,  # 5 OP_REG_GO_AHEAD
            self._handle_join,         # 6 OP_JOIN
            self._handle_answer,       # 7 OP_ANSWER
            self._handle_flow,         # 8 OP_FLOW
            self._handle_ga,           # 9 OP_GA
        )

        self.activated = False
        self.is_source = False
        self.covered = False
        self.pulse: Optional[int] = None
        self.parent: Optional[NodeId] = None
        self.parent_link: Optional[int] = None
        self.children: List[NodeId] = []
        self._children_links: List[int] = []
        # (child, link) pairs, frozen once the join answers complete, so the
        # Go-Ahead walks iterate one prebuilt tuple instead of re-zipping.
        self._child_pairs: Tuple[Tuple[NodeId, int], ...] = ()
        self.joins_sent = False
        self.answers_pending = 0
        self.answered = False
        self.completed = False

        self._flows: Dict[int, _Flow] = {}
        self._base_pulses = [p for p in source_pulses(threshold)]
        self._reg_pending: Dict[int, int] = {}
        self._registered: Set[int] = set()
        self._awaiting_dereg: Set[int] = set()
        self._goahead_pending: Dict[int, Set[int]] = {}
        self._released: Set[int] = set()
        self._sreg_pending: Dict[int, Set[int]] = {}
        self._sdereg_pending: Dict[int, Set[int]] = {}
        self._check_pending: Set[int] = set()
        # Recovery mode (DESIGN.md §11): remember which neighbors still owe
        # a join answer so :meth:`prune_neighbor` can count a crashed
        # neighbor's unanswered proposal as a decline.  None outside
        # recovery — the bare counter carries the fault-free protocol.
        self.recovery = recovery
        self._pruned: Set[NodeId] = set()
        self._answer_wait: Optional[Set[NodeId]] = None

    @staticmethod
    def cover_levels(registry: CoverRegistry, threshold: int) -> Tuple[int, ...]:
        """The cover levels a node reads: ``check_level`` (level ``t``) and
        the registration levels ``clamp_level(cover_level(p))``, none of
        which is below ``COVER_LEVEL_OFFSET`` (unless the cover tops out
        lower)."""
        return registry.level_set(
            COVER_LEVEL_OFFSET, threshold.bit_length() - 1)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _agg_stage(self, tag: int) -> int:
        kind = tag & 3
        if kind == _AGG_KIND_SREG or kind == _AGG_KIND_SDEREG:
            return tag >> 2
        if kind == _AGG_KIND_CHECK:
            return self.threshold + 1
        raise ValueError(f"unknown aggregate tag {tag!r}")  # pragma: no cover

    def _flow(self, q: int) -> _Flow:
        flow = self._flows.get(q)
        if flow is None:
            flow = _Flow()
            self._flows[q] = flow
        return flow

    def _level_for(self, p: int) -> int:
        return self.registry.clamp_level(cover_level(p))

    @property
    def check_level(self) -> int:
        return self.registry.clamp_level(self.t)

    def _participates(self, q: int) -> bool:
        """Is this node on flow q's path (prev_prev(q) <= pulse <= q-1)?"""
        return (
            self.pulse is not None
            and prev_prev(q) <= self.pulse <= q - 1
        )

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------
    def activate(self, is_source: bool, covered: bool = False) -> None:
        """Start this node's participation; called exactly once.

        ``covered`` marks a node whose distance was finalized by an earlier
        stage/iteration (Section 4.3 staging, Theorem 4.24 dead nodes): it
        declines every join proposal and otherwise participates as a
        non-source relay so cluster barriers still complete.
        """
        if self.activated:
            raise ValueError(f"node {self.node_id} activated twice")
        if covered and is_source:
            raise ValueError("a covered node cannot be a source")
        self.activated = True
        self.covered = covered
        self.is_source = is_source
        if is_source:
            self.pulse = 0
            for p in self._base_pulses:
                members = set(self.registry.member_clusters(self.node_id, self._level_for(p)))
                self._sreg_pending[p] = set(members)
                self._sdereg_pending[p] = set(members)
        # All bookkeeping state must exist before the first contribution:
        # on single-node clusters a barrier completes synchronously and the
        # whole protocol can cascade inside agg.contribute.
        self._check_pending = set(
            self.registry.member_clusters(self.node_id, self.check_level)
        )
        for cid in self.registry.tree_clusters_of(self.node_id, self.check_level):
            member_source = is_source and self.registry.is_member(self.node_id, cid)
            if not member_source:
                self.agg.contribute(cid, _CHECK_TAG, True)
        # Start-time convergecast contributions (Section 4.2 base case):
        # every tree node contributes; source members defer their
        # deregistration contribution until p-safe.
        for p in self._base_pulses:
            lvl = self._level_for(p)
            sreg, sdereg = _sreg_tag(p), _sdereg_tag(p)
            for cid in self.registry.tree_clusters_of(self.node_id, lvl):
                member_source = is_source and self.registry.is_member(self.node_id, cid)
                self.agg.contribute(cid, sreg, True)
                if not member_source:
                    self.agg.contribute(cid, sdereg, True)
        self._maybe_source_send()

    def _maybe_source_send(self) -> None:
        if (
            self.is_source
            and not self.joins_sent
            and all(not pending for pending in self._sreg_pending.values())
        ):
            self._send_joins()

    # ------------------------------------------------------------------
    # join / answer
    # ------------------------------------------------------------------
    def _send_joins(self) -> None:
        if self.joins_sent:
            return
        self.joins_sent = True
        stage = self.pulse + 1
        self.answers_pending = len(self.neighbors)
        send_link = self._send_link
        payload = (OP_JOIN, self.pulse)
        if not self.recovery:
            for lid in self._neighbor_links:
                send_link(lid, payload, stage)
        else:
            # Recovery mode: never propose to a neighbor already known
            # dead, and remember who still owes an answer so a later crash
            # counts as a declined proposal (DESIGN.md §11).
            pruned = self._pruned
            wait = set()
            for v, lid in zip(self.neighbors, self._neighbor_links):
                if v in pruned:
                    self.answers_pending -= 1
                    continue
                wait.add(v)
                send_link(lid, payload, stage)
            self._answer_wait = wait
        if self.answers_pending == 0:
            self._answers_complete()

    def _handle_join(self, sender: NodeId, payload: Tuple) -> None:
        if not self.activated:
            raise AssertionError(
                f"node {self.node_id} received a join before activation —"
                " the Section 4.2 registration barrier should prevent this"
            )
        sender_pulse = payload[1]
        stage = sender_pulse + 1
        sender_link = self._links[sender]
        if self.pulse is None and not self.covered:
            self.pulse = sender_pulse + 1
            self.parent = sender
            self.parent_link = sender_link
            self._send_link(sender_link, _ANSWER_YES, stage)
        else:
            self._send_link(sender_link, _ANSWER_NO, stage)

    def _handle_answer(self, sender: NodeId, payload: Tuple) -> None:
        if payload[1]:
            self.children.append(sender)
            self._children_links.append(self._links[sender])
        aw = self._answer_wait
        if aw is not None:
            aw.discard(sender)
        self.answers_pending -= 1
        if self.answers_pending == 0:
            self._answers_complete()

    def _answers_complete(self) -> None:
        self.answered = True
        self._child_pairs = tuple(zip(self.children, self._children_links))
        leaf_flow = self.pulse + 1
        if leaf_flow <= self.threshold:
            self._flow_assembled(leaf_flow, empty=(len(self.children) == 0))
        if self.children:
            for q in list(self._flows):
                self._try_assemble(q)
        else:
            # A childless node is the frontier of every flow through it
            # (prev_prev(q) <= pulse always holds on the memoized table).
            for q in assemble_pulses(self.pulse, self.threshold):
                self._flow_assembled(q, empty=True)

    # ------------------------------------------------------------------
    # churn recovery (DESIGN.md §11, best-effort)
    # ------------------------------------------------------------------
    def prune_neighbor(self, dead: NodeId) -> None:
        """Detach a crashed neighbor: its unanswered join proposal counts
        as a decline, its execution-tree subtree is dropped, and the prune
        is forwarded to the registration/aggregation modules so cluster
        convergecasts re-close over the survivors.  Idempotent."""
        if not self.recovery:
            raise RuntimeError(
                "prune_neighbor requires recovery mode (ThresholdedBFSCore"
                " was built with recovery=False)"
            )
        if dead in self._pruned:
            return
        self._pruned.add(dead)
        self.reg.prune_child(dead)
        self.agg.prune_child(dead)
        aw = self._answer_wait
        if aw is not None and dead in aw:
            aw.discard(dead)
            self.answers_pending -= 1
            if self.answers_pending == 0:
                self._answers_complete()
        if dead in self.children:
            i = self.children.index(dead)
            del self.children[i]
            del self._children_links[i]
            for flow in self._flows.values():
                flow.reports.pop(dead, None)
            if self.answered:
                self._child_pairs = tuple(
                    zip(self.children, self._children_links)
                )
                for q in list(self._flows):
                    self._try_assemble(q)
                for q in assemble_pulses(self.pulse, self.threshold):
                    self._try_assemble(q)

    # ------------------------------------------------------------------
    # safety/emptiness flows
    # ------------------------------------------------------------------
    def _handle_flow(self, sender: NodeId, payload: Tuple) -> None:
        q = payload[1]
        flows = self._flows
        flow = flows.get(q)
        if flow is None:
            flow = flows[q] = _Flow()
        if sender in flow.reports:
            raise AssertionError(
                f"duplicate flow-{q} report from {sender} at {self.node_id}"
            )
        flow.reports[sender] = payload[2]
        self._try_assemble(q)

    def _try_assemble(self, q: int) -> None:
        flows = self._flows
        flow = flows.get(q)
        if flow is None:
            flow = flows[q] = _Flow()
        if flow.assembled or not self.answered:
            return
        if q == self.pulse + 1:
            return  # the leaf path assembles this one
        # Reports only come from accepted children (the answer precedes any
        # flow report on the same link), so a length check replaces the old
        # set comparison; a rogue reporter surfaces as a KeyError below.
        if len(flow.reports) < len(self.children):
            return
        reports = flow.reports
        empty = True
        for c in self.children:
            if not reports[c]:
                empty = False
                break
        self._flow_assembled(q, empty)

    def _flow_assembled(self, q: int, empty: bool) -> None:
        flow = self._flow(q)
        if flow.assembled:
            return
        flow.assembled = True
        flow.empty = empty
        # Gate: register for every pulse p with prev(p) = q before passing
        # the report on (Section 4.1.2, first bullet).  All gate_wait slots
        # are reserved before any registration is issued, because a
        # root-cluster registration confirms synchronously.
        if self.pulse == prev(q) and self.pulse > 0 and not empty:
            gates = []
            for p in gating_pulses_cached(q, self.threshold):
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
            self._after_gate(q)

    def _on_registered(self, cid: int, p: int) -> None:
        self._reg_pending[p] -= 1
        if self._reg_pending[p] > 0:
            return
        self._registered.add(p)
        if p in self._awaiting_dereg:
            self._awaiting_dereg.discard(p)
            self._do_deregister(p)
        q = prev(p)
        flow = self._flow(q)
        flow.gate_wait -= 1
        if flow.gate_wait == 0 and flow.assembled:
            self._after_gate(q)

    def _after_gate(self, q: int) -> None:
        flow = self._flow(q)
        if flow.gate_done:
            return
        flow.gate_done = True
        if self.pulse == prev_prev(q):
            self._terminus(q, flow)
        else:
            self._send_link(self.parent_link, (OP_FLOW, q, flow.empty), q)

    def _terminus(self, q: int, flow: _Flow) -> None:
        if self.pulse == 0:
            # Base case (Section 4.2): q-safety reached the source; its
            # deregistration is the convergecast contribution.  Iterate a
            # sorted copy: a single-node cluster confirms synchronously,
            # mutating the pending set, and the contribution order is part
            # of the schedule, so it must not follow the set's hash order.
            sdereg = _sdereg_tag(q)
            for cid in sorted(self._sdereg_pending.get(q, ())):
                self.agg.contribute(cid, sdereg, True)
            if not self._sdereg_pending.get(q):
                self._release_go_ahead(q)
            if q == self.threshold:
                self._contribute_check()
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
            self._release_go_ahead(q)

    # ------------------------------------------------------------------
    # Go-Ahead propagation down the execution tree
    # ------------------------------------------------------------------
    def _release_go_ahead(self, q: int) -> None:
        if q in self._released:
            return
        self._released.add(q)
        self._propagate_go_ahead(q)

    def _propagate_go_ahead(self, q: int) -> None:
        send_link = self._send_link
        payload = (OP_GA, q)
        if self.pulse == q - 1:
            for lid in self._children_links:
                send_link(lid, payload, q)
            return
        reports_get = self._flow(q).reports.get
        for c, lid in self._child_pairs:
            if reports_get(c) is False:
                send_link(lid, payload, q)

    def _handle_ga(self, sender: NodeId, payload: Tuple) -> None:
        q = payload[1]
        if self.pulse == q:
            if q < self.threshold:
                self._send_joins()
            return
        self._propagate_go_ahead(q)

    # ------------------------------------------------------------------
    # aggregate results (base registrations, base Go-Aheads, checking)
    # ------------------------------------------------------------------
    def _on_agg_result(self, cid: int, tag: int, result: Any) -> None:
        kind = tag & 3
        if kind == _AGG_KIND_SREG:
            pending = self._sreg_pending.get(tag >> 2)
            if pending is not None and cid in pending:
                pending.discard(cid)
                self._maybe_source_send()
        elif kind == _AGG_KIND_SDEREG:
            q = tag >> 2
            pending = self._sdereg_pending.get(q)
            if pending is None or cid not in pending:
                return
            pending.discard(cid)
            flow = self._flows.get(q)
            if not pending and flow is not None and flow.assembled:
                self._release_go_ahead(q)
        elif kind == _AGG_KIND_CHECK:
            if cid in self._check_pending:
                self._check_pending.discard(cid)
                if not self._check_pending:
                    self._complete()
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown aggregate result tag {tag!r}")

    def _contribute_check(self) -> None:
        for cid in self.registry.member_clusters(self.node_id, self.check_level):
            self.agg.contribute(cid, _CHECK_TAG, True)

    def _complete(self) -> None:
        if self.completed:
            return
        self.completed = True
        self.on_complete(self.pulse)

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
            raise ValueError(f"unknown thresholded-BFS message {op!r}")
        handler(sender, payload)
