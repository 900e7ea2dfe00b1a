"""Asynchronous 2^t-thresholded multi-source BFS (Sections 4.1 and 4.2).

One :class:`ThresholdedBFSCore` instance per node implements the paper's
pulse machinery, given a layered sparse cover.  The core is a
:class:`~repro.core.gate.PulseGate` and the only vertex of its own join
tree; the gate, terminus and Section 4.2 base-barrier steps below are the
gate module's code, shared with the synchronizer.

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
from .gate import Flow, PulseGate, Vertex
from .pulse import COVER_LEVEL_OFFSET, assemble_pulses, cover_level
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

#: The checking stage's aggregate tag kind (DESIGN.md §10): kinds 0 and 1
#: are the Section 4.2 barriers of :mod:`repro.core.gate`, and the check
#: tag ``(threshold + 1) << 2 | 3`` carries its stage like theirs.
_AGG_KIND_CHECK = 3


class ThresholdedBFSCore(PulseGate, Vertex):
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
        recovery: bool = False,  # track join answers for churn pruning
    ) -> None:
        if threshold < 1 or threshold & (threshold - 1):
            raise ValueError(f"threshold must be a power of two, got {threshold}")
        self.t = threshold.bit_length() - 1
        required = cover_level(threshold)
        if registry.top_level < min(required, self.t):
            raise ValueError(
                f"layered cover top level {registry.top_level} too small for"
                f" threshold {threshold}"
            )
        super().__init__(
            node_id, registry, threshold, self.cover_levels(registry, threshold),
            send, links, send_link, recovery,
        )
        self.neighbors = tuple(neighbors)
        self.threshold = threshold
        self._neighbor_links = tuple(self._links[v] for v in self.neighbors)
        self.on_complete = on_complete
        self._check_tag = (threshold + 1) << 2 | _AGG_KIND_CHECK
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

        self.flows: Dict[int, Flow] = {}
        self._released: Set[int] = set()
        self._check_pending: Set[int] = set()
        # Recovery mode (DESIGN.md §11): remember which neighbors still owe
        # a join answer so :meth:`prune_neighbor` can count a crashed
        # neighbor's unanswered proposal as a decline.  None outside
        # recovery — the bare counter carries the fault-free protocol.
        self._answer_wait: Optional[Set[NodeId]] = None

    @staticmethod
    def cover_levels(registry: CoverRegistry, threshold: int) -> Tuple[int, ...]:
        """The cover levels a node reads: ``check_level`` (level ``t``) and
        the registration levels ``clamp_level(cover_level(p))``, none of
        which is below ``COVER_LEVEL_OFFSET`` (unless the cover tops out
        lower)."""
        return registry.level_set(
            COVER_LEVEL_OFFSET, threshold.bit_length() - 1)

    @property
    def check_level(self) -> int:
        return self.registry.clamp_level(self.t)

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
        # The check pending set exists before the first contribution: on
        # single-node clusters a barrier completes synchronously and the
        # whole protocol can cascade inside agg.contribute.
        self._check_pending = set(
            self.registry.member_clusters(self.node_id, self.check_level)
        )
        for cid in self.registry.tree_clusters_of(self.node_id, self.check_level):
            member_source = is_source and self.registry.is_member(self.node_id, cid)
            if not member_source:
                self.agg.contribute(cid, self._check_tag, True)
        self._start_base_barriers(is_source)

    def _source_send(self) -> None:
        if self.is_source:
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
            self._flow_assembled(self, leaf_flow, empty=(len(self.children) == 0))
        if self.children:
            for q in list(self.flows):
                self._try_assemble(q)
        else:
            # A childless node is the frontier of every flow through it
            # (prev_prev(q) <= pulse always holds on the memoized table).
            for q in assemble_pulses(self.pulse, self.threshold):
                self._flow_assembled(self, q, empty=True)

    # ------------------------------------------------------------------
    # churn recovery (DESIGN.md §11, best-effort)
    # ------------------------------------------------------------------
    def _prune_execution(self, dead: NodeId) -> None:
        """Detach a crashed neighbor from the execution tree: its
        unanswered join proposal counts as a decline and its subtree is
        dropped."""
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
            for flow in self.flows.values():
                flow.reports.pop(dead, None)
            if self.answered:
                self._child_pairs = tuple(
                    zip(self.children, self._children_links)
                )
                for q in list(self.flows):
                    self._try_assemble(q)
                for q in assemble_pulses(self.pulse, self.threshold):
                    self._try_assemble(q)

    # ------------------------------------------------------------------
    # safety/emptiness flows
    # ------------------------------------------------------------------
    def _handle_flow(self, sender: NodeId, payload: Tuple) -> None:
        q = payload[1]
        flows = self.flows
        flow = flows.get(q)
        if flow is None:
            flow = flows[q] = Flow()
        if sender in flow.reports:
            raise AssertionError(
                f"duplicate flow-{q} report from {sender} at {self.node_id}"
            )
        flow.reports[sender] = payload[2]
        self._try_assemble(q)

    def _try_assemble(self, q: int) -> None:
        flows = self.flows
        flow = flows.get(q)
        if flow is None:
            flow = flows[q] = Flow()
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
        self._flow_assembled(self, q, empty)

    def _vertex(self, pulse: int) -> "ThresholdedBFSCore":
        return self

    def _report_up(self, at: Vertex, q: int, flow: Flow) -> None:
        self._send_link(self.parent_link, (OP_FLOW, q, flow.empty), q)

    def _on_source_safe(self, q: int) -> None:
        if q == self.threshold:
            self._contribute_check()

    # ------------------------------------------------------------------
    # Go-Ahead propagation down the execution tree
    # ------------------------------------------------------------------
    def _release_down(self, at: Vertex, q: int) -> None:
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
        reports_get = self.flow(q).reports.get
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
    # the checking stage (Section 4.1.2)
    # ------------------------------------------------------------------
    def _on_other_result(self, cid: int, tag: int, result: Any) -> None:
        if cid in self._check_pending:
            self._check_pending.discard(cid)
            if not self._check_pending:
                self._complete()

    def _contribute_check(self) -> None:
        for cid in self.registry.member_clusters(self.node_id, self.check_level):
            self.agg.contribute(cid, self._check_tag, True)

    def _complete(self) -> None:
        if self.completed:
            return
        self.completed = True
        self.on_complete(self.pulse)
