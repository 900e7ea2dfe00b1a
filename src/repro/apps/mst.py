"""Event-driven synchronous MST (the Corollary 1.4 inner algorithm).

A Borůvka/GHS-style fragment-merging MST, written against the event-driven
contract so it runs unchanged under the synchronous runtime, the paper's
deterministic synchronizer, and the α/β/γ baselines.  Weights must be
distinct (the MST is then unique); ``repro.net.topology.with_random_weights``
produces such graphs.

Per phase (at most ``log2 n`` of them — every fragment merges every phase):

1. every node tells each neighbor its fragment id;
2. each node computes its minimum-weight outgoing edge (MOE) and the
   fragment minimum is convergecast up the fragment tree;
3. the fragment leader broadcasts the chosen edge; its endpoint fires a
   merge request across it;
4. merge requests glue fragments; the unique mutually-chosen pair nominates
   its higher endpoint as new leader, whose "newfrag" broadcast re-roots the
   union (each node adopts the sender of its first newfrag as parent) and
   starts the next phase.

Because fragments pace themselves independently, a fragment's internal
merge broadcast can race against the incoming newfrag wave; stale phase-k
messages are then dropped.  This can drop a chosen MOE from the *gluing*,
but never from correctness: the final parent structure is a spanning tree
whose every edge was some phase's chosen MOE, and a spanning tree contained
in the MST is the MST.  Liveness holds because a fragment that never fires
its merge request was, by construction, already invaded by the newfrag wave,
and late merge requests are answered with the adopted fragment directly.

The leader whose fragment has no outgoing edge owns the full tree and
broadcasts termination; every node outputs its incident MST edges.

This substitutes for Elkin'20's ``Õ(D + sqrt(n))``-round algorithm
(DESIGN.md substitution 4): message complexity is ``O(m log n)`` matching
Corollary 1.4's ``Õ(m)``, while the round complexity is ``O(n log n)`` in
the worst case.  To respect CONGEST's one-message-per-neighbor-per-round,
the sub-messages a node owes one neighbor in a pulse are batched into one
message carrying a tuple of parts (constant blow-up).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..net.graph import Graph, NodeId, edge_key
from ..net.program import (
    ArrivedBatch,
    NodeInfo,
    NodeProgram,
    ProgramSpec,
    PulseApi,
    all_nodes_initiate,
)

INFINITE = (float("inf"), -1, -1)


class MstProgram(NodeProgram):
    """One node of the Borůvka MST; a state machine over pulse batches."""

    def __init__(self, info: NodeInfo) -> None:
        super().__init__(info)
        self.phase = 0
        self.fragment = info.node_id
        self.parent: Optional[NodeId] = None
        self.children: Set[NodeId] = set()
        self.fid_by_phase: Dict[int, Dict[NodeId, NodeId]] = {}
        self.mreq_by_phase: Dict[int, Set[NodeId]] = {}
        self.moe_reports: Dict[NodeId, Tuple] = {}
        self.moe_sent = False
        self.merge_sent_to: Optional[NodeId] = None
        self.adopted_fragment: Dict[int, NodeId] = {}
        self.done = False
        self.outbox: Dict[NodeId, List[Tuple]] = {}

    # ------------------------------------------------------------------
    # batching: at most one physical message per neighbor per pulse
    # ------------------------------------------------------------------
    def _post(self, to: NodeId, part: Tuple) -> None:
        self.outbox.setdefault(to, []).append(part)

    def _flush(self, api: PulseApi) -> None:
        for to in sorted(self.outbox):
            api.send(to, tuple(self.outbox[to]))
        self.outbox.clear()

    # ------------------------------------------------------------------
    def on_start(self, api: PulseApi) -> None:
        self._begin_phase()
        self._flush(api)

    def _begin_phase(self) -> None:
        self.moe_reports.clear()
        self.moe_sent = False
        self.merge_sent_to = None
        for v in self.info.neighbors:
            self._post(v, ("fid", self.phase, self.fragment))

    # ------------------------------------------------------------------
    def on_pulse(self, api: PulseApi, arrived: ArrivedBatch) -> None:
        if self.done and not arrived:
            return
        for sender, parts in arrived:
            for part in parts:
                self._dispatch(sender, part)
        if not self.done:
            self._maybe_report_moe()
            self._maybe_new_leader()
        self._flush(api)
        if self._pending_output is not None:
            api.set_output(self._pending_output)
            self._pending_output = None

    _pending_output: Optional[Tuple] = None

    def _dispatch(self, sender: NodeId, part: Tuple) -> None:
        kind = part[0]
        if kind == "fid":
            self.fid_by_phase.setdefault(part[1], {})[sender] = part[2]
        elif kind == "moe":
            if part[1] == self.phase and not self.done:
                self.moe_reports[sender] = part[2]
        elif kind == "merge":
            if part[1] == self.phase and not self.done:
                self._handle_merge(part[2])
        elif kind == "mreq":
            phase = part[1]
            self.mreq_by_phase.setdefault(phase, set()).add(sender)
            if phase < self.phase:
                # Late merge request: we already adopted for that phase —
                # hand the sender the new fragment directly and make the
                # tree edge consistent on our side too.  Our current-phase
                # MOE convergecast cannot have completed yet, because it
                # still waits for this sender's current-phase fid.
                self.children.add(sender)
                self._post(
                    sender, ("newfrag", phase, self.adopted_fragment[phase])
                )
                if self.done:  # pragma: no cover - defensive; see docstring
                    self._post(sender, ("done",))
        elif kind == "newfrag":
            phase, fragment = part[1], part[2]
            if phase == self.phase:
                self._adopt(phase, fragment, sender)
            # else: duplicate delivery on a raced edge; already adopted.
        elif kind == "done":
            if not self.done:
                self._broadcast_done()
        else:  # pragma: no cover
            raise ValueError(f"unknown MST part {part!r}")

    # ------------------------------------------------------------------
    # phase body
    # ------------------------------------------------------------------
    def _local_moe(self) -> Tuple:
        fids = self.fid_by_phase.get(self.phase, {})
        best = INFINITE
        for v in self.info.neighbors:
            if fids.get(v) != self.fragment:
                cand = (self.info.weight(v), self.info.node_id, v)
                if cand < best:
                    best = cand
        return best

    def _maybe_report_moe(self) -> None:
        if self.moe_sent:
            return
        fids = self.fid_by_phase.get(self.phase, {})
        if set(fids) < set(self.info.neighbors):
            return
        if set(self.moe_reports) < self.children:
            return
        best = self._local_moe()
        for report in self.moe_reports.values():
            best = min(best, tuple(report))
        self.moe_sent = True
        if self.parent is not None:
            self._post(self.parent, ("moe", self.phase, best))
        elif best == INFINITE:
            self._broadcast_done()
        else:
            self._handle_merge(best)

    def _handle_merge(self, best: Tuple) -> None:
        _, u, v = best
        if u == self.info.node_id:
            self._post(v, ("mreq", self.phase, self.fragment))
            self.merge_sent_to = v
            self._maybe_new_leader()
        else:
            for c in sorted(self.children):
                self._post(c, ("merge", self.phase, best))

    def _maybe_new_leader(self) -> None:
        v = self.merge_sent_to
        if v is None or self.done:
            return
        if v in self.mreq_by_phase.get(self.phase, set()):
            if self.info.node_id > v:
                self._adopt(self.phase, self.info.node_id, None)

    def _adopt(
        self, phase: int, new_fragment: NodeId, new_parent: Optional[NodeId]
    ) -> None:
        tree_neighbors = set(self.children)
        if self.parent is not None:
            tree_neighbors.add(self.parent)
        merge_links = set(self.mreq_by_phase.get(phase, set()))
        if self.merge_sent_to is not None:
            merge_links.add(self.merge_sent_to)
        self.adopted_fragment[phase] = new_fragment
        self.fragment = new_fragment
        self.parent = new_parent
        targets = tree_neighbors | merge_links
        if new_parent is not None:
            targets.discard(new_parent)
        self.children = set(targets)
        self.phase = phase + 1
        for c in sorted(targets):
            self._post(c, ("newfrag", phase, new_fragment))
        self._begin_phase()

    def _broadcast_done(self) -> None:
        self.done = True
        for c in sorted(self.children):
            self._post(c, ("done",))
        edges = {edge_key(self.info.node_id, c) for c in self.children}
        if self.parent is not None:
            edges.add(edge_key(self.info.node_id, self.parent))
        self._pending_output = tuple(sorted(edges))


def mst_spec() -> ProgramSpec:
    return ProgramSpec("boruvka-mst", MstProgram, all_nodes_initiate)


def mst_edges_from_outputs(outputs: Dict[NodeId, Tuple]) -> FrozenSet[Tuple[int, int]]:
    """Union of per-node incident MST edge outputs."""
    edges: Set[Tuple[int, int]] = set()
    for node_edges in outputs.values():
        edges.update(node_edges)
    return frozenset(edges)


def reference_mst(graph: Graph) -> FrozenSet[Tuple[int, int]]:
    """Kruskal oracle for tests and benchmarks."""
    parent = list(range(graph.num_nodes))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen: Set[Tuple[int, int]] = set()
    for w, e in sorted((graph.weight(*e), e) for e in graph.edges):
        ra, rb = find(e[0]), find(e[1])
        if ra != rb:
            parent[ra] = rb
            chosen.add(e)
    return frozenset(chosen)
