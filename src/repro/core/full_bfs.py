"""Complete asynchronous BFS with doubling iterations (Section 4.6).

Iteration ``i`` runs a fresh ``2^i``-thresholded multi-source BFS from the
still-*alive* original sources (Theorems 4.23/4.24).  Termination uses the
paper's Approach 2 with the alive/dead refinement of Theorem 4.24:

* after the iteration's checking stage, each node of pulse exactly ``2^i``
  probes its neighbors for unreached nodes;
* the "subtree has a frontier node with an unreached neighbor" bit is
  convergecast up the execution tree to each source;
* a source whose subtree has no such frontier becomes *dead* and broadcasts
  the verdict down its tree: all its nodes become dead, output their
  distance, and join later iterations only as covered relays;
* unreached nodes know the algorithm must continue and stay alive.

A per-iteration "is anyone still alive?" convergecast on the top cover level
lets dead nodes stop launching further iterations, so the simulation
quiesces.  Nodes *output at death* — the paper's time-to-output measure is
``Õ(D1)`` — while this trailing bookkeeping may run longer, matching the
paper's remark that auxiliary communication can continue for up to ``Õ(D)``
after outputs (Section 1.3.1 and Appendix B).

Covers: this runner takes them as given (the Theorem 5.3 setting; see
DESIGN.md substitution 5 for why the per-iteration asynchronous cover
re-construction of Theorem 4.22 is out of scope and what that affects).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..net.async_runtime import Process, ProcessContext
from ..net.delays import DelayModel
from ..net.graph import Graph, NodeId
from ..net.sweep import bound_process_class
from .bfs_runner import BFSOutcome, BFSSweep, registry_for_threshold, source_set
from .cluster_ops import ClusterAggregateModule, and_merge
from .registration import ClusterView
from .registry import CoverRegistry
from .thresholded_bfs import UNREACHED, ThresholdedBFSCore


@dataclass
class _IterationState:
    core: Optional[ThresholdedBFSCore] = None
    check_done: bool = False
    pulse: Optional[int] = None
    probe_pending: Set[NodeId] = field(default_factory=set)
    probe_unreached_seen: bool = False
    front_reports: Dict[NodeId, bool] = field(default_factory=dict)
    front_sent: bool = False
    pending_probes_in: List[NodeId] = field(default_factory=list)
    verdict: Optional[bool] = None  # True = this subtree is dead
    alive_contributed: bool = False


class FullBFSNode:
    """Per-node driver for the complete doubling BFS."""

    def __init__(
        self,
        node_id: NodeId,
        neighbors: Tuple[NodeId, ...],
        registry: CoverRegistry,
        is_source: bool,
        max_iterations: int,
        send,  # (to, payload, priority_tuple) -> None
        on_output,  # (distance, parent) -> None
    ) -> None:
        self.node_id = node_id
        self.neighbors = neighbors
        self.registry = registry
        self.is_source = is_source
        self.max_iterations = max_iterations
        self._send = send
        self.on_output = on_output
        self.alive = True
        self.distance: Optional[int] = None
        self.parent: Optional[NodeId] = None
        self.output_done = False
        self.iterations: Dict[int, _IterationState] = {}
        # The doubling starts a 2^i-thresholded BFS per iteration i mid-run:
        # load the levels each reads now, so no run builds one.
        for i in range(max_iterations):
            registry.load(ThresholdedBFSCore.cover_levels(registry, 1 << i))
        top_views = {}
        top_level = registry.top_level
        for cid in registry.clusters_at_level(top_level):
            gc = registry.cluster(cid)
            if node_id in gc.tree.parent:
                top_views[cid] = ClusterView(
                    cluster_id=cid,
                    parent=gc.tree.parent[node_id],
                    children=gc.tree.children.get(node_id, ()),
                )
        self._alive_agg = ClusterAggregateModule(
            node_id=node_id,
            clusters=top_views,
            send=lambda to, payload, priority: self._send(
                to, ("fb_alive", payload), priority
            ),
            on_result=self._on_alive_result,
            merge_fn=lambda tag: and_merge,
            priority_fn=lambda tag: (tag[1], 1 << 30),
        )
        self._alive_members = set(
            registry.member_clusters(node_id, registry.top_level)
        )
        self._alive_results: Dict[int, Set[int]] = {}

    # ------------------------------------------------------------------
    def _iteration(self, i: int) -> _IterationState:
        state = self.iterations.get(i)
        if state is None:
            state = _IterationState()
            state.core = ThresholdedBFSCore(
                node_id=self.node_id,
                neighbors=self.neighbors,
                registry=self.registry,
                threshold=1 << i,
                send=lambda to, payload, s, i=i: self._send(
                    to, ("fb", i, payload), (i, s)
                ),
                on_complete=lambda pulse, i=i: self._check_done(i, pulse),
            )
            self.iterations[i] = state
        return state

    def start(self) -> None:
        self._activate(0)

    def _activate(self, i: int) -> None:
        if i >= self.max_iterations:
            raise RuntimeError(
                f"full BFS exceeded {self.max_iterations} iterations at node"
                f" {self.node_id}"
            )
        state = self._iteration(i)
        if self.alive:
            state.core.activate(self.is_source)
        else:
            state.core.activate(False, covered=True)
            self._contribute_alive(i, dead=True)

    # ------------------------------------------------------------------
    # after the checking stage: probing and frontier convergecast
    # ------------------------------------------------------------------
    def _check_done(self, i: int, pulse: Optional[int]) -> None:
        state = self._iteration(i)
        state.check_done = True
        state.pulse = pulse
        if self.alive and pulse is not None:
            self.distance = pulse
            self.parent = state.core.parent
        # Answer probes that arrived before we knew our status.
        for prober in state.pending_probes_in:
            self._send(
                prober, ("fb_probe_ans", i, pulse is not None or not self.alive),
                (i, (1 << i) + 2),
            )
        state.pending_probes_in.clear()
        if not self.alive:
            return
        if pulse is None:
            # Unreached: the algorithm is certainly not finished.
            self._contribute_alive(i, dead=False)
            self._activate(i + 1)
            return
        if pulse == (1 << i):
            state.probe_pending = set(self.neighbors)
            for v in self.neighbors:
                self._send(v, ("fb_probe", i), (i, (1 << i) + 2))
        else:
            self._maybe_send_front(i)

    def _handle_probe(self, sender: NodeId, i: int) -> None:
        state = self._iteration(i)
        if state.check_done:
            reached = state.pulse is not None or not self.alive
            self._send(sender, ("fb_probe_ans", i, reached), (i, (1 << i) + 2))
        else:
            state.pending_probes_in.append(sender)

    def _handle_probe_answer(self, sender: NodeId, i: int, reached: bool) -> None:
        state = self._iteration(i)
        state.probe_pending.discard(sender)
        if not reached:
            state.probe_unreached_seen = True
        if not state.probe_pending:
            self._maybe_send_front(i)

    def _handle_front(self, sender: NodeId, i: int, flag: bool) -> None:
        state = self._iteration(i)
        state.front_reports[sender] = flag
        self._maybe_send_front(i)

    def _maybe_send_front(self, i: int) -> None:
        state = self._iteration(i)
        if state.front_sent or not state.check_done or state.pulse is None:
            return
        if state.pulse == (1 << i):
            if state.probe_pending:
                return
            flag = state.probe_unreached_seen
        else:
            children = state.core.children
            if not set(state.front_reports) >= set(children):
                return
            flag = any(state.front_reports[c] for c in children)
        state.front_sent = True
        if self.is_source and state.pulse == 0:
            self._verdict(i, dead=not flag)
        else:
            self._send(state.core.parent, ("fb_front", i, flag), (i, (1 << i) + 2))

    # ------------------------------------------------------------------
    # verdict broadcast and the alive barrier
    # ------------------------------------------------------------------
    def _verdict(self, i: int, dead: bool) -> None:
        state = self._iteration(i)
        state.verdict = dead
        for c in state.core.children:
            self._send(c, ("fb_verdict", i, dead), (i, (1 << i) + 2))
        if dead:
            self.alive = False
            self._emit_output()
        self._contribute_alive(i, dead=dead)
        if not dead:
            self._activate(i + 1)

    def _handle_verdict(self, sender: NodeId, i: int, dead: bool) -> None:
        self._verdict(i, dead)

    def _emit_output(self) -> None:
        if self.output_done:
            return
        self.output_done = True
        self.on_output(self.distance, self.parent)

    def _contribute_alive(self, i: int, dead: bool) -> None:
        state = self._iteration(i)
        if state.alive_contributed:
            return
        state.alive_contributed = True
        self._alive_results[i] = set(self._alive_members)
        for cid in self._alive_agg.clusters:
            self._alive_agg.contribute(cid, ("alive", i), dead)

    def _on_alive_result(self, cid: int, tag: Tuple, all_dead: bool) -> None:
        _, i = tag
        pending = self._alive_results.get(i)
        if pending is None or cid not in pending:
            return
        pending.discard(cid)
        if pending:
            return
        if not all_dead and not self.alive:
            # Someone is still alive: serve the next iteration as a relay.
            self._activate(i + 1)
        # all_dead: every node has output; nothing more to launch.

    # ------------------------------------------------------------------
    def handle(self, sender: NodeId, payload: Tuple) -> None:
        kind = payload[0]
        if kind == "fb":
            self._iteration(payload[1]).core.handle(sender, payload[2])
        elif kind == "fb_alive":
            self._alive_agg.handle(sender, payload[1])
        elif kind == "fb_probe":
            self._handle_probe(sender, payload[1])
        elif kind == "fb_probe_ans":
            self._handle_probe_answer(sender, payload[1], payload[2])
        elif kind == "fb_front":
            self._handle_front(sender, payload[1], payload[2])
        elif kind == "fb_verdict":
            self._handle_verdict(sender, payload[1], payload[2])
        else:
            raise ValueError(f"unknown full-BFS message {payload!r}")


class FullBFSProcess(Process):
    registry: CoverRegistry
    sources: FrozenSet[NodeId]
    max_iterations: int

    def __init__(self, ctx: ProcessContext) -> None:
        super().__init__(ctx)
        self.node = FullBFSNode(
            node_id=ctx.node_id,
            neighbors=ctx.neighbors,
            registry=self.registry,
            is_source=ctx.node_id in self.sources,
            max_iterations=self.max_iterations,
            send=ctx.send,
            on_output=lambda dist, parent: ctx.set_output(
                (dist if dist is not None else UNREACHED, parent)
            ),
        )

    def on_start(self) -> None:
        self.node.start()

    def on_message(self, sender: NodeId, payload: Tuple) -> None:
        self.node.handle(sender, payload)


def run_full_bfs(
    graph: Graph,
    sources: Iterable[NodeId] | NodeId,
    delay_model: DelayModel,
    registry: Optional[CoverRegistry] = None,
    builder: str = "ap",
    max_events: int = 100_000_000,
) -> BFSOutcome:
    """Theorems 4.23/4.24: complete BFS, every node outputs its distance.

    When no registry is given, covers are built (sequentially) for the top
    radius the doubling can need; the paper's asynchronous per-iteration
    cover construction is not implemented (DESIGN.md, Substitution 5).
    """
    sources = source_set(sources)
    dist = graph.bfs_distances(sources)
    reach = max(d for d in dist if d != UNREACHED)
    max_iterations = max(1, math.ceil(math.log2(max(reach, 1))) + 2)
    if registry is None:
        registry = registry_for_threshold(graph, 1 << (max_iterations - 1), builder)
    process_cls = bound_process_class("BoundFullBFS", FullBFSProcess, dict(
        registry=registry, sources=sources, max_iterations=max_iterations
    ))
    return BFSSweep(graph, process_cls).run(delay_model, max_events=max_events)
