"""Awerbuch's γ synchronizer (Appendix A).

γ interpolates between α and β: the graph is partitioned into low-diameter
clusters (here: the deterministic Rozhoň–Ghaffari decomposition with k=1,
whose construction cost we report separately, like β's tree); per pulse,
safety is convergecast inside each cluster (β-style), clusters exchange
safety over one *preferred edge* per adjacent cluster pair (α-style), and a
second convergecast/broadcast releases the next pulse.  Per pulse: O(cluster
height) time and O(n + #preferred edges) messages, i.e. messages
``M(A) + O(T·n)`` with time overhead O(log n)·stretch.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ..covers.rozhon_ghaffari import build_rg_decomposition
from ..net.async_runtime import AsyncResult, AsyncRuntime, Process, ProcessContext
from ..net.delays import DelayModel
from ..net.graph import Graph, NodeId
from ..net.program import ArrivedBatch, NodeInfo, ProgramSpec, PulseApi
from ..net.sync_runtime import run_synchronous
from ..core.cluster_ops import ClusterAggregateModule, and_merge
from ..core.registration import ClusterView


class GammaStructure:
    """Precomputed partition: clusters, trees, preferred inter-cluster edges."""

    def __init__(self, graph: Graph) -> None:
        decomposition = build_rg_decomposition(graph, 1)
        self.construction_rounds = decomposition.cost.rounds
        self.construction_messages = decomposition.cost.messages
        self.trees = {}
        self.cluster_of: Dict[NodeId, int] = {}
        cid = 0
        for _, tree in decomposition.all_clusters():
            self.trees[cid] = tree
            for v in tree.members:
                self.cluster_of[v] = cid
            cid += 1
        preferred: Dict[Tuple[int, int], Tuple[NodeId, NodeId]] = {}
        for u, v in sorted(graph.edges):
            cu, cv = self.cluster_of[u], self.cluster_of[v]
            if cu == cv:
                continue
            pair = (min(cu, cv), max(cu, cv))
            if pair not in preferred:
                preferred[pair] = (u, v)
        self.preferred_of: Dict[NodeId, List[NodeId]] = {}
        for u, v in preferred.values():
            self.preferred_of.setdefault(u, []).append(v)
            self.preferred_of.setdefault(v, []).append(u)

    def views_of(self, node: NodeId) -> Dict[int, ClusterView]:
        views = {}
        for cid, tree in self.trees.items():
            if node in tree.parent:
                views[cid] = ClusterView(
                    cluster_id=cid,
                    parent=tree.parent[node],
                    children=tree.children.get(node, ()),
                )
        return views


class GammaNode:
    def __init__(
        self,
        node_id: NodeId,
        info: NodeInfo,
        program_factory,
        is_initiator: bool,
        max_pulse: int,
        structure: GammaStructure,
        send,
        set_output,
    ) -> None:
        self.node_id = node_id
        self.info = info
        self.program = program_factory(info)
        self.is_initiator = is_initiator
        self.max_pulse = max_pulse
        self.structure = structure
        self._send = send
        self.set_output = set_output
        self.my_cluster = structure.cluster_of[node_id]
        self.preferred = tuple(sorted(structure.preferred_of.get(node_id, ())))
        views = structure.views_of(node_id)
        self.views = views
        self.agg = ClusterAggregateModule(
            node_id=node_id,
            clusters=views,
            send=lambda to, payload, priority: self._send(to, payload, priority),
            on_result=self._on_result,
            merge_fn=lambda tag: and_merge,
            priority_fn=lambda tag: (tag[1],),
        )
        self.pulse = 0
        self.arrived: Dict[int, List[Tuple[NodeId, Any]]] = {}
        self.sends_pending = 0
        self._sent_last = False
        self.xsafe_got: Dict[int, Set[NodeId]] = {}
        self.gsafe_result: Set[int] = set()

    # ------------------------------------------------------------------
    def start(self) -> None:
        sends: List[Tuple[NodeId, Any]] = []
        if self.is_initiator:
            api = PulseApi(self.info)
            self.program.on_start(api)
            sends, has_output, value = api.collect()
            if has_output:
                self.set_output(value)
        self._sent_last = bool(sends)
        # Steiner-only duties for pulse 0 on foreign trees.
        for cid in self.views:
            if cid != self.my_cluster:
                self.agg.contribute(cid, ("gsafe", 0), True)
                self.agg.contribute(cid, ("gx", 0), True)
        self._emit(sends)

    def _emit(self, sends: List[Tuple[NodeId, Any]]) -> None:
        self.sends_pending = len(sends)
        for to, payload in sends:
            self._send(to, ("m", self.pulse, payload), (self.pulse,))
        if self.sends_pending == 0:
            self._safe()

    def on_delivered(self, to: NodeId, payload: Tuple) -> None:
        if payload[0] != "m" or payload[1] != self.pulse:
            return
        self.sends_pending -= 1
        if self.sends_pending == 0:
            self._safe()

    def _safe(self) -> None:
        self.agg.contribute(self.my_cluster, ("gsafe", self.pulse), True)

    def _on_result(self, cid: int, tag: Tuple, result: Any) -> None:
        kind, p = tag
        if cid != self.my_cluster:
            # Foreign (Steiner) tree: pace its barriers one pulse at a time.
            if kind == "gx" and p + 1 <= self.max_pulse:
                self.agg.contribute(cid, ("gsafe", p + 1), True)
                self.agg.contribute(cid, ("gx", p + 1), True)
            return
        if kind == "gsafe":
            self.gsafe_result.add(p)
            for v in self.preferred:
                self._send(v, ("xsafe", p), (p,))
            self._maybe_xdone(p)
        elif kind == "gx":
            self._advance()

    def _maybe_xdone(self, p: int) -> None:
        if p not in self.gsafe_result:
            return
        if self.xsafe_got.get(p, set()) >= set(self.preferred):
            self.gsafe_result.discard(p)
            self.agg.contribute(self.my_cluster, ("gx", p), True)

    def _advance(self) -> None:
        if self.pulse >= self.max_pulse:
            return
        batch: ArrivedBatch = tuple(sorted(self.arrived.pop(self.pulse, ())))
        self.pulse += 1
        api = PulseApi(self.info)
        if batch or self._sent_last:
            self.program.on_pulse(api, batch)
        sends, has_output, value = api.collect()
        if has_output:
            self.set_output(value)
        self._sent_last = bool(sends)
        self._emit(sends)

    def handle(self, sender: NodeId, payload: Tuple) -> None:
        kind = payload[0]
        if kind == "m":
            self.arrived.setdefault(payload[1], []).append((sender, payload[2]))
        elif kind == "xsafe":
            self.xsafe_got.setdefault(payload[1], set()).add(sender)
            self._maybe_xdone(payload[1])
        elif not self.agg.handle(sender, payload):  # pragma: no cover
            raise ValueError(f"unknown gamma message {payload!r}")


class GammaProcess(Process):
    spec: ProgramSpec
    max_pulse: int
    initiators: FrozenSet[NodeId]
    infos: Dict[NodeId, NodeInfo]
    structure: GammaStructure

    def __init__(self, ctx: ProcessContext) -> None:
        super().__init__(ctx)
        self.node = GammaNode(
            node_id=ctx.node_id,
            info=self.infos[ctx.node_id],
            program_factory=self.spec.node_factory,
            is_initiator=ctx.node_id in self.initiators,
            max_pulse=self.max_pulse,
            structure=self.structure,
            send=lambda to, payload, priority: ctx.send(to, payload, priority),
            set_output=ctx.set_output,
        )

    def on_start(self) -> None:
        self.node.start()

    def on_message(self, sender: NodeId, payload: Tuple) -> None:
        self.node.handle(sender, payload)

    def on_delivered(self, to: NodeId, payload: Tuple) -> None:
        self.node.on_delivered(to, payload)


def run_gamma(
    graph: Graph,
    spec: ProgramSpec,
    delay_model: DelayModel,
    max_pulse: Optional[int] = None,
    structure: Optional[GammaStructure] = None,
    max_events: int = 100_000_000,
) -> AsyncResult:
    """Run ``spec`` under the γ synchronizer."""
    if max_pulse is None:
        max_pulse = run_synchronous(graph, spec).rounds_total
    if structure is None:
        structure = GammaStructure(graph)
    namespace = dict(
        spec=spec,
        max_pulse=max_pulse,
        initiators=frozenset(spec.initiators(graph)),
        infos=spec.make_infos(graph),
        structure=structure,
    )
    process_cls = type("BoundGamma", (GammaProcess,), namespace)
    runtime = AsyncRuntime(graph, process_cls, delay_model)
    result = runtime.run(max_events=max_events)
    if result.stop_reason != "quiescent":
        raise RuntimeError(f"gamma did not finish: {result.stop_reason}")
    return result
