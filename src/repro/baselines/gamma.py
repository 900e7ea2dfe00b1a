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

from typing import Any, Dict, List, Optional, Set, Tuple

from ..covers.rozhon_ghaffari import build_rg_decomposition
from ..net.async_runtime import AsyncResult, ProcessContext
from ..net.delays import DelayModel
from ..net.graph import Graph, NodeId
from ..net.program import ProgramSpec
from ..core.cluster_ops import ClusterAggregateModule, and_merge
from ..core.registration import cluster_views_for
from .common import BaselineProcess, BaselineSweep


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


class GammaProcess(BaselineProcess):
    """γ's rule: a ``gsafe`` barrier in the node's cluster, ``xsafe`` over
    the preferred edges to adjacent clusters, then a ``gx`` barrier whose
    result releases the next pulse.  A node on a foreign cluster's tree
    (Steiner duty) contributes ``True`` to both barriers of every pulse."""

    NAME = "gamma"

    # Set by :meth:`bind`:
    structure: GammaStructure

    def __init__(self, ctx: ProcessContext) -> None:
        super().__init__(ctx)
        structure, node_id = self.structure, ctx.node_id
        self.my_cluster = structure.cluster_of[node_id]
        self.preferred = tuple(sorted(structure.preferred_of.get(node_id, ())))
        self.views = cluster_views_for(structure.trees, node_id)
        self.agg = ClusterAggregateModule(
            node_id=node_id,
            clusters=self.views,
            on_result=self._on_result,
            merge=and_merge,
            priority_fn=lambda tag: (tag[1],),
            links=ctx.links,
            send_link=ctx.send_link,
        )
        self.xsafe_got: Dict[int, Set[NodeId]] = {}
        self.gsafe_result: Set[int] = set()

    def on_start(self) -> None:
        # Steiner-only duties for pulse 0 on foreign trees; their barrier
        # messages leave before the program's pulse-0 messages.
        for cid in self.views:
            if cid != self.my_cluster:
                self.agg.contribute(cid, ("gsafe", 0), True)
                self.agg.contribute(cid, ("gx", 0), True)
        super().on_start()

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
                self.ctx.send(v, ("xsafe", p), (p,))
            self._maybe_xdone(p)
        elif kind == "gx":
            self._advance()

    def _maybe_xdone(self, p: int) -> None:
        if p not in self.gsafe_result:
            return
        if self.xsafe_got.get(p, set()) >= set(self.preferred):
            self.gsafe_result.discard(p)
            self.agg.contribute(self.my_cluster, ("gx", p), True)

    def _control(self, sender: NodeId, payload: Tuple) -> bool:
        if payload[0] == "xsafe":
            self.xsafe_got.setdefault(payload[1], set()).add(sender)
            self._maybe_xdone(payload[1])
            return True
        return self.agg.handle(sender, payload)


def run_gamma(
    graph: Graph,
    spec: ProgramSpec,
    delay_model: DelayModel,
    max_pulse: Optional[int] = None,
    structure: Optional[GammaStructure] = None,
    max_events: int = 100_000_000,
) -> AsyncResult:
    """Run ``spec`` under the γ synchronizer."""
    if structure is None:
        structure = GammaStructure(graph)
    sweep = BaselineSweep(graph, GammaProcess.bind(
        graph, spec, max_pulse, structure=structure))
    return sweep.run(delay_model, max_events=max_events)
