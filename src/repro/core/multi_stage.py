"""Multi-source 2^t·l-thresholded BFS by staging (Section 4.3, Theorem 4.17).

The BFS is split into ``num_stages`` sequential stages; stage ``T`` is a
2^t-thresholded multi-source BFS whose sources are the nodes at distance
exactly ``T * 2^t`` from the original sources (their stage-``T-1`` pulse was
exactly ``2^t``).  Nodes finalized by earlier stages participate *covered*
(decline joins, relay and contribute to barriers), which is the paper's
"node knows it is not a source in the T-th stage".

The paper interleaves a Theorem 3.1 gather between stages so that a node
enters stage ``T+1`` only when its 2^t-ball finished stage ``T``; here that
guarantee is delivered by the Section 4.2 registration barrier itself — a
stage-``T+1`` source sends its first proposal only once every cluster of the
``2^{l(p)+5}``-covers containing it completes the ``sreg`` convergecast, and
each such cluster covers the source's whole 2^t-ball, whose nodes contribute
only after locally finishing stage ``T``.

Per Remark 4.18 this also yields d-thresholded BFS for arbitrary ``d``
(``distance_filter``): distances above ``d`` are reported as infinity.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..net.async_runtime import Process, ProcessContext
from ..net.delays import DelayModel
from ..net.graph import Graph, NodeId
from ..net.sweep import bound_process_class
from .bfs_runner import BFSOutcome, BFSSweep, registry_for_threshold, source_set
from .registry import CoverRegistry
from .thresholded_bfs import UNREACHED, ThresholdedBFSCore


class MultiStageBFSNode:
    """Per-node driver chaining ``num_stages`` thresholded-BFS instances."""

    def __init__(
        self,
        node_id: NodeId,
        neighbors: Tuple[NodeId, ...],
        registry: CoverRegistry,
        stage_threshold: int,
        num_stages: int,
        is_original_source: bool,
        send,  # (to, payload, priority_tuple) -> None
        on_final,  # (distance: float, parent: Optional[NodeId]) -> None
    ) -> None:
        self.node_id = node_id
        self.neighbors = neighbors
        self.registry = registry
        self.stage_threshold = stage_threshold
        self.num_stages = num_stages
        self.is_original_source = is_original_source
        self._send = send
        self.on_final = on_final
        self.cores: Dict[int, ThresholdedBFSCore] = {}
        self.distance: Optional[int] = None
        self.parent: Optional[NodeId] = None
        for stage in range(num_stages):
            self.cores[stage] = self._make_core(stage)

    def _make_core(self, stage: int) -> ThresholdedBFSCore:
        return ThresholdedBFSCore(
            node_id=self.node_id,
            neighbors=self.neighbors,
            registry=self.registry,
            threshold=self.stage_threshold,
            send=lambda to, payload, s, stage=stage: self._send(
                to, ("ms", stage, payload), (stage, s)
            ),
            on_complete=lambda pulse, stage=stage: self._stage_done(stage, pulse),
        )

    def start(self) -> None:
        self.cores[0].activate(self.is_original_source)

    def handle(self, sender: NodeId, payload: Tuple) -> None:
        kind, stage, inner = payload
        if kind != "ms":
            raise ValueError(f"unexpected payload {payload!r}")
        self.cores[stage].handle(sender, inner)

    def _stage_done(self, stage: int, pulse: Optional[int]) -> None:
        theta = self.stage_threshold
        if pulse is not None and self.distance is None:
            self.distance = stage * theta + pulse
            self.parent = self.cores[stage].parent
        next_stage = stage + 1
        if next_stage < self.num_stages:
            is_source = pulse == theta
            covered = self.distance is not None and not is_source
            self.cores[next_stage].activate(is_source, covered=covered)
        else:
            self.on_final(
                self.distance if self.distance is not None else None, self.parent
            )


class MultiStageBFSProcess(Process):
    """Standalone runner wrapper (bound by :func:`run_multi_stage_bfs`)."""

    registry: CoverRegistry
    sources: FrozenSet[NodeId]
    stage_threshold: int
    num_stages: int
    distance_filter: Optional[int]

    def __init__(self, ctx: ProcessContext) -> None:
        super().__init__(ctx)
        self.node = MultiStageBFSNode(
            node_id=ctx.node_id,
            neighbors=ctx.neighbors,
            registry=self.registry,
            stage_threshold=self.stage_threshold,
            num_stages=self.num_stages,
            is_original_source=ctx.node_id in self.sources,
            send=ctx.send,
            on_final=self._on_final,
        )

    def _on_final(self, distance: Optional[int], parent: Optional[NodeId]) -> None:
        limit = self.distance_filter
        if distance is None or (limit is not None and distance > limit):
            self.ctx.set_output((UNREACHED, None))
        else:
            self.ctx.set_output((distance, parent))

    def on_start(self) -> None:
        self.node.start()

    def on_message(self, sender: NodeId, payload: Tuple) -> None:
        self.node.handle(sender, payload)


def run_multi_stage_bfs(
    graph: Graph,
    sources: Iterable[NodeId] | NodeId,
    stage_threshold: int,
    num_stages: int,
    delay_model: DelayModel,
    registry: Optional[CoverRegistry] = None,
    distance_filter: Optional[int] = None,
    builder: str = "ap",
    max_events: int = 50_000_000,
) -> BFSOutcome:
    """Theorem 4.17: (2^t * num_stages)-thresholded multi-source BFS.

    ``distance_filter`` implements Remark 4.18: any d <= 2^t * num_stages.
    """
    sources = source_set(sources)
    if num_stages < 1:
        raise ValueError("need at least one stage")
    if distance_filter is not None and distance_filter > stage_threshold * num_stages:
        raise ValueError("distance_filter exceeds the covered range")
    if registry is None:
        registry = registry_for_threshold(graph, stage_threshold, builder)
    process_cls = bound_process_class(
        "BoundMultiStageBFS", MultiStageBFSProcess, dict(
            registry=registry,
            sources=sources,
            stage_threshold=stage_threshold,
            num_stages=num_stages,
            distance_filter=distance_filter,
        ))
    return BFSSweep(graph, process_cls).run(delay_model, max_events=max_events)
