"""Runners that execute the thresholded-BFS machinery on the async simulator."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple
from weakref import WeakKeyDictionary

from ..covers.builders import build_layered_cover
from ..gcpause import paused_gc
from ..net.async_runtime import AsyncResult, Process, ProcessContext
from ..net.delays import DelayModel
from ..net.graph import Graph, NodeId
from ..net.sweep import ProtocolSweep, bound_process_class
from .pulse import COVER_LEVEL_OFFSET
from .registry import CoverRegistry
from .thresholded_bfs import OP_GA, UNREACHED, ThresholdedBFSCore


@dataclass
class BFSOutcome:
    """Distances computed by an asynchronous BFS run, plus transport stats."""

    distances: Dict[NodeId, float]
    parents: Dict[NodeId, Optional[NodeId]]
    result: AsyncResult

    @property
    def messages(self) -> int:
        return self.result.messages

    @property
    def time(self) -> float:
        return self.result.time_to_output


def bfs_outcome(graph: Graph, result: AsyncResult) -> BFSOutcome:
    """Check that a BFS run quiesced with every node's ``(distance,
    parent)`` output, and split the outputs into a :class:`BFSOutcome`."""
    if result.stop_reason != "quiescent":
        raise RuntimeError(f"BFS did not finish: {result.stop_reason}")
    missing = set(graph.nodes) - set(result.outputs)
    if missing:
        raise RuntimeError(f"BFS deadlocked: nodes {sorted(missing)} never completed")
    distances = {v: result.outputs[v][0] for v in graph.nodes}
    parents = {v: result.outputs[v][1] for v in graph.nodes}
    return BFSOutcome(distances=distances, parents=parents, result=result)


def source_set(sources: Iterable[NodeId] | NodeId) -> FrozenSet[NodeId]:
    """A BFS's sources as a frozenset (one node id or an iterable of them);
    raises on an empty set."""
    nodes = (
        frozenset((sources,)) if isinstance(sources, int) else frozenset(sources)
    )
    if not nodes:
        raise ValueError("at least one source required")
    return nodes


def required_cover_radius(threshold: int) -> int:
    """Top cover radius a 2^t-thresholded BFS needs: 2^(t + 5)."""
    t = max(threshold.bit_length() - 1, 0)
    return 1 << (t + COVER_LEVEL_OFFSET)


# Cover construction is a pure function of (graph, radius, builder); sweeps
# and repeated runs over the same graph share the registry.  Keyed weakly so
# discarded graphs release their covers.
_REGISTRY_CACHE: "WeakKeyDictionary[Graph, Dict[Tuple[int, str], CoverRegistry]]" = (
    WeakKeyDictionary()
)


def registry_for_threshold(
    graph: Graph, threshold: int, builder: str = "ap"
) -> CoverRegistry:
    radius = required_cover_radius(threshold)
    per_graph = _REGISTRY_CACHE.get(graph)
    if per_graph is None:
        per_graph = _REGISTRY_CACHE[graph] = {}
    registry = per_graph.get((radius, builder))
    if registry is None:
        layered = build_layered_cover(graph, radius, builder)
        registry = per_graph[(radius, builder)] = CoverRegistry(layered)
        # The levels every consumer reads (a thresholded BFS also reads
        # level t, which it loads itself): callers time this as setup.
        registry.load(registry.level_set(COVER_LEVEL_OFFSET))
    return registry


class ThresholdedBFSProcess(Process):
    """One-node standalone wrapper: activates at start, outputs its distance."""

    # Set by :meth:`bind`:
    registry: CoverRegistry
    sources: FrozenSet[NodeId]
    threshold: int

    #: Opcode range of the core's dispatch tuple (0..OP_GA): the transport
    #: validates the table against this at wiring time.
    NUM_OPCODES = OP_GA + 1

    @classmethod
    def bind(
        cls,
        graph: Graph,
        sources: Iterable[NodeId] | NodeId,
        threshold: int,
        registry: Optional[CoverRegistry] = None,
        builder: str = "ap",
    ) -> type:
        """This class bound to one run's sources (normalized by
        :func:`source_set`), threshold and cover registry (built when not
        given), with the levels a node reads loaded."""
        sources = source_set(sources)
        if registry is None:
            registry = registry_for_threshold(graph, threshold, builder)
        registry.load(ThresholdedBFSCore.cover_levels(registry, threshold))
        return bound_process_class("Bound" + cls.__name__, cls, dict(
            registry=registry, sources=sources, threshold=threshold
        ))

    def __init__(self, ctx: ProcessContext) -> None:
        super().__init__(ctx)
        # The link priority IS the stage number: every send in a thresholded
        # BFS run carries an explicit stage, so bare ints order the outboxes
        # exactly as the old per-stage tuples did — without a wrapper frame
        # and a tuple table per send path.
        self.core = ThresholdedBFSCore(
            node_id=ctx.node_id,
            neighbors=ctx.neighbors,
            registry=self.registry,
            threshold=self.threshold,
            send=ctx.send,
            on_complete=self._on_complete,
            # getattr: reference/teaching engines run the same process class
            # without a dense link table; the core then falls back to
            # node-id sends (the identity link map).
            links=getattr(ctx, "links", None),
            send_link=getattr(ctx, "send_link", None),
        )
        # Shadow the class method: the transport calls the node engine
        # directly (one frame less per delivered message), and the opcode
        # table lets it skip the guarded ``handle`` wrapper entirely.
        self.on_message = self.core.handle
        self.on_message_table = self.core._dispatch

    def _on_complete(self, pulse: Optional[int]) -> None:
        self.ctx.set_output(
            (pulse if pulse is not None else UNREACHED, self.core.parent)
        )

    def on_start(self) -> None:
        self.core.activate(self.ctx.node_id in self.sources)

    def on_message(self, sender: NodeId, payload: Tuple) -> None:
        self.core.handle(sender, payload)


class BFSSweep(ProtocolSweep):
    """Replays of a BFS-family process class (its nodes output ``(distance,
    parent)``); each replay is checked and split by :func:`bfs_outcome`.
    The multi-stage and full BFS runners are one-replay uses of it."""

    MAX_EVENTS = 50_000_000

    def finish(self, result: AsyncResult) -> BFSOutcome:
        return bfs_outcome(self.graph, result)


class ThresholdedBFSSweep(BFSSweep):
    """Replay one 2^t-thresholded (multi-source) BFS under many delay models.

    ``ThresholdedBFSSweep(graph, sources, threshold).run(model)`` is
    byte-identical to ``run_thresholded_bfs(graph, sources, threshold,
    model)`` with the cover built once per sweep, under the package's GC
    pause.
    """

    @paused_gc()
    def __init__(
        self,
        graph: Graph,
        sources: Iterable[NodeId] | NodeId,
        threshold: int,
        registry: Optional[CoverRegistry] = None,
        builder: str = "ap",
    ) -> None:
        super().__init__(graph, ThresholdedBFSProcess.bind(
            graph, sources, threshold, registry=registry, builder=builder
        ))


def run_thresholded_bfs(
    graph: Graph,
    sources: Iterable[NodeId] | NodeId,
    threshold: int,
    delay_model: DelayModel,
    registry: Optional[CoverRegistry] = None,
    builder: str = "ap",
    max_events: int = 50_000_000,
) -> BFSOutcome:
    """Run one 2^t-thresholded (multi-source) BFS to completion.

    Every node outputs its distance to the closest source, or ``inf`` when
    that distance exceeds the threshold (Definition 4.2).
    """
    sweep = ThresholdedBFSSweep(
        graph, sources, threshold, registry=registry, builder=builder
    )
    return sweep.run(delay_model, max_events=max_events)
