"""Protocol-level sweep engines: one setup, many delay-model replays.

The expensive part of a synchronizer (or thresholded-BFS) run over a fresh
graph is not the event loop alone: measuring the pulse bound, building the
layered sparse cover, assigning registry views, and deriving node infos
together cost as much as the run itself at n=256.  Every experiment in the
paper replays the *same* graph and program under a family of delay models,
so these engines construct all of that shared immutable state exactly once
and then replay a fresh :class:`~repro.net.async_runtime.AsyncRuntime` per
model through :class:`~repro.net.sweep.AsyncSweep`.

Shared across replays (immutable): the graph and its directed-link
skeleton, the measured pulse bound T(A), the layered cover and its
:class:`~repro.core.registry.CoverRegistry` views, the node infos, the
initiator set, the memoized pulse tables, and the bound process class.
Rebuilt per replay (mutable): processes, link slots, the event heap — so
each replay is byte-identical to the corresponding standalone
``run_synchronized`` / ``run_thresholded_bfs`` call, which the engine
equivalence tests pin per delay model.
"""

from __future__ import annotations

import copyreg

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Type

from ..gcpause import paused_gc
from ..net.delays import DelayModel
from ..net.graph import Graph, NodeId
from ..net.program import ProgramSpec
from ..net.async_runtime import AsyncResult, Process
from ..net.shard import CellSummary, run_sharded, run_timed
from ..net.sweep import AsyncSweep, run_models
from .bfs_runner import (
    BFSOutcome,
    ThresholdedBFSProcess,
    bfs_outcome,
    registry_for_threshold,
)
from .registry import CoverRegistry
from .synchronizer import SynchronizerNode, SynchronizerProcess, pulse_bound_for
from .thresholded_bfs import ThresholdedBFSCore


class _BoundProcessMeta(type):
    """Metaclass of the dynamically bound per-sweep process classes.

    A sweep binds its immutable setup (registry views, pulse tables, node
    infos...) into a throwaway class — ``type("SweepSynchronizer",
    (SynchronizerProcess,), namespace)`` historically.  Such classes are
    anonymous: pickle's by-name class lookup fails, which would block
    shipping a sweep to shard workers.  Classes created through
    :func:`bound_process_class` use this metaclass instead, and a
    ``copyreg`` reducer (consulted by pickle *before* the by-name fallback)
    reduces the class to a module-level rebuild call carrying its
    ``(name, base, namespace)`` ingredients — so the worker reconstructs a
    class with the parent's exact bound state, and objects referenced from
    both the namespace and the sweep (the registry in particular) are
    shipped once thanks to pickle memoization.
    """


def bound_process_class(
    name: str, base: Type[Process], namespace: Dict[str, object]
) -> type:
    """A sweep-bound ``base`` subclass with ``namespace`` as class attrs,
    picklable by reconstruction (see :class:`_BoundProcessMeta`)."""
    namespace = dict(namespace)
    cls = _BoundProcessMeta(name, (base,), dict(namespace))
    cls._bound_class_state = (name, base, namespace)
    return cls


def _rebuild_bound_class(
    name: str, base: Type[Process], namespace: Dict[str, object]
) -> type:
    return bound_process_class(name, base, namespace)


def _reduce_bound_class(cls: type):
    return _rebuild_bound_class, cls._bound_class_state


copyreg.pickle(_BoundProcessMeta, _reduce_bound_class)


class SynchronizerSweep:
    """Replay one event-driven program under many delay models.

    ``SynchronizerSweep(graph, spec).run(model)`` is byte-identical to
    ``run_synchronized(graph, spec, model)`` — same outputs, message counts,
    times, and delivery traces — but the cover/registry/pulse-bound setup is
    paid once for the whole sweep instead of once per model.  Construction
    runs under the package's GC pause, like the cover, registry and runtime
    it builds on.
    """

    @paused_gc()
    def __init__(
        self,
        graph: Graph,
        spec: ProgramSpec,
        registry: Optional[CoverRegistry] = None,
        max_pulse: Optional[int] = None,
        builder: str = "ap",
    ) -> None:
        if max_pulse is None:
            max_pulse = pulse_bound_for(graph, spec)
        if registry is None:
            registry = registry_for_threshold(graph, max_pulse, builder)
        registry.load(SynchronizerNode.cover_levels(registry))
        self.graph = graph
        self.spec = spec
        self.max_pulse = max_pulse
        self.registry = registry
        namespace = dict(
            spec=spec,
            registry=registry,
            max_pulse=max_pulse,
            initiators=frozenset(spec.initiators(graph)),
            infos=spec.make_infos(graph),
        )
        self.process_cls = bound_process_class(
            "SweepSynchronizer", SynchronizerProcess, namespace
        )
        self._sweep = AsyncSweep(graph, self.process_cls)

    def run(
        self, delay_model: DelayModel, max_events: int = 100_000_000
    ) -> AsyncResult:
        """One replay; raises unless the run reaches quiescence."""
        result = self._sweep.run(delay_model, max_events=max_events)
        if result.stop_reason != "quiescent":
            raise RuntimeError(
                f"synchronizer did not finish: {result.stop_reason}"
            )
        return result

    def run_all(
        self, delay_models: Iterable[DelayModel], max_events: int = 100_000_000
    ) -> List[AsyncResult]:
        """Replay every model under one sweep-wide GC pause."""
        return run_models(
            lambda model: self.run(model, max_events=max_events), delay_models
        )

    def run_all_sharded(
        self,
        delay_models: Iterable[DelayModel],
        jobs: Optional[int] = None,
        max_events: int = 100_000_000,
        start_method: Optional[str] = None,
    ) -> List[CellSummary]:
        """Fan the models across ``jobs`` workers; summaries in model order.

        Digest/count-identical to :meth:`run_all` (see DESIGN.md §14);
        ``jobs=1`` is the untouched in-process loop.
        """
        return run_sweeps_sharded(
            [self], delay_models,
            jobs=jobs, max_events=max_events, start_method=start_method,
        )[0]


class ThresholdedBFSSweep:
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
        source_set = (
            frozenset((sources,)) if isinstance(sources, int) else frozenset(sources)
        )
        if not source_set:
            raise ValueError("at least one source required")
        if registry is None:
            registry = registry_for_threshold(graph, threshold, builder)
        registry.load(ThresholdedBFSCore.cover_levels(registry, threshold))
        self.graph = graph
        self.sources = source_set
        self.threshold = threshold
        self.registry = registry
        namespace = dict(
            registry=registry, sources=source_set, threshold=threshold
        )
        self.process_cls = bound_process_class(
            "SweepThresholdedBFS", ThresholdedBFSProcess, namespace
        )
        self._sweep = AsyncSweep(graph, self.process_cls)

    def run(
        self, delay_model: DelayModel, max_events: int = 50_000_000
    ) -> BFSOutcome:
        return bfs_outcome(
            self.graph, self._sweep.run(delay_model, max_events=max_events))

    def run_all(
        self, delay_models: Iterable[DelayModel], max_events: int = 50_000_000
    ) -> List[BFSOutcome]:
        """Replay every model under one sweep-wide GC pause."""
        return run_models(
            lambda model: self.run(model, max_events=max_events), delay_models
        )

    def run_all_sharded(
        self,
        delay_models: Iterable[DelayModel],
        jobs: Optional[int] = None,
        max_events: int = 50_000_000,
        start_method: Optional[str] = None,
    ) -> List[CellSummary]:
        """Fan the models across ``jobs`` workers; summaries in model order.

        Digest/count-identical to :meth:`run_all` (see DESIGN.md §14);
        ``jobs=1`` is the untouched in-process loop.
        """
        return run_sweeps_sharded(
            [self], delay_models,
            jobs=jobs, max_events=max_events, start_method=start_method,
        )[0]


class _SweepCells:
    """Picklable bundle of ``len(sweeps) * len(models)`` replay cells.

    The per-worker shipment of DESIGN.md §14: the sweeps carry every piece
    of shared immutable state (graph, link skeleton, cover, registry views,
    pulse tables, node infos, bound process class — all constructed once in
    the parent), the models carry the per-cell adversaries.  Cell ``index``
    maps to ``(sweep index, model index)`` in row-major order, so the
    canonical index-sorted merge equals the serial ``for sweep: for
    model:`` nesting exactly.
    """

    def __init__(
        self,
        sweeps: Sequence[object],
        delay_models: Sequence[DelayModel],
        max_events: Optional[int] = None,
    ) -> None:
        self.sweeps = tuple(sweeps)
        self.models = tuple(delay_models)
        self.max_events = max_events

    def __len__(self) -> int:
        return len(self.sweeps) * len(self.models)

    def run_cell(self, index: int) -> CellSummary:
        sweep_idx, model_idx = divmod(index, len(self.models))
        sweep = self.sweeps[sweep_idx]
        model = self.models[model_idx]
        if self.max_events is None:
            # Each sweep type's own run() default (sync 100M / tbfs 50M).
            return run_timed(index, lambda: sweep.run(model))
        return run_timed(
            index, lambda: sweep.run(model, max_events=self.max_events)
        )


def run_sweeps_sharded(
    sweeps: Sequence[object],
    delay_models: Iterable[DelayModel],
    jobs: Optional[int] = None,
    max_events: Optional[int] = None,
    start_method: Optional[str] = None,
) -> List[List[CellSummary]]:
    """Fan a ``sweeps x models`` matrix across a process pool.

    One pool (and one bundle shipment per worker) for the whole matrix, so
    multi-graph aggregates — the E5/E10/E11 benchmark cells pair a cycle
    and a grid — keep every core busy across graph boundaries instead of
    paying a pool per graph.  Returns one summary list per sweep, each in
    model order; ``max_events=None`` leaves each sweep's own default.
    """
    cells = _SweepCells(sweeps, tuple(delay_models), max_events)
    flat = run_sharded(cells, jobs=jobs, start_method=start_method)
    per_sweep = len(cells.models)
    # Re-index each sweep's slice to model order: a summary's index is its
    # position within its own sweep (as run_all's results are), not its
    # position in the flat matrix.
    return [
        [replace(s, index=mi) for mi, s in
         enumerate(flat[i * per_sweep:(i + 1) * per_sweep])]
        for i in range(len(cells.sweeps))
    ]


def sweep_synchronized(
    graph: Graph,
    spec: ProgramSpec,
    delay_models: Iterable[DelayModel],
    registry: Optional[CoverRegistry] = None,
    max_pulse: Optional[int] = None,
    builder: str = "ap",
    max_events: int = 100_000_000,
) -> List[AsyncResult]:
    """Convenience wrapper: one synchronizer setup, one result per model."""
    sweep = SynchronizerSweep(
        graph, spec, registry=registry, max_pulse=max_pulse, builder=builder
    )
    return sweep.run_all(delay_models, max_events=max_events)
