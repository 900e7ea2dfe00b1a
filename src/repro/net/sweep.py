"""Multi-model sweep harness (DESIGN.md §7).

Every experiment in the paper is a *sweep*: the same graph and protocol
replayed under a whole family of adversarial delay models (E5 overhead
curves, E10 event-driven vs clock, E11 thresholded BFS).  Running each model
through a fresh :func:`~repro.net.async_runtime.run_asynchronous` pays the
full setup again per model; :class:`AsyncSweep` snapshots everything a run
derives from the *graph* once — the dense link-id skeleton
(:class:`~repro.net.async_runtime.LinkSkeleton`) in particular — and
replays a fresh :class:`~repro.net.async_runtime.AsyncRuntime` per delay
model from that shared immutable state.

What is and is not shared (the contract the equivalence tests pin):

* shared across replays: the graph, the link-id skeleton (endpoint arrays,
  per-node outgoing maps, per-link block bounds), the process factory
  (a protocol's ``bind`` attaches covers, registry views, pulse tables and
  node infos to it exactly once), the fault schedule, and — as pure
  scratch — one flat delay-block buffer (DESIGN.md §9) whose
  *allocation* is amortized across replays while its contents are
  refilled per replay from each model's pure block fills;
* rebuilt per replay: every piece of mutable state — the link-table
  arrays, block cursors, outboxes, the event heap, process instances — so
  each replay is byte-identical to a standalone ``AsyncRuntime`` run under
  the same delay model, and replay order cannot leak state between models.

:class:`ProtocolSweep` is the protocol-level layer on top: one bound
process class, one :class:`AsyncSweep`, and a per-family ``finish`` check
on every replay.  The synchronizer and thresholded-BFS sweeps are its
subclasses, and each standalone runner (``run_synchronized`` and the BFS
runners) is the first and only replay of one.
"""

from __future__ import annotations

import copyreg
from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Type

from .async_runtime import (
    AsyncResult,
    AsyncRuntime,
    Payload,
    Process,
    ProcessContext,
    adopt_skeleton,
    link_skeleton_for,
    make_block_buffer,
)
from .delays import DelayModel
from .faults import FaultSchedule
from .graph import Graph, NodeId
from .shard import CellSummary, run_models, run_sharded, run_timed

TraceFn = Callable[[float, NodeId, NodeId, Payload], None]


class AsyncSweep:
    """Replay one (graph, protocol) workload under many delay models."""

    __slots__ = ("graph", "process_factory", "faults", "_skeleton",
                 "_block_buffer")

    def __init__(
        self,
        graph: Graph,
        process_factory: Callable[[ProcessContext], Process],
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        self.graph = graph
        self.process_factory = process_factory
        # One fault schedule across every replay: fault decisions are pure
        # functions of (schedule seed, endpoints, seq), so replays under
        # different delay models observe the *same* adversarial faults —
        # exactly the pinnable-churn contract of DESIGN.md §11.
        self.faults = faults
        # Dense link-id skeleton, derived from the graph once per sweep
        # (and shared with any standalone runtime over the same graph
        # through the per-graph cache).
        self._skeleton = link_skeleton_for(graph)
        # One flat delay-block buffer (num_links * BLOCK_SPAN floats,
        # DESIGN.md §9) handed to every replay, so the sweep pays the
        # allocation once instead of once per delay model.  Pure scratch:
        # each replay resets its per-link cursors and refills from its own
        # model's pure block fills, so replay order cannot leak through it —
        # replays only must not run concurrently, which ``run_all`` (and
        # every other sequential driver) satisfies by construction.
        self._block_buffer = make_block_buffer(self._skeleton.num_links)

    def __getstate__(self):
        """Pickle state for shard workers (repro.net.shard, DESIGN.md §14).

        The skeleton ships explicitly — the parent's link-id assignment is
        part of the replay contract — while the block buffer stays behind:
        it is pure scratch (``num_links * BLOCK_SPAN`` floats), cheaper to
        reallocate in the worker than to serialize.
        """
        return (
            self.graph,
            self.process_factory,
            self.faults,
            self._skeleton,
        )

    def __setstate__(self, state) -> None:
        self.graph, self.process_factory, self.faults, skeleton = state
        # Make the shipped assignment authoritative for this graph copy in
        # the unpickling process, then share whichever table the cache holds.
        self._skeleton = adopt_skeleton(self.graph, skeleton)
        self._block_buffer = make_block_buffer(self._skeleton.num_links)

    def runtime(self, delay_model: DelayModel, trace: Optional[TraceFn] = None) -> AsyncRuntime:
        """A fresh runtime over the shared skeleton (one replay's engine)."""
        return AsyncRuntime(
            self.graph,
            self.process_factory,
            delay_model,
            trace=trace,
            skeleton=self._skeleton,
            block_buffer=self._block_buffer,
            faults=self.faults,
        )

    def run(
        self,
        delay_model: DelayModel,
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
        trace: Optional[TraceFn] = None,
    ) -> AsyncResult:
        """One replay: byte-identical to a standalone ``AsyncRuntime`` run."""
        return self.runtime(delay_model, trace).run(
            max_time=max_time, max_events=max_events
        )

    def run_all(
        self,
        delay_models: Iterable[DelayModel],
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> List[AsyncResult]:
        """Replay every model in order; results align with the input order.

        Runs under one sweep-wide GC pause (:func:`run_models`)."""
        return run_models(
            lambda model: self.run(
                model, max_time=max_time, max_events=max_events
            ),
            delay_models,
        )


class _BoundProcessMeta(type):
    """Metaclass of the classes :func:`bound_process_class` makes.

    A protocol binds its immutable setup (registry views, pulse tables,
    node infos...) into a throwaway subclass of its process class.  Such
    classes are anonymous: pickle's by-name class lookup fails, which would
    block shipping a sweep to shard workers.  A ``copyreg`` reducer on this
    metaclass (consulted by pickle *before* the by-name fallback) reduces
    the class to a module-level rebuild call carrying its ``(name, base,
    namespace)`` ingredients — so the worker reconstructs a class with the
    parent's exact bound state, and objects referenced from both the
    namespace and the sweep (the registry in particular) are shipped once
    thanks to pickle memoization.
    """


def bound_process_class(
    name: str, base: Type[Process], namespace: Dict[str, object]
) -> type:
    """A ``base`` subclass with ``namespace`` as class attrs, picklable by
    reconstruction (see :class:`_BoundProcessMeta`)."""
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


class ProtocolSweep:
    """Replay one bound protocol process class under many delay models.

    Subclasses set the family's per-replay event budget ``MAX_EVENTS`` and
    its :meth:`finish` check; their constructors bind the process class
    (``SynchronizerProcess.bind`` / ``ThresholdedBFSProcess.bind``) under
    the package's GC pause.  A standalone run is ``run`` on a fresh sweep.
    """

    #: Event budget of one replay when the caller gives none.
    MAX_EVENTS: int

    def __init__(self, graph: Graph, process_cls: type) -> None:
        self.graph = graph
        self.process_cls = process_cls
        self._sweep = AsyncSweep(graph, process_cls)

    def finish(self, result: AsyncResult) -> Any:
        """Check one replay's result and shape it for the caller."""
        raise NotImplementedError

    def run(
        self, delay_model: DelayModel, max_events: Optional[int] = None
    ) -> Any:
        """One replay, finished by :meth:`finish`."""
        if max_events is None:
            max_events = self.MAX_EVENTS
        return self.finish(self._sweep.run(delay_model, max_events=max_events))

    def run_all(
        self, delay_models: Iterable[DelayModel],
        max_events: Optional[int] = None,
    ) -> List[Any]:
        """Replay every model under one sweep-wide GC pause."""
        return run_models(
            lambda model: self.run(model, max_events=max_events), delay_models
        )

    def run_all_sharded(
        self,
        delay_models: Iterable[DelayModel],
        jobs: Optional[int] = None,
        max_events: Optional[int] = None,
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
        sweeps: Sequence[ProtocolSweep],
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
        return run_timed(
            index, lambda: sweep.run(model, max_events=self.max_events)
        )


def run_sweeps_sharded(
    sweeps: Sequence[ProtocolSweep],
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
    model order; ``max_events=None`` leaves each sweep's own ``MAX_EVENTS``.
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
