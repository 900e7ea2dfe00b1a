"""Multi-model sweep harness for the asynchronous transport (DESIGN.md §7).

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
  (protocol sweeps such as :class:`repro.core.sweep.SynchronizerSweep`
  attach covers, registry views, pulse tables and node infos to it exactly
  once), the accounting flags, and — as pure scratch — one flat delay-block
  buffer (DESIGN.md §9) whose *allocation* is amortized across replays
  while its contents are refilled per replay from each model's pure
  block fills;
* rebuilt per replay: every piece of mutable state — the link-table
  arrays, block cursors, outboxes, the event heap, process instances — so
  each replay is byte-identical to a standalone ``AsyncRuntime`` run under
  the same delay model, and replay order cannot leak state between models.
"""

from __future__ import annotations

import gc
from typing import Any, Callable, Iterable, List, Optional

from ..gcpause import paused_gc
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
from .faults import DETECT_TIMEOUT, FaultSchedule
from .graph import Graph, NodeId

TraceFn = Callable[[float, NodeId, NodeId, Payload], None]


#: Dead replay engines accumulate as uncollected cycle clusters while the
#: sweep-wide pause holds; collect after this many replays so peak memory
#: stays bounded for long delay-model families without giving up the
#: per-event pause win (typical 5-model sweeps never trigger it).
REPLAYS_PER_COLLECT = 8


def run_models(run_one: Callable[[Any], Any],
               delay_models: Iterable[Any]) -> List[Any]:
    """Replay every model through ``run_one`` under one GC pause.

    Each replay's dead engine is a cycle cluster refcounting cannot
    reclaim; under one sweep-wide pause the clusters are collected together
    instead of being rescanned generation by generation after every replay.

    Shared by the transport- and protocol-level ``run_all`` methods and
    by :func:`~repro.net.shard.run_serial` (over cell indices): results
    align with the input order, and every
    :data:`REPLAYS_PER_COLLECT` replays the dead engines are collected
    explicitly (``gc.collect`` works while the collector is disabled).
    """
    with paused_gc():
        results: List[Any] = []
        for i, model in enumerate(delay_models):
            if i and i % REPLAYS_PER_COLLECT == 0:
                gc.collect()
            results.append(run_one(model))
        return results


class AsyncSweep:
    """Replay one (graph, protocol) workload under many delay models."""

    __slots__ = ("graph", "process_factory", "count_acks", "count_fused_acks",
                 "faults", "detect_timeout", "_skeleton", "_block_buffer")

    def __init__(
        self,
        graph: Graph,
        process_factory: Callable[[ProcessContext], Process],
        count_acks: bool = True,
        count_fused_acks: bool = False,
        faults: Optional[FaultSchedule] = None,
        detect_timeout: float = DETECT_TIMEOUT,
    ) -> None:
        self.graph = graph
        self.process_factory = process_factory
        self.count_acks = count_acks
        self.count_fused_acks = count_fused_acks
        # One fault schedule across every replay: fault decisions are pure
        # functions of (schedule seed, endpoints, seq), so replays under
        # different delay models observe the *same* adversarial faults —
        # exactly the pinnable-churn contract of DESIGN.md §11.
        self.faults = faults
        self.detect_timeout = detect_timeout
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
            self.count_acks,
            self.count_fused_acks,
            self.faults,
            self.detect_timeout,
            self._skeleton,
        )

    def __setstate__(self, state) -> None:
        (self.graph, self.process_factory, self.count_acks,
         self.count_fused_acks, self.faults, self.detect_timeout,
         skeleton) = state
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
            count_acks=self.count_acks,
            trace=trace,
            count_fused_acks=self.count_fused_acks,
            skeleton=self._skeleton,
            block_buffer=self._block_buffer,
            faults=self.faults,
            detect_timeout=self.detect_timeout,
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


def sweep_asynchronous(
    graph: Graph,
    process_factory: Callable[[ProcessContext], Process],
    delay_models: Iterable[DelayModel],
    max_time: Optional[float] = None,
    max_events: Optional[int] = 50_000_000,
    faults: Optional[FaultSchedule] = None,
) -> List[AsyncResult]:
    """Convenience wrapper: build the sweep and replay every model."""
    sweep = AsyncSweep(graph, process_factory, faults=faults)
    return sweep.run_all(delay_models, max_time=max_time, max_events=max_events)
