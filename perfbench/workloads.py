"""The benchmark's three workloads and their per-cell checks.

A *cell* is one asynchronous synchronizer run, checked against the
synchronous reference run of the same program on the same graph.  An
*iteration* is one pass over a workload's cells from fresh graphs, so it
pays every per-graph setup (pulse bound, cover, registry, wiring) again.
README.md says why each workload exists and which layer dominates it.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.programs import bfs_spec, multi_bfs_spec
from repro.core import (
    CoverRegistry,
    RecoverySynchronizerProcess,
    SynchronizerSweep,
    pulse_bound_for,
    registry_for_threshold,
    required_cover_radius,
    run_churn,
    run_synchronized,
)
from repro.covers import build_layered_cover
from repro.net import AsyncRuntime, AsyncSweep, digest_outputs, run_synchronous, topology
from repro.net.delays import (
    AlternatingDelay,
    BimodalDelay,
    ConstantDelay,
    SlowEdgesDelay,
    UniformDelay,
)
from repro.net.faults import FaultSchedule
from repro.net.program import ProgramSpec
from repro.net.sweep import run_models

from .ledger import Ledger, TracedDelay, traced_process_class

DEFAULT_SEED = 2305

#: Event budget of ``SynchronizerSweep.run`` / ``run_synchronized``.
MAX_EVENTS = 100_000_000

#: Spans that make up ``setup_s`` (graph to wired runtime) and ``run_s``.
SETUP_SPANS = (
    "sync_runtime.ref", "covers.build", "registry.build",
    "registry.for_threshold", "async_runtime.wire",
)
RUN_SPANS = ("async_runtime.dispatch", "run_churn")

#: The committed perf-gate cell that ``replay-sync256`` reproduces at
#: ``DEFAULT_SEED``.
GATE_FILE = Path(__file__).resolve().parent.parent / "benchmarks" / "BENCH_core.json"
GATE_CELL = "sweep-sync-5x/cycle+grid/256"

GraphBuild = Callable[[], object]


@dataclass(frozen=True)
class Reference:
    """Synchronous run of one (graph, program): the oracle of its cells."""

    outputs: Dict
    messages: int
    rounds: int
    edges: int

    @classmethod
    def of(cls, graph, spec: ProgramSpec) -> "Reference":
        result = run_synchronous(graph, spec)
        return cls(result.outputs, result.messages, result.rounds_to_output,
                   graph.num_edges)


@dataclass
class Cell:
    key: Tuple[int, int]
    messages: int
    events: int
    digest: str
    ok: bool
    #: time_to_output (tau) over the reference's rounds_to_output.
    time_overhead: float
    #: M + m: reference messages plus edges, the paper's message budget.
    budget: int
    #: Deliveries by opcode (traced cells only).
    tally: Optional[List[int]] = None
    sync_msgs: int = 0


@dataclass
class Iteration:
    ledger: Ledger
    cells: List[Cell] = field(default_factory=list)
    #: Layer counts read from returned objects (cover shape, churn outcome).
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.ledger.seconds("iteration")

    @property
    def setup(self) -> float:
        return self.ledger.seconds(*SETUP_SPANS)

    @property
    def run(self) -> float:
        return self.ledger.seconds(*RUN_SPANS)

    @property
    def messages(self) -> int:
        return sum(c.messages for c in self.cells)

    @property
    def events(self) -> int:
        return sum(c.events for c in self.cells)

    @property
    def digest(self) -> str:
        """Aggregate digest, folded exactly as ``perf_regression.py`` does."""
        return digest_outputs(
            {c.key: (c.messages, c.digest) for c in self.cells})

    @property
    def failed(self) -> int:
        return sum(not c.ok for c in self.cells)


def _resident_kib() -> int:
    """Current resident set of this process (Linux ``/proc``), in KiB."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def _cover_counts(layered) -> Dict[str, float]:
    levels = layered.levels.values()
    return {
        "covers.clusters": max(len(c.clusters) for c in levels),
        "covers.max_membership": max(c.max_membership for c in levels),
        "covers.max_edge_load": max(c.max_edge_load for c in levels),
    }


def _merge_max(counts: Dict[str, float], new: Dict[str, float]) -> None:
    for name, value in new.items():
        counts[name] = max(counts.get(name, value), value)


def _check_tally(cell: Cell, dropped: int = 0) -> bool:
    """Deliveries by opcode must add up to the messages sent (less those
    lost to crashed receivers, which are never delivered)."""
    return sum(cell.tally) + dropped == cell.messages


class Workload:
    """One named workload; ``iterate`` runs its cells once from scratch."""

    name = ""

    #: (graph builder, program spec) per graph, in cell-key order.
    graphs: Tuple[Tuple[GraphBuild, ProgramSpec], ...] = ()

    def __init__(self, seed: int, traced: bool,
                 clock: Callable[[], float] = time.process_time) -> None:
        self.seed = seed
        self.clock = clock
        # The oracle, computed once per run outside every timed span.
        self.references = {gi: Reference.of(build(), spec)
                           for gi, (build, spec) in enumerate(self.graphs)}
        if traced:
            self.prepare_traced()

    def prepare_traced(self) -> None:
        """Extra reference data the traced run's counters need."""

    def iterate(self, traced: bool) -> Iteration:
        raise NotImplementedError

    def alloc_peak_mb(self) -> float:
        """Resident memory one cover build adds at its peak, max over the
        graphs.

        Each build runs in a forked child: its peak RSS less the RSS it
        was forked with is what the build added.  Memory the process holds
        but no longer uses is reused first, so call this before the
        timed iterations.  (tracemalloc slows the cold-ms2048 build ~7x,
        past the run's time limit.)"""
        peak_kib = 0
        for build, spec in self.graphs:
            graph = build()
            radius = required_cover_radius(pulse_bound_for(graph, spec))
            base_kib = _resident_kib()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    build_layered_cover(graph, radius)
                    status = 0
                finally:
                    os._exit(status)
            _, status, usage = os.wait4(pid, 0)
            if status != 0:
                raise RuntimeError(f"cover build in child {pid} failed")
            peak_kib = max(peak_kib, usage.ru_maxrss - base_kib)
        return peak_kib / 1024

    def check_run(self, iterations: Sequence[Iteration]) -> List[str]:
        """Run-level checks; returns the failures found."""
        return []


class SynchronizedWorkload(Workload):
    """Fault-free cells: every graph x every delay model.

    Setup is timed layer by layer through the public constructors — the
    same steps ``SynchronizerSweep(graph, spec)`` takes internally — and
    each replay splits into runtime wiring and ``.run()``.  Byte-identical
    to ``SynchronizerSweep.run_all`` (``run_synchronized`` per model).
    """

    def models(self) -> Tuple:
        raise NotImplementedError

    def iterate(self, traced: bool) -> Iteration:
        ledger = Ledger(self.clock)
        it = Iteration(ledger)
        results = []
        with ledger.span("iteration"):
            for gi, (build, spec) in enumerate(self.graphs):
                graph = build()
                layered, engine = self._setup(ledger, graph, spec, traced)
                replays = run_models(
                    lambda model: self._replay(ledger, engine, model, traced),
                    self.models(),
                )
                results.append((gi, layered, replays))
        for gi, layered, replays in results:
            ref = self.references[gi]
            if traced:
                _merge_max(it.counts, _cover_counts(layered))
            for mi, (result, tally) in enumerate(replays):
                cell = Cell(
                    key=(gi, mi),
                    messages=result.messages,
                    events=result.events_fired,
                    digest=digest_outputs(result.outputs),
                    ok=(result.stop_reason == "quiescent"
                        and result.outputs == ref.outputs),
                    time_overhead=result.time_to_output / ref.rounds,
                    budget=ref.messages + ref.edges,
                    tally=tally,
                    sync_msgs=ref.messages,
                )
                if traced:
                    cell.ok = (cell.ok and _check_tally(cell)
                               and tally[8] == ref.messages)
                it.cells.append(cell)
            _merge_max(it.counts, {"sync_runtime.rounds": ref.rounds})
        return it

    @staticmethod
    def _setup(ledger: Ledger, graph, spec: ProgramSpec, traced: bool):
        with ledger.span("sync_runtime.ref"):
            max_pulse = pulse_bound_for(graph, spec)
        with ledger.span("covers.build"):
            layered = build_layered_cover(
                graph, required_cover_radius(max_pulse))
        with ledger.span("registry.build"):
            registry = CoverRegistry(layered)
        with ledger.span("async_runtime.wire"):
            sweep = SynchronizerSweep(
                graph, spec, registry=registry, max_pulse=max_pulse)
            process_cls = sweep.process_cls
            if traced:
                process_cls = traced_process_class(process_cls, ledger)
            engine = AsyncSweep(graph, process_cls)
        return layered, engine

    @staticmethod
    def _replay(ledger: Ledger, engine: AsyncSweep, model, traced: bool):
        if traced:
            model = TracedDelay(model, ledger)
        with ledger.span("async_runtime.wire"):
            runtime = engine.runtime(
                model, trace=ledger.on_delivery if traced else None)
        with ledger.span("async_runtime.dispatch"):
            result = runtime.run(max_events=MAX_EVENTS)
        return result, (ledger.close_cell() if traced else None)


class ReplaySync256(SynchronizedWorkload):
    name = "replay-sync256"
    graphs = (
        (lambda: topology.cycle_graph(256), bfs_spec(0)),
        (lambda: topology.grid_graph(16, 16), bfs_spec(0)),
    )

    def models(self) -> Tuple:
        # The 5-model family of perf_regression's sweep cells, fresh per
        # graph so per-model stream caches start cold.
        seed = self.seed
        return (
            ConstantDelay(),
            UniformDelay(seed=seed),
            BimodalDelay(seed=seed),
            SlowEdgesDelay(seed=seed),
            AlternatingDelay(seed=seed),
        )

    def check_run(self, iterations: Sequence[Iteration]) -> List[str]:
        """At the default seed, every iteration must reproduce the committed
        gate cell's message count and aggregate digest."""
        if self.seed != DEFAULT_SEED:
            return []
        try:
            gate = json.loads(GATE_FILE.read_text())["workloads"][GATE_CELL]
        except (OSError, KeyError, ValueError) as exc:
            return [f"cannot read {GATE_CELL} from {GATE_FILE.name}: {exc!r}"]
        return [
            f"{GATE_CELL}: {it.messages} msgs / {it.digest}, committed"
            f" {gate['messages']} / {gate['outputs_digest']}"
            for it in iterations
            if (it.messages, it.digest)
            != (gate["messages"], gate["outputs_digest"])
        ]


class ColdMs2048(SynchronizedWorkload):
    name = "cold-ms2048"
    graphs = ((lambda: topology.grid_graph(32, 64), multi_bfs_spec(64)),)

    def models(self) -> Tuple:
        return (UniformDelay(seed=self.seed),)


#: Root of the churn cell's BFS.
CHURN_ROOT = 0

#: Hops around the root the churn schedule never crashes.  With only the
#: root protected, an early crash next to it (before the BFS wave has
#: passed) stalls degrade mode for about one seed in six: the run then
#: neither converges to the reference nor costs what the others cost.
CHURN_PROTECT_HOPS = 4


class ChurnRejoin512(Workload):
    """Crash + certain rejoin + flapping links on cycle(512), degrade mode.

    The untraced iteration calls ``run_churn`` (after timing the pulse
    bound and cover/registry it then reuses from their per-graph caches);
    the traced one rebuilds ``run_churn``'s single degrade pass from the
    same public pieces so the trace hook and dispatch timers can attach.
    """

    name = "churn-rejoin512"
    n = 512
    #: Messages of the same cell without faults (traced runs only): the
    #: base of recovery.extra_msgs.
    fault_free_msgs: Optional[int] = None

    @property
    def graphs(self):
        return ((lambda: topology.cycle_graph(self.n), bfs_spec(CHURN_ROOT)),)

    def faults(self) -> FaultSchedule:
        protect = {(CHURN_ROOT + d) % self.n
                   for d in range(-CHURN_PROTECT_HOPS, CHURN_PROTECT_HOPS + 1)}
        return FaultSchedule(
            seed=self.seed, crash_rate=0.1, rejoin_rate=1.0, down_rate=0.05,
            recurrent=True, protect=sorted(protect),
        )

    def prepare_traced(self) -> None:
        build, spec = self.graphs[0]
        self.fault_free_msgs = run_synchronized(
            build(), spec, UniformDelay(seed=self.seed)).messages

    def iterate(self, traced: bool) -> Iteration:
        return self._traced() if traced else self._untraced()

    def _cell(self, messages: int, events: int, outputs, stop: str,
              time_to_output: float, tally=None) -> Cell:
        ref = self.references[0]
        # rejoin_rate=1.0: every crashed node is live again at the end, so
        # the surviving component is the whole cycle and degrade mode must
        # converge to the fault-free outputs.
        return Cell(
            key=(0, 0),
            messages=messages,
            events=events,
            digest=digest_outputs(outputs),
            ok=stop == "quiescent" and outputs == ref.outputs,
            time_overhead=time_to_output / ref.rounds,
            budget=ref.messages + ref.edges,
            tally=tally,
            sync_msgs=ref.messages,
        )

    def _untraced(self) -> Iteration:
        ledger = Ledger(self.clock)
        it = Iteration(ledger)
        with ledger.span("iteration"):
            build, spec = self.graphs[0]
            graph = build()
            with ledger.span("sync_runtime.ref"):
                max_pulse = pulse_bound_for(graph, spec)
            with ledger.span("registry.for_threshold"):
                registry_for_threshold(graph, max_pulse)
            with ledger.span("run_churn"):
                outcome = run_churn(
                    graph, bfs_spec, UniformDelay(seed=self.seed),
                    self.faults(), mode="degrade", root=CHURN_ROOT,
                )
        it.cells.append(self._cell(
            outcome.total_messages, outcome.events_fired, outcome.outputs,
            outcome.stop_reason, outcome.time_to_output))
        it.counts.update({
            "faults.crashed": len(outcome.crashed),
            "faults.rejoined": len(outcome.rejoined),
            "faults.dropped": outcome.dropped,
        })
        if self.fault_free_msgs is not None:
            it.counts["recovery.extra_msgs"] = (
                outcome.total_messages - self.fault_free_msgs)
        return it

    def _traced(self) -> Iteration:
        ledger = Ledger(self.clock)
        it = Iteration(ledger)
        with ledger.span("iteration"):
            build, spec = self.graphs[0]
            graph = build()
            with ledger.span("sync_runtime.ref"):
                max_pulse = pulse_bound_for(graph, spec)
            with ledger.span("covers.build"):
                layered = build_layered_cover(
                    graph, required_cover_radius(max_pulse))
            with ledger.span("registry.build"):
                registry = CoverRegistry(layered)
            with ledger.span("async_runtime.wire"):
                namespace = dict(
                    spec=spec,
                    registry=registry,
                    max_pulse=max_pulse,
                    initiators=frozenset(spec.initiators(graph)),
                    infos=spec.make_infos(graph),
                )
                process_cls = traced_process_class(
                    type("BoundRecoverySynchronizer",
                         (RecoverySynchronizerProcess,), namespace),
                    ledger,
                )
                runtime = AsyncRuntime(
                    graph, process_cls,
                    TracedDelay(UniformDelay(seed=self.seed), ledger),
                    faults=self.faults(), trace=ledger.on_delivery,
                )
            with ledger.span("async_runtime.dispatch"):
                result = runtime.run(max_events=MAX_EVENTS)
        cell = self._cell(
            result.messages, result.events_fired, result.outputs,
            result.stop_reason, result.time_to_output, ledger.close_cell())
        cell.ok = cell.ok and _check_tally(cell, result.dropped)
        it.cells.append(cell)
        it.counts.update(_cover_counts(layered))
        it.counts["sync_runtime.rounds"] = self.references[0].rounds
        return it


WORKLOADS = {w.name: w for w in (ReplaySync256, ColdMs2048, ChurnRejoin512)}
