"""Performance-regression harness for the discrete-event core.

Measures wall time and throughput of the synchronizer stack on a fixed
workload matrix and records them in ``BENCH_core.json`` next to this script,
so every future change has a perf trajectory to beat.  Determinism is pinned
alongside speed: each entry stores the message count, the events fired and
a digest of the node outputs, and ``--check`` fails on any mismatch (the
engine must stay byte-for-byte reproducible, not merely fast).

The matrix includes the 5-delay-model sweep workloads (cycle+grid at n=256,
and the n=512 / n=1024 multi-source cells with sampled initiator sets — the
ROADMAP's fix for the Θ(n²) all-initiator blowup; the n=1024 cells are
full-matrix only, so CI ``--quick`` stays fast) next to their
independent-runs counterparts; the ``--quick`` CI gate covers the
thresholded-BFS sweep and the n=512 smoke cell at the same -30% threshold
as the single-run entries, and ``--write`` records the measured
sweep-vs-independent speedups under ``sweep_speedups``.

The shard-* workloads run the same matrices through the process-pool
executor (``repro.net.shard`` + ``repro.core.run_sweeps_sharded``,
DESIGN.md §14) with ``--jobs`` workers; the n=2048/n=4096 pairs are the
scale cells sharding unblocks.  Sharded aggregates must be byte-identical
to their serial twins — asserted in-run whenever both sides are measured —
while the shard-vs-serial wall ratios under ``sweep_speedups`` are
print-only evidence, never a ``--check`` gate (they depend on the host's
core count; see harness.py on reading them under drift).

Usage:
    python benchmarks/perf_regression.py            # run full matrix, print
    python benchmarks/perf_regression.py --quick    # CI subset
    python benchmarks/perf_regression.py --write    # refresh BENCH_core.json
    python benchmarks/perf_regression.py --check    # fail on regression
                                                    #   (>30% throughput drop
                                                    #    or any determinism
                                                    #    mismatch)
    python benchmarks/perf_regression.py \
        --workloads sync-bfs/cycle/256,tbfs-16      # substring-select the
                                                    #   matrix (the CI
                                                    #   protocol-bench step)
    python benchmarks/perf_regression.py --jobs 2 \
        --workloads "=shard-ms512-5x/cycle+grid/512,=sweep-ms512-5x/cycle+grid/512"
                                                    # '=name' selects exactly
                                                    #   one workload; the CI
                                                    #   sweep-shard job runs
                                                    #   this pair and dies
                                                    #   unless the sharded
                                                    #   digests equal the
                                                    #   serial run's
    python benchmarks/perf_regression.py \
        --profile tbfs-16/cycle/256                 # cProfile one workload,
                                                    #   print the top-N
                                                    #   cumulative/tottime
                                                    #   rows

Wall times on shared CI machines are noisy and CI runners are not the
machine that wrote the baseline; the gate therefore (a) uses best-of-N
messages/second (the most stable throughput proxy), (b) rescales the
committed baseline by a host-speed calibration loop recorded alongside it
(so a runner half as fast as the authoring host is held to half the
absolute floor), and (c) keeps a generous threshold on top.  Exact fields
(messages, events fired, outputs digest) are compared strictly — determinism
does not get a noise allowance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps.programs import bfs_spec, multi_bfs_spec  # noqa: E402
from repro.core import (  # noqa: E402
    SynchronizerSweep,
    ThresholdedBFSSweep,
    run_churn,
    run_sweeps_sharded,
    run_synchronized,
    run_thresholded_bfs,
)
from repro.net import topology  # noqa: E402
from repro.net.faults import FaultSchedule  # noqa: E402
from repro.net.delays import (  # noqa: E402
    AlternatingDelay,
    BimodalDelay,
    ConstantDelay,
    SlowEdgesDelay,
    UniformDelay,
)
from repro.net.shard import default_jobs, digest_outputs  # noqa: E402

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_core.json"
SEED = 2305  # arXiv number of the paper
DEFAULT_THRESHOLD = 0.30  # fail --check when msgs/sec drops by more than this

#: Worker count for the shard-* workloads, set from --jobs (None = one per
#: visible core).  The serial workloads never read it: jobs only ever
#: affects how the sharded cells are *executed*, never what they compute —
#: the shard-vs-serial digest assertion below enforces exactly that.
_JOBS: Optional[int] = None


def _effective_jobs() -> int:
    return _JOBS if _JOBS else default_jobs()

#: Wall time of ``run_synchronized(bfs_spec(0), cycle_graph(64), UniformDelay)``
#: at the seed revision (commit 1863e4f), measured on the same host with the
#: same best-of-N methodology used below.  The rebuilt engine is compared
#: against this to document the speedup (messages and outputs are
#: byte-identical between the two revisions).
SEED_REFERENCE = {
    "workload": "sync-bfs/cycle/64",
    "wall_best": 0.0988,
    "wall_median": 0.1018,
    "messages": 8272,
    # Interleaved A/B runs (seed worktree vs this tree, alternating in the
    # same minute to cancel host-load drift) measured 3.4-3.9x at n=64 and
    # ~4.3x at n=256.  The ratio computed per --write run below compares
    # against wall clocks from different load windows and is noisier.
    "speedup_interleaved_ab": "3.4-3.9x (n=64), ~4.3x (n=256)",
}


# One digest implementation for the serial and sharded paths (the shard
# workers digest outputs in-worker and ship only the 16-hex string back);
# pinned equal by tests/test_shard.py.
_digest = digest_outputs


def _calibrate(reps: int = 3) -> float:
    """Host-speed proxy (ops/sec): a fixed pure-Python workload shaped like
    the event loop (dict/heap traffic plus float arithmetic), best of N."""
    import heapq

    def spin():
        heap = []
        d = {}
        acc = 0.0
        for i in range(60_000):
            heapq.heappush(heap, ((i * 0.618) % 1.0, i))
            d[i & 1023] = i
            acc += (i * 0.6180339887498949) % 1.0
            if i & 1:
                heapq.heappop(heap)
        return acc

    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        spin()
        best = min(best, time.perf_counter() - t0)
    return 60_000 / best


def _run_synchronized(graph):
    return run_synchronized(graph, bfs_spec(0), UniformDelay(seed=SEED))


def _run_tbfs(graph, threshold):
    outcome = run_thresholded_bfs(graph, 0, threshold, UniformDelay(seed=SEED))
    return outcome.result


class _ChurnResult:
    """Result-shaped view of a ChurnOutcome for ``_record_entry``:
    ``messages`` counts both passes (degrade + rebuild), so the rebuild
    cell's determinism entry pins the second pass too."""

    def __init__(self, outcome):
        self.messages = outcome.total_messages
        self.events_fired = outcome.events_fired
        self.outputs = outcome.outputs


def _run_churn_links(graph):
    # Link churn only (5% seeded down intervals, no crashes): the --quick
    # smoke cell for the fault path.  Down intervals defer but never lose,
    # so the outputs digest must equal the fault-free sync-bfs digest at
    # the same size — the determinism gate pins exactly that.
    faults = FaultSchedule(seed=SEED, down_rate=0.05)
    return _ChurnResult(run_churn(
        graph, bfs_spec, UniformDelay(seed=SEED), faults, mode="degrade"))


def _run_churn_mode(mode):
    def run(graph):
        faults = FaultSchedule(seed=SEED, crash_rate=0.1, protect=(0,))
        return _ChurnResult(run_churn(
            graph, bfs_spec, UniformDelay(seed=SEED), faults, mode=mode))
    return run


def _run_churn_flap(graph):
    # Flapping links (recurrent mode, DESIGN.md §15): every seeded down
    # interval re-draws forever instead of healing once.  Recurrent churn
    # still only defers — the digest pins the fault-free outputs and the
    # message count pins zero retransmission overhead.
    faults = FaultSchedule(seed=SEED, down_rate=0.05, recurrent=True)
    return _ChurnResult(run_churn(
        graph, bfs_spec, UniformDelay(seed=SEED), faults, mode="degrade"))


def _run_churn_rejoin(graph):
    # Crash + certain re-join (DESIGN.md §15): every crashed node returns
    # after a seeded delay and is readmitted by its neighbors.  The CI
    # protocol-bench rejoin smoke cell — messages and outputs pin the
    # whole prune → detect → readmit → re-answer cycle.
    faults = FaultSchedule(
        seed=SEED, crash_rate=0.1, rejoin_rate=1.0, protect=(0,))
    return _ChurnResult(run_churn(
        graph, bfs_spec, UniformDelay(seed=SEED), faults, mode="degrade"))


def _sweep_models():
    """The 5-model family the sweep benchmarks replay (all with pair
    streams; fresh instances per call so per-model caches start cold, as an
    independent run's would)."""
    return (
        ConstantDelay(),
        UniformDelay(seed=SEED),
        BimodalDelay(seed=SEED),
        SlowEdgesDelay(seed=SEED),
        AlternatingDelay(seed=SEED),
    )


class _SweepAggregate:
    """Result-shaped aggregate over every (graph, model) replay of a sweep.

    ``outputs`` maps (graph index, model index) to that replay's message
    count and output digest, so the determinism gate pins every replay."""

    def __init__(self):
        self.messages = 0
        self.events_fired = 0
        self.outputs = {}

    def add(self, key, result):
        self.messages += result.messages
        self.events_fired += result.events_fired
        self.outputs[key] = (result.messages, _digest(result.outputs))

    def add_summary(self, key, summary):
        """Fold a shard-worker :class:`repro.net.shard.CellSummary` — same
        fields, with the per-cell digest computed in-worker, so a sharded
        aggregate is byte-identical to the serial aggregate over the same
        cells."""
        self.messages += summary.messages
        self.events_fired += summary.events_fired
        self.outputs[key] = (summary.messages, summary.outputs_digest)


def _run_sweep_tbfs(_):
    # Fresh graphs per call: the timed reps include the sweep's one-time
    # setup (covers, registry, infos), which is the whole point of the
    # comparison against the independent runs below.  ``run_all`` replays
    # the family under one sweep-wide GC pause (DESIGN.md §8).
    agg = _SweepAggregate()
    for gi, graph in enumerate((topology.cycle_graph(256),
                                topology.grid_graph(16, 16))):
        sweep = ThresholdedBFSSweep(graph, 0, 16)
        for mi, outcome in enumerate(sweep.run_all(_sweep_models())):
            agg.add((gi, mi), outcome.result)
    return agg


def _run_sweep_sync(_):
    agg = _SweepAggregate()
    for gi, graph in enumerate((topology.cycle_graph(256),
                                topology.grid_graph(16, 16))):
        sweep = SynchronizerSweep(graph, bfs_spec(0))
        for mi, result in enumerate(sweep.run_all(_sweep_models())):
            agg.add((gi, mi), result)
    return agg


def _run_sweep_ms512(_):
    # n=512 cells with a sampled initiator set (16 evenly spaced sources):
    # multi-source BFS keeps the pulse bound near n/32 and the message
    # volume near-linear, where the all-initiator flood-max program costs
    # Θ(n²) on the cycle (ROADMAP).
    agg = _SweepAggregate()
    for gi, graph in enumerate((topology.cycle_graph(512),
                                topology.grid_graph(16, 32))):
        sweep = SynchronizerSweep(graph, multi_bfs_spec(16))
        for mi, result in enumerate(sweep.run_all(_sweep_models())):
            agg.add((gi, mi), result)
    return agg


def _run_sweep_ms1024(_):
    # n=1024 subsampled measurement cells (ROADMAP: the size axis beyond
    # 512): 32 evenly spaced sources keep the initiator stride — and so the
    # pulse bound (~n/2k = 16) and per-cell message volume — aligned with
    # the ms512 cells, so the two sizes chart a clean scaling curve.  Full
    # matrix only: these cells are multi-second, far too slow for the CI
    # --quick gate.
    agg = _SweepAggregate()
    for gi, graph in enumerate((topology.cycle_graph(1024),
                                topology.grid_graph(32, 32))):
        sweep = SynchronizerSweep(graph, multi_bfs_spec(32))
        for mi, result in enumerate(sweep.run_all(_sweep_models())):
            agg.add((gi, mi), result)
    return agg


def _run_sweep_ms2048(_):
    # n=2048 cells (ROADMAP: the scale regime sharding unblocks): 64 evenly
    # spaced sources keep the initiator stride at 32 — and so the pulse
    # bound and per-cell traffic shape — aligned with the ms512/ms1024
    # cells, charting one clean scaling curve.  Serial half of the ms2048
    # shard-vs-serial pair; full matrix only.
    agg = _SweepAggregate()
    for gi, graph in enumerate((topology.cycle_graph(2048),
                                topology.grid_graph(32, 64))):
        sweep = SynchronizerSweep(graph, multi_bfs_spec(64))
        for mi, result in enumerate(sweep.run_all(_sweep_models())):
            agg.add((gi, mi), result)
    return agg


def _run_sweep_ms4096(_):
    # n=4096, stride-32 again (128 sources).  Serial half of the ms4096
    # pair; full matrix only — each rep is the better part of a minute.
    agg = _SweepAggregate()
    for gi, graph in enumerate((topology.cycle_graph(4096),
                                topology.grid_graph(64, 64))):
        sweep = SynchronizerSweep(graph, multi_bfs_spec(128))
        for mi, result in enumerate(sweep.run_all(_sweep_models())):
            agg.add((gi, mi), result)
    return agg


def _run_sharded_ms(n_sources, builds):
    """Sharded multi-source sweep runner (DESIGN.md §14).

    Setup (graphs, covers, registries, pulse bounds, bound process classes)
    happens in the parent and is included in the wall, exactly as in the
    serial sweep cells; one pool then spans all ``graphs x models`` cells so
    workers stay busy across graph boundaries.  The aggregate folds the
    workers' summaries in canonical (graph, model) order — byte-identical
    to the serial aggregate, which `_check_shard_digests` asserts whenever
    both sides of a pair were measured.
    """
    def run(_):
        sweeps = [
            SynchronizerSweep(build(), multi_bfs_spec(n_sources))
            for build in builds
        ]
        per_sweep = run_sweeps_sharded(
            sweeps, _sweep_models(), jobs=_effective_jobs()
        )
        agg = _SweepAggregate()
        for gi, summaries in enumerate(per_sweep):
            for mi, summary in enumerate(summaries):
                agg.add_summary((gi, mi), summary)
        return agg
    return run


_run_sharded_ms512 = _run_sharded_ms(
    16, (lambda: topology.cycle_graph(512), lambda: topology.grid_graph(16, 32)))
_run_sharded_ms2048 = _run_sharded_ms(
    64, (lambda: topology.cycle_graph(2048), lambda: topology.grid_graph(32, 64)))
_run_sharded_ms4096 = _run_sharded_ms(
    128, (lambda: topology.cycle_graph(4096), lambda: topology.grid_graph(64, 64)))


def _run_independent_tbfs(_):
    # Independent runs: a fresh graph per model defeats every per-graph
    # cache, so each run pays cover/registry/info setup — what five separate
    # experiment invocations would pay.
    agg = _SweepAggregate()
    for gi, build in enumerate((lambda: topology.cycle_graph(256),
                                lambda: topology.grid_graph(16, 16))):
        for mi, model in enumerate(_sweep_models()):
            agg.add((gi, mi), run_thresholded_bfs(build(), 0, 16, model).result)
    return agg


def _run_independent_sync(_):
    agg = _SweepAggregate()
    for gi, build in enumerate((lambda: topology.cycle_graph(256),
                                lambda: topology.grid_graph(16, 16))):
        for mi, model in enumerate(_sweep_models()):
            agg.add((gi, mi), run_synchronized(build(), bfs_spec(0), model))
    return agg


def _run_independent_ms512(_):
    agg = _SweepAggregate()
    for gi, build in enumerate((lambda: topology.cycle_graph(512),
                                lambda: topology.grid_graph(16, 32))):
        for mi, model in enumerate(_sweep_models()):
            agg.add((gi, mi), run_synchronized(build(), multi_bfs_spec(16), model))
    return agg


def _run_independent_ms1024(_):
    agg = _SweepAggregate()
    for gi, build in enumerate((lambda: topology.cycle_graph(1024),
                                lambda: topology.grid_graph(32, 32))):
        for mi, model in enumerate(_sweep_models()):
            agg.add((gi, mi), run_synchronized(build(), multi_bfs_spec(32), model))
    return agg


# (name, graph builder, runner, in_quick, reps override or None).
WORKLOADS = [
    ("sync-bfs/cycle/64", lambda: topology.cycle_graph(64), _run_synchronized,
     True, None),
    ("sync-bfs/grid/256", lambda: topology.grid_graph(16, 16), _run_synchronized,
     True, None),
    ("sync-bfs/cycle/256", lambda: topology.cycle_graph(256), _run_synchronized,
     False, None),
    ("sync-bfs/regular/256",
     lambda: topology.random_regular_graph(256, 4, seed=1), _run_synchronized,
     False, None),
    ("tbfs-16/cycle/256",
     lambda: topology.cycle_graph(256), lambda g: _run_tbfs(g, 16), False, None),
    # Churn cells (DESIGN.md §11): the link-only cell runs sync-bfs@256
    # under 5% seeded link churn and doubles as the CI --quick smoke test
    # for the whole fault path; the n=128 crash cells pin degrade and
    # rebuild (rebuild's messages include the second, clean pass).
    ("churn-sync-bfs/cycle/256", lambda: topology.cycle_graph(256),
     _run_churn_links, True, None),
    ("churn-degrade/cycle/128", lambda: topology.cycle_graph(128),
     _run_churn_mode("degrade"), False, None),
    ("churn-rebuild/cycle/128", lambda: topology.cycle_graph(128),
     _run_churn_mode("rebuild"), False, None),
    # Dynamic-network cells (DESIGN.md §15): reanchor sits between degrade
    # and rebuild in the cost table; churn-flap pins recurrent link churn
    # (deferral forever, never loss); rejoin-degrade is the CI smoke cell
    # for the crash → detect → readmit → re-answer cycle.
    ("churn-reanchor/cycle/128", lambda: topology.cycle_graph(128),
     _run_churn_mode("reanchor"), False, None),
    ("churn-flap/cycle/128", lambda: topology.cycle_graph(128),
     _run_churn_flap, False, None),
    ("rejoin-degrade/cycle/128", lambda: topology.cycle_graph(128),
     _run_churn_rejoin, False, None),
    # 5-delay-model sweeps at n=256 on cycle+grid: the sweep engine builds
    # covers/registry/infos once per graph and replays per model.  Their
    # "independent-*" counterparts run the same 10 (graph, model) cells with
    # cold per-graph caches; the speedup between the two is recorded by
    # --write under "sweep_speedups".
    ("sweep-tbfs16-5x/cycle+grid/256", lambda: None, _run_sweep_tbfs,
     True, 3),
    # The sync pair runs best-of-5 (symmetric on both sides): the speedup
    # between two multi-second walls needs more min-filtering against host
    # noise than the CI-gated cells can afford.
    ("sweep-sync-5x/cycle+grid/256", lambda: None, _run_sweep_sync,
     False, 5),
    ("independent-tbfs16-5x/cycle+grid/256", lambda: None, _run_independent_tbfs,
     False, 3),
    ("independent-sync-5x/cycle+grid/256", lambda: None, _run_independent_sync,
     False, 5),
    # n=512 sweep cells (sampled initiator sets — see _run_sweep_ms512).
    # The sweep cell doubles as the CI --quick smoke test for the large-n
    # regime; its independent counterpart stays in the full matrix only.
    ("sweep-ms512-5x/cycle+grid/512", lambda: None, _run_sweep_ms512,
     True, 3),
    ("independent-ms512-5x/cycle+grid/512", lambda: None, _run_independent_ms512,
     False, 3),
    # n=1024 subsampled measurement cells (multi_bfs_spec(32), sampled
    # initiators) — full matrix only, so the CI --quick gate stays fast;
    # best-of-2 because each side is many seconds of wall.
    ("sweep-ms1024-5x/cycle+grid/1024", lambda: None, _run_sweep_ms1024,
     False, 2),
    ("independent-ms1024-5x/cycle+grid/1024", lambda: None,
     _run_independent_ms1024, False, 2),
    # Sharded executor cells (DESIGN.md §14): the same (graph, model)
    # matrices run through the process-pool executor with --jobs workers.
    # shard-ms512 reuses the committed sweep-ms512 cells, so its digest must
    # equal that entry's byte-for-byte — the cheap CI equivalence cell the
    # sweep-shard job gates with --jobs 2.  The ms2048/ms4096 pairs are the
    # scale cells sharding unblocks; their shard-vs-serial wall ratios are
    # recorded under sweep_speedups (print-only on --check — wall ratios
    # never gate, per the host-drift policy).  Full matrix only.
    ("shard-ms512-5x/cycle+grid/512", lambda: None, _run_sharded_ms512,
     False, 3),
    ("sweep-ms2048-5x/cycle+grid/2048", lambda: None, _run_sweep_ms2048,
     False, 2),
    ("shard-ms2048-5x/cycle+grid/2048", lambda: None, _run_sharded_ms2048,
     False, 2),
    ("sweep-ms4096-5x/cycle+grid/4096", lambda: None, _run_sweep_ms4096,
     False, 1),
    ("shard-ms4096-5x/cycle+grid/4096", lambda: None, _run_sharded_ms4096,
     False, 1),
]

#: Sweep-vs-independent workload pairs recorded under ``sweep_speedups``:
#: kind -> (sweep entry, independent entry).
SWEEP_PAIRS = {
    "tbfs16": ("sweep-tbfs16-5x/cycle+grid/256",
               "independent-tbfs16-5x/cycle+grid/256"),
    "sync": ("sweep-sync-5x/cycle+grid/256",
             "independent-sync-5x/cycle+grid/256"),
    "ms512": ("sweep-ms512-5x/cycle+grid/512",
              "independent-ms512-5x/cycle+grid/512"),
    "ms1024": ("sweep-ms1024-5x/cycle+grid/1024",
               "independent-ms1024-5x/cycle+grid/1024"),
}

#: Shard-vs-serial pairs (DESIGN.md §14): kind -> (sharded entry, serial
#: entry).  Timed interleaved like SWEEP_PAIRS so host drift cancels out of
#: the ratio; whenever both sides of a pair are measured in one invocation
#: their aggregate digests must be byte-identical (`_check_shard_digests` —
#: the executor must never change what a sweep computes).  Ratios land
#: under ``sweep_speedups`` with the worker count that produced them.
SHARD_PAIRS = {
    "ms512shard": ("shard-ms512-5x/cycle+grid/512",
                   "sweep-ms512-5x/cycle+grid/512"),
    "ms2048": ("shard-ms2048-5x/cycle+grid/2048",
               "sweep-ms2048-5x/cycle+grid/2048"),
    "ms4096": ("shard-ms4096-5x/cycle+grid/4096",
               "sweep-ms4096-5x/cycle+grid/4096"),
}


def _record_entry(results: dict, name: str, walls: list, result) -> None:
    best = min(walls)
    results[name] = {
        "wall_best": round(best, 5),
        "wall_median": round(statistics.median(walls), 5),
        "messages": result.messages,
        "events_fired": result.events_fired,
        "msgs_per_sec": round(result.messages / best) if best else 0,
        "outputs_digest": _digest(result.outputs),
    }
    print(f"{name:36s} best {best*1e3:8.1f} ms   "
          f"{results[name]['msgs_per_sec']:>9,} msgs/s   "
          f"{result.messages:>7} msgs   {results[name]['outputs_digest']}")


def profile_workload(name: str, top: int = 25) -> int:
    """cProfile one workload and print the top-``top`` rows.

    The workload is warmed once (covers, registries, pulse bounds and
    skeletons come from per-graph caches, exactly as the timed reps see
    them), then a single run is profiled.  Output is printed twice —
    sorted by *cumulative* time (who is responsible, including callees:
    the protocol-layer hot-spot view DESIGN.md §9/§10 cite) and by
    *tottime* (whose own bytecode burns the time: the flattening-target
    view).  See ``benchmarks/harness.py`` for how to read the numbers on
    a host with load drift.
    """
    import cProfile
    import pstats

    matches = [w for w in WORKLOADS if name in w[0]]
    if not matches:
        known = ", ".join(w[0] for w in WORKLOADS)
        print(f"ERROR: no workload matches {name!r}; known: {known}")
        return 1
    if len(matches) > 1:
        print(f"NOTE: {name!r} matches {len(matches)} workloads;"
              f" profiling {matches[0][0]!r}")
    wl_name, build, runner, _, _ = matches[0]
    graph = build()
    runner(graph)  # warm the pure-structure caches
    profiler = cProfile.Profile()
    profiler.enable()
    runner(graph)
    profiler.disable()
    print(f"== cProfile: {wl_name} (one warm run) ==")
    stats = pstats.Stats(profiler)
    for sort in ("cumulative", "tottime"):
        print(f"-- top {top} by {sort} --")
        stats.sort_stats(sort).print_stats(top)
    return 0


def _workload_matches(pat: str, name: str) -> bool:
    """One --workloads pattern against one matrix name.

    ``=name`` demands an exact match — the sweep-shard CI job selects
    ``=shard-ms512-5x/...`` without dragging in every other name the bare
    substring would also hit; anything else keeps the original substring
    semantics (the protocol-bench step's selection syntax is unchanged).
    """
    if pat.startswith("="):
        return name == pat[1:]
    return pat in name


def measure(quick: bool, reps: int = 5, only: Optional[list] = None) -> dict:
    """Time the workload matrix.

    The sweep-vs-independent pairs (``SWEEP_PAIRS``) are timed with
    *interleaved* reps — sweep, independent, sweep, independent, ... — so
    host-load drift on shared machines hits both sides of each recorded
    speedup equally (the same trick as the seed-reference interleaved
    A/B); a load spike then inflates both walls instead of silently
    biasing the ratio.  Everything else runs rep-by-rep as before.
    """
    results = {}
    selected = {}
    for name, build, runner, in_quick, reps_override in WORKLOADS:
        if only is not None:
            # Pattern selection (the CI protocol-bench / sweep-shard
            # steps): --quick does not further filter an explicit
            # selection.
            if not any(_workload_matches(pat, name) for pat in only):
                continue
        elif quick and not in_quick:
            continue
        selected[name] = (build, runner, reps_override or reps)
    interleaved = {}
    for sweep_name, indep_name in (
        list(SWEEP_PAIRS.values()) + list(SHARD_PAIRS.values())
    ):
        # A workload joins at most one interleaved pair per invocation
        # (sweep-ms512 partners independent-ms512 in the full matrix, but
        # partners shard-ms512 when the sweep-shard CI selection names only
        # those two): first pair with both members selected wins.
        if (sweep_name in selected and indep_name in selected
                and sweep_name not in interleaved
                and indep_name not in interleaved):
            interleaved[sweep_name] = indep_name
            interleaved[indep_name] = sweep_name
    for name, (build, runner, n_reps) in selected.items():
        if name in interleaved:
            partner = interleaved[name]
            if partner in results or name in results:
                continue  # the pair was timed when its first member came up
            p_build, p_runner, p_reps = selected[partner]
            graph = build()
            p_graph = p_build()
            runner(graph)  # warm caches (covers, pulse bounds, infos)
            p_runner(p_graph)
            walls, p_walls = [], []
            result = p_result = None
            for _ in range(max(n_reps, p_reps)):
                t0 = time.perf_counter()
                result = runner(graph)
                walls.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                p_result = p_runner(p_graph)
                p_walls.append(time.perf_counter() - t0)
            _record_entry(results, name, walls, result)
            _record_entry(results, partner, p_walls, p_result)
            continue
        graph = build()
        runner(graph)  # warm caches (covers, pulse bounds, infos)
        walls = []
        result = None
        for _ in range(n_reps):
            t0 = time.perf_counter()
            result = runner(graph)
            walls.append(time.perf_counter() - t0)
        _record_entry(results, name, walls, result)
    return results


def check(current: dict, committed: dict, threshold: float) -> int:
    """Compare ``current`` against the committed baseline.

    Degrades gracefully on incomplete baselines (fresh clone, partial
    ``--write``): a workload entry that is missing, lacks a field, or
    records a zero/absent floor is skipped with a warning rather than
    dying on a ``KeyError``/``ZeroDivisionError``.  The exit code is
    nonzero only for real regressions — determinism mismatches or a
    throughput drop beyond ``threshold``.
    """
    # Rescale the committed floors by relative host speed, so the absolute
    # msgs/sec recorded on the authoring machine transfers to slower (or
    # faster) CI runners.
    base_cal = committed.get("calibration_ops_per_sec")
    if base_cal:
        scale = _calibrate() / base_cal
        print(f"host speed vs baseline host: x{scale:.2f}")
    else:
        if base_cal is not None:
            print("WARNING: baseline calibration is 0; floors not rescaled")
        scale = 1.0
    failures = []
    for name, entry in current.items():
        base = committed.get("workloads", {}).get(name)
        if base is None:
            print(f"NOTE: {name} not in committed baseline, skipping")
            continue
        base_messages = base.get("messages")
        if base_messages is None:
            print(f"WARNING: {name}: baseline lacks 'messages', skipping")
        elif entry["messages"] != base_messages:
            failures.append(
                f"{name}: message count changed {base_messages} -> {entry['messages']}"
            )
        base_events = base.get("events_fired")
        if base_events is None:
            print(f"WARNING: {name}: baseline lacks 'events_fired', skipping")
        elif entry["events_fired"] != base_events:
            failures.append(
                f"{name}: events fired changed {base_events}"
                f" -> {entry['events_fired']}"
            )
        base_digest = base.get("outputs_digest")
        if base_digest is None:
            print(f"WARNING: {name}: baseline lacks 'outputs_digest', skipping")
        elif entry["outputs_digest"] != base_digest:
            failures.append(
                f"{name}: outputs digest changed {base_digest}"
                f" -> {entry['outputs_digest']}"
            )
        base_rate = base.get("msgs_per_sec")
        if not base_rate:
            # 0.0 or missing: a sub-resolution wall clock or a partial
            # --write recorded no meaningful floor to hold this host to.
            print(f"WARNING: {name}: baseline records no throughput floor,"
                  " skipping throughput check")
            continue
        floor = base_rate * scale * (1.0 - threshold)
        if entry["msgs_per_sec"] < floor:
            failures.append(
                f"{name}: throughput regressed {base_rate:,} ->"
                f" {entry['msgs_per_sec']:,} msgs/s"
                f" (host-scaled floor {floor:,.0f})"
            )
    if failures:
        print("\nPERF REGRESSION CHECK FAILED:")
        for f in failures:
            print(" -", f)
        return 1
    print("\nperf regression check passed")
    return 0


def _sweep_speedups(current: dict) -> dict:
    """Sweep-vs-independent ratios, when both sides were measured.

    The two entries cover the same 10 (graph, model) cells — the sweep with
    one shared setup per graph, the independent runs with cold caches — so
    their message totals and per-cell digests must agree exactly, and the
    wall ratio is the amortization win.
    """
    out = {}
    for kind, (sweep_name, indep_name) in SWEEP_PAIRS.items():
        sweep = current.get(sweep_name)
        indep = current.get(indep_name)
        if sweep and indep:
            if sweep["outputs_digest"] != indep["outputs_digest"]:
                raise AssertionError(
                    f"{kind}: sweep and independent runs diverged"
                )
            if not sweep["wall_best"]:
                print(f"WARNING: {kind}: sweep wall clock below resolution,"
                      " speedup not recorded")
                continue
            out[kind] = {
                "independent_wall_best": indep["wall_best"],
                "sweep_wall_best": sweep["wall_best"],
                "speedup": round(indep["wall_best"] / sweep["wall_best"], 2),
            }
    out.update(_shard_ratios(current))
    return out


def _check_shard_digests(current: dict) -> None:
    """Sharded and serial runs of the same cells must agree byte-for-byte.

    Runs after *every* measurement (not just --write): whenever both sides
    of a SHARD_PAIRS pair were measured, their aggregate digests — one
    16-hex digest per (graph, model) cell, folded through `_record_entry` —
    and message totals must be identical, or the invocation dies.  This is
    the assertion the CI sweep-shard job leans on.
    """
    for kind, (shard_name, serial_name) in SHARD_PAIRS.items():
        shard_e = current.get(shard_name)
        serial_e = current.get(serial_name)
        if not (shard_e and serial_e):
            continue
        if (shard_e["outputs_digest"] != serial_e["outputs_digest"]
                or shard_e["messages"] != serial_e["messages"]):
            raise AssertionError(
                f"{kind}: sharded run diverged from serial"
                f" (digest {shard_e['outputs_digest']} vs"
                f" {serial_e['outputs_digest']}, messages"
                f" {shard_e['messages']} vs {serial_e['messages']})"
            )


def _shard_ratios(current: dict) -> dict:
    """Shard-vs-serial wall ratios for the measured SHARD_PAIRS.

    Print-only evidence, never a --check gate (host-drift policy): a ratio
    is meaningful on a multi-core host and ~1.0 or below on the 1-2 core
    runners CI uses.  Digest equality is enforced separately (and
    unconditionally) by `_check_shard_digests`.
    """
    out = {}
    for kind, (shard_name, serial_name) in SHARD_PAIRS.items():
        shard_e = current.get(shard_name)
        serial_e = current.get(serial_name)
        if shard_e and serial_e and shard_e["wall_best"]:
            out[kind] = {
                "serial_wall_best": serial_e["wall_best"],
                "shard_wall_best": shard_e["wall_best"],
                "speedup": round(
                    serial_e["wall_best"] / shard_e["wall_best"], 2
                ),
                "jobs": _effective_jobs(),
            }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI subset")
    parser.add_argument("--write", action="store_true", help="update BENCH_core.json")
    parser.add_argument("--check", action="store_true",
                        help="compare against committed BENCH_core.json")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the shard-* workloads (default: one per"
             " visible core; 1 short-circuits to the in-process loop)."
             " Serial workloads are unaffected — jobs can change walls,"
             " never digests")
    parser.add_argument(
        "--workloads", type=str, default=None, metavar="PAT[,PAT...]",
        help="run only workloads whose name contains one of the given"
             " substrings (e.g. 'sync-bfs/cycle/256,tbfs-16' — the CI"
             " protocol-bench selection); a pattern starting with '='"
             " demands an exact name match (the CI sweep-shard selection)")
    parser.add_argument(
        "--profile", type=str, default=None, metavar="WORKLOAD",
        help="cProfile one workload (substring match against the matrix"
             " names) and print the top rows by cumulative and tottime;"
             " exits without timing/checking")
    parser.add_argument("--profile-top", type=int, default=25,
                        help="rows per table for --profile (default 25)")
    args = parser.parse_args()

    if args.profile is not None:
        return profile_workload(args.profile, top=args.profile_top)

    global _JOBS
    if args.jobs is not None and args.jobs < 1:
        print(f"ERROR: --jobs must be >= 1, got {args.jobs}")
        return 1
    _JOBS = args.jobs

    only = args.workloads.split(",") if args.workloads else None
    if only is not None:
        # Every pattern must select something: a stale name in the CI
        # protocol-bench step must fail the job, not gate zero workloads
        # and pass vacuously.
        names = [w[0] for w in WORKLOADS]
        dead = [pat for pat in only
                if not any(_workload_matches(pat, n) for n in names)]
        if dead:
            print(f"ERROR: --workloads pattern(s) {dead} match no workload;"
                  f" known: {', '.join(names)}")
            return 1
    if only is not None and args.write:
        # A filtered --write would rewrite BENCH_core.json with only the
        # selected subset: every other committed entry (and most of
        # sweep_speedups) would vanish, and check() would then silently
        # skip them as "not in committed baseline".
        print("ERROR: --write with --workloads would gut the committed"
              " baseline; run --write on the full matrix (or --quick)")
        return 1
    current = measure(quick=args.quick, reps=args.reps, only=only)

    # Whenever a shard cell and its serial twin were both measured, their
    # digests must be byte-identical — this dies otherwise (the CI
    # sweep-shard assertion).  Ratios are printed as evidence but never
    # gate: wall clocks drift, digests don't.
    _check_shard_digests(current)
    for kind, ratio in _shard_ratios(current).items():
        print(f"shard speedup [{kind}] x{ratio['speedup']:.2f}"
              f"  (serial {ratio['serial_wall_best']*1e3:.1f} ms ->"
              f" shard {ratio['shard_wall_best']*1e3:.1f} ms,"
              f" jobs={ratio['jobs']})")

    if args.check:
        if not BENCH_PATH.exists():
            # The baseline is committed, so a missing file means a broken
            # checkout or path refactor — fail loudly rather than letting
            # the CI gate silently pass with nothing to check against.
            # (Partial/zero baselines are tolerated inside check().)
            print("ERROR: no committed BENCH_core.json; the perf gate has"
                  " nothing to check against")
            return 1
        committed = json.loads(BENCH_PATH.read_text())
        return check(current, committed, args.threshold)

    if args.write:
        acceptance = current.get(SEED_REFERENCE["workload"])
        payload = {
            "methodology": (
                f"best of {args.reps} warm runs per workload; UniformDelay"
                f" seed {SEED}; msgs_per_sec = messages / wall_best; --check"
                " rescales floors by calibration_ops_per_sec of the host;"
                " sweep-* workloads replay 5 delay models on cycle+grid at"
                " n=256 through the sweep engines (setup included),"
                " independent-* run the same cells with cold per-graph caches"
            ),
            "calibration_ops_per_sec": round(_calibrate()),
            "seed_reference": SEED_REFERENCE,
            "speedup_vs_seed_this_run": (
                round(SEED_REFERENCE["wall_best"] / acceptance["wall_best"], 2)
                if acceptance and acceptance["wall_best"] else None
            ),
            "sweep_speedups": _sweep_speedups(current),
            "workloads": current,
        }
        BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {BENCH_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
