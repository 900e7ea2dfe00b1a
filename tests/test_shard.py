"""The sharded sweep executor must be byte-identical to the serial engine.

DESIGN.md §14: the process-pool executor ships one immutable bundle per
worker and merges per-cell summaries in canonical index order, so a sharded
``run_all`` with any ``jobs`` / start method must reproduce the serial
``run_all``'s message counts, times, and output digests exactly — on every
sweep cell, not just benchmark spot-checks.  ``jobs=1`` must never touch
multiprocessing at all.
"""

import gc
import importlib.util
import pickle
import sys
from multiprocessing import get_all_start_methods
from pathlib import Path

import pytest

from repro.apps.programs import bfs_spec, flood_max_spec, multi_bfs_spec
from repro.baselines import GammaStructure
from repro.baselines.common import BaselineSweep
from repro.baselines.gamma import GammaProcess
from repro.core import SynchronizerSweep, ThresholdedBFSSweep, run_sweeps_sharded
from repro.net import AsyncSweep, topology
from repro.net.async_runtime import (
    LinkSkeleton,
    adopt_skeleton,
    link_skeleton_for,
)
from repro.net.delays import UniformDelay, standard_adversaries
from repro.net.program import fixed_initiators, sampled_initiators, single_initiator
from repro.net import shard
from repro.net.shard import (
    CellSummary,
    digest_outputs,
    run_serial,
    run_sharded,
    run_timed,
    summarize,
)

#: Both POSIX start methods where the platform has them; at minimum one.
START_METHODS = [m for m in ("fork", "spawn") if m in get_all_start_methods()]


def _comparable(summaries):
    return [s.comparable() for s in summaries]


def _serial_reference(sweep, models):
    """Serial-engine ground truth, summarized for comparison (wall=0)."""
    return [summarize(i, r) for i, r in enumerate(sweep.run_all(models))]


# -- tentpole equivalence: every existing sweep cell, both start methods ----

@pytest.mark.parametrize("start_method", START_METHODS)
def test_sharded_synchronizer_matches_serial_on_all_adversaries(start_method):
    graph = topology.grid_graph(3, 4)
    sweep = SynchronizerSweep(graph, multi_bfs_spec(3))
    models = standard_adversaries(1)
    serial = _serial_reference(sweep, models)
    sharded = sweep.run_all_sharded(models, jobs=2, start_method=start_method)
    assert _comparable(sharded) == _comparable(serial)


@pytest.mark.parametrize("start_method", START_METHODS)
def test_sharded_tbfs_matches_serial_on_all_adversaries(start_method):
    graph = topology.cycle_graph(17)
    sweep = ThresholdedBFSSweep(graph, [0, 6], 8)
    models = standard_adversaries(2)
    serial = _serial_reference(sweep, models)
    sharded = sweep.run_all_sharded(models, jobs=3, start_method=start_method)
    assert _comparable(sharded) == _comparable(serial)


@pytest.mark.parametrize("start_method", START_METHODS)
def test_sharded_gamma_matches_serial_on_all_adversaries(start_method):
    """A baseline sweep ships its bound class (cluster structure included)
    to the workers like the core sweeps do."""
    graph = topology.grid_graph(4, 4)
    sweep = BaselineSweep(graph, GammaProcess.bind(
        graph, flood_max_spec(), structure=GammaStructure(graph)))
    models = standard_adversaries(7)
    serial = _serial_reference(sweep, models)
    sharded = sweep.run_all_sharded(models, jobs=2, start_method=start_method)
    assert _comparable(sharded) == _comparable(serial)


def test_sharded_matches_serial_on_seed_family():
    """(graph, seed) cells — one model class, many seeds — shard identically."""
    graph = topology.cycle_graph(16)
    sweep = SynchronizerSweep(graph, bfs_spec(0))
    models = [UniformDelay(seed=s) for s in range(6)]
    serial = _serial_reference(sweep, models)
    sharded = sweep.run_all_sharded(models, jobs=2)
    assert _comparable(sharded) == _comparable(serial)


def test_matrix_driver_spans_sweeps_with_per_sweep_indices():
    """One pool over a sweeps x models matrix; each sweep's summaries come
    back in model order with sweep-local indices (same shape as run_all)."""
    graph = topology.cycle_graph(12)
    sync = SynchronizerSweep(graph, bfs_spec(0))
    tbfs = ThresholdedBFSSweep(graph, [0, 5], 8)
    models = standard_adversaries(3)
    per_sweep = run_sweeps_sharded([sync, tbfs], models, jobs=2)
    assert _comparable(per_sweep[0]) == _comparable(_serial_reference(sync, models))
    assert _comparable(per_sweep[1]) == _comparable(_serial_reference(tbfs, models))


def test_jobs1_short_circuits_without_multiprocessing(monkeypatch):
    """jobs=1 (and single-cell bundles) must never create a pool."""
    def boom(*a, **k):  # pragma: no cover - failing is the assertion
        raise AssertionError("jobs=1 must not touch multiprocessing")

    monkeypatch.setattr(shard.multiprocessing, "get_context", boom)
    graph = topology.cycle_graph(10)
    sweep = SynchronizerSweep(graph, bfs_spec(0))
    models = standard_adversaries(4)
    serial = _serial_reference(sweep, models)
    assert _comparable(sweep.run_all_sharded(models, jobs=1)) == _comparable(serial)
    # A one-cell bundle short-circuits too, whatever jobs says.
    one = sweep.run_all_sharded(models[:1], jobs=8)
    assert _comparable(one) == _comparable(serial[:1])


def test_run_sharded_rejects_bad_jobs():
    graph = topology.cycle_graph(8)
    sweep = SynchronizerSweep(graph, bfs_spec(0))
    with pytest.raises(ValueError):
        sweep.run_all_sharded(standard_adversaries(0), jobs=0)


# -- satellite: skeleton serialization round-trip ---------------------------

def test_link_skeleton_pickle_roundtrip_preserves_assignment():
    graph = topology.grid_graph(4, 5)
    skeleton = link_skeleton_for(graph)
    clone = pickle.loads(pickle.dumps(skeleton))
    assert clone.lu == skeleton.lu
    assert clone.lv == skeleton.lv
    assert clone.num_links == skeleton.num_links
    assert {v: dict(m) for v, m in clone.out.items()} == {
        v: dict(m) for v, m in skeleton.out.items()
    }
    assert clone.blk_lims == skeleton.blk_lims
    # Read-only views survive the trip: protocols still cannot mutate them.
    with pytest.raises(TypeError):
        clone.out[0][99] = 1


def test_adopt_skeleton_seeds_the_per_graph_cache():
    parent_graph = topology.cycle_graph(9)
    shipped = pickle.loads(pickle.dumps(link_skeleton_for(parent_graph)))
    child_graph = pickle.loads(pickle.dumps(parent_graph))
    adopted = adopt_skeleton(child_graph, shipped)
    assert adopted is shipped
    assert link_skeleton_for(child_graph) is shipped
    # First-cached wins when the child already derived its own table.
    other = LinkSkeleton(child_graph)
    assert adopt_skeleton(child_graph, other) is shipped


def test_bundle_roundtrip_replays_byte_identically():
    """Pinned satellite: a pickled/unpickled (graph, skeleton, registry,
    infos, process class) bundle replays with the same traces, outputs, and
    message counts as the parent's copy."""
    graph = topology.grid_graph(3, 4)
    parent = SynchronizerSweep(graph, multi_bfs_spec(3))
    bundle = (
        parent.graph,
        link_skeleton_for(parent.graph),
        parent.registry,
        parent.spec.make_infos(parent.graph),
        parent.process_cls,
    )
    graph2, skeleton2, registry2, infos2, cls2 = pickle.loads(
        pickle.dumps(bundle)
    )
    assert graph2 is not graph
    assert cls2.registry is registry2
    assert cls2.infos == infos2
    adopt_skeleton(graph2, skeleton2)
    child_sweep = AsyncSweep(graph2, cls2)
    for model in standard_adversaries(5):
        parent_trace, child_trace = [], []
        parent_result = parent._sweep.run(
            model, trace=lambda t, u, v, p: parent_trace.append((t, u, v, p))
        )
        child_result = child_sweep.run(
            model, trace=lambda t, u, v, p: child_trace.append((t, u, v, p))
        )
        assert child_trace == parent_trace
        assert child_result.outputs == parent_result.outputs
        assert child_result.messages == parent_result.messages
        assert child_result.events_fired == parent_result.events_fired


@pytest.mark.parametrize("start_method", START_METHODS)
def test_shipped_sweep_replays_identically_in_worker(start_method):
    """The full shipped state replays identically inside a real pool worker
    under each available start method (pickle for spawn, COW for fork)."""
    graph = topology.cycle_graph(14)
    sweep = ThresholdedBFSSweep(graph, [0, 4], 8)
    models = standard_adversaries(6)[:3]
    serial = _serial_reference(sweep, models)
    sharded = sweep.run_all_sharded(models, jobs=2, start_method=start_method)
    assert _comparable(sharded) == _comparable(serial)


def test_initiator_factories_pickle_with_identical_behavior():
    graph = topology.cycle_graph(10)
    for pick in (single_initiator(3), fixed_initiators([1, 4]),
                 sampled_initiators(4)):
        clone = pickle.loads(pickle.dumps(pick))
        assert clone(graph) == pick(graph)
    bad = pickle.loads(pickle.dumps(single_initiator(99)))
    with pytest.raises(ValueError, match="initiator 99 not in graph"):
        bad(graph)


# -- satellite: GC handling across worker boundaries ------------------------

def test_worker_initializer_normalizes_inherited_gc_pause():
    """A fork during a paused_gc window must not leave the child's collector
    disabled forever: the pool initializer re-enables unconditionally."""
    assert gc.isenabled()
    try:
        gc.disable()
        shard._init_worker(None)
        assert gc.isenabled()
    finally:
        if not gc.isenabled():
            gc.enable()
    shard._WORKER_BUNDLE = None


def test_sharded_run_leaves_parent_gc_enabled():
    assert gc.isenabled()
    graph = topology.cycle_graph(8)
    sweep = SynchronizerSweep(graph, bfs_spec(0))
    sweep.run_all_sharded(standard_adversaries(7)[:3], jobs=2)
    assert gc.isenabled()


# -- summaries and digests --------------------------------------------------

def test_digest_matches_perf_regression_formula():
    """One digest implementation: the committed BENCH_core.json digests and
    worker-side summaries must stay comparable forever."""
    path = Path(__file__).parent.parent / "benchmarks" / "perf_regression.py"
    spec = importlib.util.spec_from_file_location("perf_regression", path)
    mod = importlib.util.module_from_spec(spec)
    saved = sys.path[:]
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path[:] = saved
    sample = {3: (1, "a"), 0: (2, "b"), 7: (0, "c")}
    assert digest_outputs(sample) == mod._digest(sample)


def test_summarize_folds_results_and_outcome_wrappers():
    graph = topology.cycle_graph(12)
    sweep = ThresholdedBFSSweep(graph, [0], 8)
    model = standard_adversaries(0)[2]
    outcome = sweep.run(model)
    direct = summarize(4, outcome.result, wall=1.25)
    wrapped = summarize(4, outcome, wall=9.0)
    assert isinstance(direct, CellSummary)
    assert direct.index == 4
    assert direct.messages == outcome.result.messages
    assert direct.outputs_digest == digest_outputs(outcome.result.outputs)
    assert direct.wall == 1.25
    # comparable() ignores the wall clock — the one nondeterministic field.
    assert wrapped.comparable() == direct.comparable()


def test_run_timed_measures_and_run_serial_orders():
    graph = topology.cycle_graph(10)
    sweep = SynchronizerSweep(graph, bfs_spec(0))
    models = standard_adversaries(1)[:3]

    class Cells:
        def __len__(self):
            return len(models)

        def run_cell(self, index):
            return run_timed(index, lambda: sweep.run(models[index]))

    summaries = run_serial(Cells())
    assert [s.index for s in summaries] == [0, 1, 2]
    assert all(s.wall >= 0.0 for s in summaries)
    assert _comparable(run_sharded(Cells(), jobs=1)) == _comparable(summaries)
