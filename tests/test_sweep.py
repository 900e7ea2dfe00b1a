"""Sweep engines must be byte-identical to standalone runs, per delay model.

The whole point of :class:`repro.net.sweep.AsyncSweep` and of the protocol
sweeps built on :class:`repro.net.sweep.ProtocolSweep` (each defined beside
its process class: ``SynchronizerSweep``, ``ThresholdedBFSSweep``,
``BaselineSweep``) is to amortize setup *without changing a single event*:
every replay must equal the corresponding standalone run — same delivery
traces, outputs, message counts, times — and replay order must not leak
state between models.
"""

import pytest

from repro.apps.programs import bfs_spec, broadcast_echo_spec, flood_max_spec
from repro.baselines import GammaStructure, run_alpha, run_beta, run_gamma
from repro.baselines.alpha import AlphaProcess
from repro.baselines.beta import BetaProcess, tree_attrs
from repro.baselines.common import BaselineSweep
from repro.baselines.gamma import GammaProcess
from repro.core import (
    SynchronizerSweep,
    ThresholdedBFSSweep,
    run_synchronized,
    run_thresholded_bfs,
)
from repro.net import AsyncRuntime, AsyncSweep, Process, topology
from repro.net.delays import standard_adversaries


class Gossip(Process):
    def on_start(self):
        self.best = self.ctx.node_id
        for v in self.ctx.neighbors:
            self.ctx.send(v, self.best)

    def on_message(self, sender, value):
        if value > self.best:
            self.best = value
            self.ctx.set_output(value)
            for v in self.ctx.neighbors:
                self.ctx.send(v, value)


def _trace_run(runner, model):
    trace = []
    result = runner(model, lambda t, u, v, p: trace.append((t, u, v, p)))
    return trace, result


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_async_sweep_matches_standalone_runs(seed):
    """One AsyncSweep instance replayed over the whole adversary family is
    trace-identical to fresh per-model AsyncRuntime runs."""
    graph = topology.grid_graph(3, 4)
    sweep = AsyncSweep(graph, Gossip)
    for model in standard_adversaries(seed):
        sweep_trace, sweep_result = _trace_run(
            lambda m, t: sweep.run(m, trace=t), model
        )
        solo_trace, solo_result = _trace_run(
            lambda m, t: AsyncRuntime(graph, Gossip, m, trace=t).run(), model
        )
        assert sweep_trace == solo_trace
        assert sweep_result == solo_result


def test_async_sweep_replays_are_order_independent():
    """Replaying A, B, A must give A the same result both times (no state
    can leak through the shared skeleton)."""
    graph = topology.cycle_graph(10)
    models = standard_adversaries(3)
    sweep = AsyncSweep(graph, Gossip)
    first = sweep.run(models[2])
    for model in models:
        sweep.run(model)
    again = sweep.run(models[2])
    assert first == again


def test_sweep_shares_one_block_buffer_across_replays():
    """The flat delay-block buffer is allocated once per sweep and handed
    to every replay (DESIGN.md §9); replays reset their cursors, so the
    shared scratch cannot leak one model's draws into the next — pinned by
    the byte-identity tests above, asserted structurally here."""
    graph = topology.cycle_graph(10)
    models = standard_adversaries(4)
    sweep = AsyncSweep(graph, Gossip)
    rt1 = sweep.runtime(models[2])
    buf = sweep._block_buffer
    assert buf is not None and rt1._blk_buf is buf
    rt2 = sweep.runtime(models[3])
    assert rt2._blk_buf is buf
    assert sweep._block_buffer is buf  # no reallocation per replay
    # A standalone runtime allocates its own scratch: nothing is shared
    # outside the sweep's sequential replays.
    from repro.net import AsyncRuntime

    solo = AsyncRuntime(graph, Gossip, models[2])
    assert solo._blk_buf is not buf


def test_interleaved_runtime_construction_over_shared_buffer():
    """Construct-construct-run-run over one sweep buffer: each run() resets
    its block cursors on entry, so a replay constructed before another
    replay dirtied the shared scratch still reproduces its model's draws
    exactly (the refill start is the current injection number)."""
    graph = topology.grid_graph(3, 4)
    models = standard_adversaries(6)
    sweep = AsyncSweep(graph, Gossip)
    rt_a = sweep.runtime(models[2])
    rt_b = sweep.runtime(models[3])
    result_b = rt_b.run()   # dirties the buffer rt_a captured
    result_a = rt_a.run()
    assert result_a == sweep.run(models[2])
    assert result_b == sweep.run(models[3])


@pytest.mark.parametrize("spec_factory", [
    lambda: bfs_spec(0),
    lambda: broadcast_echo_spec(0),
    flood_max_spec,
])
def test_synchronizer_sweep_matches_run_synchronized(spec_factory):
    graph = topology.cycle_graph(12)
    spec = spec_factory()
    sweep = SynchronizerSweep(graph, spec)
    for model in standard_adversaries(1):
        solo = run_synchronized(graph, spec, model)
        replay = sweep.run(model)
        assert replay == solo, repr(model)


def test_sweep_synchronized_wrapper_aligns_with_models():
    graph = topology.grid_graph(3, 3)
    spec = bfs_spec(0)
    models = standard_adversaries(5)
    results = SynchronizerSweep(graph, spec).run_all(models)
    assert len(results) == len(models)
    for model, result in zip(models, results):
        assert result == run_synchronized(graph, spec, model), repr(model)


@pytest.mark.parametrize("threshold", [4, 8])
def test_thresholded_bfs_sweep_matches_standalone(threshold):
    graph = topology.cycle_graph(24)
    sweep = ThresholdedBFSSweep(graph, 0, threshold)
    for model in standard_adversaries(2):
        solo = run_thresholded_bfs(graph, 0, threshold, model)
        replay = sweep.run(model)
        assert replay.distances == solo.distances, repr(model)
        assert replay.parents == solo.parents, repr(model)
        assert replay.result == solo.result, repr(model)


def test_thresholded_bfs_sweep_distances_are_model_independent():
    """Correctness across the family: every adversary yields the oracle
    distances (the guarantee the sweep exists to measure cheaply)."""
    graph = topology.grid_graph(4, 4)
    truth = graph.bfs_distances(0)
    sweep = ThresholdedBFSSweep(graph, 0, 8)
    for outcome in sweep.run_all(standard_adversaries(7)):
        for v in graph.nodes:
            expected = truth[v] if truth[v] <= 8 else float("inf")
            assert outcome.distances[v] == expected


def test_baseline_sweep_matches_standalone_runners():
    """A standalone baseline run is the first replay of a fresh sweep, so
    replaying every model on one sweep must equal running each alone."""
    graph = topology.path_graph(10)
    spec = broadcast_echo_spec(0)
    sweeps = {
        run_alpha: BaselineSweep(graph, AlphaProcess.bind(graph, spec)),
        run_beta: BaselineSweep(graph, BetaProcess.bind(
            graph, spec, **tree_attrs(graph, 0))),
        run_gamma: BaselineSweep(graph, GammaProcess.bind(
            graph, spec, structure=GammaStructure(graph))),
    }
    models = standard_adversaries(3)
    for runner, sweep in sweeps.items():
        for model, replay in zip(models, sweep.run_all(models)):
            assert replay == runner(graph, spec, model), (runner, model)


def test_baseline_sweep_names_its_family_when_cut_short():
    graph = topology.path_graph(10)
    sweep = BaselineSweep(graph, BetaProcess.bind(
        graph, bfs_spec(0), **tree_attrs(graph, 0)))
    with pytest.raises(RuntimeError, match="^beta did not finish: "):
        sweep.run(standard_adversaries(0)[0], max_events=5)
