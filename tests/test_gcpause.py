"""The package's one GC pause over setup: cover, registry, sweeps, runtime.

Collector churn is asserted with a count (``gc.callbacks`` "start" events),
not a clock: a pass that runs while a paused constructor builds is a
regression whatever the host's speed.
"""

import gc

import pytest

from repro.apps.programs import bfs_spec, multi_bfs_spec
from repro.core import (
    CoverRegistry,
    SynchronizerSweep,
    ThresholdedBFSSweep,
    pulse_bound_for,
    required_cover_radius,
)
from repro.covers import build_ap_cover, build_layered_cover
from repro.covers.cover import LayeredCover
from repro.gcpause import paused_gc
from repro.net import (
    AsyncRuntime,
    FaultSchedule,
    UniformDelay,
    standard_adversaries,
    topology,
)
from repro.net.sweep import run_models
from repro.check.control import ScheduleController


class _PassCounter:
    """Counts cyclic-GC passes (``gc.callbacks`` "start" events)."""

    def __init__(self):
        self.passes = 0

    def __call__(self, phase, info):
        if phase == "start":
            self.passes += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


@pytest.fixture(scope="module")
def cold_grid():
    """grid(32x64) at ``multi_bfs_spec(64)``'s cover radius: the cold
    setup of the benchmark's cold-start workload."""
    graph = topology.grid_graph(32, 64)
    spec = multi_bfs_spec(64)
    max_pulse = pulse_bound_for(graph, spec)
    return graph, spec, max_pulse, required_cover_radius(max_pulse)


@pytest.mark.skipif(not hasattr(gc, "callbacks"),
                    reason="the interpreter has no gc.callbacks")
def test_cold_setup_runs_no_collector_pass_while_building(cold_grid):
    """No pass runs while a constructor builds: the most a call sees is the
    one scan of the young generation when the pause lifts.  Unpaused, the
    same bodies run over a hundred passes each.  The cover builds a level
    on its first read and the registry indexes it on ``load``, so those
    are the calls measured for the two."""
    graph, spec, max_pulse, radius = cold_grid
    assert gc.isenabled()
    layered = build_layered_cover(graph, radius)
    with _PassCounter() as unpaused:
        build_ap_cover(graph, 1)  # level 0, unpaused
    assert unpaused.passes > 1
    with _PassCounter() as cover_passes:
        layered.levels[0]
    for j in layered.levels:
        layered.levels[j]
    with _PassCounter() as unpaused:
        CoverRegistry.load.__wrapped__(CoverRegistry(layered))
    assert unpaused.passes > 1
    with _PassCounter() as registry_passes:
        registry = CoverRegistry(layered)
        registry.load()
    # Each sweep is built over a fresh copy of the grid, so it also builds
    # the graph's link skeleton, as a cold sweep does.
    sweeps = [
        (SynchronizerSweep, (spec,),
         dict(registry=registry, max_pulse=max_pulse)),
        (ThresholdedBFSSweep, (0, max_pulse), dict(registry=registry)),
    ]
    sweep_passes = []
    for cls, args, kwargs in sweeps:
        fresh = topology.grid_graph(32, 64)
        with _PassCounter() as unpaused:
            cls.__init__.__wrapped__(cls.__new__(cls), fresh, *args, **kwargs)
        assert unpaused.passes > 1, cls.__name__
        fresh = topology.grid_graph(32, 64)
        with _PassCounter() as paused:
            cls(fresh, *args, **kwargs)
        sweep_passes.append(paused.passes)
    process_cls = SynchronizerSweep(
        graph, spec, registry=registry, max_pulse=max_pulse).process_cls
    model = UniformDelay(seed=2305)
    with _PassCounter() as unpaused:
        AsyncRuntime.__init__.__wrapped__(
            AsyncRuntime.__new__(AsyncRuntime), graph, process_cls, model)
    assert unpaused.passes > 1
    with _PassCounter() as runtime_passes:
        AsyncRuntime(graph, process_cls, model)
    assert cover_passes.passes <= 1
    assert registry_passes.passes <= 1
    assert all(passes <= 1 for passes in sweep_passes)
    assert runtime_passes.passes <= 1
    assert gc.isenabled()


class _Never(ScheduleController):
    def choose(self, events):  # pragma: no cover - never runs
        return 0


def _constructors():
    """(name, ok, raising) calls of the five paused constructors."""
    g = topology.grid_graph(3, 3)
    layered = build_layered_cover(g, 4)
    process_cls = SynchronizerSweep(
        g, multi_bfs_spec(2), registry=CoverRegistry(layered)).process_cls
    return [
        ("cover", lambda: build_layered_cover(g, 4),
         lambda: build_layered_cover(g, 4, builder="nope")),
        ("registry", lambda: CoverRegistry(layered),
         lambda: CoverRegistry(LayeredCover(levels={}))),
        ("sync-sweep",
         lambda: SynchronizerSweep(g, multi_bfs_spec(2),
                                   registry=CoverRegistry(layered)),
         lambda: SynchronizerSweep(g, multi_bfs_spec(2), builder="nope")),
        ("tbfs-sweep",
         lambda: ThresholdedBFSSweep(g, 0, 2, registry=CoverRegistry(layered)),
         lambda: ThresholdedBFSSweep(g, (), 2)),
        ("runtime", lambda: AsyncRuntime(g, process_cls, UniformDelay(1)),
         lambda: AsyncRuntime(g, process_cls, UniformDelay(1),
                              faults=FaultSchedule(seed=1, crash_rate=0.5),
                              controller=_Never())),
    ]


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "paused"])
def test_constructors_restore_collector_state(enabled):
    """Each constructor leaves ``gc.isenabled()`` as it found it, also when
    it raises and when the caller had already paused the collector."""
    for name, ok, raising in _constructors():
        try:
            if not enabled:
                gc.disable()
            ok()
            assert gc.isenabled() is enabled, name
            with pytest.raises(ValueError):
                raising()
            assert gc.isenabled() is enabled, name
        finally:
            gc.enable()


def test_paused_gc_nests_and_restores():
    assert gc.isenabled()
    with paused_gc():
        assert not gc.isenabled()
        with paused_gc():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        with paused_gc():
            raise RuntimeError("boom")
    assert gc.isenabled()


def _live_engines():
    return sum(isinstance(obj, AsyncRuntime) for obj in gc.get_objects())


def test_run_models_holds_one_engine_at_a_time():
    """Each replay's dead engine is collected before the next replay starts
    (DESIGN.md §8), and the collector is re-enabled afterwards."""
    sweep = SynchronizerSweep(topology.cycle_graph(16), bfs_spec(0))
    models = standard_adversaries(seed=3)[:4]
    gc.collect()
    before = _live_engines()
    seen = []

    def run_one(model):
        seen.append(_live_engines())
        return sweep.run(model)

    results = run_models(run_one, models)
    assert [r.stop_reason for r in results] == ["quiescent"] * len(models)
    assert seen == [before] * len(models)
    assert _live_engines() == before
    assert gc.isenabled()
