"""Cover levels cost nothing until read, and every consumer loads its own
levels when it is wired, so no level is built while a run dispatches."""

import gc
import pickle
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.apps.programs import bfs_spec, multi_bfs_spec
from repro.core import (
    CoverRegistry,
    SynchronizerSweep,
    ThresholdedBFSSweep,
    pulse_bound_for,
    registry_for_threshold,
    required_cover_radius,
    run_churn,
)
from repro.core.registry import LEVEL_ID_SHIFT
from repro.covers import (
    build_ap_cover,
    build_layered_cover,
    build_trivial_cover,
)
from repro.covers.cover import LayeredCover, LazyLevels
from repro.net import FaultSchedule, UniformDelay, topology
from repro.net.graph import Graph


class TestLazyCover:
    @pytest.mark.parametrize("builder", ["ap", "trivial"])
    def test_no_level_is_built_until_read(self, builder):
        layered = build_layered_cover(topology.grid_graph(4, 6), 16, builder)
        assert isinstance(layered.levels, LazyLevels)
        assert layered.top_level == 4
        assert list(layered.levels) == [0, 1, 2, 3, 4]
        assert len(layered.levels) == 5 and 4 in layered.levels
        assert 5 not in layered.levels and -1 not in layered.levels
        assert layered.levels.built == ()
        layered.level(3)
        assert layered.levels.built == (3,)
        layered.level(-2)  # clamps to level 0
        assert layered.levels.built == (0, 3)
        with pytest.raises(KeyError):
            layered.levels[5]
        assert layered.levels.built == (0, 3)

    @pytest.mark.parametrize("builder, single", [
        ("ap", build_ap_cover), ("trivial", build_trivial_cover),
    ])
    def test_each_level_is_built_once_and_equals_the_eager_build(
            self, builder, single):
        g = topology.cycle_graph(12)
        layered = build_layered_cover(g, 8, builder)
        for j in (2, 0, 3, 2):
            assert layered.levels[j] is layered.levels[j]
            assert layered.levels[j] == single(g, 1 << j)
        first = layered.levels[1]
        assert dict(layered.levels.items())[1] is first
        assert layered.levels.built == (0, 1, 2, 3)

    @pytest.mark.parametrize("builder", ["ap", "rg", "trivial"])
    def test_bad_inputs_raise_at_the_call(self, builder):
        split = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError, match="connected"):
            build_layered_cover(split, 4, builder)
        with pytest.raises(ValueError, match="radius"):
            build_layered_cover(topology.path_graph(4), 0, builder)

    def test_unknown_builder_raises_at_the_call(self):
        with pytest.raises(ValueError, match="unknown cover builder"):
            build_layered_cover(topology.path_graph(4), 4, "nope")

    def test_rg_stays_eager(self):
        layered = build_layered_cover(topology.grid_graph(3, 3), 4, "rg")
        assert type(layered.levels) is dict

    def test_lazy_cover_does_not_pin_its_graph(self):
        """The per-graph registry cache is keyed weakly on the graph; a
        cached lazy cover that held the graph would keep the key alive."""
        g = topology.grid_graph(4, 4)
        reg = registry_for_threshold(g, 2)
        ref = weakref.ref(g)
        del g
        gc.collect()
        assert ref() is None
        assert reg.layered.levels[0].radius == 1  # still buildable


class TestSharedLevels:
    @pytest.mark.parametrize("make, spec, builds, levels", [
        (lambda: topology.cycle_graph(512), None, 3, 10),
        (lambda: topology.grid_graph(32, 64), multi_bfs_spec(64), 2, 6),
        (lambda: topology.cycle_graph(256), bfs_spec(0), 2, 9),
        (lambda: topology.grid_graph(16, 16), bfs_spec(0), 1, 6),
    ], ids=["cycle512@512", "grid32x64-ms64", "cycle256-bfs", "grid16x16-bfs"])
    def test_distinct_level_builds(self, monkeypatch, make, spec, builds,
                                   levels):
        """The levels a consumer loads from half node 0's eccentricity up
        share one cover build: the benchmark's graphs (cycle(512) at
        threshold 512, as churn-rejoin512 reads it) build each distinct
        level once, and the registry walks each distinct level's trees
        once."""
        from repro.covers import awerbuch_peleg

        grown = []
        walked = []
        grow = awerbuch_peleg._grow_cover
        walk = CoverRegistry._walk_level

        def counting(graph, d):
            grown.append(d)
            return grow(graph, d)

        def counting_walk(registry, level, trees):
            walked.append(level)
            return walk(registry, level, trees)

        monkeypatch.setattr(awerbuch_peleg, "_grow_cover", counting)
        monkeypatch.setattr(CoverRegistry, "_walk_level", counting_walk)
        g = make()
        threshold = 512 if spec is None else pulse_bound_for(g, spec)
        reg = registry_for_threshold(g, threshold)
        loaded = reg.loaded_levels
        assert len(loaded) == levels
        assert len(grown) == builds
        assert len({id(reg.layered.levels[j].clusters)
                    for j in loaded}) == builds
        assert len(walked) == builds


def _grid_registry(d=16):
    g = topology.grid_graph(5, 6)
    return g, CoverRegistry(build_layered_cover(g, d))


def _snapshot(g, reg):
    """Everything a consumer can read, over all levels."""
    levels = range(-1, reg.top_level + 2)
    cids = [cid for j in reg.levels for cid in reg.clusters_at_level(j)]
    return (
        cids,
        [reg.cluster(cid) for cid in cids],
        [[reg.member_clusters(v, j) for j in levels] for v in g.nodes],
        [[reg.tree_clusters_of(v, j) for j in levels] for v in g.nodes],
        [list(reg.views_of(v).items()) for v in g.nodes],
        [list(reg.views_of(v, (1, 3)).items()) for v in g.nodes],
    )


@settings(max_examples=40, deadline=None)
@example(n=1, p=0.0, seed=0, order=random.Random(0))
@example(n=2, p=0.0, seed=0, order=random.Random(0))
@given(
    n=st.integers(min_value=1, max_value=30),
    p=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=500),
    order=st.randoms(use_true_random=False),
)
@pytest.mark.parametrize("builder, single", [
    ("ap", build_ap_cover), ("trivial", build_trivial_cover),
])
def test_shared_levels_index_as_distinct_builds(
        builder, single, n, p, seed, order):
    """A registry over a lazy cover, whose top levels share one tree
    object, reads exactly as a registry over the same levels built one by
    one as distinct tree objects, whatever order its levels load in, and
    each node's views come in id order."""
    g = topology.erdos_renyi_graph(n, p, seed)
    lazy = CoverRegistry(build_layered_cover(g, max(4 * n, 8), builder))
    eager = CoverRegistry(LayeredCover(
        levels={j: single(g, 1 << j) for j in lazy.levels}))
    levels = list(lazy.levels)
    order.shuffle(levels)
    for j in levels:
        lazy.load((j,))
    top = lazy.layered.levels[lazy.top_level].clusters
    assert lazy.layered.levels[lazy.top_level - 1].clusters is top
    assert _snapshot(g, lazy) == _snapshot(g, eager)
    # A node's views are keyed in id order: by level, then by index.
    for v in g.nodes:
        for level_set in (lazy.levels, (1, 3)):
            cids = list(lazy.views_of(v, level_set))
            assert cids == sorted(cids)


class TestLazyRegistry:
    def test_construction_indexes_nothing(self):
        _, reg = _grid_registry()
        assert reg.levels == (0, 1, 2, 3, 4)
        assert reg.top_level == 4
        assert reg.loaded_levels == ()
        assert reg.layered.levels.built == ()

    def test_empty_cover_raises_a_named_error_at_construction(self):
        with pytest.raises(ValueError, match="layered cover has no levels"):
            CoverRegistry(LayeredCover(levels={}))

    def test_a_query_loads_only_its_level(self):
        g, reg = _grid_registry()
        reg.member_clusters(0, 3)
        assert reg.loaded_levels == (3,)
        reg.tree_clusters_of(0, 99)  # clamps to the top level
        assert reg.loaded_levels == (3, 4)
        cid = 1 << LEVEL_ID_SHIFT
        assert reg.cluster(cid).level == 1
        assert reg.loaded_levels == (1, 3, 4)
        with pytest.raises(KeyError):
            reg.cluster(7 << LEVEL_ID_SHIFT)
        assert reg.layered.levels.built == (1, 3, 4)

    def test_ids_are_a_function_of_level_and_index(self):
        g, reg = _grid_registry()
        for j in reversed(reg.levels):
            trees = reg.layered.levels[j].clusters
            assert reg.clusters_at_level(j) == [
                j << LEVEL_ID_SHIFT | i for i in range(len(trees))]
            for i, tree in enumerate(trees):
                assert reg.cluster(j << LEVEL_ID_SHIFT | i).tree is tree

    def test_load_order_does_not_matter(self):
        g, up = _grid_registry()
        _, down = _grid_registry()
        for j in up.levels:
            up.load((j,))
        for j in reversed(down.levels):
            down.load((j,))
        assert up.loaded_levels == down.loaded_levels == up.levels
        assert _snapshot(g, up) == _snapshot(g, down)

    def test_level_views_are_restricted_and_shared(self):
        g, reg = _grid_registry()
        full = {v: reg.views_of(v) for v in g.nodes}
        part = {v: reg.views_of(v, (1, 3)) for v in g.nodes}
        for v in g.nodes:
            assert part[v] == {
                cid: view for cid, view in full[v].items()
                if reg.cluster(cid).level in (1, 3)}
            assert reg.views_of(v, (1, 3)) is part[v] or not part[v]
            assert reg.views_of(v, reg.levels) is full[v] or not full[v]

    def test_handed_out_views_are_never_mutated(self):
        g, reg = _grid_registry()
        handed = {v: reg.views_of(v, (2,)) for v in g.nodes}
        copies = {v: dict(views) for v, views in handed.items()}
        reg.load((1, 2, 3))
        reg.load()
        assert handed == copies
        assert all(reg.views_of(v, (2,)) is handed[v] for v in g.nodes
                   if handed[v])

    def test_unknown_levels_raise(self):
        _, reg = _grid_registry()
        with pytest.raises(ValueError, match="no levels"):
            reg.load((2, 9))

    def test_unsorted_level_sets_raise(self):
        _, reg = _grid_registry()
        for levels in ((3, 1), (1, 1, 3)):
            with pytest.raises(ValueError, match="sorted tuple"):
                reg.load(levels)
        assert reg.loaded_levels == ()

    def test_level_set(self):
        _, reg = _grid_registry(d=512)  # levels 0..9
        assert reg.level_set(5) == (5, 6, 7, 8, 9)
        assert reg.level_set(5, 2) == (2, 5, 6, 7, 8, 9)
        assert reg.level_set(5, 7) == (5, 6, 7, 8, 9)
        assert reg.level_set(12) == (9,)
        assert reg.level_set(-3) == reg.levels
        assert reg.loaded_levels == ()

    def test_pickled_partly_loaded_registry_keeps_its_levels(self):
        g, reg = _grid_registry()
        reg.load((3, 4))
        clone = pickle.loads(pickle.dumps(reg))
        assert clone.loaded_levels == (3, 4)
        assert clone.layered.levels.built == (3, 4)
        assert [clone.views_of(v, (3, 4)) for v in g.nodes] == [
            reg.views_of(v, (3, 4)) for v in g.nodes]
        # The clone still builds the rest on demand, to the same result.
        assert _snapshot(g, clone) == _snapshot(g, reg)


def _grid_sweep_setup():
    g = topology.grid_graph(16, 32)
    spec = multi_bfs_spec(8)
    max_pulse = pulse_bound_for(g, spec)
    layered = build_layered_cover(g, required_cover_radius(max_pulse))
    return g, spec, max_pulse, CoverRegistry(layered)


class TestNoLevelBuiltMidRun:
    def test_synchronizer_sweep_loads_exactly_its_levels(self):
        g, spec, max_pulse, reg = _grid_sweep_setup()
        top = reg.top_level
        assert top >= 5
        sweep = SynchronizerSweep(g, spec, registry=reg, max_pulse=max_pulse)
        loaded = tuple(range(5, top + 1))
        assert reg.loaded_levels == loaded
        assert reg.layered.levels.built == loaded
        result = sweep.run(UniformDelay(seed=4))
        assert result.outputs
        assert reg.loaded_levels == loaded
        assert reg.layered.levels.built == loaded

    @pytest.mark.parametrize("threshold", [1, 4, 16])
    def test_thresholded_sweep_loads_t_and_the_registration_levels(
            self, threshold):
        g = topology.grid_graph(8, 8)
        t = threshold.bit_length() - 1
        reg = CoverRegistry(build_layered_cover(
            g, required_cover_radius(threshold)))
        top = reg.top_level
        sweep = ThresholdedBFSSweep(g, 0, threshold, registry=reg)
        loaded = tuple(sorted({t} | set(range(5, top + 1))))
        assert reg.loaded_levels == loaded
        outcome = sweep.run(UniformDelay(seed=4))
        assert outcome.distances[0] == 0
        assert reg.loaded_levels == loaded
        assert reg.layered.levels.built == loaded

    def test_registry_for_threshold_loads_the_shared_levels(self):
        """The cache helper loads ``[5, top]``, which every consumer reads;
        a thresholded BFS loads its own level ``t`` when it is wired."""
        g = topology.cycle_graph(40)
        reg = registry_for_threshold(g, 4)
        assert reg.loaded_levels == (5, 6, 7)
        ThresholdedBFSSweep(g, 0, 4, registry=reg)
        assert reg.loaded_levels == (2, 5, 6, 7)

    def test_churn_run_builds_no_level(self):
        g = topology.cycle_graph(48)
        faults = FaultSchedule(
            seed=3, crash_rate=0.1, rejoin_rate=1.0, down_rate=0.05,
            recurrent=True, protect=[46, 47, 0, 1, 2])
        assert faults.rejoining_nodes(g.nodes)
        reg = registry_for_threshold(g, pulse_bound_for(g, bfs_spec(0)))
        loaded = reg.loaded_levels
        assert loaded == tuple(range(5, reg.top_level + 1))
        outcome = run_churn(g, bfs_spec, UniformDelay(seed=3), faults)
        assert outcome.rejoined and outcome.messages
        assert reg.loaded_levels == loaded
        assert reg.layered.levels.built == loaded
