"""Tests for the 2^t-thresholded asynchronous BFS (Sections 4.1/4.2).

The master correctness criterion is Lemma 4.10: under every adversary,
``pulse(v) == dist(v, S)`` for nodes within the threshold and unreached
nodes output infinity.
"""

import pytest

from repro.core import (
    ThresholdedBFSSweep, registry_for_threshold, run_thresholded_bfs,
)
from repro.core.thresholded_bfs import ThresholdedBFSCore
from repro.net import ConstantDelay, standard_adversaries, topology
from repro.net.graph import INFINITY

ADVERSARIES = standard_adversaries(seed=13)


def assert_correct(graph, sources, threshold, outcome):
    source_set = {sources} if isinstance(sources, int) else set(sources)
    expected = graph.bfs_distances(frozenset(source_set))
    for v in graph.nodes:
        want = expected[v] if expected[v] <= threshold else INFINITY
        assert outcome.distances[v] == want, (v, outcome.distances[v], want)
    # Parent pointers of reached non-sources form shortest-path edges.
    for v in graph.nodes:
        parent = outcome.parents[v]
        if outcome.distances[v] in (0, INFINITY):
            assert parent is None
        else:
            assert graph.has_edge(v, parent)
            assert expected[parent] == expected[v] - 1


class TestLemma410SingleSource:
    @pytest.mark.parametrize("model", ADVERSARIES, ids=repr)
    def test_path_deep(self, model):
        """Depth > 8 exercises the non-base dirty-mark registrations."""
        g = topology.path_graph(20)
        outcome = run_thresholded_bfs(g, 0, 16, model)
        assert_correct(g, 0, 16, outcome)

    @pytest.mark.parametrize("family", ["cycle", "grid", "tree", "barbell", "caterpillar"])
    def test_families(self, family):
        g = topology.make_topology(family, 24, seed=5)
        outcome = run_thresholded_bfs(g, 0, 8, ADVERSARIES[3])
        assert_correct(g, 0, 8, outcome)

    @pytest.mark.parametrize("threshold", [1, 2, 4, 8])
    def test_thresholds_cut(self, threshold):
        g = topology.path_graph(14)
        outcome = run_thresholded_bfs(g, 0, threshold, ADVERSARIES[2])
        assert_correct(g, 0, threshold, outcome)

    def test_single_node_graph(self):
        from repro.net import Graph

        g = Graph(1, [])
        outcome = run_thresholded_bfs(g, 0, 4, ConstantDelay(1.0))
        assert outcome.distances == {0: 0}

    def test_source_not_node_zero(self):
        g = topology.grid_graph(4, 4)
        outcome = run_thresholded_bfs(g, 9, 8, ADVERSARIES[4])
        assert_correct(g, 9, 8, outcome)


class TestLemma410MultiSource:
    @pytest.mark.parametrize("model", ADVERSARIES, ids=repr)
    def test_two_sources_grid(self, model):
        g = topology.grid_graph(5, 5)
        outcome = run_thresholded_bfs(g, {0, 24}, 8, model)
        assert_correct(g, {0, 24}, 8, outcome)

    def test_many_sources(self):
        g = topology.random_tree(30, seed=4)
        sources = {1, 7, 13, 22}
        outcome = run_thresholded_bfs(g, sources, 8, ADVERSARIES[5])
        assert_correct(g, sources, 8, outcome)

    def test_all_nodes_sources(self):
        g = topology.cycle_graph(10)
        outcome = run_thresholded_bfs(g, set(g.nodes), 2, ADVERSARIES[1])
        assert all(d == 0 for d in outcome.distances.values())


class TestComplexityShape:
    def test_message_bound_near_linear(self):
        """Theorem 4.11: O(m polylog) messages."""
        import math

        for n in (16, 32, 64):
            g = topology.cycle_graph(n)
            outcome = run_thresholded_bfs(g, 0, 8, ConstantDelay(1.0))
            polylog = math.log2(n) ** 3
            assert outcome.messages <= 40 * g.num_edges * polylog

    def test_registry_reuse(self):
        g = topology.grid_graph(4, 4)
        registry = registry_for_threshold(g, 8)
        a = run_thresholded_bfs(g, 0, 8, ConstantDelay(1.0), registry=registry)
        b = run_thresholded_bfs(g, 5, 8, ConstantDelay(1.0), registry=registry)
        assert_correct(g, 0, 8, a)
        assert_correct(g, 5, 8, b)

    def test_deterministic(self):
        g = topology.grid_graph(4, 4)
        model = ADVERSARIES[2]
        a = run_thresholded_bfs(g, 0, 8, model)
        b = run_thresholded_bfs(g, 0, 8, model)
        assert a.distances == b.distances
        assert a.messages == b.messages
        assert a.result.time_to_quiescence == b.result.time_to_quiescence


class TestApiErrors:
    def test_threshold_must_be_power_of_two(self):
        g = topology.path_graph(4)
        with pytest.raises(ValueError, match="power of two"):
            run_thresholded_bfs(g, 0, 3, ConstantDelay(1.0))
        # Checked once at bind: a sweep fails at construction, not at the
        # first run.
        for bad in (0, -1, 3):
            with pytest.raises(ValueError, match="power of two"):
                ThresholdedBFSSweep(topology.cycle_graph(16), [0], bad)

    def test_requires_sources(self):
        g = topology.path_graph(4)
        with pytest.raises(ValueError, match="source"):
            run_thresholded_bfs(g, set(), 4, ConstantDelay(1.0))

    def test_registry_for_another_graph_rejected(self, star_registry):
        # Checked once at bind, before the first run.
        g = topology.cycle_graph(16)
        registry = registry_for_threshold(topology.cycle_graph(32), 32)
        with pytest.raises(ValueError, match="built for another graph"):
            ThresholdedBFSSweep(g, [0], 4, registry=registry)
        with pytest.raises(ValueError, match="not in graph"):
            ThresholdedBFSSweep(g, [0], 4, registry=star_registry(g))
        equal = registry_for_threshold(topology.cycle_graph(16), 4)
        outcome = ThresholdedBFSSweep(g, [0], 4, registry=equal).run(
            ConstantDelay(1.0))
        assert_correct(g, 0, 4, outcome)

    @pytest.mark.parametrize("sources", ([99], [-1], [0, 16]))
    def test_source_outside_graph_rejected(self, sources):
        g = topology.cycle_graph(16)
        with pytest.raises(ValueError, match="not a node of the graph"):
            run_thresholded_bfs(g, sources, 4, ConstantDelay(1.0))

    def test_core_rejects_double_activation(self):
        g = topology.path_graph(4)
        registry = registry_for_threshold(g, 2)
        core = ThresholdedBFSCore(
            node_id=0,
            neighbors=g.neighbors(0),
            registry=registry,
            threshold=2,
            on_complete=lambda *a: None,
            links={v: v for v in g.neighbors(0)},
            send_link=lambda *a: None,
        )
        core.activate(False)
        with pytest.raises(ValueError, match="twice"):
            core.activate(False)

    def test_covered_source_rejected(self):
        g = topology.path_graph(4)
        registry = registry_for_threshold(g, 2)
        core = ThresholdedBFSCore(
            node_id=0,
            neighbors=g.neighbors(0),
            registry=registry,
            threshold=2,
            on_complete=lambda *a: None,
            links={v: v for v in g.neighbors(0)},
            send_link=lambda *a: None,
        )
        with pytest.raises(ValueError, match="covered"):
            core.activate(True, covered=True)
