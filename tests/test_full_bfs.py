"""Tests for the complete doubling BFS (Section 4.6, Theorems 4.23/4.24)."""

import pytest

from repro.core import registry_for_threshold, run_full_bfs
from repro.net import ConstantDelay, standard_adversaries, topology
from repro.net.graph import validate_tree

ADVERSARIES = standard_adversaries(seed=31)


def assert_exact(graph, sources, outcome):
    source_set = {sources} if isinstance(sources, int) else set(sources)
    expected = graph.bfs_distances(frozenset(source_set))
    for v in graph.nodes:
        assert outcome.distances[v] == expected[v], (v, outcome.distances[v])


class TestSingleSource:
    @pytest.mark.parametrize("model", ADVERSARIES, ids=repr)
    def test_path(self, model):
        g = topology.path_graph(12)
        outcome = run_full_bfs(g, 0, model)
        assert_exact(g, 0, outcome)

    @pytest.mark.parametrize("family", ["cycle", "grid", "tree", "star", "er_sparse"])
    def test_families(self, family):
        g = topology.make_topology(family, 20, seed=7)
        outcome = run_full_bfs(g, 0, ADVERSARIES[3])
        assert_exact(g, 0, outcome)

    def test_parents_form_bfs_tree(self):
        g = topology.grid_graph(4, 4)
        outcome = run_full_bfs(g, 0, ADVERSARIES[2])
        parent = {v: outcome.parents[v] for v in g.nodes}
        validate_tree(g.num_nodes, parent, 0)
        expected = g.bfs_distances(0)
        for v in g.nodes:
            if v != 0:
                assert expected[parent[v]] == expected[v] - 1

    def test_single_node(self):
        from repro.net import Graph

        outcome = run_full_bfs(Graph(1, []), 0, ConstantDelay(1.0))
        assert outcome.distances == {0: 0}


class TestMultiSourceTheorem424:
    @pytest.mark.parametrize("model", ADVERSARIES[:5], ids=repr)
    def test_three_sources(self, model):
        g = topology.path_graph(16)
        outcome = run_full_bfs(g, {0, 8, 15}, model)
        assert_exact(g, {0, 8, 15}, outcome)

    def test_d1_much_smaller_than_d(self):
        """Dense sources: outputs must not wait for diameter-scale work."""
        g = topology.path_graph(32)
        sources = set(range(0, 32, 4))
        outcome = run_full_bfs(g, sources, ConstantDelay(1.0))
        assert_exact(g, sources, outcome)
        sparse = run_full_bfs(g, {0}, ConstantDelay(1.0))
        # D1 = 2 vs D1 = 31: time to output should clearly separate.
        assert outcome.result.time_to_output < sparse.result.time_to_output / 2

    def test_sources_die_at_different_iterations(self):
        g = topology.caterpillar_graph(10, 2)
        outcome = run_full_bfs(g, {0, 9}, ADVERSARIES[4])
        assert_exact(g, {0, 9}, outcome)


class TestShape:
    def test_message_scaling(self):
        import math

        for n in (16, 32):
            g = topology.cycle_graph(n)
            outcome = run_full_bfs(g, 0, ConstantDelay(1.0))
            assert outcome.messages <= 120 * g.num_edges * math.log2(n) ** 3

    def test_deterministic(self):
        g = topology.grid_graph(4, 4)
        a = run_full_bfs(g, 0, ADVERSARIES[1])
        b = run_full_bfs(g, 0, ADVERSARIES[1])
        assert a.distances == b.distances
        assert a.messages == b.messages

    def test_source_outside_graph_rejected(self):
        with pytest.raises(ValueError, match="not a node of the graph"):
            run_full_bfs(topology.path_graph(4), [4], ConstantDelay(1.0))

    def test_requires_sources(self):
        with pytest.raises(ValueError, match="source"):
            run_full_bfs(topology.path_graph(4), set(), ConstantDelay(1.0))

    def test_registry_for_another_graph_rejected(self, star_registry):
        registry = registry_for_threshold(topology.cycle_graph(32), 32)
        with pytest.raises(ValueError, match="built for another graph"):
            run_full_bfs(topology.cycle_graph(16), 0, ConstantDelay(1.0),
                         registry=registry)
        g = topology.cycle_graph(16)
        with pytest.raises(ValueError, match="not in graph"):
            run_full_bfs(g, 0, ConstantDelay(1.0), registry=star_registry(g))
