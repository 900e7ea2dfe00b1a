"""Tests for the staged 2^t*l-thresholded BFS (Section 4.3, Theorem 4.17)."""

import pytest

from repro.core import registry_for_threshold, run_multi_stage_bfs
from repro.net import ConstantDelay, standard_adversaries, topology
from repro.net.graph import INFINITY

ADVERSARIES = standard_adversaries(seed=23)


def assert_correct(graph, sources, limit, outcome):
    source_set = {sources} if isinstance(sources, int) else set(sources)
    expected = graph.bfs_distances(frozenset(source_set))
    for v in graph.nodes:
        want = expected[v] if expected[v] <= limit else INFINITY
        assert outcome.distances[v] == want, (v, outcome.distances[v], want)


class TestStaging:
    @pytest.mark.parametrize("model", ADVERSARIES, ids=repr)
    def test_path_small_stage_threshold(self, model):
        """Many stages with a small 2^t: the staging machinery dominates."""
        g = topology.path_graph(20)
        outcome = run_multi_stage_bfs(g, 0, 4, 5, model)
        assert_correct(g, 0, 20, outcome)

    @pytest.mark.parametrize("theta,stages", [(1, 8), (2, 4), (4, 2), (8, 1)])
    def test_same_range_different_splits(self, theta, stages):
        g = topology.path_graph(10)
        outcome = run_multi_stage_bfs(g, 0, theta, stages, ADVERSARIES[3])
        assert_correct(g, 0, theta * stages, outcome)

    def test_multi_source(self):
        g = topology.grid_graph(6, 6)
        outcome = run_multi_stage_bfs(g, {0, 35}, 2, 4, ADVERSARIES[4])
        assert_correct(g, {0, 35}, 8, outcome)

    def test_unreached_beyond_range(self):
        g = topology.path_graph(16)
        outcome = run_multi_stage_bfs(g, 0, 2, 3, ADVERSARIES[2])
        assert_correct(g, 0, 6, outcome)

    def test_stage_sources_at_exact_distance(self):
        """A node at distance exactly T*2^t becomes a stage-T source."""
        g = topology.cycle_graph(17)
        outcome = run_multi_stage_bfs(g, 0, 2, 4, ADVERSARIES[1])
        assert_correct(g, 0, 8, outcome)


class TestRemark418:
    """Arbitrary thresholds d <= 2^t * l via the distance filter."""

    @pytest.mark.parametrize("d", [3, 5, 7, 10, 11])
    def test_arbitrary_threshold(self, d):
        g = topology.path_graph(16)
        outcome = run_multi_stage_bfs(
            g, 0, 4, 3, ADVERSARIES[5], distance_filter=d
        )
        assert_correct(g, 0, d, outcome)

    def test_filter_bound_validated(self):
        g = topology.path_graph(8)
        with pytest.raises(ValueError, match="exceeds"):
            run_multi_stage_bfs(g, 0, 2, 2, ConstantDelay(1.0), distance_filter=5)


class TestCoverEconomy:
    def test_small_stage_needs_small_covers(self):
        """Theorem 4.17's point: a 2^t-cover serves a 2^t*l-range BFS."""
        g = topology.path_graph(24)
        registry = registry_for_threshold(g, 2)  # top radius 2^(1+5)
        outcome = run_multi_stage_bfs(
            g, 0, 2, 12, ADVERSARIES[0], registry=registry
        )
        assert_correct(g, 0, 24, outcome)

    def test_message_scaling_linear_in_stages(self):
        g = topology.cycle_graph(32)
        m4 = run_multi_stage_bfs(g, 0, 4, 2, ConstantDelay(1.0)).messages
        m8 = run_multi_stage_bfs(g, 0, 4, 4, ConstantDelay(1.0)).messages
        # Theorem 4.17: messages O(m * l * polylog); doubling l should not
        # much more than double the traffic.
        assert m8 <= 3 * m4

    @pytest.mark.parametrize("sources", ([99], [-1]))
    def test_source_outside_graph_rejected(self, sources):
        g = topology.cycle_graph(16)
        with pytest.raises(ValueError, match="not a node of the graph"):
            run_multi_stage_bfs(g, sources, 4, 2, ConstantDelay(1.0))

    def test_registry_for_another_graph_rejected(self, star_registry):
        g = topology.cycle_graph(16)
        registry = registry_for_threshold(topology.cycle_graph(32), 32)
        with pytest.raises(ValueError, match="built for another graph"):
            run_multi_stage_bfs(g, 0, 4, 2, ConstantDelay(1.0),
                                registry=registry)
        with pytest.raises(ValueError, match="not in graph"):
            run_multi_stage_bfs(g, 0, 4, 2, ConstantDelay(1.0),
                                registry=star_registry(g))

    def test_errors(self):
        g = topology.path_graph(4)
        with pytest.raises(ValueError, match="stage"):
            run_multi_stage_bfs(g, 0, 2, 0, ConstantDelay(1.0))
        with pytest.raises(ValueError, match="source"):
            run_multi_stage_bfs(g, set(), 2, 2, ConstantDelay(1.0))
