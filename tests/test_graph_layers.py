"""Tests for ``Graph.bfs_layers`` and the truncated ``Graph.ball`` built on it."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import topology
from repro.net.graph import INFINITY, Graph


def _ball_by_distances(g, v, radius):
    dist = g.bfs_distances(v)
    return frozenset(u for u in g.nodes if dist[u] <= radius)


class TestBfsLayers:
    def test_path_layers(self):
        g = topology.path_graph(5)
        assert g.bfs_layers(2) == ([2, 1, 3, 0, 4], [1, 3, 5])

    def test_truncated_at_max_depth(self):
        g = topology.path_graph(5)
        assert g.bfs_layers(0, 2) == ([0, 1, 2], [1, 2, 3])
        assert g.bfs_layers(0, 0) == ([0], [1])

    def test_stops_at_eccentricity(self):
        g = topology.cycle_graph(6)
        order, ends = g.bfs_layers(0, 100)
        assert len(ends) - 1 == g.eccentricity(0)
        assert sorted(order) == list(g.nodes)

    def test_unreachable_nodes_absent(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.bfs_layers(0) == ([0, 1], [1, 2])

    def test_rejects_bad_source(self):
        with pytest.raises(ValueError, match="outside"):
            topology.path_graph(3).bfs_layers(3)

    def test_ball_edge_radii(self):
        g = topology.path_graph(5)
        assert g.ball(2, -1) == frozenset()
        assert g.ball(2, 0) == frozenset({2})
        assert g.ball(2, INFINITY) == frozenset(range(5))
        with pytest.raises(ValueError, match="outside"):
            g.ball(9, 1)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    p=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=500),
    radius=st.integers(min_value=0, max_value=32),
)
def test_prefixes_are_balls(n, p, seed, radius):
    g = topology.erdos_renyi_graph(n, p, seed)
    for v in g.nodes:
        order, ends = g.bfs_layers(v, radius)
        assert len(order) == len(set(order)) == ends[-1]
        for k, end in enumerate(ends):
            assert frozenset(order[:end]) == _ball_by_distances(g, v, k)
        assert g.ball(v, radius) == _ball_by_distances(g, v, radius)
