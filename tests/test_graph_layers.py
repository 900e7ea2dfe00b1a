"""Tests for the truncated ``Graph.ball`` and the multi-source
``Graph.ball_around`` it is built on."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net import topology
from repro.net.graph import INFINITY, Graph


def _ball_by_distances(g, v, radius):
    dist = g.bfs_distances(v)
    return frozenset(u for u in g.nodes if dist[u] <= radius)


class TestBall:
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
        for k in range(radius + 1):
            assert g.ball(v, k) == _ball_by_distances(g, v, k)


class TestBallAround:
    def test_radius_zero_is_the_sources(self):
        g = topology.grid_graph(4, 4)
        assert g.ball_around([5, 10, 3], 0) == frozenset({3, 5, 10})
        assert g.ball_around([5, 10, 3], -1) == frozenset()

    def test_fractional_radius_stops_at_its_floor(self):
        g = topology.path_graph(7)
        assert g.ball_around([3], 0.5) == frozenset({3})
        assert g.ball_around([3], 1.5) == g.ball(3, 1) == frozenset({2, 3, 4})

    def test_duplicate_sources(self):
        g = topology.path_graph(7)
        assert g.ball_around([3, 3, 3], 1) == frozenset({2, 3, 4})
        assert g.ball_around([0, 6, 0, 6], 2) == frozenset({0, 1, 2, 4, 5, 6})

    def test_radius_past_eccentricity_is_the_component(self):
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        assert g.ball_around([1], g.eccentricity(1)) == frozenset({0, 1, 2})
        assert g.ball_around([0], 100) == frozenset({0, 1, 2})
        assert g.ball_around([2, 5], INFINITY) == frozenset(range(6))

    def test_empty_sources(self):
        g = topology.cycle_graph(5)
        assert g.ball_around([], 3) == frozenset()
        assert g.ball_around(set(), INFINITY) == frozenset()

    def test_rejects_bad_source(self):
        g = topology.path_graph(3)
        with pytest.raises(ValueError, match="outside"):
            g.ball_around([0, 3], 1)
        with pytest.raises(ValueError, match="outside"):
            g.ball_around([-1], 0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=30),
    p=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=500),
    radius=st.integers(min_value=0, max_value=32),
    data=st.data(),
)
def test_ball_around_is_union_of_balls(n, p, seed, radius, data):
    g = topology.erdos_renyi_graph(n, p, seed)
    sources = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1)))
    expected = frozenset().union(
        *(_ball_by_distances(g, s, radius) for s in sources)
    )
    assert g.ball_around(sources, radius) == expected
