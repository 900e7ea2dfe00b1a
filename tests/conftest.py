"""Shared fixtures."""

import pytest

from repro.core.registry import CoverRegistry
from repro.covers.cluster import ClusterTree
from repro.covers.cover import LayeredCover, SparseCover


@pytest.fixture
def star_registry():
    """Build a hand-built registry for a graph: every level is one star
    tree rooted at node 0 over all the graph's nodes.  The cover records
    no graph, so on a graph where 0 is not adjacent to every node some
    tree edge is no link, and only a check of the trees can tell."""

    def make(graph):
        nodes = frozenset(graph.nodes)
        star = ClusterTree(0, 0, nodes, {v: None if v == 0 else 0 for v in nodes})
        cover = SparseCover.from_clusters(32, [star], {v: 0 for v in nodes})
        return CoverRegistry(LayeredCover(levels={j: cover for j in range(6)}))

    return make
