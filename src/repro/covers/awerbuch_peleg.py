"""Sequential sparse-cover construction in the Awerbuch–Peleg style [AP90b].

Section 2.1 of the paper notes that the optimal stretch of sparse covers is
``O(log n)`` and that [AP90b] achieves it with a sequential algorithm; this
module implements that regime with a deterministic ball-of-balls coarsening:

Repeat iterations until every node's ball ``B(v, d)`` is inside some cluster.
One iteration greedily grows *disjoint* clusters.  A cluster grows from a
seed center by repeatedly absorbing every still-uncovered center whose ball
touches the current cluster, and stops the first time a growth round fails to
double the number of absorbed centers; the boundary centers that triggered
the stop are skipped for this iteration.

Guarantees (proved by the classic arguments, asserted in tests):

* every ball ends inside the cluster that absorbed its center (home cluster);
* each growth round at least doubles the absorbed-center count, so a cluster
  has ``<= log2 n`` rounds, each extending its radius by ``<= 2d``: cluster
  radius ``O(d log n)``, i.e. stretch ``O(log n)``;
* per cluster, skipped centers <= absorbed centers, so every iteration covers
  at least half of the remaining centers: ``<= log2 n + 1`` iterations;
* clusters of one iteration are disjoint, so no node is in more than
  ``log2 n + 1`` clusters, and no edge is in more trees than that.
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..net.graph import Graph, NodeId
from .cluster import ClusterTree, bfs_cluster_tree
from .cover import LayeredCover, SparseCover, required_top_level


def build_ap_cover(graph: Graph, d: int) -> SparseCover:
    """Sparse d-cover with stretch O(log n) and membership O(log n)."""
    if d < 1:
        raise ValueError("radius must be >= 1")
    _require_connected(graph)
    layers = (graph.bfs_layers(v, d) for v in graph.nodes)
    return _grow_cover(graph, d, _balls(graph, layers, d))


def build_ap_layered_cover(graph: Graph, d: int) -> LayeredCover:
    """Layered sparse d-cover: one AP cover per power of two up to d.

    Every level's balls are prefixes of one BFS per node, truncated at the
    top radius, so the graph is searched once rather than once per level.
    """
    top = required_top_level(d)
    _require_connected(graph)
    layers = [graph.bfs_layers(v, 1 << top) for v in graph.nodes]
    return LayeredCover(
        levels={
            j: _grow_cover(graph, 1 << j, _balls(graph, layers, 1 << j))
            for j in range(top + 1)
        }
    )


def _require_connected(graph: Graph) -> None:
    if not graph.is_connected():
        raise ValueError("sparse covers require a connected graph")


def _balls(
    graph: Graph, layers: Iterable[Tuple[List[NodeId], List[int]]], d: int
) -> Dict[NodeId, FrozenSet[NodeId]]:
    """``B(v, d)`` for every node ``v``, sliced from its BFS order.

    ``layers`` yields ``graph.bfs_layers(v, depth)`` for ``v = 0, 1, ...``
    with ``depth >= d``.  Every ball that is the whole (connected) graph,
    i.e. ``d >= ecc(v)``, shares one frozenset.
    """
    n = graph.num_nodes
    everything = frozenset(graph.nodes)
    balls: Dict[NodeId, FrozenSet[NodeId]] = {}
    for v, (order, ends) in enumerate(layers):
        size = ends[min(d, len(ends) - 1)]
        balls[v] = everything if size == n else frozenset(order[:size])
    return balls


def _grow_cover(
    graph: Graph, d: int, balls: Dict[NodeId, FrozenSet[NodeId]]
) -> SparseCover:
    """The greedy ball-of-balls coarsening over precomputed d-balls."""
    remaining: Set[NodeId] = set(graph.nodes)
    clusters: List[ClusterTree] = []
    home: Dict[NodeId, int] = {}
    next_id = 0

    while remaining:
        # One iteration: grow disjoint clusters until every remaining center
        # is either absorbed or skipped.
        unprocessed = set(remaining)
        while unprocessed:
            seed = min(unprocessed)
            absorbed: Set[NodeId] = {seed}
            nodes: Set[NodeId] = set(balls[seed])
            while True:
                touching = {
                    w
                    for w in unprocessed
                    if w not in absorbed and not nodes.isdisjoint(balls[w])
                }
                if len(touching) <= len(absorbed):
                    boundary = touching
                    break
                absorbed |= touching
                # Union of unions: order-free, sorted() for determinism.
                for w in sorted(touching):
                    nodes |= balls[w]
            tree = bfs_cluster_tree(
                graph, next_id, members=nodes, root=seed, allowed=frozenset(nodes)
            )
            clusters.append(tree)
            for w in sorted(absorbed):
                home[w] = next_id
            next_id += 1
            unprocessed -= absorbed
            unprocessed -= boundary  # boundary balls wait for a later iteration
            remaining -= absorbed

    return SparseCover.from_clusters(d, clusters, home)


def ap_membership_bound(n: int) -> int:
    """Upper bound asserted in tests: iterations <= log2 n + 1."""
    return max(1, math.ceil(math.log2(max(n, 2))) + 1)
