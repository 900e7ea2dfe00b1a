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
from functools import partial
from typing import Dict, List, Set

from ..net.graph import Graph, NodeId
from .cluster import ClusterTree, bfs_cluster_tree
from .cover import (
    LayeredCover,
    LazyLevels,
    SharedLevels,
    SparseCover,
    require_connected,
    required_top_level,
)


def build_ap_cover(graph: Graph, d: int) -> SparseCover:
    """Sparse d-cover with stretch O(log n) and membership O(log n)."""
    if d < 1:
        raise ValueError("radius must be >= 1")
    require_connected(graph)
    return _grow_cover(graph, d)


def build_ap_layered_cover(graph: Graph, d: int) -> LayeredCover:
    """Layered sparse d-cover: one AP cover per power of two up to d.

    Level ``j`` is ``_grow_cover(graph, 2^j)``, built on its first read
    (:class:`LazyLevels`); bad inputs raise here, not at that read.  Once
    ``2^{j+1}`` reaches the eccentricity of node 0, the growth loop's
    seed, the cover no longer depends on ``j`` (DESIGN.md §2), so those
    levels share one build (:class:`SharedLevels`).  On one or two nodes
    every level is one cover, and that bound is level 0.
    """
    top = required_top_level(d)
    require_connected(graph)
    twin = graph.twin()
    half_ecc = (int(graph.eccentricity(0)) + 1) // 2
    shared_from = required_top_level(max(half_ecc, 1))
    build = SharedLevels(partial(_grow_level, twin), shared_from)
    return LayeredCover(levels=LazyLevels(build, top), graph=twin)


def _grow_level(graph: Graph, j: int) -> SparseCover:
    return _grow_cover(graph, 1 << j)


def _grow_cover(graph: Graph, d: int) -> SparseCover:
    """The greedy ball-of-balls coarsening at radius ``d``.

    No per-node ball is ever built.  Hop distance is symmetric, so the
    centers ``w`` whose ball ``B(w, d)`` touches the cluster are exactly
    those in ``B(nodes, d)``, and absorbing a set ``T`` of centers adds
    ``B(T, d)``: one growth round is two truncated multi-source BFS runs.
    """
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
            nodes: Set[NodeId] = set(graph.ball_around((seed,), d))
            while True:
                touching = (graph.ball_around(nodes, d) & unprocessed) - absorbed
                if len(touching) <= len(absorbed):
                    boundary = touching
                    break
                absorbed |= touching
                nodes |= graph.ball_around(touching, d)
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
