"""Uniform entry points for constructing (layered) sparse covers.

Three builders:

* ``"ap"`` — Awerbuch–Peleg-style sequential coarsening, stretch O(log n)
  (the default used by the asynchronous machinery; see DESIGN.md,
  substitution 3);
* ``"rg"`` — Rozhoň–Ghaffari deterministic distributed construction
  (Theorem 4.21), stretch O(log^3 n);
* ``"trivial"`` — one cluster containing the whole graph (valid for every
  radius; isolates the synchronizer machinery from cover quality in tests).
"""

from __future__ import annotations

from functools import partial

from ..gcpause import paused_gc
from ..net.graph import Graph
from .cluster import bfs_cluster_tree
from .cover import (
    LayeredCover,
    LazyLevels,
    SharedLevels,
    SparseCover,
    require_connected,
    required_top_level,
)
from .awerbuch_peleg import build_ap_cover, build_ap_layered_cover
from .rozhon_ghaffari import build_rg_cover, build_rg_layered_cover


def build_trivial_cover(graph: Graph, d: int) -> SparseCover:
    """One whole-graph cluster rooted at a graph center."""
    _, center = graph.radius_center()
    tree = bfs_cluster_tree(graph, 0, members=graph.nodes, root=center)
    return SparseCover.from_clusters(
        d, [tree], {v: 0 for v in graph.nodes}
    )


def build_cover(graph: Graph, d: int, builder: str = "ap") -> SparseCover:
    if builder == "ap":
        return build_ap_cover(graph, d)
    if builder == "rg":
        cover, _ = build_rg_cover(graph, d)
        return cover
    if builder == "trivial":
        return build_trivial_cover(graph, d)
    raise ValueError(f"unknown cover builder {builder!r}")


def _trivial_level(graph: Graph, j: int) -> SparseCover:
    return build_trivial_cover(graph, 1 << j)


@paused_gc()
def build_layered_cover(graph: Graph, d: int, builder: str = "ap") -> LayeredCover:
    """Layered sparse ``d``-cover from ``builder``, under the package's GC
    pause (DESIGN.md §8): the trees are long-lived, and the build's
    scratch sets die by refcount, so collector passes free nothing.

    The ``"ap"`` and ``"trivial"`` levels are built on their first read,
    each under its own pause (:class:`LazyLevels`); levels that are one
    cover up to their radius share one build (every ``"trivial"`` level,
    and the ``"ap"`` levels with ``2^j`` at least node 0's eccentricity).
    ``"rg"`` builds every level here, because its cost account sums over
    all of them.  Bad inputs (a disconnected graph, ``d < 1``, an unknown
    builder) raise here for every builder.
    """
    if builder == "ap":
        return build_ap_layered_cover(graph, d)
    if builder == "rg":
        layered, _ = build_rg_layered_cover(graph, d)
        return layered
    if builder == "trivial":
        top = required_top_level(d)
        require_connected(graph)
        twin = graph.twin()
        build = SharedLevels(partial(_trivial_level, twin), 0)
        return LayeredCover(levels=LazyLevels(build, top), graph=twin)
    raise ValueError(f"unknown cover builder {builder!r}")
