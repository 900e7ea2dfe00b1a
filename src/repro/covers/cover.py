"""Sparse covers and layered sparse covers (Definition 2.1).

A *sparse d-cover with stretch s* is a set of clusters such that

* each cluster's tree has depth ``O(d * s)``,
* each node belongs to few (``O(log n)``) clusters, and
* for every node ``v`` some cluster contains the whole ball ``B(v, d)``
  (the paper's "stronger statement"; we store that cluster as the node's
  *home cluster*).

A *layered sparse d-cover* is one sparse ``2^j``-cover for every
``j <= ceil(log2 d)``.  The AP and trivial builders hand its levels out as
:class:`LazyLevels`: each level is built the first time it is read, so a
consumer that reads only some levels never pays for the rest, and levels
that are one cover up to their radius share one build
(:class:`SharedLevels`; DESIGN.md §2).  :func:`validate_cover` checks every
property and is used both in tests and as a guard when experiments build
covers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple,
)

from ..gcpause import paused_gc
from ..net.graph import Graph, NodeId
from .cluster import ClusterTree


@dataclass(frozen=True)
class SparseCover:
    """A sparse ``radius``-cover: clusters plus per-node membership maps."""

    radius: int
    clusters: Tuple[ClusterTree, ...]
    clusters_of: Dict[NodeId, Tuple[int, ...]]
    home_cluster: Dict[NodeId, int]
    # Id -> cluster index for :meth:`cluster`; derived from ``clusters``, so
    # it takes no part in equality.
    by_id: Dict[int, ClusterTree] = field(
        default_factory=dict, compare=False, repr=False
    )

    @classmethod
    def from_clusters(
        cls,
        radius: int,
        clusters: Iterable[ClusterTree],
        home_cluster: Mapping[NodeId, int],
    ) -> "SparseCover":
        cluster_tuple = tuple(clusters)
        by_id = {c.cluster_id: c for c in cluster_tuple}
        if len(by_id) != len(cluster_tuple):
            raise ValueError("duplicate cluster ids")
        membership: Dict[NodeId, List[int]] = {}
        for c in cluster_tuple:
            for v in c.members:
                membership.setdefault(v, []).append(c.cluster_id)
        return cls(
            radius=radius,
            clusters=cluster_tuple,
            clusters_of={v: tuple(sorted(ids)) for v, ids in membership.items()},
            home_cluster=dict(home_cluster),
            by_id=by_id,
        )

    def cluster(self, cluster_id: int) -> ClusterTree:
        return self.by_id[cluster_id]

    @property
    def max_membership(self) -> int:
        return max((len(ids) for ids in self.clusters_of.values()), default=0)

    @property
    def max_tree_height(self) -> int:
        return max((c.height for c in self.clusters), default=0)

    def stretch(self) -> float:
        """Max tree height divided by the radius."""
        return self.max_tree_height / max(self.radius, 1)

    def edge_load(self) -> Counter:
        """How many cluster trees use each graph edge."""
        load: Counter = Counter()
        for c in self.clusters:
            for e in c.tree_edges():
                load[e] += 1
        return load

    @property
    def max_edge_load(self) -> int:
        return max(self.edge_load().values(), default=0)

    def tree_participants(self, v: NodeId) -> Tuple[int, ...]:
        """Ids of all clusters whose *tree* passes through v (incl. Steiner)."""
        return tuple(
            c.cluster_id for c in self.clusters if v in c.parent
        )


def validate_cover(
    graph: Graph,
    cover: SparseCover,
    max_membership: Optional[int] = None,
    max_stretch: Optional[float] = None,
) -> None:
    """Raise ``ValueError`` if ``cover`` violates Definition 2.1 on ``graph``.

    The two optional bounds let tests pin the O(log n) membership and the
    construction-specific stretch.
    """

    for c in cover.clusters:
        c.validate(graph)
    for v in graph.nodes:
        home_id = cover.home_cluster.get(v)
        if home_id is None:
            raise ValueError(f"node {v} has no home cluster")
        home = cover.cluster(home_id)
        ball = graph.ball(v, cover.radius)
        if not ball <= home.members:
            missing = sorted(ball - home.members)
            raise ValueError(
                f"home cluster {home_id} of node {v} misses ball nodes {missing}"
            )
        if v not in cover.clusters_of or home_id not in cover.clusters_of[v]:
            raise ValueError(f"membership map inconsistent at node {v}")
    if max_membership is not None and cover.max_membership > max_membership:
        raise ValueError(
            f"a node is in {cover.max_membership} clusters (> {max_membership})"
        )
    if max_stretch is not None and cover.stretch() > max_stretch:
        raise ValueError(
            f"stretch {cover.stretch():.2f} exceeds bound {max_stretch}"
        )


class LazyLevels(Mapping[int, SparseCover]):
    """Levels ``0..top`` of a layered cover, each built on its first read.

    ``build(j)`` returns the sparse ``2^j``-cover.  It runs at most once per
    level, under the package's GC pause (DESIGN.md §8), and the level is
    kept.  Iteration, ``len`` and ``in`` read only the level numbers, so
    ``LayeredCover.top_level`` and the key set build nothing; ``values()``
    and ``items()`` build every level.
    """

    __slots__ = ("_build", "_top", "_built")

    def __init__(self, build: Callable[[int], SparseCover], top: int) -> None:
        self._build = build
        self._top = top
        self._built: Dict[int, SparseCover] = {}

    def __getitem__(self, j: int) -> SparseCover:
        cover = self._built.get(j)
        if cover is None:
            if j not in self:
                raise KeyError(j)
            with paused_gc():
                cover = self._built[j] = self._build(j)
        return cover

    def __contains__(self, j: object) -> bool:
        return isinstance(j, int) and 0 <= j <= self._top

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._top + 1))

    def __len__(self) -> int:
        return self._top + 1

    @property
    def built(self) -> Tuple[int, ...]:
        """The levels built so far, ascending."""
        return tuple(sorted(self._built))

    def __repr__(self) -> str:
        return f"LazyLevels(top={self._top}, built={self.built})"


class SharedLevels:
    """``build`` for :class:`LazyLevels` when every level ``j >= first`` is
    one cover up to its radius.

    A level below ``first`` is ``build(j)``.  So is the first level at or
    above ``first`` that is read; every later one is that cover at radius
    ``2^j``, sharing its cluster trees, ``clusters_of`` and home map.  Its
    ``clusters`` is the very same tuple, which is how
    :class:`~repro.core.registry.CoverRegistry` knows to re-base the
    level's tables from a twin instead of walking its trees again.
    """

    __slots__ = ("_build", "_first", "_shared")

    def __init__(
        self, build: Callable[[int], SparseCover], first: int
    ) -> None:
        self._build = build
        self._first = first
        self._shared: Optional[SparseCover] = None

    def __call__(self, j: int) -> SparseCover:
        if j < self._first:
            return self._build(j)
        shared = self._shared
        if shared is None:
            shared = self._shared = self._build(j)
            return shared
        return replace(shared, radius=1 << j)


@dataclass(frozen=True)
class LayeredCover:
    """Sparse ``2^j``-covers for every ``j`` in ``0..top_level``.

    ``levels`` is a plain dict (the RG builder, hand-built covers) or a
    :class:`LazyLevels` (the AP and trivial builders).  ``graph`` is the
    graph the builder was given (its :meth:`~repro.net.graph.Graph.twin`,
    so a cover cached under that graph does not pin it); a hand-built
    cover records none.
    """

    levels: Mapping[int, SparseCover]
    graph: Optional[Graph] = field(default=None, compare=False, repr=False)

    @property
    def top_level(self) -> int:
        return max(self.levels)

    def level(self, j: int) -> SparseCover:
        """The sparse 2^j-cover; levels below 0 clamp to level 0."""
        return self.levels[max(j, 0)]

    def covers_radius(self, d: int) -> bool:
        return (1 << self.top_level) >= d


def require_connected(graph: Graph) -> None:
    if not graph.is_connected():
        raise ValueError("sparse covers require a connected graph")


def required_top_level(d: int) -> int:
    """ceil(log2 d) — the top layer a layered sparse d-cover needs."""
    if d < 1:
        raise ValueError("radius must be >= 1")
    return max(0, math.ceil(math.log2(d)))
