"""Sparse covers and layered sparse covers (Definition 2.1).

A *sparse d-cover with stretch s* is a set of clusters such that

* each cluster's tree has depth ``O(d * s)``,
* each node belongs to few (``O(log n)``) clusters, and
* for every node ``v`` some cluster contains the whole ball ``B(v, d)``
  (the paper's "stronger statement"; we store that cluster as the node's
  *home cluster*).

A *layered sparse d-cover* is one sparse ``2^j``-cover for every
``j <= ceil(log2 d)``.  :func:`validate_cover` checks every property and is
used both in tests and as a guard when experiments build covers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..net.graph import Edge, Graph, NodeId
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


@dataclass(frozen=True)
class LayeredCover:
    """Sparse ``2^j``-covers for every ``j`` in ``0..top_level``."""

    levels: Dict[int, SparseCover]

    @property
    def top_level(self) -> int:
        return max(self.levels)

    def level(self, j: int) -> SparseCover:
        """The sparse 2^j-cover; levels below 0 clamp to level 0."""
        return self.levels[max(j, 0)]

    def covers_radius(self, d: int) -> bool:
        return (1 << self.top_level) >= d

    def all_cluster_trees(self) -> List[Tuple[int, ClusterTree]]:
        """(level, tree) pairs across all levels."""
        return [
            (j, c) for j in sorted(self.levels) for c in self.levels[j].clusters
        ]


def required_top_level(d: int) -> int:
    """ceil(log2 d) — the top layer a layered sparse d-cover needs."""
    if d < 1:
        raise ValueError("radius must be >= 1")
    return max(0, math.ceil(math.log2(d)))
