"""Node-local views of a layered sparse cover.

The asynchronous machinery needs, per node: which cluster trees it sits on
(parent/children per cluster, for the registration and aggregation waves) and
which clusters it is a *member* of per level (for "register in all clusters
of the 2^{l(p)+5}-cover that contain v").  :class:`CoverRegistry` assigns
globally unique cluster ids across levels and precomputes those views.

All per-(node, level) queries return precomputed tuples (DESIGN.md §6):
the synchronizer asks for the same membership sets on every pulse of every
flow, so the registry answers from immutable caches built once at
construction.  Callers must treat the returned tuples as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..covers.cluster import ClusterTree
from ..covers.cover import LayeredCover
from ..gcpause import paused_gc
from ..net.graph import NodeId
from .registration import ClusterView


@dataclass(frozen=True)
class GlobalCluster:
    global_id: int
    level: int
    tree: ClusterTree


class CoverRegistry:
    """Level-indexed, globally-id'd view of a :class:`LayeredCover`."""

    @paused_gc()
    def __init__(self, layered: LayeredCover) -> None:
        """One pass over each level's trees, under the package's GC pause
        (DESIGN.md §8): every view and cached tuple built here lives as
        long as the registry, so collector passes would free nothing."""
        self.layered = layered
        self._clusters: Dict[int, GlobalCluster] = {}
        self._by_level: Dict[int, List[int]] = {}
        self._member_of: Dict[int, Dict[NodeId, Tuple[int, ...]]] = {}
        self._tree_at: Dict[int, Dict[NodeId, Tuple[int, ...]]] = {}
        views: Dict[NodeId, Dict[int, ClusterView]] = {}
        self._views = views
        next_id = 0
        for level in sorted(layered.levels):
            ids: List[int] = []
            member_of: Dict[NodeId, List[int]] = {}
            tree_at: Dict[NodeId, List[int]] = {}
            for tree in layered.levels[level].clusters:
                cid = next_id
                next_id += 1
                self._clusters[cid] = GlobalCluster(cid, level, tree)
                ids.append(cid)
                children = tree.children
                for v, p in tree.parent.items():
                    node_views = views.get(v)
                    if node_views is None:
                        node_views = views[v] = {}
                    node_views[cid] = ClusterView(
                        cid, p, children.get(v, ()))
                    at = tree_at.get(v)
                    if at is None:
                        tree_at[v] = [cid]
                    else:
                        at.append(cid)
                for v in tree.members:
                    of = member_of.get(v)
                    if of is None:
                        member_of[v] = [cid]
                    else:
                        of.append(cid)
            self._by_level[level] = ids
            self._member_of[level] = {
                v: tuple(c) for v, c in member_of.items()}
            self._tree_at[level] = {v: tuple(c) for v, c in tree_at.items()}
        self._min_level = min(self._by_level)
        self._top_level = layered.top_level
        self._empty: Tuple[int, ...] = ()

    @property
    def top_level(self) -> int:
        return self._top_level

    def clamp_level(self, level: int) -> int:
        """Clamp a requested cover level into the available range."""
        if level < self._min_level:
            return self._min_level
        if level > self._top_level:
            return self._top_level
        return level

    def cluster(self, global_id: int) -> GlobalCluster:
        return self._clusters[global_id]

    def clusters_at_level(self, level: int) -> List[int]:
        return list(self._by_level[self.clamp_level(level)])

    def views_of(self, node: NodeId) -> Dict[int, ClusterView]:
        """Every cluster tree this node participates in (member or Steiner).

        Returns the registry's own mapping — treat as read-only.
        """
        views = self._views.get(node)
        return views if views is not None else {}

    def member_clusters(self, node: NodeId, level: int) -> Tuple[int, ...]:
        """Global ids of clusters at ``level`` that contain ``node``.

        Returns a cached tuple — do not mutate.
        """
        return self._member_of[self.clamp_level(level)].get(node, self._empty)

    def tree_clusters_of(self, node: NodeId, level: int) -> Tuple[int, ...]:
        """Clusters at ``level`` whose tree passes through ``node``.

        Returns a cached tuple — do not mutate.
        """
        return self._tree_at[self.clamp_level(level)].get(node, self._empty)

    def is_member(self, node: NodeId, global_id: int) -> bool:
        return node in self._clusters[global_id].tree.members
