"""Node-local views of a layered sparse cover.

The asynchronous machinery needs, per node: which cluster trees it sits on
(parent/children per cluster, for the registration and aggregation waves) and
which clusters it is a *member* of per level (for "register in all clusters
of the 2^{l(p)+5}-cover that contain v").  :class:`CoverRegistry` assigns
globally unique cluster ids across levels and precomputes those views.

A level is indexed the first time it is asked for, which is also when a
lazily built cover level (:class:`~repro.covers.cover.LazyLevels`) is built;
a one-tree level that shares its tree with one indexed already is re-based
from it, not walked again.
Each consumer loads the levels it reads when it is wired (DESIGN.md §2), so
no level is built while a run dispatches.  All per-(node, level) queries
return precomputed tuples (DESIGN.md §6): the synchronizer asks for the
same membership sets on every pulse of every flow, so the registry answers
from immutable caches.  Callers must treat the returned tuples and view
dicts as read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..covers.cluster import ClusterTree
from ..covers.cover import LayeredCover
from ..gcpause import paused_gc
from ..net.graph import Graph, NodeId
from .registration import ClusterView

#: The global id of the ``i``-th cluster of level ``j`` is
#: ``j << LEVEL_ID_SHIFT | i``: a function of (level, index) alone, so it
#: does not depend on which levels were loaded or in which order, and ids
#: sort by level, then by index, as sequential ids over the sorted levels do.
LEVEL_ID_SHIFT = 24


@dataclass(frozen=True)
class GlobalCluster:
    global_id: int
    level: int
    tree: ClusterTree


class CoverRegistry:
    """Level-indexed, globally-id'd view of a :class:`LayeredCover`.

    Each distinct level is walked once: a one-tree level whose
    ``clusters`` tuple is that of a level indexed already (the shared
    levels of :class:`~repro.covers.cover.SharedLevels`) takes its twin's
    tables with the id re-based to its own, ``level << LEVEL_ID_SHIFT``.
    """

    def __init__(self, layered: LayeredCover) -> None:
        if not layered.levels:
            raise ValueError("layered cover has no levels")
        self.layered = layered
        #: Every level of the cover, ascending (loaded or not).
        self.levels: Tuple[int, ...] = tuple(sorted(layered.levels))
        self._min_level = self.levels[0]
        self._top_level = self.levels[-1]
        # Per-level tables, filled when a level is indexed.  A miss indexes
        # the level (``_index_missing``); a hit stays one dict lookup.
        self._clusters: Dict[int, GlobalCluster] = {}
        self._by_level: Dict[int, List[int]] = {}
        self._member_of: Dict[int, Dict[NodeId, Tuple[int, ...]]] = {}
        self._tree_at: Dict[int, Dict[NodeId, Tuple[int, ...]]] = {}
        self._views_at: Dict[int, Dict[NodeId, Tuple[ClusterView, ...]]] = {}
        # Per-node views per level set, keyed by the sorted level tuple.
        self._views: Dict[
            Tuple[int, ...], Dict[NodeId, Dict[int, ClusterView]]] = {}
        self._level_sets: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, ...]] = {}
        self._empty: Tuple[int, ...] = ()

    @property
    def top_level(self) -> int:
        return self._top_level

    def check_graph(self, graph: Graph) -> None:
        """Raise ``ValueError`` unless the cover fits ``graph``, checked
        once by each runner given a registry.  A built cover must have been
        built for ``graph`` or an equal graph: one comparison
        (:meth:`Graph.same_links`).  A hand-built cover records no graph,
        so every tree of every level is validated against ``graph``
        (:meth:`ClusterTree.validate`): a tree edge that is no link fails
        here, not mid-run."""
        built_for = self.layered.graph
        if built_for is None:
            for cover in self.layered.levels.values():
                for tree in cover.clusters:
                    tree.validate(graph)
        elif not built_for.same_links(graph):
            raise ValueError(
                "the cover registry was built for another graph"
                f" ({built_for.num_nodes} nodes, {built_for.num_edges} edges),"
                f" not this one ({graph.num_nodes} nodes,"
                f" {graph.num_edges} edges)")

    @property
    def loaded_levels(self) -> Tuple[int, ...]:
        """The levels indexed so far, ascending."""
        return tuple(sorted(self._by_level))

    def clamp_level(self, level: int) -> int:
        """Clamp a requested cover level into the available range."""
        if level < self._min_level:
            return self._min_level
        if level > self._top_level:
            return self._top_level
        return level

    def level_set(self, low: int, *also: int) -> Tuple[int, ...]:
        """The levels at or above ``clamp_level(low)``, plus
        ``clamp_level(j)`` for each ``j`` in ``also``, ascending: what a
        consumer reading ``clamp_level`` of such requests can touch."""
        key = (low, also)
        levels = self._level_sets.get(key)
        if levels is None:
            floor = self.clamp_level(low)
            wanted = {self.clamp_level(j) for j in also}
            levels = self._level_sets[key] = tuple(
                j for j in self.levels if j >= floor or j in wanted)
        return levels

    @paused_gc()
    def load(
        self, levels: Optional[Tuple[int, ...]] = None
    ) -> Dict[NodeId, Dict[int, ClusterView]]:
        """Index ``levels`` (a sorted tuple of levels, as :meth:`level_set`
        returns it; default: all) and build their per-node views, building
        every cover level among them not built yet.  Returns the views.

        A consumer calls this when it is wired, so its runs find what they
        read loaded; under the package's GC pause, like the rest of setup
        (DESIGN.md §8).  Idempotent: one view dict per node per level set.
        """
        if levels is None:
            levels = self.levels
        views = self._views.get(levels)
        if views is None:
            if levels != tuple(sorted(set(levels))):
                raise ValueError(f"levels must be a sorted tuple, got {levels!r}")
            unknown = [j for j in levels if j not in self.layered.levels]
            if unknown:
                raise ValueError(f"the cover has no levels {unknown}")
            # One pass over the levels gathers each node's views, in level
            # order; then one dict per node, keyed by cluster id.
            gathered: Dict[NodeId, List[ClusterView]] = {}
            for level in levels:
                self._index_level(level)
                for v, level_views in self._views_at[level].items():
                    node_views = gathered.get(v)
                    if node_views is None:
                        gathered[v] = list(level_views)
                    else:
                        node_views += level_views
            views = self._views[levels] = {
                v: {view.cluster_id: view for view in node_views}
                for v, node_views in gathered.items()}
        return views

    def cluster(self, global_id: int) -> GlobalCluster:
        try:
            return self._clusters[global_id]
        except KeyError:
            self._index_missing(global_id >> LEVEL_ID_SHIFT)
            return self._clusters[global_id]

    def clusters_at_level(self, level: int) -> List[int]:
        level = self.clamp_level(level)
        if level not in self._by_level:
            self._index_missing(level)
        return list(self._by_level[level])

    def views_of(
        self, node: NodeId, levels: Optional[Tuple[int, ...]] = None
    ) -> Dict[int, ClusterView]:
        """Every cluster tree this node participates in (member or
        Steiner) at ``levels`` (a sorted tuple; default: all).

        Returns the registry's own mapping, shared by every caller that
        asks for the same level set; it is never mutated once handed out.
        """
        views = self._views.get(self.levels if levels is None else levels)
        if views is None:
            views = self.load(levels)
        node_views = views.get(node)
        return node_views if node_views is not None else {}

    def member_clusters(self, node: NodeId, level: int) -> Tuple[int, ...]:
        """Global ids of clusters at ``level`` that contain ``node``.

        Returns a cached tuple — do not mutate.
        """
        level = self.clamp_level(level)
        try:
            of = self._member_of[level]
        except KeyError:
            of = self._member_of[self._index_missing(level)]
        return of.get(node, self._empty)

    def tree_clusters_of(self, node: NodeId, level: int) -> Tuple[int, ...]:
        """Clusters at ``level`` whose tree passes through ``node``.

        Returns a cached tuple — do not mutate.
        """
        level = self.clamp_level(level)
        try:
            at = self._tree_at[level]
        except KeyError:
            at = self._tree_at[self._index_missing(level)]
        return at.get(node, self._empty)

    def is_member(self, node: NodeId, global_id: int) -> bool:
        return node in self.cluster(global_id).tree.members

    # ------------------------------------------------------------------
    @paused_gc()
    def _index_missing(self, level: int) -> int:
        """Index ``level`` on a table miss (a level no load asked for)."""
        self._index_level(level)
        return level

    def _index_level(self, level: int) -> None:
        """Index one level (building the cover level on its first read);
        nothing if loaded already or not a level.  A one-tree level whose
        tree is that of a level indexed already
        (:class:`~repro.covers.cover.SharedLevels` hands out one cover at
        many radii) is re-based from that twin; any other level is indexed
        in one walk over its trees."""
        if level in self._views_at or level not in self.layered.levels:
            return
        trees = self.layered.levels[level].clusters
        if len(trees) > 1 << LEVEL_ID_SHIFT:
            raise ValueError(
                f"level {level} has {len(trees)} clusters; ids fit"
                f" {1 << LEVEL_ID_SHIFT} per level")
        if len(trees) == 1:
            for twin in self._by_level:
                if self.layered.levels[twin].clusters is trees:
                    self._rebase_level(level, twin, trees[0])
                    return
        self._walk_level(level, trees)

    def _walk_level(self, level: int, trees: Tuple[ClusterTree, ...]) -> None:
        base = level << LEVEL_ID_SHIFT
        ids: List[int] = []
        member_of: Dict[NodeId, List[int]] = {}
        views_at: Dict[NodeId, List[ClusterView]] = {}
        for index, tree in enumerate(trees):
            cid = base | index
            self._clusters[cid] = GlobalCluster(cid, level, tree)
            ids.append(cid)
            children = tree.children
            for v, p in tree.parent.items():
                view = ClusterView(cid, p, children.get(v, ()))
                at = views_at.get(v)
                if at is None:
                    views_at[v] = [view]
                else:
                    at.append(view)
            for v in tree.members:
                of = member_of.get(v)
                if of is None:
                    member_of[v] = [cid]
                else:
                    of.append(cid)
        self._views_at[level] = {v: tuple(vs) for v, vs in views_at.items()}
        self._tree_at[level] = {
            v: tuple(view.cluster_id for view in vs)
            for v, vs in views_at.items()}
        self._member_of[level] = {v: tuple(c) for v, c in member_of.items()}
        self._by_level[level] = ids

    def _rebase_level(self, level: int, twin: int, tree: ClusterTree) -> None:
        """Index ``level`` from ``twin``, an indexed level of the same one
        ``tree``: the twin's tables under the id ``level << LEVEL_ID_SHIFT``,
        in the twin's order, which is the order a walk would give."""
        cid = level << LEVEL_ID_SHIFT
        self._clusters[cid] = GlobalCluster(cid, level, tree)
        only = (cid,)
        twin_views = self._views_at[twin]
        self._tree_at[level] = dict.fromkeys(twin_views, only)
        self._member_of[level] = dict.fromkeys(self._member_of[twin], only)
        self._views_at[level] = {
            v: (ClusterView(cid, p, children),)
            for v, ((_, p, children),) in twin_views.items()}
        self._by_level[level] = [cid]
