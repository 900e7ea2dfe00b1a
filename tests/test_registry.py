"""Tests for CoverRegistry — the node-local cover views."""

import pickle

import pytest

from repro.core import ClusterView, CoverRegistry
from repro.core.registry import LEVEL_ID_SHIFT
from repro.covers import (
    SparseCover,
    bfs_cluster_tree,
    build_ap_layered_cover,
    build_layered_cover,
    build_trivial_cover,
    steiner_tree_from_paths,
)
from repro.covers.cover import LayeredCover
from repro.net import topology


@pytest.fixture
def registry():
    g = topology.grid_graph(4, 4)
    return g, CoverRegistry(build_ap_layered_cover(g, 4))


class TestRegistry:
    def test_global_ids_unique_across_levels(self, registry):
        g, reg = registry
        seen = set()
        for level in (0, 1, 2):
            for cid in reg.clusters_at_level(level):
                assert cid not in seen
                seen.add(cid)
                assert reg.cluster(cid).level == level

    def test_member_clusters_cover_every_node(self, registry):
        g, reg = registry
        for level in (0, 1, 2):
            for v in g.nodes:
                cids = reg.member_clusters(v, level)
                assert cids, (v, level)
                for cid in cids:
                    assert v in reg.cluster(cid).tree.members

    def test_views_include_steiner_participants(self, registry):
        g, reg = registry
        for v in g.nodes:
            views = reg.views_of(v)
            for cid, view in views.items():
                tree = reg.cluster(cid).tree
                assert v in tree.parent
                assert view.parent == tree.parent[v]

    def test_clamp_level(self, registry):
        _, reg = registry
        assert reg.clamp_level(-5) == 0
        assert reg.clamp_level(99) == reg.top_level
        assert reg.clamp_level(1) == 1

    def test_tree_clusters_filter_by_level(self, registry):
        g, reg = registry
        for v in g.nodes:
            for level in (0, 1, 2):
                for cid in reg.tree_clusters_of(v, level):
                    assert reg.cluster(cid).level == level
                    assert v in reg.cluster(cid).tree.parent

    def test_is_member(self, registry):
        g, reg = registry
        cid = reg.member_clusters(0, 1)[0]
        assert reg.is_member(0, cid)

    def test_views_consistent_parent_child(self, registry):
        """If u's view lists child c, then c's view lists parent u."""
        g, reg = registry
        for v in g.nodes:
            for cid, view in reg.views_of(v).items():
                for c in view.children:
                    child_view = reg.views_of(c)[cid]
                    assert child_view.parent == v


def _steiner_layered():
    """Two levels on path(5); level 0 has a tree through Steiner nodes."""
    g = topology.path_graph(5)
    steiner = steiner_tree_from_paths(
        g, 0, root=0, members=[0, 4], attach_paths=[[0, 1, 2, 3, 4]])
    inner = bfs_cluster_tree(g, 1, members=[1, 2, 3], root=2)
    level0 = SparseCover.from_clusters(
        1, [steiner, inner], {0: 0, 1: 1, 2: 1, 3: 1, 4: 0})
    return g, LayeredCover(levels={0: level0, 1: build_trivial_cover(g, 2)})


def _built(make, d, builder):
    g = make()
    return g, build_layered_cover(g, d, builder)


@pytest.mark.parametrize("make", [
    _steiner_layered,
    lambda: _built(lambda: topology.grid_graph(4, 4), 4, "ap"),
    lambda: _built(lambda: topology.grid_graph(5, 6), 8, "rg"),
    lambda: _built(lambda: topology.erdos_renyi_graph(30, 0.12, 7), 4, "rg"),
], ids=["steiner", "grid-ap", "grid-rg", "erdos-renyi-rg"])
def test_registry_matches_brute_force_scan(make):
    """Every view, membership tuple and tree-participation tuple equals a
    scan over the cover's trees, level by level, in global-id order.  The
    ``i``-th tree of level ``j`` has id ``j << LEVEL_ID_SHIFT | i``."""
    g, layered = make()
    reg = CoverRegistry(layered)
    trees = []  # (global id, level, tree) in registry id order
    for level in sorted(layered.levels):
        for index, tree in enumerate(layered.levels[level].clusters):
            trees.append((level << LEVEL_ID_SHIFT | index, level, tree))
    assert [cid for cid, _, _ in trees] == sorted(cid for cid, _, _ in trees)
    for v in g.nodes:
        assert reg.views_of(v) == {
            cid: (cid, tree.parent[v], tree.children.get(v, ()))
            for cid, _, tree in trees if v in tree.parent
        }
        for level in range(-1, layered.top_level + 2):
            at = reg.clamp_level(level)
            assert reg.member_clusters(v, level) == tuple(
                cid for cid, lv, tree in trees
                if lv == at and v in tree.members)
            assert reg.tree_clusters_of(v, level) == tuple(
                cid for cid, lv, tree in trees
                if lv == at and v in tree.parent)
    for cid, level, tree in trees:
        assert reg.cluster(cid).tree is tree
        assert reg.cluster(cid).level == level


class TestClusterView:
    """The per-(cluster, node) record keeps its value-object contract."""

    def test_positional_and_keyword_construction(self):
        view = ClusterView(cluster_id=3, parent=7, children=(1, 2))
        assert view == ClusterView(3, 7, (1, 2))
        assert (view.cluster_id, view.parent, view.children) == (3, 7, (1, 2))

    def test_is_root(self):
        assert ClusterView(0, None, (1,)).is_root
        assert not ClusterView(0, 4, ()).is_root

    def test_immutable(self):
        view = ClusterView(0, None, ())
        with pytest.raises(AttributeError):
            view.parent = 1
        with pytest.raises(AttributeError):
            view.extra = 1

    def test_equality_and_hashing(self):
        a = ClusterView(1, 2, (3,))
        b = ClusterView(1, 2, (3,))
        assert a == b and hash(a) == hash(b)
        assert a != ClusterView(1, 2, ())
        assert len({a, b, ClusterView(1, None, (3,))}) == 2

    def test_pickle_round_trip(self):
        view = ClusterView(5, None, (6, 8))
        clone = pickle.loads(pickle.dumps(view))
        assert clone == view and type(clone) is ClusterView
        assert clone.is_root
