"""Tests for sparse covers: data structures, AP construction, validation."""

import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.covers import (
    ClusterTree,
    SparseCover,
    ap_membership_bound,
    bfs_cluster_tree,
    build_ap_cover,
    build_ap_layered_cover,
    build_cover,
    build_layered_cover,
    build_trivial_cover,
    required_top_level,
    steiner_tree_from_paths,
    validate_cover,
)
from repro.net import topology


class TestClusterTree:
    def test_bfs_tree_structure(self):
        g = topology.grid_graph(4, 4)
        tree = bfs_cluster_tree(g, 0, members=range(16), root=0)
        tree.validate(g)
        assert tree.height == g.eccentricity(0)
        assert tree.members == frozenset(range(16))

    def test_pruning_drops_memberless_branches(self):
        g = topology.star_graph(6)
        tree = bfs_cluster_tree(g, 0, members=[0, 1], root=0)
        assert tree.tree_nodes == frozenset({0, 1})

    def test_path_to_root(self):
        g = topology.path_graph(5)
        tree = bfs_cluster_tree(g, 0, members=range(5), root=0)
        assert tree.path_to_root(4) == [4, 3, 2, 1, 0]

    def test_allowed_restriction(self):
        g = topology.cycle_graph(6)
        tree = bfs_cluster_tree(
            g, 0, members=[0, 1, 2], root=0, allowed=frozenset({0, 1, 2})
        )
        tree.validate(g)
        assert tree.height == 2  # cannot shortcut around the cycle

    def test_unreachable_member_rejected(self):
        g = topology.path_graph(4)
        with pytest.raises(ValueError, match="unreachable"):
            bfs_cluster_tree(g, 0, members=[0, 3], root=0, allowed=frozenset({0, 3}))

    def test_empty_members_rejected(self):
        g = topology.path_graph(3)
        with pytest.raises(ValueError):
            bfs_cluster_tree(g, 0, members=[])

    def test_validate_rejects_non_edge(self):
        g = topology.path_graph(4)
        bad = ClusterTree(0, 0, frozenset({0, 2}), {0: None, 2: 0})
        with pytest.raises(ValueError, match="not in graph"):
            bad.validate(g)

    def test_validate_rejects_missing_member(self):
        g = topology.path_graph(4)
        bad = ClusterTree(0, 0, frozenset({0, 3}), {0: None, 1: 0})
        with pytest.raises(ValueError, match="not in tree"):
            bad.validate(g)

    def test_validate_rejects_corrupted_children(self):
        g = topology.grid_graph(3, 3)
        tree = bfs_cluster_tree(g, 0, members=range(9), root=0)
        tree.validate(g)
        corruptions = [
            {**tree.children, 0: tree.children[0][::-1]},  # not ascending
            {**tree.children, 0: tree.children[0][:1]},  # child dropped
            {**tree.children, 8: (5,)},  # not the inverse of parent
            {v: c for v, c in tree.children.items() if v != 8},  # leaf gone
            {**tree.children, 99: ()},  # node outside the tree
        ]
        for children in corruptions:
            bad = ClusterTree(tree.cluster_id, tree.root, tree.members,
                              tree.parent, children=children, depth=tree.depth)
            with pytest.raises(ValueError, match="children disagree"):
                bad.validate(g)

    def test_validate_rejects_corrupted_depth(self):
        g = topology.path_graph(4)
        tree = bfs_cluster_tree(g, 0, members=range(4), root=0)
        for depth, match in [
            ({**tree.depth, 2: 5}, "inconsistent depth"),
            ({v: d + 1 for v, d in tree.depth.items()}, "depth 0"),
        ]:
            bad = ClusterTree(tree.cluster_id, tree.root, tree.members,
                              tree.parent, children=tree.children, depth=depth)
            with pytest.raises(ValueError, match=match):
                bad.validate(g)

    def test_steiner_tree_from_paths(self):
        g = topology.path_graph(5)
        tree = steiner_tree_from_paths(
            g, 7, root=0, members=[0, 4], attach_paths=[[0, 1, 2, 3, 4]]
        )
        tree.validate(g)
        assert 2 in tree.tree_nodes and 2 not in tree.members

    def test_steiner_tree_bad_path(self):
        g = topology.path_graph(5)
        with pytest.raises(ValueError, match="does not start"):
            steiner_tree_from_paths(g, 0, root=0, members=[0], attach_paths=[[3, 4]])


class TestTrivialCover:
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_valid_for_every_radius(self, d):
        g = topology.grid_graph(4, 4)
        cover = build_trivial_cover(g, d)
        validate_cover(g, cover, max_membership=1)

    def test_root_is_center(self):
        g = topology.path_graph(9)
        cover = build_trivial_cover(g, 2)
        assert cover.clusters[0].root == 4


class TestApCover:
    @pytest.mark.parametrize("family", ["path", "cycle", "grid", "tree", "er_sparse", "barbell"])
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_definition_2_1(self, family, d):
        g = topology.make_topology(family, 30, seed=3)
        cover = build_ap_cover(g, d)
        validate_cover(
            g,
            cover,
            max_membership=ap_membership_bound(g.num_nodes),
            max_stretch=1 + 2 * math.log2(g.num_nodes) + 2,
        )

    def test_edge_load_bounded_by_membership(self):
        g = topology.grid_graph(6, 6)
        cover = build_ap_cover(g, 2)
        assert cover.max_edge_load <= ap_membership_bound(g.num_nodes)

    def test_deterministic(self):
        g = topology.erdos_renyi_graph(25, 0.1, seed=9)
        a = build_ap_cover(g, 2)
        b = build_ap_cover(g, 2)
        assert [c.members for c in a.clusters] == [c.members for c in b.clusters]

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            build_ap_cover(topology.path_graph(4), 0)

    def test_rejects_disconnected(self):
        from repro.net import Graph

        with pytest.raises(ValueError, match="connected"):
            build_ap_cover(Graph(4, [(0, 1), (2, 3)]), 1)

    def test_single_cluster_when_radius_covers_graph(self):
        g = topology.path_graph(6)
        cover = build_ap_cover(g, 6)
        assert len(cover.clusters) == 1


class TestLayeredCover:
    def test_levels_present(self):
        g = topology.grid_graph(5, 5)
        layered = build_ap_layered_cover(g, 8)
        assert set(layered.levels) == {0, 1, 2, 3}
        assert layered.covers_radius(8)
        for j, cover in layered.levels.items():
            assert cover.radius == 1 << j
            validate_cover(g, cover)

    def test_level_clamps_below_zero(self):
        g = topology.path_graph(6)
        layered = build_ap_layered_cover(g, 2)
        assert layered.level(-3) is layered.levels[0]

    def test_required_top_level(self):
        assert required_top_level(1) == 0
        assert required_top_level(2) == 1
        assert required_top_level(5) == 3
        with pytest.raises(ValueError):
            required_top_level(0)


class TestBuilderFacade:
    @pytest.mark.parametrize("builder", ["ap", "trivial", "rg"])
    def test_build_cover(self, builder):
        g = topology.grid_graph(4, 4)
        cover = build_cover(g, 2, builder=builder)
        validate_cover(g, cover)

    @pytest.mark.parametrize("builder", ["ap", "trivial"])
    def test_build_layered(self, builder):
        g = topology.grid_graph(4, 4)
        layered = build_layered_cover(g, 4, builder=builder)
        for cover in layered.levels.values():
            validate_cover(g, cover)

    def test_unknown_builder(self):
        with pytest.raises(ValueError):
            build_cover(topology.path_graph(4), 1, builder="nope")


class TestSparseCoverHelpers:
    def test_duplicate_ids_rejected(self):
        g = topology.path_graph(4)
        t = bfs_cluster_tree(g, 5, members=range(4), root=0)
        with pytest.raises(ValueError, match="duplicate"):
            SparseCover.from_clusters(1, [t, t], {v: 5 for v in range(4)})

    def test_cluster_lookup(self):
        g = topology.path_graph(4)
        cover = build_trivial_cover(g, 1)
        assert cover.cluster(0).members == frozenset(range(4))
        with pytest.raises(KeyError):
            cover.cluster(99)

    def test_validation_catches_bad_home(self):
        g = topology.path_graph(6)
        small = bfs_cluster_tree(g, 0, members=[0, 1], root=0)
        cover = SparseCover.from_clusters(
            2, [small], {v: 0 for v in g.nodes}
        )
        with pytest.raises(ValueError, match="misses ball"):
            validate_cover(g, cover)

    def test_tree_participants_includes_steiner(self):
        g = topology.path_graph(5)
        tree = steiner_tree_from_paths(
            g, 0, root=0, members=[0, 4], attach_paths=[[0, 1, 2, 3, 4]]
        )
        cover = SparseCover.from_clusters(1, [tree], {0: 0, 4: 0})
        assert cover.tree_participants(2) == (0,)
        assert cover.clusters_of.get(2) is None


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=28),
    p=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=500),
    d=st.integers(min_value=1, max_value=3),
)
def test_ap_cover_property(n, p, seed, d):
    g = topology.erdos_renyi_graph(n, p, seed)
    cover = build_ap_cover(g, d)
    validate_cover(g, cover, max_membership=ap_membership_bound(n))


def cover_digest(cover):
    """Canonical digest of a cover: every cluster's id, root, members and
    tree, in cluster order, plus the home-cluster map."""
    h = hashlib.sha256()
    for c in cover.clusters:
        h.update(repr((
            c.cluster_id, c.root, sorted(c.members), sorted(c.parent.items()),
        )).encode())
    h.update(repr(sorted(cover.home_cluster.items())).encode())
    return h.hexdigest()[:16]


# Per-level digests of build_ap_layered_cover(g, 2 * diameter), recorded on
# the per-level-BFS builder; the top levels have radius >= the diameter.
AP_COVER_DIGESTS = [
    ("cycle", lambda: topology.cycle_graph(24), 12, [
        "4899249260ed4634", "0356b5762f8c6cdc", "b54552e7b721a3b3",
        "e46febb8caacf0ae", "e46febb8caacf0ae", "e46febb8caacf0ae"]),
    ("path", lambda: topology.path_graph(20), 19, [
        "82eb52d7f5b89b35", "8e62865bdde3b9a3", "b3239c3865441df1",
        "a9fb0c46f48c0e9e", "fe5eb3cbc6492390", "fe5eb3cbc6492390",
        "fe5eb3cbc6492390"]),
    ("grid", lambda: topology.grid_graph(5, 6), 9, [
        "8d925cfb296d442b", "73807cbf49f3d262", "27c350f7ad3747f0",
        "498879eafbfd9fa7", "498879eafbfd9fa7", "498879eafbfd9fa7"]),
    ("torus", lambda: topology.torus_graph(4, 5), 4, [
        "8e9235b9dc347da1", "9ccf8358eca653f5", "9ccf8358eca653f5",
        "9ccf8358eca653f5"]),
    ("star", lambda: topology.star_graph(12), 2, [
        "c86a6e700589dd8f", "c86a6e700589dd8f", "c86a6e700589dd8f"]),
    ("complete", lambda: topology.complete_graph(8), 1, [
        "92bfa7487fea104f", "92bfa7487fea104f"]),
    ("hypercube", lambda: topology.hypercube_graph(4), 4, [
        "ec27792adb8353a6", "8747bc8c5a760fa1", "8747bc8c5a760fa1",
        "8747bc8c5a760fa1"]),
    ("barbell", lambda: topology.barbell_graph(5, 4), 7, [
        "ee8d47dad5e52e09", "8b03c550ac2ee7a5", "d29679524148f468",
        "d29679524148f468", "d29679524148f468"]),
    ("lollipop", lambda: topology.lollipop_graph(5, 6), 7, [
        "e1977a298bc9ffc3", "2efc62b08ff3564f", "cd35e55008915b1e",
        "cd35e55008915b1e", "cd35e55008915b1e"]),
    ("random_tree", lambda: topology.random_tree(30, 3), 11, [
        "eefd89bf207ac558", "4ca69e8d62fffae5", "1c659e009d0c1a75",
        "1c659e009d0c1a75", "1c659e009d0c1a75", "1c659e009d0c1a75"]),
    ("erdos_renyi", lambda: topology.erdos_renyi_graph(30, 0.12, 7), 4, [
        "0af876509d7ca0b0", "a15497beb93a1798", "a15497beb93a1798",
        "a15497beb93a1798"]),
]


def _assert_records_match_derivation(layered):
    """``bfs_cluster_tree``'s ``children``/``depth`` equal what
    ``ClusterTree.__post_init__`` derives from the ``parent`` map alone."""
    for cover in layered.levels.values():
        for tree in cover.clusters:
            derived = ClusterTree(tree.cluster_id, tree.root, tree.members,
                                  dict(tree.parent))
            assert tree.children == derived.children
            assert tree.depth == derived.depth
            assert list(tree.children) == list(derived.children)
            assert list(tree.depth) == list(derived.depth)


class TestApCoverIdentity:
    @pytest.mark.parametrize(
        "make, diameter, digests",
        [case[1:] for case in AP_COVER_DIGESTS],
        ids=[case[0] for case in AP_COVER_DIGESTS],
    )
    def test_pinned_digests(self, make, diameter, digests):
        g = make()
        assert g.diameter() == diameter
        layered = build_ap_layered_cover(g, 2 * diameter)
        levels = range(len(digests))
        assert sorted(layered.levels) == list(levels)
        assert [cover_digest(layered.levels[j]) for j in levels] == digests
        assert [cover_digest(build_ap_cover(g, 1 << j)) for j in levels] == digests
        _assert_records_match_derivation(layered)

    def test_grid_32x64_shape(self):
        g = topology.grid_graph(32, 64)
        layered = build_ap_layered_cover(g, 1024)
        levels = [layered.levels[j] for j in sorted(layered.levels)]
        assert [len(c.clusters) for c in levels] == [
            432, 89, 29, 9, 3, 2, 1, 1, 1, 1, 1]
        assert [c.max_membership for c in levels] == [
            5, 5, 4, 4, 3, 2, 1, 1, 1, 1, 1]
        assert [cover_digest(c) for c in levels] == [
            "ade40625f66de3a4", "33aea35a5e0d57d3", "ef0a0751e37b5ee5",
            "034d5be9bd016637", "0c75e19e356ff85c", "bb1113b2c0b12879",
        ] + ["fbfc752e382e5562"] * 5
        _assert_records_match_derivation(layered)

    def test_grid_64x64_shape(self):
        # The grid half of the ms4096 sweep cell, at the radius it builds.
        g = topology.grid_graph(64, 64)
        layered = build_ap_layered_cover(g, 1024)
        levels = [layered.levels[j] for j in sorted(layered.levels)]
        assert [len(c.clusters) for c in levels] == [
            905, 178, 44, 14, 6, 3, 1, 1, 1, 1, 1]
        assert [c.max_membership for c in levels] == [
            5, 5, 4, 4, 4, 3, 1, 1, 1, 1, 1]
        assert [cover_digest(c) for c in levels] == [
            "5b9ca607f3b49d9f", "79519d78c7293dcb", "4005d3c48a11edbb",
            "6bc607222dbd2fe2", "ace878b35d97004a", "a3bd3776b676f3b3",
        ] + ["db18aca48a4d02b3"] * 5
        _assert_records_match_derivation(layered)


def _ball_scan_cover(graph, d):
    """Reference AP growth loop: every node's ball built up front, and each
    round scans the unprocessed centers for balls that touch the cluster."""
    balls = {v: graph.ball(v, d) for v in graph.nodes}
    remaining = set(graph.nodes)
    clusters, home, next_id = [], {}, 0
    while remaining:
        unprocessed = set(remaining)
        while unprocessed:
            seed = min(unprocessed)
            absorbed = {seed}
            nodes = set(balls[seed])
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
                for w in sorted(touching):
                    nodes |= balls[w]
            clusters.append(bfs_cluster_tree(
                graph, next_id, members=nodes, root=seed, allowed=frozenset(nodes)
            ))
            for w in sorted(absorbed):
                home[w] = next_id
            next_id += 1
            unprocessed -= absorbed
            unprocessed -= boundary
            remaining -= absorbed
    return SparseCover.from_clusters(d, clusters, home)


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["erdos_renyi", "random_tree"]),
    n=st.integers(min_value=2, max_value=32),
    p=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=500),
    d=st.integers(min_value=1, max_value=64),
)
def test_growth_loop_matches_ball_scan(family, n, p, seed, d):
    # d ranges past every diameter (< n), so whole-graph balls are covered.
    if family == "erdos_renyi":
        g = topology.erdos_renyi_graph(n, p, seed)
    else:
        g = topology.random_tree(n, seed)
    assert cover_digest(build_ap_cover(g, d)) == cover_digest(
        _ball_scan_cover(g, d)
    )


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=24),
    p=st.floats(min_value=0.0, max_value=0.4),
    seed=st.integers(min_value=0, max_value=500),
    d=st.integers(min_value=1, max_value=48),
)
def test_layered_levels_equal_single_level_builds(n, p, seed, d):
    # d ranges past every diameter (< n), so top levels see whole-graph balls.
    g = topology.erdos_renyi_graph(n, p, seed)
    layered = build_ap_layered_cover(g, d)
    assert sorted(layered.levels) == list(range(required_top_level(d) + 1))
    for j, cover in layered.levels.items():
        single = build_ap_cover(g, 1 << j)
        assert cover == single
        assert cover_digest(cover) == cover_digest(single)


@settings(max_examples=60, deadline=None)
@example(n=1, p=0.0, seed=0, order=random.Random(0))
@example(n=2, p=0.0, seed=0, order=random.Random(0))
@given(
    n=st.integers(min_value=1, max_value=40),
    p=st.floats(min_value=0.0, max_value=0.3),
    seed=st.integers(min_value=0, max_value=500),
    order=st.randoms(use_true_random=False),
)
def test_levels_past_eccentricity_share_one_build(n, p, seed, order):
    """Every level of the lazy AP and trivial builders, read in any order up
    to past the diameter, equals its standalone build; the AP levels with
    ``2^{j+1} >= ecc(0)``, and all trivial levels, share one tree object,
    and no level below them does."""
    from repro.covers.awerbuch_peleg import _grow_cover

    g = topology.erdos_renyi_graph(n, p, seed)
    d = 4 * n
    shared_from = next(j for j in range(n + 1) if 2 << j >= g.eccentricity(0))
    levels = list(range(required_top_level(d) + 1))
    order.shuffle(levels)
    for builder, single, first in (
        ("ap", _grow_cover, shared_from),
        ("trivial", build_trivial_cover, 0),
    ):
        layered = build_layered_cover(g, d, builder)
        for j in levels:
            cover, alone = layered.levels[j], single(g, 1 << j)
            assert cover == alone and cover.radius == alone.radius == 1 << j
            assert cover_digest(cover) == cover_digest(alone)
        trees = {id(layered.levels[j].clusters[0])
                 for j in layered.levels if j >= first}
        assert len(trees) == 1, builder
        below = [layered.levels[j].clusters[0] for j in layered.levels
                 if j < first]
        assert len({id(t) for t in below}) == len(below)
