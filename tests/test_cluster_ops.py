"""Tests for tree aggregation (cluster_ops) and cover gathering (Thm 3.1/3.2)."""

import random

import pytest

from repro.core.cluster_ops import ClusterAggregateModule, and_merge, min_merge
from repro.core.gather import GatherModule
from repro.core.registration import ClusterView, cluster_views_for
from repro.covers import bfs_cluster_tree, build_ap_cover
from repro.net import (
    AsyncRuntime,
    ConstantDelay,
    Process,
    UniformDelay,
    standard_adversaries,
    topology,
)


def make_agg_driver(tree, values, on_results):
    """Every node contributes values[node] after a scripted delay."""

    class Driver(Process):
        def __init__(self, ctx):
            super().__init__(ctx)
            views = cluster_views_for({0: tree}, ctx.node_id)
            self.module = ClusterAggregateModule(
                node_id=ctx.node_id,
                clusters=views,
                send=lambda to, payload, priority: ctx.send(to, payload, priority),
                on_result=lambda cid, tag, result: on_results.append(
                    (self.ctx.now, ctx.node_id, result)
                ),
                merge_fn=lambda tag: min_merge,
                priority_fn=lambda tag: (0,),
            )

        def on_start(self):
            node = self.ctx.node_id
            delay, value = values[node]
            self.ctx.schedule_environment_event(
                delay, lambda: self.module.contribute(0, "t", value)
            )

        def on_message(self, sender, payload):
            assert self.module.handle(sender, payload)

    return Driver


class TestAggregate:
    @pytest.mark.parametrize("model", standard_adversaries(2), ids=repr)
    def test_min_aggregation_reaches_everyone(self, model):
        g = topology.balanced_tree(2, 3)
        tree = bfs_cluster_tree(g, 0, members=g.nodes, root=0)
        rng = random.Random(7)
        values = {v: (rng.uniform(0, 5), v + 100) for v in g.nodes}
        results = []
        runtime = AsyncRuntime(g, make_agg_driver(tree, values, results), model)
        out = runtime.run(max_events=500_000)
        assert out.stop_reason == "quiescent"
        assert len(results) == g.num_nodes
        assert all(r == 100 for _, _, r in results)

    def test_result_only_after_all_contributions(self):
        g = topology.path_graph(5)
        tree = bfs_cluster_tree(g, 0, members=g.nodes, root=0)
        slow_node, slow_time = 4, 30.0
        values = {v: (0.0, v) for v in g.nodes}
        values[slow_node] = (slow_time, slow_node)
        results = []
        runtime = AsyncRuntime(
            g, make_agg_driver(tree, values, results), ConstantDelay(0.5)
        )
        runtime.run()
        assert min(t for t, _, _ in results) >= slow_time

    def test_message_count_two_per_edge(self):
        g = topology.balanced_tree(3, 2)
        tree = bfs_cluster_tree(g, 0, members=g.nodes, root=0)
        values = {v: (0.0, v) for v in g.nodes}
        results = []
        runtime = AsyncRuntime(
            g, make_agg_driver(tree, values, results), ConstantDelay(1.0)
        )
        out = runtime.run()
        assert out.messages == 2 * (g.num_nodes - 1)

    def test_double_contribute_rejected(self):
        view = {0: ClusterView(0, parent=None, children=())}
        module = ClusterAggregateModule(
            0, view, lambda *a: None, lambda *a: None,
            lambda tag: min_merge, lambda tag: (0,),
        )
        module.contribute(0, "t", 1)
        with pytest.raises(ValueError, match="double-contributes"):
            module.contribute(0, "t", 2)

    def test_result_of_only_after_completion_and_then_retained(self):
        # The root of a two-node cluster has its own value but still misses
        # its child's: no result yet.  A single-node cluster completes at
        # once and keeps its result for later queries.
        view = {
            0: ClusterView(0, parent=None, children=(1,)),
            1: ClusterView(1, parent=None, children=()),
        }
        module = ClusterAggregateModule(
            0, view, lambda *a: None, lambda *a: None,
            lambda tag: min_merge, lambda tag: (0,),
        )
        module.contribute(0, "t", 4)
        assert module.result_of(0, "t") is None
        module.contribute(1, "t", 9)
        assert module.result_of(1, "t") == 9
        assert module.result_of(1, "t") == 9
        assert module.result_of(1, "other") is None

    def test_merges(self):
        assert and_merge(True, False) is False
        assert and_merge(True, True) is True
        assert min_merge(None, 3) == 3
        assert min_merge(2, None) == 2
        assert min_merge(5, 3) == 3


def make_gather_driver(cover, done_delays, completions, num_stages):
    class Driver(Process):
        def __init__(self, ctx):
            super().__init__(ctx)
            self.module = GatherModule(
                node_id=ctx.node_id,
                cover=cover,
                send=lambda to, payload, priority: ctx.send(to, payload, priority),
                on_complete=lambda stage: completions.append(
                    (self.ctx.now, ctx.node_id, stage)
                ),
                num_stages=num_stages,
            )

        def on_start(self):
            self.module.start()
            delay = done_delays[self.ctx.node_id]
            self.ctx.schedule_environment_event(delay, self.module.mark_done)

        def on_message(self, sender, payload):
            assert self.module.handle(sender, payload)

    return Driver


class TestGather:
    @pytest.mark.parametrize("model", standard_adversaries(5)[:4], ids=repr)
    @pytest.mark.parametrize("d", [1, 2])
    def test_theorem_3_1_semantics(self, model, d):
        """A node learns completion only after its whole d-ball is done."""
        g = topology.grid_graph(4, 4)
        cover = build_ap_cover(g, d)
        rng = random.Random(3)
        done_delays = {v: rng.uniform(0, 10) for v in g.nodes}
        completions = []
        runtime = AsyncRuntime(
            g, make_gather_driver(cover, done_delays, completions, 1), model
        )
        out = runtime.run(max_events=1_000_000)
        assert out.stop_reason == "quiescent"
        learned_at = {v: t for t, v, _ in completions}
        assert set(learned_at) == set(g.nodes)
        for v in g.nodes:
            for u in g.ball(v, d):
                assert done_delays[u] <= learned_at[v], (
                    f"node {v} learned at {learned_at[v]} before neighbor {u}"
                    f" was done at {done_delays[u]}"
                )

    def test_theorem_3_2_multi_stage(self):
        """With l stages the guarantee extends to the d*l-ball."""
        g = topology.path_graph(14)
        d, stages = 1, 3
        cover = build_ap_cover(g, d)
        rng = random.Random(9)
        done_delays = {v: rng.uniform(0, 8) for v in g.nodes}
        completions = []
        runtime = AsyncRuntime(
            g,
            make_gather_driver(cover, done_delays, completions, stages),
            UniformDelay(seed=4),
        )
        out = runtime.run(max_events=1_000_000)
        assert out.stop_reason == "quiescent"
        final = {v: t for t, v, s in completions if s == stages}
        assert set(final) == set(g.nodes)
        for v in g.nodes:
            for u in g.ball(v, d * stages):
                assert done_delays[u] <= final[v]

    def test_stage_monotonicity(self):
        g = topology.path_graph(8)
        cover = build_ap_cover(g, 1)
        done_delays = {v: 0.0 for v in g.nodes}
        completions = []
        runtime = AsyncRuntime(
            g, make_gather_driver(cover, done_delays, completions, 3),
            ConstantDelay(1.0),
        )
        runtime.run()
        per_node = {}
        for t, v, s in completions:
            per_node.setdefault(v, []).append((s, t))
        for v, stages in per_node.items():
            assert [s for s, _ in stages] == [1, 2, 3]
            times = [t for _, t in stages]
            assert times == sorted(times)

    def test_message_bound(self):
        """O(m * stages * membership) messages (Theorem 3.2)."""
        g = topology.grid_graph(5, 5)
        cover = build_ap_cover(g, 2)
        stages = 2
        done_delays = {v: 0.0 for v in g.nodes}
        completions = []
        runtime = AsyncRuntime(
            g, make_gather_driver(cover, done_delays, completions, stages),
            ConstantDelay(1.0),
        )
        out = runtime.run()
        tree_edges = sum(len(c.parent) - 1 for c in cover.clusters)
        assert out.messages == 2 * tree_edges * stages

    def test_double_done_rejected(self):
        g = topology.path_graph(3)
        cover = build_ap_cover(g, 1)
        module = GatherModule(0, cover, lambda *a: None, lambda s: None)
        module.start()
        module.mark_done()
        with pytest.raises(ValueError, match="twice"):
            module.mark_done()

    def test_zero_stages_rejected(self):
        g = topology.path_graph(3)
        cover = build_ap_cover(g, 1)
        with pytest.raises(ValueError):
            GatherModule(0, cover, lambda *a: None, lambda s: None, num_stages=0)


class TestLinkPairResolution:
    """The aggregation module shares the registration module's half-missing
    links/send_link warning (DESIGN.md §10)."""

    def _make(self, **kwargs):
        view = {0: ClusterView(0, parent=None, children=())}
        return ClusterAggregateModule(
            0, view, lambda *a: None, lambda *a: None,
            lambda tag: min_merge, lambda tag: (0,), **kwargs,
        )

    def test_links_without_send_link_warns(self):
        with pytest.warns(RuntimeWarning, match="'links' supplied without 'send_link'"):
            self._make(links={0: 0})

    def test_send_link_without_links_warns(self):
        with pytest.warns(RuntimeWarning, match="'send_link' supplied without 'links'"):
            self._make(send_link=lambda *a: None)

    def test_both_or_neither_do_not_warn(self, recwarn):
        self._make()
        self._make(links={0: 0}, send_link=lambda *a: None)
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]
