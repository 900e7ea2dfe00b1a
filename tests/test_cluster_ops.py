"""Tests for tree aggregation (cluster_ops) and cover gathering (Thm 3.1/3.2)."""

import random

import pytest

from repro.apps.programs import bfs_spec
from repro.core import SynchronizerSweep
from repro.core.cluster_ops import (
    _RETIRED,
    _InstanceState,
    _TreeLinks,
    OP_AGG_DOWN,
    OP_AGG_UP,
    ClusterAggregateModule,
    and_merge,
    min_merge,
)
from repro.core.gather import GatherModule
from repro.core.recovery import RecoverySynchronizerProcess
from repro.core.registration import ClusterView, cluster_views_for, pack_key
from repro.covers import bfs_cluster_tree, build_ap_cover
from repro.net import (
    AsyncRuntime,
    ConstantDelay,
    FaultSchedule,
    Process,
    UniformDelay,
    standard_adversaries,
    topology,
)
from repro.net.delays import BimodalDelay
from repro.net.shard import digest_outputs

#: The link table of a module driven without a transport: the link toward
#: node ``v`` has id ``v``, so a recorded ``send_link`` reads as node ids.
LINKS = {v: v for v in range(16)}


def make_agg_driver(tree, values, on_results):
    """Every node contributes values[node] after a scripted delay."""

    class Driver(Process):
        def __init__(self, ctx):
            super().__init__(ctx)
            views = cluster_views_for({0: tree}, ctx.node_id)
            self.module = ClusterAggregateModule(
                node_id=ctx.node_id,
                clusters=views,
                on_result=lambda cid, tag, result: on_results.append(
                    (self.ctx.now, ctx.node_id, result)
                ),
                merge=min_merge,
                priority_fn=lambda tag: (0,),
                links=ctx.links,
                send_link=ctx.send_link,
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
            0, view, lambda *a: None,
            min_merge, lambda tag: (0,), LINKS, lambda *a: None,
        )
        module.contribute(0, "t", 1)
        with pytest.raises(ValueError, match="double-contributes"):
            module.contribute(0, "t", 2)

    def test_merges(self):
        assert and_merge(True, False) is False
        assert and_merge(True, True) is True
        assert min_merge(None, 3) == 3
        assert min_merge(2, None) == 2
        assert min_merge(5, 3) == 3


class TestInstanceRetirement:
    """A finished instance leaves only the shared tombstone behind, and
    the tombstone still enforces exactly-once delivery (DESIGN.md §10)."""

    def _module(self, views, results, sent):
        return ClusterAggregateModule(
            0, views,
            lambda cid, tag, result: results.append((cid, tag, result)),
            min_merge, lambda tag: (0,), LINKS,
            lambda lid, payload, priority: sent.append((lid, payload)),
        )

    def test_finished_instance_leaves_only_the_tombstone(self):
        # The root of a two-node cluster has its own value but still misses
        # its child's; a single-node cluster finishes at once.
        results = []
        module = self._module({
            0: ClusterView(0, parent=None, children=(1,)),
            1: ClusterView(1, parent=None, children=()),
        }, results, [])
        waiting, single = pack_key(0, "t"), pack_key(1, "t")
        module.contribute(0, "t", 4)
        module.contribute(1, "t", 9)
        assert results == [(1, "t", 9)]
        assert module._instances[single] is _RETIRED
        assert module._instances[waiting] is not _RETIRED
        module.handle_up(1, (OP_AGG_UP, waiting, 2))
        assert results == [(1, "t", 9), (0, "t", 2)]
        assert module._instances == {waiting: _RETIRED, single: _RETIRED}

    def test_retired_instance_rejects_late_traffic(self):
        # A relay between parent 9 and child 1: it forwards up, takes the
        # broadcast, passes it down and retires.
        results, sent = [], []
        module = self._module(
            {0: ClusterView(0, parent=9, children=(1,))}, results, sent)
        key = pack_key(0, "t")
        module.contribute(0, "t", 4)
        module.handle_up(1, (OP_AGG_UP, key, 2))
        module.handle_down(9, (OP_AGG_DOWN, key, 2))
        assert sent == [(9, (OP_AGG_UP, key, 2)), (1, (OP_AGG_DOWN, key, 2))]
        assert results == [(0, "t", 2)]
        assert module._instances == {key: _RETIRED}
        with pytest.raises(ValueError, match="double-contributes"):
            module.contribute(0, "t", 5)
        with pytest.raises(ValueError, match="convergecast value from 1"):
            module.handle_up(1, (OP_AGG_UP, key, 2))
        with pytest.raises(ValueError, match="broadcast result from 9"):
            module.handle_down(9, (OP_AGG_DOWN, key, 2))
        assert results == [(0, "t", 2)]  # on_result never fires twice
        assert len(sent) == 2

    def test_instance_with_pruned_child_is_kept(self):
        # The late-value guard of DESIGN.md §15 needs the pruned slot.
        results = []
        module = self._module(
            {0: ClusterView(0, parent=None, children=(1, 2))}, results, [])
        key = pack_key(0, "t")
        module.contribute(0, "t", 4)
        module.handle_up(2, (OP_AGG_UP, key, 3))
        module.prune_child(1)
        assert results == [(0, "t", 3)]
        assert module._instances[key] is not _RETIRED
        module.handle_up(1, (OP_AGG_UP, key, 0))  # dropped, not raised
        assert results == [(0, "t", 3)]

    def test_synchronized_run_retires_every_instance(self):
        graph = topology.cycle_graph(64)
        sweep = SynchronizerSweep(graph, bfs_spec(0))
        runtime = sweep._sweep.runtime(UniformDelay(seed=5))
        assert runtime.run().stop_reason == "quiescent"
        aggs = [p.node.agg for p in runtime.processes.values()]
        assert sum(agg.messages_sent for agg in aggs) > 0
        for agg in aggs:
            assert agg._instances
            assert all(inst is _RETIRED for inst in agg._instances.values())
            # Outside its instances a module holds only its cluster views:
            # no container that grows with the tags (pulses) of the run.
            for name, value in vars(agg).items():
                if name != "_instances" and isinstance(value, (dict, list, set)):
                    assert len(value) <= len(agg._pristine_clusters), name

    def test_churn_run_keeps_only_pruned_slots_and_bounded_link_cache(
            self, monkeypatch):
        # Crashes, certain rejoins and flapping links on cycle(64), with the
        # root's 4-ball protected: orphaned instances stall settled.
        views_built = {}
        set_children = ClusterAggregateModule._set_children

        def recording_set_children(self, children):
            set_children(self, children)
            views_built.setdefault(self, set()).update(
                self.clusters[cid] for cid in children)

        monkeypatch.setattr(
            ClusterAggregateModule, "_set_children", recording_set_children)
        runtime = _churn_cycle64_runtime(None)
        assert runtime.run().stop_reason == "quiescent"
        aggs = [p.node.agg for p in runtime.processes.values()]
        settled = pruned_slots = 0
        for agg in aggs:
            for inst in agg._instances.values():
                if inst is _RETIRED or type(inst) is _InstanceState:
                    continue
                settled += 1
                assert type(inst) is _TreeLinks
                pruned_slots += len(inst.pruned)
            views = set(agg._pristine_clusters.values())
            views |= views_built.get(agg, set())
            assert set(agg._view_links) <= views
        # The run exercises what the bound is about.
        assert views_built and settled and pruned_slots


class TestSettledInstances:
    """Once an instance has sent its value up it keeps only its pruned
    slots, and its guards still raise and drop as before (DESIGN.md §10)."""

    def _relay(self, sent):
        # A relay between parent 9 and children 1 and 2.
        return ClusterAggregateModule(
            0, {0: ClusterView(0, parent=9, children=(1, 2))},
            lambda *a: None, min_merge, lambda tag: (0,), LINKS,
            lambda lid, payload, priority: sent.append((lid, payload)),
        )

    def _settle(self, module, tag="t"):
        key = pack_key(0, tag)
        module.contribute(0, tag, 4)
        module.handle_up(1, (OP_AGG_UP, key, 2))
        module.handle_up(2, (OP_AGG_UP, key, 3))
        assert type(module._instances[key]) is _TreeLinks
        return key

    def test_second_value_from_a_child_is_a_duplicate(self):
        sent = []
        module = self._relay(sent)
        key = self._settle(module)
        with pytest.raises(ValueError, match="duplicate convergecast value from 1"):
            module.handle_up(1, (OP_AGG_UP, key, 0))
        assert sent == [(9, (OP_AGG_UP, key, 2))]

    def test_value_from_a_non_child_is_rejected(self):
        module = self._relay([])
        key = self._settle(module)
        with pytest.raises(ValueError, match="value from non-child 5"):
            module.handle_up(5, (OP_AGG_UP, key, 0))

    def test_readmitted_childs_late_value_is_dropped(self):
        sent = []
        module = self._relay(sent)
        key = pack_key(0, "t")
        module.contribute(0, "t", 4)
        module.handle_up(2, (OP_AGG_UP, key, 3))
        module.prune_child(1)  # the barrier re-closes and forwards up
        instance = module._instances[key]
        assert type(instance) is _TreeLinks
        assert instance.pruned == {1}
        module.readmit_child(1)
        module.handle_up(1, (OP_AGG_UP, key, 0))  # dropped, not raised
        assert sent == [(9, (OP_AGG_UP, key, 3))]
        with pytest.raises(ValueError, match="duplicate convergecast value from 2"):
            module.handle_up(2, (OP_AGG_UP, key, 0))

    def test_prune_filters_the_broadcast_and_the_instance_retires(self):
        sent = []
        module = self._relay(sent)
        key = self._settle(module)
        module.prune_child(2)  # owed nothing: only the broadcast changes
        assert not module._instances[key].pruned
        module.handle_down(9, (OP_AGG_DOWN, key, 2))
        assert sent == [(9, (OP_AGG_UP, key, 2)), (1, (OP_AGG_DOWN, key, 2))]
        assert module._instances == {key: _RETIRED}

    def test_fault_free_settle_shares_the_empty_mapping(self):
        module = self._relay([])
        a = module._instances[self._settle(module, "t")]
        b = module._instances[self._settle(module, "u")]
        assert not a.pruned
        assert not b.pruned
        # Both instances ride the one resolved link tuple of their view.
        assert a.children_links is b.children_links == (1, 2)
        assert len(module._view_links) == 1

    def test_settled_instances_on_one_view_share_one_record(self):
        module = self._relay([])
        a = module._instances[self._settle(module, "t")]
        b = module._instances[self._settle(module, "u")]
        assert a is b is module._view_links[module.clusters[0]]

    def test_prune_gives_a_private_copy_and_leaves_the_shared_record(self):
        sent = []
        module = self._relay(sent)
        t = self._settle(module, "t")
        shared = module._instances[t]
        module.prune_child(2)
        private = module._instances[t]
        assert private is not shared
        assert private.children_links == (1,)
        # The readmitted view resolves to the same, unedited record.
        module.readmit_child(2)
        u = self._settle(module, "u")
        assert module._instances[u] is shared
        del sent[:]
        module.handle_down(9, (OP_AGG_DOWN, t, 2))
        module.handle_down(9, (OP_AGG_DOWN, u, 3))
        assert sent == [
            (1, (OP_AGG_DOWN, t, 2)),
            (1, (OP_AGG_DOWN, u, 3)), (2, (OP_AGG_DOWN, u, 3)),
        ]

    def test_shared_record_keeps_every_guard(self):
        sent, results = [], []
        module = ClusterAggregateModule(
            0, {0: ClusterView(0, parent=9, children=(1, 2))},
            lambda cid, tag, result: results.append((cid, tag, result)),
            min_merge, lambda tag: (0,), LINKS,
            lambda lid, payload, priority: sent.append((lid, payload)),
        )
        t = self._settle(module, "t")
        u = self._settle(module, "u")
        assert module._instances[t] is module._instances[u]
        with pytest.raises(ValueError, match="double-contributes to 0/t"):
            module.contribute(0, "t", 5)
        with pytest.raises(
                ValueError, match="duplicate convergecast value from 2 in 0/t"):
            module.handle_up(2, (OP_AGG_UP, t, 0))
        with pytest.raises(
                ValueError, match="convergecast value from non-child 5 in 0/t"):
            module.handle_up(5, (OP_AGG_UP, t, 0))
        module.handle_down(9, (OP_AGG_DOWN, t, 2))
        with pytest.raises(ValueError, match="broadcast result from 9 for"
                           " finished instance 0/t"):
            module.handle_down(9, (OP_AGG_DOWN, t, 2))
        assert results == [(0, "t", 2)]
        assert module._instances[t] is _RETIRED
        assert module._instances[u] is module._view_links[module.clusters[0]]


def _churn_cycle64_runtime(trace):
    """cycle(64) with crashes, certain rejoins and flapping links, the
    root's 4-ball protected."""
    graph = topology.cycle_graph(64)
    faults = FaultSchedule(
        seed=3, crash_rate=0.1, rejoin_rate=1.0, down_rate=0.05,
        recurrent=True, protect=[v % 64 for v in range(-4, 5)],
    )
    return AsyncRuntime(
        graph, RecoverySynchronizerProcess.bind(graph, bfs_spec(0)),
        UniformDelay(seed=5), faults=faults, trace=trace,
    )


def _sync_runtime(graph):
    return lambda trace: SynchronizerSweep(graph, bfs_spec(0))._sweep.runtime(
        UniformDelay(seed=5), trace=trace)


@pytest.mark.parametrize("build, churn", [
    (_sync_runtime(topology.cycle_graph(64)), False),
    (_sync_runtime(topology.grid_graph(8, 8)), False),
    (_churn_cycle64_runtime, True),
], ids=["sync-cycle64", "sync-grid8x8", "churn-cycle64"])
def test_run_census_settled_instances_share_their_view_record(build, churn):
    """Sampled every 500 deliveries: an instance that has forwarded its
    value up holds no record of its own unless a prune gave it a pruned
    child or filtered links (DESIGN.md §10)."""
    tally = {"samples": 0, "shared": 0, "private": 0}
    deliveries = [0]

    def census():
        tally["samples"] += 1
        for process in runtime.processes.values():
            agg = process.node.agg
            for inst in agg._instances.values():
                if inst is _RETIRED:
                    continue
                if type(inst) is _InstanceState:
                    # Live: it has not forwarded up yet.
                    assert inst.missing or not inst.contributed
                    continue
                shared = agg._view_links[inst.view]
                if inst.pruned or inst.children_links != shared.children_links:
                    tally["private"] += 1
                else:
                    assert inst is shared
                    tally["shared"] += 1

    def trace(now, src, dst, payload):
        deliveries[0] += 1
        if deliveries[0] % 500 == 0:
            census()

    runtime = build(trace)
    assert runtime.run().stop_reason == "quiescent"
    census()
    assert tally["samples"] > 1 and tally["shared"]
    assert bool(tally["private"]) == churn


def make_gather_driver(cover, done_delays, completions, num_stages):
    class Driver(Process):
        def __init__(self, ctx):
            super().__init__(ctx)
            self.module = GatherModule(
                node_id=ctx.node_id,
                cover=cover,
                on_complete=lambda stage: completions.append(
                    (self.ctx.now, ctx.node_id, stage)
                ),
                links=ctx.links,
                send_link=ctx.send_link,
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
        module = GatherModule(0, cover, lambda s: None, LINKS, lambda *a: None)
        module.start()
        module.mark_done()
        with pytest.raises(ValueError, match="twice"):
            module.mark_done()

    def test_zero_stages_rejected(self):
        g = topology.path_graph(3)
        cover = build_ap_cover(g, 1)
        with pytest.raises(ValueError):
            GatherModule(0, cover, lambda s: None, LINKS, lambda *a: None,
                         num_stages=0)


GATHER_PIN_GRAPHS = {
    "grid5x5": lambda: topology.grid_graph(5, 5),
    "cycle16": lambda: topology.cycle_graph(16),
}
GATHER_PIN_MODELS = (UniformDelay(seed=4), BimodalDelay(7))

#: (graph, model index, num_stages) -> (messages, events_fired, digest of
#: the (node, stage) -> completion-time map), over the d = 1 AP cover.
GATHER_PINS = {
    ('grid5x5', 0, 1): (82, 136, '178e6101ce2026dd'),
    ('grid5x5', 0, 3): (246, 316, 'c7594b7196c7aa92'),
    ('grid5x5', 1, 1): (82, 136, '094f5c002d822d3e'),
    ('grid5x5', 1, 3): (246, 319, 'df810a4b2ffa2c93'),
    ('cycle16', 0, 1): (48, 84, '9c061a2b1426b5f9'),
    ('cycle16', 0, 3): (144, 203, 'b979cd1f65cf5d1b'),
    ('cycle16', 1, 1): (48, 85, 'fc9538345f92105c'),
    ('cycle16', 1, 3): (144, 207, '88eb4ce0d1c83fbc'),
}


@pytest.mark.parametrize(
    "cell", sorted(GATHER_PINS), ids=lambda c: "-".join(map(str, c)))
def test_gather_schedule_pinned(cell):
    """The gather driver's schedule, pinned: output checks would not notice
    an aggregation message or event that moves."""
    graph_name, model, stages = cell
    g = GATHER_PIN_GRAPHS[graph_name]()
    cover = build_ap_cover(g, 1)
    rng = random.Random(3)
    done_delays = {v: rng.uniform(0, 10) for v in g.nodes}
    completions = []
    out = AsyncRuntime(
        g, make_gather_driver(cover, done_delays, completions, stages),
        GATHER_PIN_MODELS[model],
    ).run(max_events=1_000_000)
    assert out.stop_reason == "quiescent"
    got = (out.messages, out.events_fired,
           digest_outputs({(v, s): t for t, v, s in completions}))
    assert got == GATHER_PINS[cell]


def test_readmit_does_not_resurrect_evicted_flow_reports():
    """Re-join hygiene (DESIGN.md §15): a barrier that re-closed over the
    survivors when the crash was detected must not accept the returned
    incarnation's late convergecast value after readmission — the evicted
    flow report stays evicted, the result already reported stands, and
    the child participates again only from the next instance onward."""
    results = []
    view = {0: ClusterView(0, parent=None, children=(1,))}
    module = ClusterAggregateModule(
        0, view,
        lambda cid, tag, result: results.append((cid, tag, result)),
        min_merge, lambda tag: (0,), LINKS, lambda *a: None,
    )
    module.contribute(0, 1, 5)     # the root waits on child 1
    assert results == []
    module.prune_child(1)          # crash detected: the barrier re-closes
    assert results == [(0, 1, 5)]  # corpse contributes the identity
    key = next(iter(module._instances))
    module.readmit_child(1)
    assert module.clusters[0].children == (1,)  # topology restored...
    module.handle_up(1, (0, key, 0))            # OP_AGG_UP, late report
    assert results == [(0, 1, 5)]  # ...but the stale word is dropped
    # The readmitted child is addressed again by the *next* instance.
    module.contribute(0, 2, 9)
    assert results == [(0, 1, 5)]  # waiting on child 1's fresh value
    key2 = pack_key(0, 2)
    module.handle_up(1, (0, key2, 3))
    assert results == [(0, 1, 5), (0, 2, 3)]
