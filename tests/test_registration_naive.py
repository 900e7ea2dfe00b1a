"""Tests for the naive (ablation) registration scheme — correctness + congestion."""

import pytest

from repro.core.registration import RegistrationModule, cluster_views_for
from repro.core.registration_naive import NaiveRegistrationModule
from repro.covers import bfs_cluster_tree
from repro.net import AsyncRuntime, ConstantDelay, Graph, Process, UniformDelay, topology
from repro.net.delays import BimodalDelay
from repro.net.shard import digest_outputs


def broom(k):
    edges = [(0, 1)] + [(1, 2 + i) for i in range(k)]
    return Graph(k + 2, edges)


def run(module_cls, graph, tree, registrants, model):
    finished = {}
    registered_at = {}
    dereg_at = {}

    class Driver(Process):
        def __init__(self, ctx):
            super().__init__(ctx)
            views = cluster_views_for({0: tree}, ctx.node_id)
            self.mod = module_cls(
                ctx.node_id, views,
                self._registered, self._go, lambda tag: (0,), ctx.links,
                lambda lid, p, pr: ctx.send_link(lid, p, pr if isinstance(pr, tuple) else (pr,)),
            )

        def _registered(self, c, t):
            registered_at[self.ctx.node_id] = self.ctx.now
            self.ctx.schedule_environment_event(
                0.5, lambda: (dereg_at.__setitem__(self.ctx.node_id, self.ctx.now),
                              self.mod.deregister(c, t)),
            )

        def _go(self, c, t):
            finished[self.ctx.node_id] = self.ctx.now
            self.ctx.set_output("free")

        def on_start(self):
            if self.ctx.node_id in registrants:
                self.mod.register(0, 1)

        def on_message(self, sender, payload):
            assert self.mod.handle(sender, payload)

    runtime = AsyncRuntime(graph, Driver, model)
    result = runtime.run(max_events=20_000_000)
    assert result.stop_reason == "quiescent"
    return finished, registered_at, dereg_at, result


class TestNaiveCorrectness:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_everyone_freed(self, seed):
        g = topology.random_tree(12, seed=seed)
        tree = bfs_cluster_tree(g, 0, members=g.nodes, root=0)
        registrants = set(range(1, 9))
        finished, *_ = run(
            NaiveRegistrationModule, g, tree, registrants, UniformDelay(seed=seed)
        )
        assert set(finished) == registrants

    def test_guarantee_1_holds_for_naive_too(self):
        g = topology.path_graph(8)
        tree = bfs_cluster_tree(g, 0, members=g.nodes, root=0)
        registrants = set(range(2, 8))
        finished, registered_at, dereg_at, _ = run(
            NaiveRegistrationModule, g, tree, registrants, UniformDelay(seed=4)
        )
        for v, t_go in finished.items():
            for u, reg_t in registered_at.items():
                if reg_t < dereg_at[v]:
                    assert dereg_at[u] <= t_go

    def test_api_errors(self):
        from repro.core.registration import ClusterView

        module = NaiveRegistrationModule(
            0, {0: ClusterView(0, None, (1,))},
            lambda *a: None, lambda *a: None, lambda tag: (0,),
            {1: 1}, lambda *a: None,
        )
        module.register(0, 1)
        with pytest.raises(ValueError, match="double"):
            module.register(0, 1)
        with pytest.raises(ValueError, match="before registration"):
            module.deregister(0, 2)
        assert module.handle(1, ("other",)) is False


PIN_GRAPHS = {
    "random12": lambda: (topology.random_tree(12, seed=0), range(1, 9)),
    "broom8": lambda: (broom(8), range(2, 10)),
}
PIN_MODELS = (UniformDelay(seed=4), BimodalDelay(7))

#: (graph, model index) -> (messages, events_fired, output-time digest,
#: output digest) of the naive driver.
PINNED = {
    ('random12', 0): (56, 94, 'aa2a5b586e3b4e4e', '6daf8f1c83a53745'),
    ('random12', 1): (56, 94, '828db7bbd9fd2035', '6daf8f1c83a53745'),
    ('broom8', 0): (64, 107, '23cc335a79a6c0d5', '7ef7dff906533e63'),
    ('broom8', 1): (64, 107, '4e0952c1efd9aca9', '7ef7dff906533e63'),
}


@pytest.mark.parametrize(
    "cell", sorted(PINNED), ids=lambda c: "-".join(map(str, c)))
def test_schedule_pinned(cell):
    """The naive driver's schedule, pinned: every registrant sits below
    the root, so the Go-Aheads retrace recorded registration paths."""
    graph_name, model = cell
    g, registrants = PIN_GRAPHS[graph_name]()
    tree = bfs_cluster_tree(g, 0, members=g.nodes, root=0)
    *_, result = run(
        NaiveRegistrationModule, g, tree, set(registrants), PIN_MODELS[model])
    got = (result.messages, result.events_fired,
           digest_outputs(result.output_time), digest_outputs(result.outputs))
    assert got == PINNED[cell]


class TestCongestionGap:
    def test_naive_is_linear_ours_is_constant(self):
        """The Section 3.2 congestion bug, quantitatively."""
        times = {}
        for k in (8, 64):
            g = broom(k)
            tree = bfs_cluster_tree(g, 0, members=g.nodes, root=0)
            registrants = set(range(2, k + 2))
            naive_fin, *_ = run(
                NaiveRegistrationModule, g, tree, registrants, ConstantDelay(1.0)
            )
            ours_fin, *_ = run(
                RegistrationModule, g, tree, registrants, ConstantDelay(1.0)
            )
            times[k] = (max(naive_fin.values()), max(ours_fin.values()))
        naive_growth = times[64][0] / times[8][0]
        ours_growth = times[64][1] / times[8][1]
        assert naive_growth >= 6  # ~linear in registrants
        assert ours_growth <= 1.5  # ~constant
