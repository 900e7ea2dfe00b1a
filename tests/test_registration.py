"""Tests for the registration abstraction (Section 3.2).

The harness runs :class:`RegistrationModule` over the asynchronous runtime on
a cluster tree, with an environment driver that makes scripted subsets of
nodes register at adversary-chosen times and deregister some time after their
registration completes.  Register Guarantees 1 and 2 (Lemmas 3.4/3.5) are
asserted verbatim on the recorded event timeline, across delay models.
"""

import random

import pytest

from repro.apps.programs import bfs_spec, multi_bfs_spec
from repro.core.bfs_runner import ThresholdedBFSProcess
from repro.core.registration import (
    FREE,
    NONE,
    ClusterView,
    RegistrationModule,
    cluster_views_for,
)
from repro.core.synchronizer import SynchronizerProcess
from repro.covers import bfs_cluster_tree
from repro.net import (
    AsyncRuntime,
    ConstantDelay,
    Process,
    UniformDelay,
    standard_adversaries,
    topology,
)

TAG = 1


def make_tree(kind: str):
    if kind == "path":
        g = topology.path_graph(9)
        return g, bfs_cluster_tree(g, 0, members=g.nodes, root=0)
    if kind == "star":
        g = topology.star_graph(10)
        return g, bfs_cluster_tree(g, 0, members=g.nodes, root=0)
    if kind == "binary":
        g = topology.balanced_tree(2, 3)
        return g, bfs_cluster_tree(g, 0, members=g.nodes, root=0)
    if kind == "random":
        g = topology.random_tree(14, seed=5)
        return g, bfs_cluster_tree(g, 0, members=g.nodes, root=0)
    raise ValueError(kind)


class Timeline:
    """Shared recorder of registration lifecycle events."""

    def __init__(self):
        self.events = []
        self.registered_at = {}
        self.dereg_called_at = {}
        self.go_ahead_at = {}

    def record(self, time, node, kind):
        self.events.append((time, node, kind))
        if kind == "registered":
            self.registered_at[node] = time
        elif kind == "deregister":
            self.dereg_called_at[node] = time
        elif kind == "go_ahead":
            self.go_ahead_at[node] = time


def make_driver(tree, script, timeline):
    """Build a Process class driving the given register/dereg script.

    ``script``: node -> (register_delay, dereg_delay_after_registered).
    """

    class Driver(Process):
        def __init__(self, ctx):
            super().__init__(ctx)
            node = ctx.node_id
            views = cluster_views_for({0: tree}, node)
            self.module = RegistrationModule(
                node_id=node,
                clusters=views,
                send=lambda to, payload, priority: ctx.send(to, payload, priority),
                on_registered=self._on_registered,
                on_go_ahead=self._on_go_ahead,
                priority_fn=lambda tag: (0,),
            )

        def _on_registered(self, cluster_id, tag):
            node = self.ctx.node_id
            timeline.record(self.ctx.now, node, "registered")
            dereg_delay = script[node][1]
            self.ctx.schedule_environment_event(
                dereg_delay, lambda: self._deregister()
            )

        def _deregister(self):
            timeline.record(self.ctx.now, self.ctx.node_id, "deregister")
            self.module.deregister(0, TAG)

        def _on_go_ahead(self, cluster_id, tag):
            timeline.record(self.ctx.now, self.ctx.node_id, "go_ahead")
            self.ctx.set_output("free")

        def on_start(self):
            node = self.ctx.node_id
            if node in script:
                self.ctx.schedule_environment_event(
                    script[node][0], lambda: self.module.register(0, TAG)
                )

        def on_message(self, sender, payload):
            assert self.module.handle(sender, payload)

    return Driver


def run_scripted(tree_kind, script_seed, delay_model, num_registrants=None):
    graph, tree = make_tree(tree_kind)
    rng = random.Random(script_seed)
    nodes = sorted(tree.tree_nodes)
    if num_registrants is None:
        num_registrants = max(1, len(nodes) // 2)
    chosen = rng.sample(nodes, num_registrants)
    script = {
        v: (rng.uniform(0, 20), rng.uniform(0, 20)) for v in chosen
    }
    timeline = Timeline()
    runtime = AsyncRuntime(
        graph, make_driver(tree, script, timeline), delay_model
    )
    result = runtime.run(max_events=2_000_000)
    assert result.stop_reason == "quiescent"
    return script, timeline, result


ADVERSARIES = standard_adversaries(seed=3)


@pytest.mark.parametrize("tree_kind", ["path", "star", "binary", "random"])
@pytest.mark.parametrize("model", ADVERSARIES, ids=repr)
def test_register_guarantees(tree_kind, model):
    script, timeline, _ = run_scripted(tree_kind, script_seed=11, delay_model=model)

    # Everyone who registered eventually got registered, dereg'd, and freed
    # (Guarantee 2 liveness).
    assert set(timeline.registered_at) == set(script)
    assert set(timeline.dereg_called_at) == set(script)
    assert set(timeline.go_ahead_at) == set(script)

    # Guarantee 1: when v receives its Go-Ahead, every node registered before
    # v deregistered has already deregistered.
    for v, t_go in timeline.go_ahead_at.items():
        v_dereg = timeline.dereg_called_at[v]
        for u, u_registered in timeline.registered_at.items():
            if u_registered < v_dereg:
                assert timeline.dereg_called_at[u] <= t_go, (
                    f"{u} registered at {u_registered} (before {v} deregistered"
                    f" at {v_dereg}) but only deregistered at"
                    f" {timeline.dereg_called_at[u]} > go-ahead {t_go}"
                )

    # Sanity: Go-Ahead only after own deregistration (Lemma 3.9 corollary).
    for v, t_go in timeline.go_ahead_at.items():
        assert t_go >= timeline.dereg_called_at[v]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 5, 6, 7])
def test_register_guarantees_many_schedules(seed):
    model = UniformDelay(seed=seed + 100)
    script, timeline, _ = run_scripted("random", script_seed=seed, delay_model=model)
    for v, t_go in timeline.go_ahead_at.items():
        v_dereg = timeline.dereg_called_at[v]
        for u, u_registered in timeline.registered_at.items():
            if u_registered < v_dereg:
                assert timeline.dereg_called_at[u] <= t_go


class TestComplexity:
    def test_single_registration_time_linear_in_height(self):
        """Lemma 3.4: registration and deregistration take O(h) time."""
        for n in (4, 8, 16, 32):
            g = topology.path_graph(n)
            tree = bfs_cluster_tree(g, 0, members=g.nodes, root=0)
            script = {n - 1: (0.0, 1.0)}
            timeline = Timeline()
            runtime = AsyncRuntime(
                g, make_driver(tree, script, timeline), ConstantDelay(1.0)
            )
            runtime.run()
            h = n - 1
            # Register: up + down = 2h; go-ahead after dereg: 2h more.
            assert timeline.registered_at[n - 1] <= 2 * h + 1
            assert timeline.go_ahead_at[n - 1] <= timeline.dereg_called_at[n - 1] + 2 * h + 1

    def test_message_proportionality(self):
        """Lemma 3.5: messages O(#registrants * h), not O(tree size)."""
        g = topology.star_graph(64)
        tree = bfs_cluster_tree(g, 0, members=g.nodes, root=0)
        script = {1: (0.0, 1.0), 2: (0.5, 1.0)}
        timeline = Timeline()
        runtime = AsyncRuntime(
            g, make_driver(tree, script, timeline), ConstantDelay(1.0)
        )
        result = runtime.run()
        # Two registrants at depth 1: a handful of messages, independent of
        # the 63 other leaves.
        assert result.messages <= 16

    def test_pipelined_registrations_share_dirty_path(self):
        """Registrations overlapping on a path reuse the dirty prefix."""
        g = topology.path_graph(16)
        tree = bfs_cluster_tree(g, 0, members=g.nodes, root=0)
        script = {v: (0.0, 5.0) for v in range(8, 16)}
        timeline = Timeline()
        runtime = AsyncRuntime(
            g, make_driver(tree, script, timeline), ConstantDelay(1.0)
        )
        result = runtime.run()
        assert set(timeline.go_ahead_at) == set(script)


class TestApiErrors:
    def _module(self):
        recorded = []
        view = {0: ClusterView(cluster_id=0, parent=None, children=(1,))}
        return RegistrationModule(
            node_id=0,
            clusters=view,
            send=lambda *a: recorded.append(a),
            on_registered=lambda *a: None,
            on_go_ahead=lambda *a: None,
            priority_fn=lambda tag: (0,),
        )

    def test_double_register_rejected(self):
        module = self._module()
        module.register(0, TAG)
        with pytest.raises(ValueError, match="double-register"):
            module.register(0, TAG)

    def test_dereg_before_register_rejected(self):
        module = self._module()
        with pytest.raises(ValueError, match="deregisters"):
            module.deregister(0, TAG)

    def test_unknown_cluster_rejected(self):
        module = self._module()
        with pytest.raises(ValueError, match="not in cluster"):
            module.register(7, TAG)

    def test_foreign_payload_ignored(self):
        module = self._module()
        assert module.handle(1, ("other", "stuff")) is False

    def test_root_self_cycle(self):
        """Root registering and deregistering alone frees itself."""
        events = []
        view = {0: ClusterView(cluster_id=0, parent=None, children=())}
        module = RegistrationModule(
            node_id=0,
            clusters=view,
            send=lambda *a: events.append(("send", a)),
            on_registered=lambda c, t: events.append(("registered", c, t)),
            on_go_ahead=lambda c, t: events.append(("go", c, t)),
            priority_fn=lambda tag: (0,),
        )
        module.register(0, TAG)
        module.deregister(0, TAG)
        assert ("registered", 0, TAG) in events
        assert ("go", 0, TAG) in events
        assert not [e for e in events if e[0] == "send"]


class TestStageRetirement:
    """A stage lives from its first touch until it is terminal-clean, then
    leaves the module (DESIGN.md §10)."""

    def test_finished_stage_reads_none(self):
        seen = []
        view = {0: ClusterView(cluster_id=0, parent=None, children=())}
        module = RegistrationModule(
            node_id=0,
            clusters=view,
            send=lambda *a: None,
            on_registered=lambda *a: None,
            on_go_ahead=lambda c, t: seen.append(module.state_of(c, t)),
            priority_fn=lambda tag: tag,
        )
        module.register(0, TAG)
        module.deregister(0, TAG)
        assert seen == [FREE]  # live through its own Go-Ahead...
        assert module.state_of(0, TAG) == NONE  # ...then retired
        assert module._stages == {}

    @pytest.mark.parametrize("graph", [
        topology.cycle_graph(32), topology.grid_graph(6, 6),
    ], ids=["cycle32", "grid6x6"])
    @pytest.mark.parametrize("spec", [bfs_spec(0), multi_bfs_spec(3)],
                             ids=["bfs", "multi_bfs3"])
    def test_synchronized_runs_retire_every_stage(self, graph, spec):
        process_cls = SynchronizerProcess.bind(graph, spec)
        for model in standard_adversaries(seed=5)[:3]:
            runtime = AsyncRuntime(graph, process_cls, model)
            assert runtime.run().stop_reason == "quiescent"
            regs = [p.node.reg for p in runtime.processes.values()]
            assert sum(reg.messages_sent for reg in regs) > 0
            assert not any(reg._stages for reg in regs)

    @pytest.mark.parametrize("graph", [
        topology.cycle_graph(64), topology.grid_graph(8, 8),
    ], ids=["cycle64", "grid8x8"])
    def test_thresholded_bfs_runs_retire_every_stage(self, graph):
        process_cls = ThresholdedBFSProcess.bind(graph, 0, 16)
        for model in standard_adversaries(seed=5)[:4]:
            runtime = AsyncRuntime(graph, process_cls, model)
            assert runtime.run().stop_reason == "quiescent"
            regs = [p.core.reg for p in runtime.processes.values()]
            assert sum(reg.messages_sent for reg in regs) > 0
            assert not any(reg._stages for reg in regs)


class TestLinkPairResolution:
    """Supplying exactly one of links/send_link is a wiring bug: the module
    silently degrades to node-id sends, so it must at least warn, naming
    the missing half (DESIGN.md §10)."""

    def _make(self, **kwargs):
        view = {0: ClusterView(cluster_id=0, parent=None, children=())}
        return RegistrationModule(
            node_id=0,
            clusters=view,
            send=lambda *a: None,
            on_registered=lambda *a: None,
            on_go_ahead=lambda *a: None,
            priority_fn=lambda tag: (0,),
            **kwargs,
        )

    def test_links_without_send_link_warns(self):
        with pytest.warns(RuntimeWarning, match="'links' supplied without 'send_link'"):
            module = self._make(links={0: 0})
        # ...and the pair degrades to node-id sends as documented.
        assert module._send_link is not None
        module.register(0, TAG)  # runs on the identity fallback

    def test_send_link_without_links_warns(self):
        with pytest.warns(RuntimeWarning, match="'send_link' supplied without 'links'"):
            self._make(send_link=lambda *a: None)

    def test_both_or_neither_do_not_warn(self, recwarn):
        self._make()
        self._make(links={0: 0}, send_link=lambda *a: None)
        assert not [w for w in recwarn.list if issubclass(w.category, RuntimeWarning)]
