"""Tests for the general deterministic synchronizer (Section 5).

The theorem being checked (Theorem 5.2): the asynchronous execution produces
exactly the messages/outputs of the synchronous one, for every event-driven
program, under every adversary.
"""

import pytest

from repro.apps.programs import (
    bfs_spec,
    broadcast_echo_spec,
    flood_max_spec,
    multi_bfs_spec,
    neighbor_sum_spec,
    pulse_wave_spec,
    standard_programs,
)
from repro.net.program import sampled_initiators
from repro.core import (
    RecoverySynchronizerProcess,
    SynchronizerSweep,
    pulse_bound_for,
    registry_for_threshold,
    run_synchronized,
)
from repro.core.gate import RELEASED_FLOW
from repro.core.synchronizer import (
    OP_APP,
    OP_VFLOW,
    SynchronizerNode,
    SynchronizerProcess,
)
from repro.net import (
    AsyncRuntime,
    ConstantDelay,
    NodeProgram,
    ProgramSpec,
    UniformDelay,
    all_nodes_initiate,
    run_synchronous,
    standard_adversaries,
    topology,
)

ADVERSARIES = standard_adversaries(seed=41)
FAMILIES = ["path", "grid", "er_sparse", "tree", "barbell"]


class TestTheorem52Equivalence:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_all_programs_all_adversaries(self, family):
        g = topology.make_topology(family, 16, seed=1)
        for spec in standard_programs(g):
            sync = run_synchronous(g, spec)
            for model in ADVERSARIES[:4]:
                result = run_synchronized(g, spec, model)
                assert result.outputs == sync.outputs, (family, spec.name, repr(model))

    @pytest.mark.parametrize("model", ADVERSARIES, ids=repr)
    def test_deep_program_every_adversary(self, model):
        g = topology.path_graph(14)
        spec = broadcast_echo_spec(0)
        sync = run_synchronous(g, spec)
        result = run_synchronized(g, spec, model)
        assert result.outputs == sync.outputs

    def test_pulse_wave(self):
        g = topology.grid_graph(4, 4)
        spec = pulse_wave_spec()
        sync = run_synchronous(g, spec)
        result = run_synchronized(g, spec, ADVERSARIES[5])
        assert result.outputs == sync.outputs

    def test_single_node(self):
        from repro.net import Graph

        class Lonely(NodeProgram):
            def on_start(self, api):
                api.set_output("done")

        g = Graph(1, [])
        spec = ProgramSpec("lonely", Lonely, all_nodes_initiate)
        result = run_synchronized(g, spec, ConstantDelay(1.0), max_pulse=2)
        assert result.outputs == {0: "done"}


class TestOverheads:
    def test_message_overhead_polylog_shape(self):
        """Theorem 5.3: M(A') within polylog of M(A) + m."""
        import math

        for n in (16, 32):
            g = topology.cycle_graph(n)
            spec = bfs_spec(0)
            sync = run_synchronous(g, spec)
            result = run_synchronized(g, spec, ConstantDelay(1.0))
            budget = (sync.messages + g.num_edges) * 60 * math.log2(n) ** 2
            assert result.messages <= budget

    def test_time_overhead_polylog_shape(self):
        import math

        g = topology.path_graph(24)
        spec = bfs_spec(0)
        sync = run_synchronous(g, spec)
        result = run_synchronized(g, spec, ConstantDelay(1.0))
        assert result.time_to_output <= 60 * sync.rounds_to_output * math.log2(
            g.num_nodes
        ) ** 2

    def test_registry_and_bound_reuse(self):
        g = topology.grid_graph(4, 4)
        spec = flood_max_spec()
        bound = pulse_bound_for(g, spec)
        registry = registry_for_threshold(g, bound)
        result = run_synchronized(
            g, spec, ADVERSARIES[1], registry=registry, max_pulse=bound
        )
        assert result.outputs == run_synchronous(g, spec).outputs


class TestContractEnforcement:
    def test_non_event_driven_program_rejected(self):
        """A program that sends without a trigger breaks the model (App. B)."""

        class Rogue(NodeProgram):
            def __init__(self, info):
                super().__init__(info)
                self.fired = False

            def on_start(self, api):
                api.send(self.info.neighbors[0], "a")

            def on_pulse(self, api, arrived):
                # Sends at every pulse whether or not triggered — but the
                # runtime only pulses triggered nodes, so this stays legal.
                if arrived and not self.fired:
                    self.fired = True
                    api.send(self.info.neighbors[0], "b")

        g = topology.path_graph(3)
        spec = ProgramSpec("ok", Rogue, all_nodes_initiate)
        result = run_synchronized(g, spec, ConstantDelay(1.0))
        assert result.stop_reason == "quiescent"

    def test_max_pulse_must_be_power_of_two(self):
        g = topology.path_graph(4)
        with pytest.raises(ValueError, match="power of two"):
            run_synchronized(g, bfs_spec(0), ConstantDelay(1.0), max_pulse=3)
        # Checked once at bind: a sweep fails at construction, not at the
        # first run.
        for bad in (3, 0):
            with pytest.raises(ValueError, match="power of two"):
                SynchronizerSweep(g, bfs_spec(0), max_pulse=bad)

    @pytest.mark.parametrize("other", [
        32, 8, pytest.param(None, id="hand-built-star"),
    ])
    def test_registry_for_another_graph_rejected(self, other, star_registry):
        # Checked once at bind: a registry built for cycle(32) or cycle(8),
        # or a hand-built star whose tree edges are no links of cycle(16),
        # used to construct, then raise a bare KeyError at the first run.
        g = topology.cycle_graph(16)
        if other is None:
            registry, match = star_registry(g), r"tree edge \(2, 0\) not in graph"
        else:
            registry = registry_for_threshold(topology.cycle_graph(other), 32)
            match = "built for another graph"
        with pytest.raises(ValueError, match=match):
            SynchronizerSweep(g, bfs_spec(0), registry=registry)
        # A registry built from an equal graph object is accepted.
        equal = registry_for_threshold(topology.cycle_graph(16), 32)
        result = SynchronizerSweep(g, bfs_spec(0), registry=equal).run(
            ConstantDelay(1.0))
        assert result.outputs == run_synchronous(g, bfs_spec(0)).outputs

    def test_pulse_bound_exceeded_raises(self):
        g = topology.path_graph(10)
        with pytest.raises(RuntimeError, match="pulse bound"):
            run_synchronized(g, bfs_spec(0), ConstantDelay(1.0), max_pulse=2)


class TestSampledInitiators:
    """The n=512+ sweep workload ingredient (ROADMAP / DESIGN.md §8)."""

    def test_sample_is_deterministic_and_evenly_spaced(self):
        g = topology.cycle_graph(48)
        picked = sampled_initiators(4)(g)
        assert picked == {0, 12, 24, 36}
        assert sampled_initiators(4)(g) == picked

    def test_sample_clamps_to_graph_size(self):
        g = topology.path_graph(3)
        assert sampled_initiators(16)(g) == {0, 1, 2}
        with pytest.raises(ValueError, match="at least one"):
            sampled_initiators(0)

    def test_multi_bfs_matches_truth_under_synchronizer(self):
        g = topology.cycle_graph(48)
        spec = multi_bfs_spec(4)
        sources = spec.initiators(g)
        truth = g.bfs_distances(sources)
        for model in (ADVERSARIES[0], ADVERSARIES[2], ADVERSARIES[3]):
            result = run_synchronized(g, spec, model)
            for v in g.nodes:
                assert result.outputs[v][0] == truth[v], repr(model)

    def test_multi_bfs_message_volume_near_linear(self):
        # The point of sampling: an all-initiator flood costs Θ(n²) on a
        # cycle, the sampled multi-source BFS stays near-linear.
        g = topology.cycle_graph(128)
        sampled = run_synchronized(g, multi_bfs_spec(16), ConstantDelay(1.0))
        flooded = run_synchronized(g, flood_max_spec(), ConstantDelay(1.0))
        assert sampled.messages < flooded.messages / 4


class TestDeterminism:
    def test_identical_reruns(self):
        g = topology.grid_graph(4, 4)
        spec = neighbor_sum_spec()
        a = run_synchronized(g, spec, ADVERSARIES[2])
        b = run_synchronized(g, spec, ADVERSARIES[2])
        assert a.outputs == b.outputs
        assert a.messages == b.messages
        assert a.time_to_quiescence == b.time_to_quiescence

    @pytest.mark.parametrize("host", ["synchronizer", "thresholded_bfs"])
    def test_initiator_terminus_contributes_in_cluster_id_order(
            self, monkeypatch, host):
        """At pulse 0 an initiator's deregistration contributions leave in
        ascending cluster-id order, not in the hash order of the pending
        set, so the schedule follows the ids' order, not their values.
        Both hosts reach the shared pulse-0 terminus of the gate module."""
        from repro.core import run_thresholded_bfs
        from repro.core.cluster_ops import ClusterAggregateModule
        from repro.core.gate import AGG_SDEREG, PulseGate

        terminus = PulseGate._terminus
        contribute = ClusterAggregateModule.contribute
        # (agg, cids) of the pulse-0 terminus running now; only its
        # source-deregistration contributions count (a thresholded BFS's
        # terminus at the threshold also joins the checking stage).
        open_calls = []
        orders = []

        def spy_terminus(self, at, q, flow):
            if at.pulse != 0:
                return terminus(self, at, q, flow)
            open_calls.append((self.agg, []))
            try:
                terminus(self, at, q, flow)
            finally:
                orders.append(open_calls.pop()[1])

        def spy_contribute(self, cluster_id, tag, value):
            if (open_calls and open_calls[-1][0] is self
                    and tag & 3 == AGG_SDEREG):
                open_calls[-1][1].append(cluster_id)
            return contribute(self, cluster_id, tag, value)

        monkeypatch.setattr(PulseGate, "_terminus", spy_terminus)
        monkeypatch.setattr(
            ClusterAggregateModule, "contribute", spy_contribute)
        g = topology.cycle_graph(512)
        if host == "synchronizer":
            result = run_synchronized(g, multi_bfs_spec(16), ConstantDelay())
        else:
            result = run_thresholded_bfs(
                g, range(0, 512, 32), 16, ConstantDelay()).result
        assert result.outputs
        assert any(len(cids) > 1 for cids in orders)
        assert all(cids == sorted(cids) for cids in orders)

    def test_terminus_order_is_id_order_where_set_order_differs(self):
        """A pulse-0 terminus whose pending set iterates out of id order:
        the ids ``5 << 24 | 7`` and ``5 << 24 | 9`` hash to slots 7 and 1
        of a small set, so hash order is 9 before 7.  The gate must still
        contribute 7 first."""
        from repro.core.gate import AGG_SDEREG, Flow, PulseGate, Vertex

        low, high = 5 << 24 | 7, 5 << 24 | 9

        class TwoClusters:
            """Registry stub: the node is a member of two level-5 clusters
            and has no cluster-tree views (the aggregation is recorded)."""

            def views_of(self, node, levels):
                return {}

            def clamp_level(self, level):
                return 5

            def member_clusters(self, node, level):
                return (low, high)

            tree_clusters_of = member_clusters

            def is_member(self, node, cid):
                return True

        class Recorder:
            def __init__(self):
                self.calls = []

            def contribute(self, cid, tag, value):
                self.calls.append((cid, tag))

        class Source(Vertex):
            __slots__ = ("pulse", "flows")

            def __init__(self):
                self.pulse = 0
                self.flows = {}

        gate = PulseGate(0, TwoClusters(), 8, (5,), links={},
                         send_link=lambda *a: None)
        gate.agg = Recorder()
        gate._start_base_barriers(is_source=True)
        assert list({low, high}) == [high, low]
        for q in gate._base_pulses:
            gate.agg.calls.clear()
            gate._terminus(Source(), q, Flow())
            sdereg = [cid for cid, tag in gate.agg.calls
                      if tag == q << 2 | AGG_SDEREG]
            assert sdereg == [low, high], q


class TestReleasedFlows:
    """A flow whose Go-Ahead has walked past its vnode keeps only the
    shared released-flow tombstone (DESIGN.md §10)."""

    def _run(self, graph, process=SynchronizerProcess):
        runtime = AsyncRuntime(
            graph, process.bind(graph, bfs_spec(0)), UniformDelay(seed=5))
        assert runtime.run().stop_reason == "quiescent"
        return [p.node for p in runtime.processes.values()]

    @pytest.mark.parametrize("graph", [
        topology.cycle_graph(32), topology.grid_graph(6, 6)], ids=repr)
    def test_every_released_flow_is_the_tombstone(self, graph, monkeypatch):
        release_down = SynchronizerNode._release_down
        released = []

        def recording_release_down(self, vnode, q):
            released.append((vnode, q))
            release_down(self, vnode, q)

        monkeypatch.setattr(
            SynchronizerNode, "_release_down", recording_release_down)
        self._run(graph)
        assert released
        assert all(vnode.flows[q] is RELEASED_FLOW for vnode, q in released)

    def test_late_report_for_a_released_flow_is_a_duplicate(self):
        node, vnode, q = next(
            (node, vnode, q) for node in self._run(topology.cycle_graph(32))
            for vnode in node.vnodes.values() if vnode.children
            for q, flow in sorted(vnode.flows.items())
            if flow is RELEASED_FLOW and q > vnode.pulse + 1)
        with pytest.raises(AssertionError, match="duplicate flow report"):
            node._handle_vflow(
                vnode.children[0], (OP_VFLOW, vnode.pulse, q, False))

    def test_recovery_prune_skips_tombstones(self):
        nodes = self._run(topology.cycle_graph(32), RecoverySynchronizerProcess)
        node, vnode = next(
            (node, vnode) for node in nodes
            for vnode in node.vnodes.values()
            if vnode.children and RELEASED_FLOW in vnode.flows.values())
        released = {q: f for q, f in vnode.flows.items() if f is RELEASED_FLOW}
        dead = vnode.children[0]
        node.prune_neighbor(dead)
        assert dead not in vnode.children
        assert {q: vnode.flows[q] for q in released} == released


class TestRecoveryNodePrune:
    """``RecoverySynchronizerNode.prune_neighbor`` on a vnode whose sends
    still wait for the dead neighbor's acknowledgment (DESIGN.md §11)."""

    def test_prune_cancels_an_outstanding_ack_once(self):
        graph = topology.cycle_graph(16)
        runtime = AsyncRuntime(
            graph, RecoverySynchronizerProcess.bind(graph, bfs_spec(0)),
            UniformDelay(seed=5))
        assert runtime.run(max_events=1000).stop_reason == "max_events"
        node, pulse = next(
            (p.node, pulse) for p in runtime.processes.values()
            for pulse, vnode in p.node.vnodes.items()
            if vnode.sent and p.node._ack_wait[pulse])
        vnode = node.vnodes[pulse]
        dead = min(node._ack_wait[pulse])
        pending = vnode.sends_pending
        node.prune_neighbor(dead)
        assert dead not in node._ack_wait[pulse]
        assert dead not in node._ans_wait[pulse]
        assert vnode.sends_pending == pending - 1
        state = (vnode.sends_pending, vnode.answers_missing)
        # Idempotent, and a late transport ack from the pruned neighbor
        # does not count a second time.
        node.prune_neighbor(dead)
        node.on_delivered(dead, (OP_APP, pulse, None))
        assert (vnode.sends_pending, vnode.answers_missing) == state
