"""End-to-end integration: the full stack at moderate scale.

These are the closest runs to "using the library in anger": bigger graphs,
application pipelines, and cross-checks between the independent paths
through the codebase (dedicated BFS machinery vs. synchronized BFS program).
"""

from repro.apps import (
    ElectionStructure,
    bfs_spec,
    leader_election_spec,
    mst_edges_from_outputs,
    mst_spec,
    reference_mst,
)
from repro.core import (
    registry_for_threshold,
    run_full_bfs,
    run_synchronized,
    run_thresholded_bfs,
)
from repro.net import SlowEdgesDelay, UniformDelay, run_synchronous, topology


class TestModerateScale:
    def test_full_bfs_on_64_node_graph(self):
        g = topology.erdos_renyi_graph(64, 3.0 / 64, seed=17)
        outcome = run_full_bfs(g, 0, UniformDelay(seed=17))
        expected = g.bfs_distances(0)
        assert all(outcome.distances[v] == expected[v] for v in g.nodes)

    def test_two_bfs_implementations_agree(self):
        """The dedicated Section-4 machinery and the Section-5 synchronizer
        running the BFS *program* must compute identical distances."""
        g = topology.grid_graph(5, 5)
        model = UniformDelay(seed=3)
        machinery = run_thresholded_bfs(g, 0, 8, model)
        program = run_synchronized(g, bfs_spec(0), model)
        for v in g.nodes:
            dist, _ = program.outputs[v]
            assert machinery.distances[v] == dist

    def test_election_then_bfs_from_leader(self):
        """Pipeline: elect a leader, then BFS from it."""
        g = topology.erdos_renyi_graph(30, 0.1, seed=9)
        model = SlowEdgesDelay(seed=2)
        election = run_synchronized(
            g, leader_election_spec(ElectionStructure.build(g)), model
        )
        leaders = set(election.outputs.values())
        assert leaders == {0}
        leader = leaders.pop()
        outcome = run_full_bfs(g, leader, model)
        expected = g.bfs_distances(leader)
        assert all(outcome.distances[v] == expected[v] for v in g.nodes)

    def test_mst_on_40_nodes_with_slow_edges(self):
        g = topology.with_random_weights(
            topology.erdos_renyi_graph(40, 0.08, seed=21), seed=22
        )
        result = run_synchronized(g, mst_spec(), SlowEdgesDelay(seed=8))
        assert mst_edges_from_outputs(result.outputs) == reference_mst(g)

    def test_shared_registry_many_protocols(self):
        """One registry serving thresholded BFS runs from many sources."""
        g = topology.torus_graph(5, 5)
        registry = registry_for_threshold(g, 4)
        model = UniformDelay(seed=5)
        for source in (0, 7, 13, 24):
            outcome = run_thresholded_bfs(g, source, 4, model, registry=registry)
            expected = g.bfs_distances(source)
            for v in g.nodes:
                want = expected[v] if expected[v] <= 4 else float("inf")
                assert outcome.distances[v] == want


class TestCostAccountingConsistency:
    def test_ack_count_equals_message_count(self):
        """Appendix B: exactly one acknowledgment per delivered message."""
        g = topology.grid_graph(4, 4)
        outcome = run_thresholded_bfs(g, 0, 4, UniformDelay(seed=1))
        assert outcome.result.acks == outcome.result.messages

    def test_quiescence_never_precedes_output(self):
        g = topology.cycle_graph(20)
        outcome = run_full_bfs(g, 0, UniformDelay(seed=2))
        assert outcome.result.time_to_quiescence >= outcome.result.time_to_output

    def test_synchronous_baseline_is_cheapest(self):
        """Sanity: no synchronizer beats the synchronous message count."""
        g = topology.grid_graph(4, 4)
        spec = bfs_spec(0)
        sync = run_synchronous(g, spec)
        result = run_synchronized(g, spec, UniformDelay(seed=4))
        assert result.messages > sync.messages
