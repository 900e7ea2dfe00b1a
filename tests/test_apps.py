"""Tests for the applications: leader election (Cor 1.3) and MST (Cor 1.4)."""

import pytest

from repro.apps import (
    ElectionStructure,
    leader_election_spec,
    mst_edges_from_outputs,
    mst_spec,
    reference_mst,
)
from repro.baselines import run_alpha, run_beta, run_gamma
from repro.core import run_synchronized
from repro.net import run_synchronous, standard_adversaries, topology

ADVERSARIES = standard_adversaries(seed=61)


class TestLeaderElectionSynchronous:
    @pytest.mark.parametrize("family", ["path", "grid", "er_sparse", "tree", "star", "barbell"])
    def test_everyone_elects_minimum(self, family):
        g = topology.make_topology(family, 18, seed=2)
        spec = leader_election_spec(ElectionStructure.build(g))
        result = run_synchronous(g, spec)
        assert result.outputs == {v: 0 for v in g.nodes}

    def test_message_complexity_near_linear(self):
        import math

        g = topology.cycle_graph(32)
        spec = leader_election_spec(ElectionStructure.build(g))
        result = run_synchronous(g, spec)
        assert result.messages <= 40 * g.num_edges * math.log2(g.num_nodes) ** 2

    def test_time_complexity_near_diameter(self):
        import math

        g = topology.cycle_graph(32)
        spec = leader_election_spec(ElectionStructure.build(g))
        result = run_synchronous(g, spec)
        d = g.diameter()
        assert result.rounds_to_output <= 20 * d * math.log2(g.num_nodes)

    def test_single_node(self):
        from repro.net import Graph

        g = Graph(1, [])
        spec = leader_election_spec(ElectionStructure.build(g))
        result = run_synchronous(g, spec)
        assert result.outputs == {0: 0}


class TestLeaderElectionAsynchronous:
    """Corollary 1.3: election + the deterministic synchronizer."""

    @pytest.mark.parametrize("model", ADVERSARIES[:5], ids=repr)
    def test_under_synchronizer(self, model):
        g = topology.grid_graph(4, 4)
        spec = leader_election_spec(ElectionStructure.build(g))
        result = run_synchronized(g, spec, model)
        assert result.outputs == {v: 0 for v in g.nodes}

    def test_under_baselines(self):
        g = topology.random_tree(14, seed=8)
        spec = leader_election_spec(ElectionStructure.build(g))
        for runner in (run_alpha, run_beta, run_gamma):
            result = runner(g, spec, ADVERSARIES[2])
            assert result.outputs == {v: 0 for v in g.nodes}


class TestMstSynchronous:
    @pytest.mark.parametrize("family", ["grid", "er_sparse", "er_dense", "tree", "cycle", "barbell"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_kruskal(self, family, seed):
        g = topology.with_random_weights(
            topology.make_topology(family, 18, seed=seed), seed=seed + 40
        )
        result = run_synchronous(g, mst_spec())
        assert mst_edges_from_outputs(result.outputs) == reference_mst(g)
        assert set(result.outputs) == set(g.nodes)

    def test_every_node_knows_incident_edges_only(self):
        g = topology.with_random_weights(topology.grid_graph(3, 3), seed=5)
        result = run_synchronous(g, mst_spec())
        for v, edges in result.outputs.items():
            for a, b in edges:
                assert v in (a, b)

    def test_message_complexity_m_log_n(self):
        import math

        g = topology.with_random_weights(topology.erdos_renyi_graph(32, 0.2, 3), seed=9)
        result = run_synchronous(g, mst_spec())
        assert result.messages <= 20 * g.num_edges * math.log2(g.num_nodes)

    def test_tree_input_is_its_own_mst(self):
        g = topology.with_random_weights(topology.random_tree(16, 4), seed=1)
        result = run_synchronous(g, mst_spec())
        assert mst_edges_from_outputs(result.outputs) == g.edges


class TestMstAsynchronous:
    """Corollary 1.4: MST + the deterministic synchronizer."""

    @pytest.mark.parametrize("model", ADVERSARIES[:4], ids=repr)
    def test_under_synchronizer(self, model):
        g = topology.with_random_weights(topology.grid_graph(4, 4), seed=9)
        result = run_synchronized(g, mst_spec(), model)
        assert mst_edges_from_outputs(result.outputs) == reference_mst(g)

    def test_under_baselines(self):
        g = topology.with_random_weights(topology.erdos_renyi_graph(14, 0.2, 7), seed=3)
        want = reference_mst(g)
        for runner in (run_alpha, run_beta, run_gamma):
            result = runner(g, mst_spec(), ADVERSARIES[3])
            assert mst_edges_from_outputs(result.outputs) == want

    def test_sync_async_output_identical(self):
        g = topology.with_random_weights(topology.cycle_graph(12), seed=2)
        sync = run_synchronous(g, mst_spec())
        result = run_synchronized(g, mst_spec(), ADVERSARIES[1])
        assert result.outputs == sync.outputs
