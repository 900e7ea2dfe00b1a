"""Tests for the α/β/γ baseline synchronizers (Appendix A)."""

import pytest

from repro.apps.programs import (
    bfs_spec,
    flood_max_spec,
    path_token_spec,
    standard_programs,
)
from repro.baselines import GammaStructure, run_alpha, run_beta, run_gamma
from repro.net import ConstantDelay, run_synchronous, standard_adversaries, topology

ADVERSARIES = standard_adversaries(seed=51)
RUNNERS = [("alpha", run_alpha), ("beta", run_beta), ("gamma", run_gamma)]


class TestEquivalence:
    @pytest.mark.parametrize("name,runner", RUNNERS, ids=["alpha", "beta", "gamma"])
    @pytest.mark.parametrize("family", ["path", "grid", "er_sparse", "tree"])
    def test_outputs_match_synchronous(self, name, runner, family):
        g = topology.make_topology(family, 14, seed=3)
        for spec in standard_programs(g):
            sync = run_synchronous(g, spec)
            result = runner(g, spec, ADVERSARIES[3])
            assert result.outputs == sync.outputs, (name, family, spec.name)

    @pytest.mark.parametrize("name,runner", RUNNERS, ids=["alpha", "beta", "gamma"])
    @pytest.mark.parametrize("model", ADVERSARIES, ids=repr)
    def test_every_adversary(self, name, runner, model):
        g = topology.grid_graph(3, 4)
        spec = flood_max_spec()
        sync = run_synchronous(g, spec)
        assert runner(g, spec, model).outputs == sync.outputs


class TestCostCharacteristics:
    def test_alpha_message_blowup_is_per_round_per_edge(self):
        """Appendix A: alpha sends safety over every edge every pulse —
        messages ~ M(A) + 2*T*m."""
        g = topology.path_graph(20)
        spec = path_token_spec(0)  # one message per round: worst case for alpha
        sync = run_synchronous(g, spec)
        result = run_alpha(g, spec, ConstantDelay(1.0))
        expected_floor = 2 * g.num_edges * (sync.rounds_total - 1)
        assert result.messages >= expected_floor
        assert result.messages <= sync.messages + 2 * g.num_edges * (sync.rounds_total + 1)

    def test_alpha_time_overhead_constant(self):
        g = topology.path_graph(16)
        spec = bfs_spec(0)
        sync = run_synchronous(g, spec)
        result = run_alpha(g, spec, ConstantDelay(1.0))
        # O(1) overhead per pulse: ~4 time units (send+ack, safe+implicit).
        assert result.time_to_output <= 8 * sync.rounds_to_output + 8

    def test_beta_message_blowup_is_per_round_per_node(self):
        """beta: ~2n messages per pulse along the tree."""
        g = topology.path_graph(20)
        spec = path_token_spec(0)
        sync = run_synchronous(g, spec)
        result = run_beta(g, spec, ConstantDelay(1.0))
        n = g.num_nodes
        assert result.messages <= sync.messages + 3 * n * (sync.rounds_total + 2)

    def test_beta_time_overhead_is_diameter(self):
        """beta pays a tree round-trip (~2D) per pulse."""
        g = topology.path_graph(16)
        spec = bfs_spec(0)
        sync = run_synchronous(g, spec)
        result = run_beta(g, spec, ConstantDelay(1.0))
        depth = g.num_nodes - 1
        assert result.time_to_output >= sync.rounds_to_output * 1.5
        assert result.time_to_output <= 6 * depth * (sync.rounds_total + 1)

    def test_gamma_between_alpha_and_beta_in_time(self):
        g = topology.path_graph(24)
        spec = bfs_spec(0)
        alpha_t = run_alpha(g, spec, ConstantDelay(1.0)).time_to_output
        beta_t = run_beta(g, spec, ConstantDelay(1.0)).time_to_output
        gamma_t = run_gamma(g, spec, ConstantDelay(1.0)).time_to_output
        assert alpha_t <= gamma_t <= beta_t * 1.5

    def test_gamma_structure_reuse(self):
        g = topology.grid_graph(4, 4)
        structure = GammaStructure(g)
        assert structure.construction_rounds > 0
        spec = flood_max_spec()
        sync = run_synchronous(g, spec)
        result = run_gamma(g, spec, ConstantDelay(1.0), structure=structure)
        assert result.outputs == sync.outputs

    def test_gamma_partition_covers_graph(self):
        g = topology.erdos_renyi_graph(24, 0.1, seed=2)
        structure = GammaStructure(g)
        assert set(structure.cluster_of) == set(g.nodes)
