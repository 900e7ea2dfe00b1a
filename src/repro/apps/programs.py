"""A library of event-driven synchronous programs (Section 5.1 contract).

These are the workloads the synchronizer experiments run: they span the
regimes the paper's analysis distinguishes — few-messages-per-round
programs (where α's per-round traffic is catastrophic), deep programs
(where β's tree round-trips dominate), and chatty flooding programs.
Every program is a deterministic state machine over pulse batches, so its
outputs are identical under the synchronous runtime, the deterministic
synchronizer, and the α/β/γ baselines.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..net.graph import Graph, NodeId
from ..net.program import (
    ArrivedBatch,
    NodeInfo,
    NodeProgram,
    ProgramSpec,
    PulseApi,
    all_nodes_initiate,
    sampled_initiators,
    single_initiator,
)


class FloodMaxProgram(NodeProgram):
    """Every node learns the maximum node id (classic leader-election flood)."""

    def __init__(self, info: NodeInfo) -> None:
        super().__init__(info)
        self.best = info.node_id

    def on_start(self, api: PulseApi) -> None:
        api.set_output(self.best)
        for v in self.info.neighbors:
            api.send(v, self.best)

    def on_pulse(self, api: PulseApi, arrived: ArrivedBatch) -> None:
        improved = False
        for _, value in arrived:
            if value > self.best:
                self.best = value
                improved = True
        if improved:
            api.set_output(self.best)
            for v in self.info.neighbors:
                api.send(v, self.best)


def flood_max_spec() -> ProgramSpec:
    return ProgramSpec("flood-max", FloodMaxProgram, all_nodes_initiate)


class BfsProgram(NodeProgram):
    """Single- or multi-source BFS: output (distance, parent)."""

    def __init__(self, info: NodeInfo) -> None:
        super().__init__(info)
        self.dist: Optional[int] = None
        self.parent: Optional[NodeId] = None

    def on_start(self, api: PulseApi) -> None:
        self.dist = 0
        api.set_output((0, None))
        for v in self.info.neighbors:
            api.send(v, 0)

    def on_pulse(self, api: PulseApi, arrived: ArrivedBatch) -> None:
        if self.dist is None and arrived:
            sender, value = arrived[0]
            self.dist = value + 1
            self.parent = sender
            api.set_output((self.dist, self.parent))
            for v in self.info.neighbors:
                api.send(v, self.dist)


def bfs_spec(source: NodeId) -> ProgramSpec:
    return ProgramSpec("sync-bfs", BfsProgram, single_initiator(source))


def multi_bfs_spec(sources: int) -> ProgramSpec:
    """Multi-source BFS from ``sources`` evenly sampled initiators.

    The n=512+ sweep workload (ROADMAP / DESIGN.md §8): the sampled set
    keeps the pulse bound near ``n / (2 * sources)`` and the message volume
    near-linear, where an all-initiator flood costs Θ(n²) on a cycle.
    """
    return ProgramSpec(
        f"sync-bfs-ms{sources}", BfsProgram, sampled_initiators(sources)
    )


class BroadcastEchoProgram(NodeProgram):
    """Root broadcasts a token; an echo convergecast counts the nodes.

    A sparse program: each node sends in O(1) pulses, so M(A) ≪ T(A)·m on
    high-diameter graphs — the regime where α synchronizers lose badly.
    """

    def __init__(self, info: NodeInfo) -> None:
        super().__init__(info)
        self.parent: Optional[NodeId] = None
        self.is_root = False
        self.seen = False
        self.expected: Optional[Set[NodeId]] = None
        self.counts: dict = {}
        self.echoed = False

    def on_start(self, api: PulseApi) -> None:
        self.is_root = True
        self.seen = True
        self.expected = set(self.info.neighbors)
        for v in self.info.neighbors:
            api.send(v, ("bc",))

    def _maybe_echo(self, api: PulseApi) -> None:
        if self.echoed or self.expected is None or self.expected:
            return
        self.echoed = True
        total = 1 + sum(self.counts.values())
        if self.is_root:
            api.set_output(total)
        else:
            api.send(self.parent, ("echo", total))

    def on_pulse(self, api: PulseApi, arrived: ArrivedBatch) -> None:
        bc_senders = [s for s, m in arrived if m[0] == "bc"]
        if not self.seen and bc_senders:
            self.seen = True
            self.parent = bc_senders[0]
            holders = set(bc_senders)
            children = [v for v in self.info.neighbors if v not in holders]
            self.expected = set(children)
            api.set_output("reached")
            for v in children:
                api.send(v, ("bc",))
            for v in bc_senders[1:]:
                api.send(v, ("echo", 0))
        else:
            for v in bc_senders:
                api.send(v, ("echo", 0))
        for sender, message in arrived:
            if message[0] == "echo":
                self.counts[sender] = max(self.counts.get(sender, 0), message[1])
                self.expected.discard(sender)
        if self.seen:
            self._maybe_echo(api)


def broadcast_echo_spec(root: NodeId) -> ProgramSpec:
    return ProgramSpec("broadcast-echo", BroadcastEchoProgram, single_initiator(root))


class PathTokenProgram(NodeProgram):
    """A token walks from the initiator along increasing node ids.

    Extreme sparsity: one message per pulse in the whole network, the
    worst case for any synchronizer that pays per-round global traffic.
    """

    def on_start(self, api: PulseApi) -> None:
        target = self._next_hop()
        api.set_output("visited")
        if target is not None:
            api.send(target, "token")

    def _next_hop(self) -> Optional[NodeId]:
        higher = [v for v in self.info.neighbors if v > self.info.node_id]
        return min(higher) if higher else None

    def on_pulse(self, api: PulseApi, arrived: ArrivedBatch) -> None:
        if not arrived:
            return
        api.set_output("visited")
        target = self._next_hop()
        if target is not None:
            api.send(target, "token")


def path_token_spec(start: NodeId = 0) -> ProgramSpec:
    return ProgramSpec("path-token", PathTokenProgram, single_initiator(start))


class NeighborSumProgram(NodeProgram):
    """Two-pulse program: exchange ids, output the sum of neighbor ids."""

    def __init__(self, info: NodeInfo) -> None:
        super().__init__(info)
        self.total = 0
        self.waiting = len(info.neighbors)

    def on_start(self, api: PulseApi) -> None:
        for v in self.info.neighbors:
            api.send(v, self.info.node_id)

    def on_pulse(self, api: PulseApi, arrived: ArrivedBatch) -> None:
        for _, value in arrived:
            self.total += value
            self.waiting -= 1
        if self.waiting == 0:
            api.set_output(self.total)


def neighbor_sum_spec() -> ProgramSpec:
    return ProgramSpec("neighbor-sum", NeighborSumProgram, all_nodes_initiate)


class PulseWaveProgram(NodeProgram):
    """k back-and-forth waves between even and odd nodes of a path/grid.

    Deep and regular: exercises many consecutive pulses through the same
    edges, stressing the per-pulse stage scheduling (Lemma 2.5).
    """

    waves = 6

    def __init__(self, info: NodeInfo) -> None:
        super().__init__(info)
        self.count = 0

    def on_start(self, api: PulseApi) -> None:
        for v in self.info.neighbors:
            if v > self.info.node_id:
                api.send(v, 1)

    def on_pulse(self, api: PulseApi, arrived: ArrivedBatch) -> None:
        if not arrived:
            return
        wave = max(value for _, value in arrived)
        self.count = max(self.count, wave)
        if wave >= self.waves:
            api.set_output(wave)
            return
        forward = wave % 2 == 0
        for v in self.info.neighbors:
            if (v > self.info.node_id) == forward:
                api.send(v, wave + 1)
        api.set_output(wave)


def pulse_wave_spec() -> ProgramSpec:
    return ProgramSpec("pulse-wave", PulseWaveProgram, all_nodes_initiate)


def standard_programs(graph: Graph) -> List[ProgramSpec]:
    """The program suite the equivalence tests and E5/E6 sweep over."""
    return [
        flood_max_spec(),
        bfs_spec(0),
        broadcast_echo_spec(0),
        path_token_spec(0),
        neighbor_sum_spec(),
    ]
