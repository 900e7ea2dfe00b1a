"""The event-driven synchronous algorithm interface (paper Section 5.1 / Appendix B).

The paper's synchronizer works for *event-driven* synchronous algorithms: a
node may send messages at pulse ``p`` only because it received messages of
pulse ``p-1`` and/or itself sent messages at pulse ``p-1``; it can never
reference the round number or "wait r rounds".  We encode that contract in
:class:`NodeProgram`:

* ``on_start(api)`` runs at pulse 0, on initiator nodes only, and emits the
  pulse-0 messages.
* ``on_pulse(api, arrived)`` runs at pulse ``p`` on every node that received
  messages of pulse ``p-1`` (delivered, sorted by sender, in ``arrived``)
  and/or sent messages at pulse ``p-1`` (then possibly with an empty
  ``arrived``).  Messages sent from the handler are the node's pulse-``p``
  messages.

A program must be a deterministic state machine: its behaviour may depend
only on its node's inputs and the sequence of pulse batches it has been fed.
The same program object then runs unchanged on the synchronous round
simulator, under the paper's deterministic synchronizer, and under the
α/β/γ baselines; output equality across those executions is the core
correctness criterion of this reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Set,
    Tuple,
)

from weakref import WeakKeyDictionary

from .graph import Graph, NodeId, UnknownLinkError

Payload = Any
ArrivedBatch = Tuple[Tuple[NodeId, Payload], ...]

# NodeInfo depends only on the (immutable) graph, so every spec and every run
# over the same graph shares one info table.  Weak keys release dead graphs.
_INFO_CACHE: "WeakKeyDictionary[Graph, Dict[NodeId, NodeInfo]]" = WeakKeyDictionary()


@dataclass(frozen=True)
class NodeInfo:
    """Static local knowledge of one node (what the model grants for free).

    Nodes know their own id, their incident edges (with weights, for the MST
    application), and a polynomial upper bound on ``n`` — the standard
    CONGEST assumptions from Section 1.1.
    """

    node_id: NodeId
    neighbors: Tuple[NodeId, ...]
    edge_weights: Dict[NodeId, float]
    n_upper: int

    def weight(self, neighbor: NodeId) -> float:
        return self.edge_weights[neighbor]


class PulseApi:
    """What a program handler may do during one pulse: send and output.

    Collects the sends so the runtime (synchronous or synchronizer) can
    enforce the CONGEST discipline of at most one message per neighbor per
    pulse.
    """

    __slots__ = ("_info", "_sends", "_output", "_has_output")

    def __init__(self, info: NodeInfo) -> None:
        self._info = info  # det: ignore[DET003] -- reset() recycles the api for the SAME node; _info is the node's identity and must survive resets
        self._sends: List[Tuple[NodeId, Payload]] = []
        self._output: Any = None
        self._has_output = False

    @property
    def info(self) -> NodeInfo:
        return self._info

    def send(self, neighbor: NodeId, payload: Payload) -> None:
        if neighbor not in self._info.edge_weights:
            # Same error as the asynchronous transport's link table: a
            # non-neighbor destination fails identically on both engines,
            # naming both endpoints at the send site.
            raise UnknownLinkError(self._info.node_id, neighbor)
        if any(to == neighbor for to, _ in self._sends):
            raise ValueError(
                f"node {self._info.node_id} sent twice to {neighbor} in one pulse"
                " (CONGEST allows one message per neighbor per round)"
            )
        self._sends.append((neighbor, payload))

    def set_output(self, value: Any) -> None:
        self._output = value
        self._has_output = True

    def collect(self) -> Tuple[List[Tuple[NodeId, Payload]], bool, Any]:
        """(sends, produced_output, output) accumulated during the pulse."""
        return self._sends, self._has_output, self._output

    def reset(self) -> None:
        """Recycle this api for the next pulse (DESIGN.md §6).

        The previously collected sends list is left with its owner — a fresh
        list is started — so runtimes can reuse one ``PulseApi`` per node
        instead of allocating one per evaluated pulse.
        """
        self._sends = []
        self._output = None
        self._has_output = False


class NodeProgram:
    """Base class for per-node event-driven programs.

    Subclasses hold all their state on ``self`` and implement ``on_start``
    and/or ``on_pulse``.
    """

    def __init__(self, info: NodeInfo) -> None:
        self.info = info

    def on_start(self, api: PulseApi) -> None:  # pragma: no cover - default no-op
        """Pulse-0 action; called on initiators only."""

    def on_pulse(self, api: PulseApi, arrived: ArrivedBatch) -> None:
        """Pulse-p action (p >= 1); override in subclasses."""
        raise NotImplementedError


@dataclass(frozen=True)
class ProgramSpec:
    """A complete distributed algorithm: who initiates + per-node program."""

    name: str
    node_factory: Callable[[NodeInfo], NodeProgram]
    initiators: Callable[[Graph], Set[NodeId]]

    def make_infos(self, graph: Graph) -> Dict[NodeId, NodeInfo]:
        infos = _INFO_CACHE.get(graph)
        if infos is None:
            infos = _INFO_CACHE[graph] = {
                v: NodeInfo(
                    node_id=v,
                    neighbors=graph.neighbors(v),
                    edge_weights={u: graph.weight(v, u) for u in graph.neighbors(v)},
                    n_upper=graph.num_nodes,
                )
                for v in graph.nodes
            }
        return infos


def all_nodes_initiate(graph: Graph) -> Set[NodeId]:
    return set(graph.nodes)


# The initiator pickers are module-level callable classes rather than
# closures: a ``ProgramSpec`` must survive ``pickle`` so the sharded sweep
# executor (repro.net.shard, DESIGN.md §14) can ship one spec per worker
# under the ``spawn`` start method.  Behaviour is identical to the former
# closures; identity semantics are preserved on purpose (no ``__eq__``) so
# per-spec caches keyed by spec objects are unperturbed.


class _SingleInitiator:
    __slots__ = ("node",)

    def __init__(self, node: NodeId) -> None:
        self.node = node

    def __call__(self, graph: Graph) -> Set[NodeId]:
        node = self.node
        if not 0 <= node < graph.num_nodes:
            raise ValueError(f"initiator {node} not in graph")
        return {node}


class _FixedInitiators:
    __slots__ = ("frozen",)

    def __init__(self, nodes: Iterable[NodeId]) -> None:
        self.frozen = frozenset(nodes)

    def __call__(self, graph: Graph) -> Set[NodeId]:
        for v in sorted(self.frozen):
            if not 0 <= v < graph.num_nodes:
                raise ValueError(f"initiator {v} not in graph")
        return set(self.frozen)


class _SampledInitiators:
    __slots__ = ("count",)

    def __init__(self, count: int) -> None:
        if count < 1:
            raise ValueError(f"need at least one initiator, got {count}")
        self.count = count

    def __call__(self, graph: Graph) -> Set[NodeId]:
        n = graph.num_nodes
        k = min(self.count, n)
        stride = n / k
        # Floors of strictly increasing multiples of stride >= 1: distinct.
        return {int(i * stride) for i in range(k)}


def single_initiator(node: NodeId) -> Callable[[Graph], Set[NodeId]]:
    return _SingleInitiator(node)


def fixed_initiators(nodes: Iterable[NodeId]) -> Callable[[Graph], Set[NodeId]]:
    return _FixedInitiators(nodes)


def sampled_initiators(count: int) -> Callable[[Graph], Set[NodeId]]:
    """Evenly spaced sample of ``count`` initiators — deterministic, no RNG.

    The scaling fix for all-initiator programs at n=512+ (ROADMAP): a
    flood-max-style program started from every node costs Θ(n²) messages on
    a cycle, which dominates large sweeps with traffic the synchronizer
    machinery under test contributes nothing to.  A sampled initiator set
    keeps the program genuinely multi-source while its message volume stays
    near-linear in n.  Nodes are picked at stride ``n / count`` starting
    from 0, so the same spec is reproducible across runs and comparable
    across graph sizes.
    """
    return _SampledInitiators(count)
