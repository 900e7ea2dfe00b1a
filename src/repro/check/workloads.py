"""Checkable workloads: (graph, protocol, probes) bundles for the explorer.

A workload knows how to build a fresh controlled :class:`AsyncRuntime`
around a controller, which crash actions to expose, and which invariant
probes apply.  Everything is rebuilt per execution — stateless model
checking re-runs the system from its initial state for every explored
interleaving — except the cover registry and reference outputs, which are
pure functions of the graph and are computed once.

Two workload families:

* **Synchronizer cells** (:class:`SyncWorkload`) — the full stack
  (synchronizer + registration + aggregation) running synchronized BFS,
  fault-free or with controller-chosen crashes.  At the graph sizes the
  checker can exhaust, the threshold registry produces only trivial
  clusters, so the registration machinery is *idle* in these cells — the
  pulse, output and distance invariants are what they check.
* **Registration cells** (:class:`RegWorkload`) — a driver process
  running :class:`~repro.core.registration.RegistrationModule` alone over
  the graph's BFS cluster tree, every node performing register →
  deregister cycles across two tags.  This is where the registration
  single-completion and stage-taint invariants have teeth: stages
  complete and retire, and round 2 re-creates the stages round 1 retired
  while crashes race the waves.

Workload spec strings (the CLI surface)::

    sync-bfs:cycle:4          fault-free synchronized BFS on cycle(4)
    sync-bfs:star:4           ... on star(4)
    churn:cycle:5:crash:2     recovery synchronizer, node 2 crashable
    churn:cycle:5             the crash-at-each-point matrix (one cell
                              per non-root node)
    rejoin:cycle:5:crash:2    recovery synchronizer, node 2 crashable
                              AND re-joinable: the controller may bring
                              it back after the crash, racing the
                              rejoin against the armed detects (the
                              D1–D3 interleaving space of DESIGN.md §15)
    rejoin:cycle:5            the crash+rejoin-at-each-point matrix
    reg:star:4                fault-free registration cycles on star(4)
    reg:star:4:crash:2        ... with node 2 crashable
    reg:star:4:crash          the crash-at-each-point matrix
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..apps.programs import bfs_spec
from ..core.recovery import RecoverySynchronizerProcess, _surviving_component
from ..core.registration import RegistrationModule, cluster_views_for
from ..core.synchronizer import SynchronizerProcess
from ..covers import bfs_cluster_tree
from ..net.async_runtime import AsyncRuntime, Process
from ..net.delays import ConstantDelay
from ..net.graph import Graph, NodeId
from ..net.sweep import bound_process_class
from ..net.sync_runtime import run_synchronous
from ..net.topology import cycle_graph, star_graph
from .control import ScheduleController
from .invariants import (
    DistanceBoundProbe,
    MessageCountProbe,
    OutputEqualityProbe,
    Probe,
    PulseProbe,
    QuiescentOutputsProbe,
    RegistrationProbe,
    RejoinConsistencyProbe,
    StageTaintProbe,
)

_TOPOLOGIES: Dict[str, Callable[[int], Graph]] = {
    "cycle": cycle_graph,
    "star": star_graph,
}


class Workload:
    """Base cell: a graph, a process class, crash/rejoin actions, probes."""

    def __init__(
        self,
        name: str,
        graph: Graph,
        root: NodeId = 0,
        crashable: Tuple[NodeId, ...] = (),
        rejoinable: Tuple[NodeId, ...] = (),
    ) -> None:
        self.name = name
        self.graph = graph
        self.root = root
        self.crashable = crashable
        self.rejoinable = rejoinable
        self.process_cls: type = Process

    def build_runtime(self, controller: ScheduleController) -> AsyncRuntime:
        controller.crashable = self.crashable
        controller.rejoinable = self.rejoinable
        return AsyncRuntime(
            self.graph, self.process_cls, ConstantDelay(1.0),
            controller=controller,
        )

    def probes(self) -> List[Probe]:
        raise NotImplementedError


class SyncWorkload(Workload):
    """Full synchronizer stack running synchronized BFS.

    ``process_cls`` is the stock synchronizer (fault-free cells) or the
    recovery synchronizer (crash cells) bound to the spec through
    ``bind``; the seeded mutant tests pass their mutated classes through
    ``base_cls``, which bind the same way.
    """

    def __init__(
        self,
        name: str,
        graph: Graph,
        root: NodeId = 0,
        crashable: Tuple[NodeId, ...] = (),
        rejoinable: Tuple[NodeId, ...] = (),
        base_cls: Optional[type] = None,
    ) -> None:
        super().__init__(
            name, graph, root=root, crashable=crashable,
            rejoinable=rejoinable,
        )
        self.spec = bfs_spec(root)
        if base_cls is None:
            base_cls = (
                RecoverySynchronizerProcess if crashable
                else SynchronizerProcess
            )
        self.process_cls = base_cls.bind(graph, self.spec)
        self._reference: Optional[Dict[NodeId, Any]] = None
        self._reference_messages: Optional[int] = None

    # ------------------------------------------------------------------
    def reference_outputs(self) -> Dict[NodeId, Any]:
        """The synchronous run's outputs — an independent oracle (the
        reference engine shares no code with the async dispatch loops)."""
        if self._reference is None:
            self._reference = dict(run_synchronous(self.graph, self.spec).outputs)
        return self._reference

    def reference_messages(self) -> int:
        """Messages of one uncontrolled run: a fault-free synchronizer
        sends the same messages on every interleaving."""
        if self._reference_messages is None:
            self._reference_messages = AsyncRuntime(
                self.graph, self.process_cls, ConstantDelay()
            ).run().messages
        return self._reference_messages

    def probes(self) -> List[Probe]:
        probes: List[Probe] = [PulseProbe(), RegistrationProbe()]
        if self.crashable:
            graph = self.graph
            live = set(graph.nodes) - set(self.crashable)
            survivors = _surviving_component(graph, live, self.root)
            dist_g = dict(enumerate(graph.bfs_distances(self.root)))
            sub, remap = graph.induced_subgraph(survivors)
            sub_dist = sub.bfs_distances(remap[self.root])
            dist_h = {v: sub_dist[remap[v]] for v in survivors}
            probes.append(StageTaintProbe())
            # The sandwich over survivors stays sound under rejoin: the
            # crippled-component wave is unaffected by the returning
            # node, so first-wins outputs still respect dist_H, and no
            # path anywhere beats dist_G.  The returned node itself is
            # not a survivor — RejoinConsistencyProbe owns its output.
            probes.append(DistanceBoundProbe(dist_g, dist_h, survivors))
            if self.rejoinable:
                probes.append(RejoinConsistencyProbe(dist_g))
        else:
            probes.append(OutputEqualityProbe(self.reference_outputs()))
            probes.append(QuiescentOutputsProbe())
            probes.append(MessageCountProbe(self.reference_messages()))
        return probes


#: Tags registered in sequence by every node of a registration cell; two
#: rounds so round 2 re-creates the stages round 1 retired.
_REG_TAGS: Tuple[int, ...] = (1, 2)


class RegWorkload(Workload):
    """Registration waves alone: every node runs register → deregister
    cycles over the graph's BFS cluster tree, one tag after another.

    This is the cell family where the stage-taint and single-completion
    probes are not vacuous: stages complete, retire, and are re-created —
    and in crash cells the controller can land the crash mid-wave, which
    is exactly when ``prune_child`` must poison the touched stages.  The
    seeded skip-poisoning mutant is caught here.  ``module_cls`` lets the
    mutant tests substitute their mutated :class:`RegistrationModule`.
    """

    def __init__(
        self,
        name: str,
        graph: Graph,
        root: NodeId = 0,
        crashable: Tuple[NodeId, ...] = (),
        module_cls: type = RegistrationModule,
    ) -> None:
        super().__init__(name, graph, root=root, crashable=crashable)
        tree = bfs_cluster_tree(graph, 0, members=graph.nodes, root=root)
        self.process_cls = bound_process_class(
            "CheckedRegistration", _RegDriver,
            dict(cluster_tree=tree, module_cls=module_cls),
        )

    def probes(self) -> List[Probe]:
        probes: List[Probe] = [RegistrationProbe()]
        if self.crashable:
            probes.append(StageTaintProbe())
        else:
            done = ("reg-done", len(_REG_TAGS))
            probes.append(OutputEqualityProbe(
                {v: done for v in self.graph.nodes}
            ))
            probes.append(QuiescentOutputsProbe())
        return probes


class _RegDriver(Process):
    """Per-node driver for :class:`RegWorkload`.

    Registers the first tag at start; on each completed registration
    immediately deregisters; on each Go-Ahead (slot free again) registers
    the next tag, and after the last tag reports ``("reg-done", k)``.
    ``on_neighbor_dead`` mirrors the recovery synchronizer: clear the
    jammed link, then excise the corpse from the module.
    """

    cluster_tree = None  # bound per workload by bound_process_class
    module_cls = RegistrationModule

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        node = ctx.node_id
        views = cluster_views_for({0: self.cluster_tree}, node)
        self.reg = self.module_cls(
            node_id=node,
            clusters=views,
            send=lambda to, payload, priority: ctx.send(to, payload, priority),
            on_registered=self._on_registered,
            on_go_ahead=self._on_go_ahead,
            priority_fn=lambda tag: (0,),
        )
        self._done = 0

    def on_start(self) -> None:
        self.reg.register(0, _REG_TAGS[0])

    def _on_registered(self, cluster_id: int, tag: int) -> None:
        self.reg.deregister(cluster_id, tag)

    def _on_go_ahead(self, cluster_id: int, tag: int) -> None:
        self._done += 1
        if self._done < len(_REG_TAGS):
            self.reg.register(0, _REG_TAGS[self._done])
        else:
            self.ctx.set_output(("reg-done", self._done))

    def on_message(self, sender: NodeId, payload: Tuple) -> None:
        self.reg.handle(sender, payload)

    def on_neighbor_dead(self, neighbor: NodeId) -> None:
        self.ctx.reset_link(neighbor)
        self.reg.prune_child(neighbor)


def build_workload(spec: str) -> Workload:
    """Parse one cell spec (no matrix expansion)."""
    parts = spec.split(":")
    if len(parts) == 3 and parts[0] == "sync-bfs":
        kind, topo, n = parts
        graph = _topology(topo, int(n))
        return SyncWorkload(spec, graph)
    if len(parts) == 3 and parts[0] == "reg":
        _, topo, n = parts
        graph = _topology(topo, int(n))
        return RegWorkload(spec, graph)
    if len(parts) == 5 and parts[3] == "crash" and \
            parts[0] in ("churn", "rejoin", "reg"):
        kind, topo, n, _, v = parts
        graph = _topology(topo, int(n))
        crash = int(v)
        if crash == 0:
            raise ValueError("the root/source node 0 cannot be crashable")
        if kind == "churn":
            return SyncWorkload(spec, graph, crashable=(crash,))
        if kind == "rejoin":
            return SyncWorkload(
                spec, graph, crashable=(crash,), rejoinable=(crash,)
            )
        return RegWorkload(spec, graph, crashable=(crash,))
    raise ValueError(
        f"unknown workload spec {spec!r} (try sync-bfs:cycle:4,"
        f" churn:cycle:5:crash:2, rejoin:cycle:5:crash:2 or reg:star:4)"
    )


def expand_workloads(spec: str) -> List[Workload]:
    """Expand matrix specs: ``churn:T:N`` / ``rejoin:T:N`` /
    ``reg:T:N:crash`` become one cell per non-root node; everything else
    is a single cell."""
    parts = spec.split(":")
    matrix = (
        (len(parts) == 3 and parts[0] in ("churn", "rejoin"))
        or (len(parts) == 4 and parts[0] == "reg" and parts[3] == "crash")
    )
    if matrix:
        kind, topo, n = parts[0], parts[1], parts[2]
        count = int(n)
        _topology(topo, count)  # validate early
        return [
            build_workload(f"{kind}:{topo}:{count}:crash:{v}")
            for v in range(1, count)
        ]
    return [build_workload(spec)]


def _topology(name: str, n: int) -> Graph:
    factory = _TOPOLOGIES.get(name)
    if factory is None:
        raise ValueError(
            f"unknown topology {name!r} (known: {', '.join(sorted(_TOPOLOGIES))})"
        )
    return factory(n)
