"""Churn-tolerant synchronizer execution (DESIGN.md §11).

The fault-free synchronizer is an exact machine: every Go-Ahead is gated on
acknowledgments and chosen/not-chosen answers, so a single crashed neighbor
stalls its whole subtree forever.  This module layers the recovery
semantics on top:

* :class:`RecoverySynchronizerNode` is the synchronizer node plus
  everything a node does when a neighbor crashes or returns: the ack and
  answer identity sets, pruning a dead neighbor out of every local wait
  set, readmitting a returned one, and tolerating traffic that addresses
  state a fresh incarnation never held.  The fault-free
  :class:`~repro.core.synchronizer.SynchronizerNode` has none of this.
* :class:`RecoverySynchronizerProcess` runs the synchronizer on that
  node, reacts to the transport's failure detectors
  (``on_neighbor_dead``) by pruning the dead neighbor, and drops any
  straggler message from a pruned sender (a pre-crash message deferred
  across a link-down interval would otherwise trip the Lemma 5.1 oracle —
  under fail-stop semantics a dead node's words are void from the moment
  the crash is *detected*).
* :func:`run_churn` drives a full experiment in one of three modes:

  - ``"degrade"`` — one pass: survivors prune dead subtrees on detection
    and keep the pulses they completed.  Outputs are best-effort, bounded
    by ``dist_G(v) <= output(v) <= dist_H(v)`` for BFS-style programs
    (``H`` = the surviving component; see DESIGN.md §11).
  - ``"rebuild"`` — the degrade pass, then a clean re-registration and
    re-run on the surviving component, whose outputs are exact for ``H``.
  - ``"reanchor"`` — the degrade pass, then a *bounded local* repair
    (DESIGN.md §15): only the orphaned survivors (those the degrade pass
    left without an output) are re-anchored beneath the answered nodes
    adjacent to them, via an offset-flood wave on the orphan patch — the
    anchors initiate with their degrade-output distance and the patch
    relaxes ``dist + 1`` to a fixpoint.  Costs messages proportional to
    the patch, not to ``|H|``, and the re-anchored outputs still satisfy
    the ``dist_G <= out <= dist_H`` sandwich (the wave minimizes over
    every anchor, and every ``H``-shortest path enters the patch through
    one of them).  Distance-valued (BFS-family) programs only.

Dynamic networks (DESIGN.md §15): when the schedule contains re-join
events, a returned node comes back with blank protocol state and the
transport's recovery detector fires ``on_neighbor_alive`` at its live
neighbors; :class:`RecoverySynchronizerProcess` reacts by *readmitting*
the neighbor — un-pruning it and restoring the registration/aggregation
views — so the stacks address it again going forward.  The reborn node
itself stays passive (it cannot join barrier instances whose history it
missed), which is exactly the gap ``mode="reanchor"`` then repairs: the
returned node is an orphan of the final surviving graph and gets its
output from the re-anchoring wave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..net.async_runtime import AsyncRuntime
from ..net.delays import DelayModel
from ..net.faults import FaultSchedule
from ..net.graph import Graph, NodeId
from ..net.program import (
    ArrivedBatch,
    NodeInfo,
    NodeProgram,
    ProgramSpec,
    PulseApi,
    fixed_initiators,
)
from .gate import RELEASED_FLOW
from .synchronizer import (
    OP_APP,
    SynchronizerNode,
    SynchronizerProcess,
    _VNode,
    run_synchronized,
)

#: ``spec_factory(root)`` builds the program spec for a given root/source
#: node id, so the rebuild pass can re-instantiate the same algorithm on the
#: remapped surviving component.
SpecFactory = Callable[[NodeId], ProgramSpec]


class RecoverySynchronizerNode(SynchronizerNode):
    """Synchronizer node that survives crashed and returning neighbors.

    Beside the fault-free machine's counters it keeps, per vnode pulse,
    the identities behind them: the neighbors whose acknowledgment
    (``_ack_wait``) and chosen/not-chosen answer (``_ans_wait``) are still
    outstanding.  :meth:`prune_neighbor` cancels exactly what a crashed
    neighbor still owed, once, and not again for what resolved before the
    crash was detected.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._pruned: Set[NodeId] = set()
        self._ack_wait: Dict[int, Set[NodeId]] = {}
        self._ans_wait: Dict[int, Set[NodeId]] = {}

    def _bind_sends(
        self, vnode: _VNode, sends: List[Tuple[NodeId, Any]]
    ) -> None:
        super()._bind_sends(vnode, sends)
        recipients = {to for to, _ in sends}
        self._ack_wait[vnode.pulse] = recipients
        self._ans_wait[vnode.pulse] = set(recipients)

    def on_delivered(self, to: NodeId, payload: Tuple) -> None:
        if payload[0] != OP_APP or to in self._pruned:
            # A pruned neighbor's ack was cancelled when it was pruned; a
            # late transport ack (delivered just before the crash, deferred
            # across a down interval) must not count twice.
            return
        self._ack_wait[payload[1]].discard(to)
        super().on_delivered(to, payload)

    def _child_answer(self, vnode: _VNode, who: Any, chosen: bool) -> None:
        self._ans_wait[vnode.pulse].discard(who)
        super()._child_answer(vnode, who, chosen)

    def _stale_vnode(self, p: int) -> Optional[_VNode]:
        """Vnode lookup tolerating re-join staleness (DESIGN.md §15): a
        neighbor that won the rejoin-vs-detect race never pruned this node
        and keeps addressing execution-forest state the previous
        incarnation held.  The fresh incarnation drops such traffic
        (``None``) instead of crashing; it stays passive for epochs it did
        not witness."""
        return self.vnodes.get(p)

    def prune_neighbor(self, dead: NodeId) -> None:
        """Detach a crashed neighbor.  Idempotent.

        The registration and aggregation modules re-close their
        convergecasts over the survivors.  In the execution forest the
        neighbor's outstanding acknowledgments and answers are cancelled
        (a crashed child is not-chosen by fiat), it leaves child sets and
        flow reports, and unsent emit lists stop addressing it.
        """
        if dead in self._pruned:
            return
        self._pruned.add(dead)
        self.reg.prune_child(dead)
        self.agg.prune_child(dead)
        dead_link = self._links[dead]
        for vnode in list(self.vnodes.values()):
            ack_wait = self._ack_wait[vnode.pulse]
            ans_wait = self._ans_wait[vnode.pulse]
            if not vnode.sent:
                # Not yet emitted: stop addressing the dead node.  The
                # counters stay consistent because ``_do_sends`` derives
                # both from the (now filtered) emit list.
                if dead in ack_wait:
                    vnode.emits = tuple(
                        (lid, w) for lid, w in vnode.emits if lid != dead_link
                    )
                    vnode.release_links = tuple(
                        lid for lid in vnode.release_links if lid != dead_link
                    )
                    ack_wait.discard(dead)
                    ans_wait.discard(dead)
                continue
            if dead in ack_wait:
                # A send into a crashed receiver is never acknowledged:
                # count it as resolved.
                ack_wait.discard(dead)
                vnode.sends_pending -= 1
                if vnode.sends_pending == 0:
                    self._vnode_safe(vnode)
            if dead in ans_wait:
                self._child_answer(vnode, dead, False)
            if dead in vnode.children:
                # Answered chosen before crashing: drop the subtree.  Any
                # flow already waiting on its report re-closes over the
                # surviving children.
                vnode.children.remove(dead)
                for flow in vnode.flows.values():
                    if flow is not RELEASED_FLOW:
                        flow.reports.pop(dead, None)
                if vnode.answers_missing == 0:
                    self._reassemble(vnode)

    def readmit_neighbor(self, returned: NodeId) -> None:
        """Re-admit a re-joined neighbor (DESIGN.md §15).

        Inverse of :meth:`prune_neighbor`, restricted to what is sound
        going *forward*: the neighbor leaves the pruned set (its messages
        reach the modules again), and the registration and aggregation
        views are restored so stages and barrier instances created after
        the readmission address it in its original deterministic position.
        Nothing is rewound — execution state that already re-closed its
        waits over the survivors stays closed (the fresh incarnation never
        answers for pulses it did not witness), and poisoned registration
        stages stay poisoned, so they are never retired.  Idempotent per
        neighbor; a no-op for a neighbor that was never pruned.
        """
        if returned not in self._pruned:
            return
        self._pruned.discard(returned)
        self.reg.readmit_child(returned)
        self.agg.readmit_child(returned)


class RecoverySynchronizerProcess(SynchronizerProcess):
    """Synchronizer process with churn recovery (DESIGN.md §11).

    Bound per run by :func:`run_churn` through the inherited
    :meth:`~repro.core.synchronizer.SynchronizerProcess.bind`.
    Deliveries keep the opcode-table fast path: the fail-stop guard
    against a pruned sender's stragglers lives in the transport's link
    table (:meth:`~repro.net.async_runtime.ProcessContext.mute`), so it
    costs nothing per delivered message.
    """

    node_class = RecoverySynchronizerNode

    def on_start(self) -> None:
        if self.ctx.now > 0.0:
            # Reborn mid-run (a rejoin event rebuilt this process): stay
            # passive.  The synchronizer's barrier instances encode history
            # this incarnation did not witness — re-running ``start`` would
            # contribute to base barriers the survivors already closed (the
            # contributions would be dropped as late words, at pure message
            # cost) and could never yield a Go-Ahead.  Catching the node up
            # is the re-anchoring wave's job (``run_churn`` mode
            # ``"reanchor"``), not the barrier replay's (DESIGN.md §15).
            return
        self.node.start()

    def on_neighbor_dead(self, neighbor: NodeId) -> None:
        # Clear the jammed link first (a send into the crashed node never
        # acks, wedging the outbox), then detach the neighbor from every
        # protocol wait set.  Fail-stop enforcement: once the neighbor is
        # pruned nothing it said may reach the modules — a pre-crash
        # message deferred across a down interval can arrive arbitrarily
        # late — so its incoming link is muted.
        self.ctx.reset_link(neighbor)
        self.ctx.mute(neighbor)
        self.node.prune_neighbor(neighbor)

    def on_neighbor_alive(self, neighbor: NodeId) -> None:
        # The recovery detector's soundness bound (DESIGN.md §15) fired:
        # every pre-rejoin message on the shared link has been delivered or
        # voided, so readmitting the neighbor cannot let a stale word from
        # its previous incarnation slip past the pruned-sender guard.
        self.ctx.unmute(neighbor)
        self.node.readmit_neighbor(neighbor)


@dataclass
class ChurnOutcome:
    """Outcome of one :func:`run_churn` experiment."""

    mode: str
    crashed: Tuple[NodeId, ...]
    #: Nodes in the root's connected component over the surviving graph.
    survivors: Tuple[NodeId, ...]
    #: Final outputs restricted to survivors (rebuild mode: the clean
    #: re-run's outputs, mapped back to original node ids).
    outputs: Dict[NodeId, Any]
    #: Survivors that produced any output at all.
    answered: int
    messages: int
    acks: int
    dropped: int
    #: Events fired across both passes (degrade pass + rebuild, if any).
    events_fired: int
    time_to_output: float
    time_to_quiescence: float
    #: Messages of the rebuild pass (0 outside rebuild mode).
    rebuild_messages: int
    stop_reason: str
    #: Messages of the re-anchoring wave (0 outside reanchor mode).
    reanchor_messages: int = 0
    #: Crashed nodes that re-joined before the end of the run (they count
    #: as live for the surviving component — H is time-varying, and the
    #: sandwich is stated against its final snapshot).
    rejoined: Tuple[NodeId, ...] = ()

    @property
    def survivor_count(self) -> int:
        return len(self.survivors)

    @property
    def total_messages(self) -> int:
        return self.messages + self.rebuild_messages + self.reanchor_messages


def _surviving_component(
    graph: Graph, live: Set[NodeId], root: NodeId
) -> Tuple[NodeId, ...]:
    """Root's connected component in the subgraph induced by ``live``."""
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in graph.neighbors(v):
                if u in live and u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return tuple(sorted(seen))


class _ReanchorProgram(NodeProgram):
    """Offset BFS flood for the re-anchoring wave (DESIGN.md §15).

    Anchors (the initiators) start with their degrade-output distance and
    flood it; every other patch node relaxes ``min(received) + 1`` to a
    fixpoint, recording the neighbor its best offer came from as its new
    parent.  Unit-weight distributed Bellman-Ford, event-driven: a node
    sends only when an arrival improved it, so the paper's Section 5.1
    contract holds and the wave runs under the full synchronizer stack.

    ``anchor_dist`` is bound per run via ``type(...)`` (remapped node id →
    starting distance), like the synchronizer's own per-run subclassing.
    """

    anchor_dist: Dict[NodeId, float] = {}

    def __init__(self, info: NodeInfo) -> None:
        super().__init__(info)
        self.dist: Optional[float] = None
        self.parent: Optional[NodeId] = None

    def on_start(self, api: PulseApi) -> None:
        self.dist = self.anchor_dist[self.info.node_id]
        api.set_output((self.dist, None))
        for v in self.info.neighbors:
            api.send(v, self.dist)

    def on_pulse(self, api: PulseApi, arrived: ArrivedBatch) -> None:
        if not arrived:
            return
        # Best offer of the batch; sender id breaks ties so the chosen
        # parent is schedule-independent.
        sender, value = min(arrived, key=lambda sv: (sv[1], sv[0]))
        cand = value + 1
        if self.dist is not None and cand >= self.dist:
            return
        self.dist = cand
        self.parent = sender
        api.set_output((self.dist, self.parent))
        for v in self.info.neighbors:
            api.send(v, self.dist)


def _distance_of(value: Any) -> float:
    """Distance component of a degrade output — BFS-family convention:
    either the bare distance or a ``(distance, parent)`` pair."""
    d = value[0] if isinstance(value, tuple) else value
    if not isinstance(d, (int, float)) or isinstance(d, bool):
        raise ValueError(
            "mode='reanchor' needs distance-valued outputs (a number or a"
            f" (distance, parent) tuple), got {value!r}"
        )
    return d


def run_churn(
    graph: Graph,
    spec_factory: SpecFactory,
    delay_model: DelayModel,
    faults: FaultSchedule,
    mode: str = "degrade",
    root: NodeId = 0,
    builder: str = "ap",
    max_pulse: Optional[int] = None,
    max_events: int = 100_000_000,
) -> ChurnOutcome:
    """Run ``spec_factory(root)`` under the synchronizer through a churn.

    Deterministic end to end: the fault schedule, the delay model, and the
    recovery reactions are all pure functions of their seeds, so a fixed
    ``(graph, spec, delay_model, faults, mode)`` pins the whole execution.
    """
    if mode not in ("degrade", "rebuild", "reanchor"):
        raise ValueError(
            f"mode must be 'degrade', 'rebuild' or 'reanchor', got {mode!r}"
        )
    if faults.crash_time(root) != float("inf"):
        raise ValueError(
            f"the root/source {root} is scheduled to crash; protect it"
            f" (FaultSchedule(..., protect=({root},)))"
        )
    process_cls = RecoverySynchronizerProcess.bind(
        graph, spec_factory(root), max_pulse=max_pulse, builder=builder
    )
    runtime = AsyncRuntime(graph, process_cls, delay_model, faults=faults)
    result = runtime.run(max_events=max_events)

    crashed = tuple(faults.crashed_nodes(graph.nodes))
    rejoined = tuple(faults.rejoining_nodes(graph.nodes))
    # H is time-varying: a crashed node that re-joined is live in the final
    # snapshot the sandwich is stated against (its blank-state incarnation
    # typically has no output yet — exactly what reanchor mode repairs).
    live = (set(graph.nodes) - set(crashed)) | set(rejoined)
    survivors = _surviving_component(graph, live, root)
    outputs = {v: result.outputs[v] for v in survivors if v in result.outputs}

    rebuild_messages = 0
    reanchor_messages = 0
    events_fired = result.events_fired
    if mode == "reanchor":
        orphans = {v for v in survivors if v not in outputs}
        # Answered survivors adjacent to an orphan: the anchors.  Every
        # H-shortest path into the orphan patch crosses one, so the
        # min-flood's outputs stay inside the dist_G/dist_H sandwich.
        anchors = sorted(
            u
            for u in outputs
            if any(w in orphans for w in graph.neighbors(u))
        )
        if orphans and anchors:
            patch = sorted(orphans | set(anchors))
            subgraph, remap = graph.induced_subgraph(patch)
            anchor_dist = {remap[a]: _distance_of(outputs[a]) for a in anchors}
            program_cls = type(
                "BoundReanchorProgram", (_ReanchorProgram,),
                dict(anchor_dist=anchor_dist),
            )
            wave_spec = ProgramSpec(
                "reanchor-flood", program_cls,
                fixed_initiators(remap[a] for a in anchors),
            )
            sub_result = run_synchronized(
                subgraph, wave_spec, delay_model,
                builder=builder, max_events=max_events,
            )
            back = {new: old for old, new in remap.items()}
            tupled = isinstance(outputs[anchors[0]], tuple)
            for nv, (d, par) in sub_result.outputs.items():
                ov = back[nv]
                if ov not in orphans:
                    continue  # anchors keep their degrade outputs
                parent = None if par is None else back[par]
                outputs[ov] = (d, parent) if tupled else d
            reanchor_messages = sub_result.messages
            events_fired += sub_result.events_fired
    if mode == "rebuild":
        # Clean re-registration on the surviving component: covers, views
        # and pulse bound are all rebuilt for H, so the second pass is an
        # ordinary fault-free synchronizer run whose outputs are exact.
        subgraph, remap = graph.induced_subgraph(survivors)
        sub_result = run_synchronized(
            subgraph, spec_factory(remap[root]), delay_model,
            builder=builder, max_events=max_events,
        )
        back = {new: old for old, new in remap.items()}
        outputs = {back[v]: value for v, value in sub_result.outputs.items()}
        rebuild_messages = sub_result.messages
        events_fired += sub_result.events_fired

    return ChurnOutcome(
        mode=mode,
        crashed=crashed,
        survivors=survivors,
        outputs=outputs,
        answered=sum(1 for v in survivors if v in outputs),
        messages=result.messages,
        acks=result.acks,
        dropped=result.dropped,
        events_fired=events_fired,
        time_to_output=result.time_to_output,
        time_to_quiescence=result.time_to_quiescence,
        rebuild_messages=rebuild_messages,
        stop_reason=result.stop_reason,
        reanchor_messages=reanchor_messages,
        rejoined=rejoined,
    )
