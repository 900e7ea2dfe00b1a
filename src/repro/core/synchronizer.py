"""The deterministic synchronizer for event-driven algorithms (Section 5).

Given any event-driven synchronous program (:class:`~repro.net.program.ProgramSpec`)
and a layered sparse cover for a known bound on its round complexity
(the Theorem 5.3/5.5 setting), this module produces an asynchronous execution
whose per-node message history is *identical* to the synchronous one.

Mechanics: the thresholded-BFS machinery run over *virtual nodes*
``(v, p)`` (Section 5.2/5.3).  :class:`SynchronizerNode` is a
:class:`~repro.core.gate.PulseGate`, so gate registrations (in the
``2^{l(p)+5}``-covers), terminus deregistrations, Go-Ahead collection and
the Section 4.2 base barriers are the gate module's code; this module holds
what differs:

* A physical node evaluates pulse ``p`` — feeding its program the batch of
  pulse-``p-1`` messages — only upon receiving Go-Ahead(p); Lemma 5.1
  guarantees every pulse-``p-1`` message has arrived by then (asserted at
  runtime as a machinery oracle).
* If the evaluation sends messages, the virtual node ``(v, p)`` is created;
  it picks a parent among the pulse-``p-1`` virtual nodes that triggered it
  and answers chosen/not-chosen to all of them.
* Safety/emptiness flows assemble on the execution forest and Go-Ahead
  releases walk down it, with two adaptations documented in DESIGN.md §5:
  safety is established from transport acknowledgments (``on_delivered``)
  rather than from the chosen/not-chosen answers, and leaf emptiness is the
  monotone over-approximation "this virtual node sent messages".
* Initiators are the sources of the Section 4.2 base case: they hold their
  pulse-0 sends until every source-registration barrier completes.

There is no checking stage (Section 5.3: "we do not require any termination
of this form"): nodes output whenever their program does.
"""

from __future__ import annotations

import math
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple
from weakref import WeakKeyDictionary

from ..gcpause import paused_gc
from ..net.async_runtime import AsyncResult, Process, ProcessContext
from ..net.delays import DelayModel
from ..net.graph import Graph, NodeId
from ..net.program import ArrivedBatch, NodeInfo, ProgramSpec, PulseApi
from ..net.sweep import ProtocolSweep, bound_process_class
from ..net.sync_runtime import run_synchronous
from .bfs_runner import registry_for_threshold
from .gate import Flow, PulseGate, Vertex
from .pulse import COVER_LEVEL_OFFSET, assemble_pulses
from .registry import CoverRegistry

#: Synchronizer-private wire opcodes, continuing the shared-module range
#: (aggregation 0..1, registration 2..5 — see DESIGN.md §6).  Every message
#: a :class:`SynchronizerNode` sends or receives starts with one of the
#: eleven opcodes 0..10, and :meth:`SynchronizerNode.handle` dispatches
#: through one tuple index instead of a string-compare chain.
OP_CHILD_ANS = 6
OP_VFLOW = 7
OP_APP = 8
OP_VGA = 9
OP_VRELEASE = 10


class _VNode(Vertex):
    """State of virtual node (v, pulse) held by physical node v.

    All counters are plain ``__slots__`` int fields (DESIGN.md §6):
    ``sends_pending`` counts unacknowledged program sends and
    ``answers_missing`` counts outstanding chosen/not-chosen answers — one
    per distinct recipient plus the node's own self-answer — replacing the
    per-vnode answer *set* the earlier engine allocated and hashed on every
    child answer.  Recipients are distinct by the CONGEST discipline
    (``PulseApi.send`` rejects duplicate targets), so the count carries the
    same information.
    """

    __slots__ = ("pulse", "parent", "parent_link", "parent_is_self",
                 "emits", "release_links",
                 "sends_pending", "sent", "answers_missing", "children",
                 "self_child", "flows", "ga_released", "ans_wait", "ack_wait")

    def __init__(
        self, pulse: int, parent: Optional[NodeId], parent_is_self: bool,
        parent_link: Optional[int] = None,
    ) -> None:
        self.pulse = pulse
        # physical id of parent (v, pulse-1); None = self/root.  The link id
        # toward it is resolved once at creation (DESIGN.md §8).
        self.parent = parent
        self.parent_link = parent_link
        self.parent_is_self = parent_is_self
        # Emit tuples precomputed at creation (DESIGN.md §10): the
        # ``(link_id, wire_payload)`` pairs the program sends expand to,
        # and the Go-Ahead release fan-out (distinct recipients in
        # ascending node-id order — the emit order is part of the pinned
        # schedule), so neither path rebuilds tuples or re-sorts at emit
        # time.
        self.emits: Tuple[Tuple[int, Tuple], ...] = ()
        self.release_links: Tuple[int, ...] = ()
        self.sends_pending = 0
        self.sent = False
        self.answers_missing = 0
        self.children: List[NodeId] = []
        self.self_child = False
        self.flows: Dict[int, Flow] = {}
        self.ga_released: Set[int] = set()
        # Recovery mode only (DESIGN.md §11): the identities behind the two
        # counters above, so a crashed neighbor's outstanding ack/answer can
        # be cancelled exactly once (and not cancelled again if it already
        # resolved before the crash was detected).  None outside recovery —
        # the bare counters carry the fault-free protocol.
        self.ans_wait: Optional[Set[Any]] = None
        self.ack_wait: Optional[Set[NodeId]] = None


class SynchronizerNode(PulseGate):
    """Per-node engine: program execution + the pulse machinery."""

    SELF = "_self"

    @staticmethod
    def cover_levels(registry: CoverRegistry) -> Tuple[int, ...]:
        """The cover levels a node reads: registration for pulse ``p`` uses
        level ``clamp_level(cover_level(p))``, never one below
        ``COVER_LEVEL_OFFSET`` (unless the cover tops out lower)."""
        return registry.level_set(COVER_LEVEL_OFFSET)

    def __init__(
        self,
        node_id: NodeId,
        info: NodeInfo,
        program_factory,
        is_initiator: bool,
        registry: CoverRegistry,
        max_pulse: int,
        send,  # (to, payload, priority_tuple) -> None
        set_output,  # (value) -> None
        links=None,  # neighbor -> dense link id (ProcessContext.links)
        send_link=None,  # (link_id, payload, priority) -> None
        recovery: bool = False,  # track ack/answer identities for pruning
    ) -> None:
        if max_pulse < 1 or max_pulse & (max_pulse - 1):
            raise ValueError("max_pulse must be a power of two")
        super().__init__(
            node_id, registry, max_pulse, self.cover_levels(registry), send,
            links, send_link, recovery,
        )
        self.info = info
        self.program = program_factory(info)
        self.is_initiator = is_initiator
        self.max_pulse = max_pulse
        self.set_output = set_output
        self._api = PulseApi(info)
        self.vnodes: Dict[int, _VNode] = {}
        self.arrived: Dict[int, List[Tuple[NodeId, Any]]] = {}
        self.evaluated: Set[int] = set()

        # Opcode-indexed dispatch table (DESIGN.md §6): one tuple index per
        # delivered message in place of the old string-compare chain, calling
        # straight into the module per-kind handlers.
        self._dispatch = (
            self.agg.handle_up,        # 0 OP_AGG_UP
            self.agg.handle_down,      # 1 OP_AGG_DOWN
            self.reg.handle_reg_up,    # 2 OP_REG_UP
            self.reg.handle_reg_done,  # 3 OP_REG_DONE
            self.reg.handle_dereg,     # 4 OP_REG_DEREG
            self.reg.handle_go_ahead,  # 5 OP_REG_GO_AHEAD
            self._handle_child_answer,  # 6 OP_CHILD_ANS
            self._handle_vflow,        # 7 OP_VFLOW
            self._handle_app,          # 8 OP_APP
            self._handle_vga,          # 9 OP_VGA
            self._handle_vrelease,     # 10 OP_VRELEASE
        )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Pulse 0: initiators evaluate; everyone contributes base barriers."""
        root_sends: List[Tuple[NodeId, Any]] = []
        if self.is_initiator:
            api = self._api
            api.reset()
            self.program.on_start(api)
            sends, has_output, value = api.collect()
            if has_output:
                self.set_output(value)
            root_sends = sends
        self.evaluated.add(0)
        is_origin = bool(root_sends)
        if is_origin:
            vnode = _VNode(pulse=0, parent=None, parent_is_self=False)
            self._bind_sends(vnode, root_sends)
            self.vnodes[0] = vnode
        self._start_base_barriers(is_origin)

    def _source_send(self) -> None:
        vnode = self.vnodes.get(0)
        if vnode is not None:
            self._do_sends(vnode)

    # ------------------------------------------------------------------
    # sending and evaluation
    # ------------------------------------------------------------------
    def _bind_sends(self, vnode: _VNode, sends: List[Tuple[NodeId, Any]]) -> None:
        """Resolve a vnode's program sends once at creation (DESIGN.md §10):
        wire payloads, link ids, and the release fan-out order."""
        links = self._links
        pulse = vnode.pulse
        recipients = tuple(to for to, _ in sends)
        vnode.emits = tuple(
            (links[to], (OP_APP, pulse, payload)) for to, payload in sends
        )
        # Distinct recipients in ascending node-id order (the Go-Ahead
        # release emit order is part of the pinned schedule; recipients are
        # distinct by the CONGEST discipline, the set() is belt-and-braces).
        vnode.release_links = tuple(
            links[to] for to in sorted(set(recipients))
        )
        if self.recovery:
            ans_wait = set(recipients)
            ans_wait.add(self.SELF)
            vnode.ans_wait = ans_wait
            vnode.ack_wait = set(recipients)

    def _do_sends(self, vnode: _VNode) -> None:
        if vnode.sent:
            return
        vnode.sent = True
        emits = vnode.emits
        vnode.sends_pending = len(emits)
        # One answer owed per distinct recipient, plus the self-answer.
        vnode.answers_missing = len(emits) + 1
        send_link = self._send_link
        stage = vnode.pulse + 1
        for lid, wire in emits:
            send_link(lid, wire, stage)
        if not emits:  # pragma: no cover - origins always send
            self._vnode_safe(vnode)

    def on_delivered(self, to: NodeId, payload: Tuple) -> None:
        if payload[0] != OP_APP:
            return
        if self._pruned and to in self._pruned:
            # The ack was already cancelled synthetically when ``to`` was
            # pruned; a late transport ack (delivered just before the crash,
            # deferred across a down interval) must not double-count.
            return
        vnode = self.vnodes[payload[1]]
        aw = vnode.ack_wait
        if aw is not None:
            aw.discard(to)
        vnode.sends_pending -= 1
        if vnode.sends_pending == 0:
            self._vnode_safe(vnode)

    def _vnode_safe(self, vnode: _VNode) -> None:
        """All of (v, w)'s messages are delivered: emit the flow-(w+1) leaf
        report (emptiness over-approximated as 'has recipients')."""
        q = vnode.pulse + 1
        if q <= self.max_pulse:
            self._flow_assembled(vnode, q, empty=False)

    def _evaluate(self, p: int) -> None:
        if p in self.evaluated:
            return
        self.evaluated.add(p)
        batch: ArrivedBatch = tuple(sorted(self.arrived.get(p - 1, ())))
        api = self._api
        api.reset()
        self.program.on_pulse(api, batch)
        sends, has_output, value = api.collect()
        if sends and p >= self.max_pulse:
            raise RuntimeError(
                f"program sends at pulse {p}, exceeding the declared pulse"
                f" bound {self.max_pulse} (Theorem 5.5 needs T(A) known)"
            )
        if has_output:
            self.set_output(value)
        senders = sorted({u for u, _ in batch})
        prev_vnode = self.vnodes.get(p - 1)
        chosen_parent: Optional[NodeId] = None
        parent_is_self = False
        if sends:
            if senders:
                chosen_parent = senders[0]
            elif prev_vnode is not None:
                parent_is_self = True
            else:
                raise RuntimeError(
                    f"node {self.node_id} sent at pulse {p} without any"
                    f" pulse-{p - 1} trigger: the program is not event-driven"
                )
            links = self._links
            vnode = _VNode(
                pulse=p, parent=chosen_parent, parent_is_self=parent_is_self,
                parent_link=(
                    None if chosen_parent is None else links[chosen_parent]
                ),
            )
            self._bind_sends(vnode, sends)
            self.vnodes[p] = vnode
            self._do_sends(vnode)
        # Chosen/not-chosen answers close the parents' child sets.
        links = self._links
        for u in senders:
            self._send_link(links[u], (OP_CHILD_ANS, p, u == chosen_parent), p)
        if prev_vnode is not None:
            self._child_answer(prev_vnode, self.SELF, sends and parent_is_self)

    def _handle_app(self, sender: NodeId, payload: Tuple) -> None:
        p = payload[1]
        if p + 1 in self.evaluated:
            raise AssertionError(
                f"node {self.node_id} received a pulse-{p} message after"
                f" evaluating pulse {p + 1} — Lemma 5.1 violated"
            )
        # get-then-insert, not setdefault: setdefault evaluates its default,
        # allocating a throwaway list per delivered program message.
        arrived = self.arrived
        batch = arrived.get(p)
        if batch is None:
            batch = arrived[p] = []
        batch.append((sender, payload[2]))

    # ------------------------------------------------------------------
    # execution-forest child answers and flows
    # ------------------------------------------------------------------
    def _handle_child_answer(self, sender: NodeId, payload: Tuple) -> None:
        vnode = self._stale_vnode(payload[1] - 1)
        if vnode is None:
            return
        self._child_answer(vnode, sender, payload[2])

    def _child_answer(self, vnode: _VNode, who: Any, chosen: bool) -> None:
        left = vnode.answers_missing - 1
        if left < 0:
            raise AssertionError(
                f"unexpected child answer from {who} at ({self.node_id},"
                f" {vnode.pulse})"
            )
        vnode.answers_missing = left
        answ = vnode.ans_wait
        if answ is not None:
            answ.discard(who)
        if chosen:
            if who == self.SELF:
                vnode.self_child = True
            else:
                vnode.children.append(who)
        if left == 0:
            for q in list(vnode.flows):
                self._try_assemble(vnode, q)
            for q in assemble_pulses(vnode.pulse, self.max_pulse):
                self._try_assemble(vnode, q)

    # ------------------------------------------------------------------
    # churn recovery (DESIGN.md §11)
    # ------------------------------------------------------------------
    def _prune_execution(self, dead: NodeId) -> None:
        """Detach a crashed neighbor from the execution forest.

        Called from :meth:`prune_neighbor` once the modules are pruned.
        Cancels exactly the acknowledgments and chosen/not-chosen answers
        ``dead`` still owed (the ``ack_wait``/``ans_wait`` identity sets
        make the cancellation idempotent against answers that resolved
        before the crash was detected), removes ``dead`` from child sets
        and flow reports, and strips it from unsent emit lists.
        """
        dead_link = self._links[dead]
        for vnode in list(self.vnodes.values()):
            if not vnode.sent:
                # Not yet emitted: simply stop addressing the dead node.
                # The waits stay consistent because ``_do_sends`` derives
                # both counters from the (now filtered) emit list.
                if any(lid == dead_link for lid, _ in vnode.emits):
                    vnode.emits = tuple(
                        (lid, w) for lid, w in vnode.emits if lid != dead_link
                    )
                    vnode.release_links = tuple(
                        lid for lid in vnode.release_links if lid != dead_link
                    )
                    vnode.ans_wait.discard(dead)
                    vnode.ack_wait.discard(dead)
                continue
            aw = vnode.ack_wait
            if aw is not None and dead in aw:
                # The dead node never acknowledged: count the send as
                # resolved (it can never arrive — the transport jams
                # messages into a crashed receiver without acking).
                aw.discard(dead)
                vnode.sends_pending -= 1
                if vnode.sends_pending == 0:
                    self._vnode_safe(vnode)
            answ = vnode.ans_wait
            if answ is not None and dead in answ:
                # The dead node never answered chosen/not-chosen: a crashed
                # child is not-chosen by fiat.
                self._child_answer(vnode, dead, False)
            if dead in vnode.children:
                # Answered chosen before crashing: drop the subtree.  Any
                # flow already waiting on its report re-closes over the
                # surviving children.
                vnode.children.remove(dead)
                for flow in vnode.flows.values():
                    flow.reports.pop(dead, None)
                if vnode.answers_missing == 0:
                    for q in list(vnode.flows):
                        self._try_assemble(vnode, q)
                    for q in assemble_pulses(vnode.pulse, self.max_pulse):
                        self._try_assemble(vnode, q)

    def _stale_vnode(self, p: int) -> Optional[_VNode]:
        """Vnode lookup tolerating re-join staleness (DESIGN.md §15).

        In recovery mode a neighbor that won the rejoin-vs-detect race
        never pruned this node and keeps addressing execution-forest
        state the previous incarnation held; the fresh incarnation drops
        such traffic (``None``) instead of crashing — it stays passive
        for epochs it did not witness.  Outside recovery mode nodes are
        never rebuilt, so a missing vnode is a protocol bug and raises
        exactly as the plain indexing did.
        """
        vnode = self.vnodes.get(p)
        if vnode is None and not self.recovery:
            raise KeyError(p)
        return vnode

    def _handle_vflow(self, sender: NodeId, payload: Tuple) -> None:
        vnode = self._stale_vnode(payload[1])
        if vnode is None:
            return
        q = payload[2]
        flows = vnode.flows
        flow = flows.get(q)
        if flow is None:
            flow = flows[q] = Flow()
        if sender in flow.reports:
            raise AssertionError(f"duplicate flow report from {sender}")
        flow.reports[sender] = payload[3]
        self._try_assemble(vnode, q)

    def _self_flow_report(self, vnode: _VNode, q: int, empty: bool) -> None:
        flow = vnode.flow(q)
        flow.self_report = empty
        self._try_assemble(vnode, q)

    def _try_assemble(self, vnode: _VNode, q: int) -> None:
        flows = vnode.flows
        flow = flows.get(q)
        if flow is None:
            flow = flows[q] = Flow()
        if flow.assembled or vnode.answers_missing:
            return
        if q == vnode.pulse + 1:
            return  # leaf path (delivery confirmations) assembles this one
        # Flow reports only come from chosen children (the per-link priority
        # discipline delivers the child answer first), so a length check
        # replaces the old set comparison; a rogue reporter would surface as
        # a KeyError in the parts build below.
        if len(flow.reports) < len(vnode.children):
            return
        if vnode.self_child and flow.self_report is None:
            return
        reports = flow.reports
        empty = True
        for c in vnode.children:
            if not reports[c]:
                empty = False
                break
        if empty and vnode.self_child and not flow.self_report:
            empty = False
        self._flow_assembled(vnode, q, empty)

    def _vertex(self, pulse: int) -> _VNode:
        return self.vnodes[pulse]

    def _report_up(self, vnode: _VNode, q: int, flow: Flow) -> None:
        if vnode.parent_is_self:
            self._self_flow_report(self.vnodes[vnode.pulse - 1], q, flow.empty)
        else:
            self._send_link(
                vnode.parent_link, (OP_VFLOW, vnode.pulse - 1, q, flow.empty), q
            )

    # ------------------------------------------------------------------
    # Go-Ahead propagation down the forest
    # ------------------------------------------------------------------
    def _release_down(self, vnode: _VNode, q: int) -> None:
        if q in vnode.ga_released:
            return
        vnode.ga_released.add(q)
        send_link = self._send_link
        if vnode.pulse == q - 1:
            # The fan-out rides the precomputed release links (distinct
            # recipients in ascending node-id order — the emit order is
            # part of the pinned schedule, resolved once at vnode creation).
            payload = (OP_VRELEASE, q)
            for lid in vnode.release_links:
                send_link(lid, payload, q)
            self._evaluate(q)  # a pulse-(q-1) sender is itself triggered
            return
        flow = vnode.flow(q)
        reports_get = flow.reports.get
        links = self._links
        payload = (OP_VGA, q, vnode.pulse + 1)
        for c in vnode.children:
            if reports_get(c) is False:
                send_link(links[c], payload, q)
        if vnode.self_child and flow.self_report is False:
            self._release_down(self.vnodes[vnode.pulse + 1], q)

    def _handle_vga(self, sender: NodeId, payload: Tuple) -> None:
        vnode = self._stale_vnode(payload[2])
        if vnode is None:
            return
        self._release_down(vnode, payload[1])

    def _handle_vrelease(self, sender: NodeId, payload: Tuple) -> None:
        self._evaluate(payload[1])


class SynchronizerProcess(Process):
    spec: ProgramSpec
    registry: CoverRegistry
    max_pulse: int
    initiators: FrozenSet[NodeId]
    infos: Dict[NodeId, NodeInfo]

    # Only program (OP_APP, ...) messages feed the safety bookkeeping; the
    # transport skips the on_delivered call for all machinery traffic.
    ACK_INTEREST_PREFIX = OP_APP

    #: Opcode range of the node engine's dispatch tuple (0..OP_VRELEASE):
    #: the transport validates the table against this at wiring time.
    NUM_OPCODES = OP_VRELEASE + 1

    #: Track ack/answer identities for churn pruning (DESIGN.md §11).  The
    #: recovery subclass in :mod:`repro.core.recovery` sets True; the
    #: fault-free schedule is unchanged either way.
    recovery: bool = False

    @classmethod
    def bind(
        cls,
        graph: Graph,
        spec: ProgramSpec,
        registry: Optional[CoverRegistry] = None,
        max_pulse: Optional[int] = None,
        builder: str = "ap",
    ) -> type:
        """This class bound to one run's immutable setup: the pulse bound
        (measured when not given), the cover registry (built when not
        given) with the levels a node reads loaded, the initiators and the
        node infos.  Subclasses (the recovery process, model-checker
        mutants) bind the same way."""
        if max_pulse is None:
            max_pulse = pulse_bound_for(graph, spec)
        if registry is None:
            registry = registry_for_threshold(graph, max_pulse, builder)
        registry.load(SynchronizerNode.cover_levels(registry))
        return bound_process_class("Bound" + cls.__name__, cls, dict(
            spec=spec,
            registry=registry,
            max_pulse=max_pulse,
            initiators=frozenset(spec.initiators(graph)),
            infos=spec.make_infos(graph),
        ))

    def __init__(self, ctx: ProcessContext) -> None:
        super().__init__(ctx)
        self.node = SynchronizerNode(
            node_id=ctx.node_id,
            info=self.infos[ctx.node_id],
            program_factory=self.spec.node_factory,
            is_initiator=ctx.node_id in self.initiators,
            registry=self.registry,
            max_pulse=self.max_pulse,
            send=ctx.send,
            set_output=ctx.set_output,
            # getattr: reference/teaching engines run the same process class
            # without a dense link table; the node then falls back to
            # node-id sends (the identity link map).
            links=getattr(ctx, "links", None),
            send_link=getattr(ctx, "send_link", None),
            recovery=self.recovery,
        )
        # Instance-level binds shadow the class methods below so the
        # transport calls straight into the node engine (one frame less per
        # delivered message); the methods remain as documentation and for
        # subclasses that super()-call.  ``on_message_table`` exposes the
        # opcode-indexed handler tuple to the transport's table fast path
        # (every synchronizer payload starts with a valid opcode, so the
        # guarded ``handle`` wrapper is needed only for external callers).
        self.on_message = self.node.handle
        self.on_message_table = self.node._dispatch
        self.on_delivered = self.node.on_delivered

    def on_start(self) -> None:
        self.node.start()

    def on_message(self, sender: NodeId, payload: Tuple) -> None:
        self.node.handle(sender, payload)

    def on_delivered(self, to: NodeId, payload: Tuple) -> None:
        self.node.on_delivered(to, payload)


# The measured pulse bound is a pure function of (graph, spec); benchmark
# sweeps re-run the same pair many times.  Weak keys release dead graphs.
_PULSE_BOUND_CACHE: "WeakKeyDictionary[Graph, Dict[ProgramSpec, int]]" = (
    WeakKeyDictionary()
)


def pulse_bound_for(graph: Graph, spec: ProgramSpec) -> int:
    """Round bound T(A) for the Theorem 5.5 setting, measured synchronously."""
    per_graph = _PULSE_BOUND_CACHE.get(graph)
    if per_graph is None:
        per_graph = _PULSE_BOUND_CACHE[graph] = {}
    bound = per_graph.get(spec)
    if bound is None:
        rounds = run_synchronous(graph, spec).rounds_total
        bound = per_graph[spec] = 1 << max(1, math.ceil(math.log2(max(rounds, 2))))
    return bound


class SynchronizerSweep(ProtocolSweep):
    """Replay one event-driven program under many delay models.

    ``SynchronizerSweep(graph, spec).run(model)`` is byte-identical to
    ``run_synchronized(graph, spec, model)`` — which is exactly that call
    on a fresh sweep — but the cover/registry/pulse-bound setup is paid
    once for the whole sweep instead of once per model.  Construction
    runs under the package's GC pause, like the cover, registry and
    runtime it builds on.
    """

    MAX_EVENTS = 100_000_000

    @paused_gc()
    def __init__(
        self,
        graph: Graph,
        spec: ProgramSpec,
        registry: Optional[CoverRegistry] = None,
        max_pulse: Optional[int] = None,
        builder: str = "ap",
    ) -> None:
        super().__init__(graph, SynchronizerProcess.bind(
            graph, spec, registry=registry, max_pulse=max_pulse,
            builder=builder,
        ))
        bound = self.process_cls
        self.spec, self.registry, self.max_pulse = (
            spec, bound.registry, bound.max_pulse)

    def finish(self, result: AsyncResult) -> AsyncResult:
        """Raise unless the run reached quiescence."""
        if result.stop_reason != "quiescent":
            raise RuntimeError(
                f"synchronizer did not finish: {result.stop_reason}"
            )
        return result


def run_synchronized(
    graph: Graph,
    spec: ProgramSpec,
    delay_model: DelayModel,
    registry: Optional[CoverRegistry] = None,
    max_pulse: Optional[int] = None,
    builder: str = "ap",
    max_events: int = 100_000_000,
) -> AsyncResult:
    """Run ``spec`` asynchronously under the deterministic synchronizer.

    ``max_pulse`` is the known bound on T(A) (Theorem 5.5); when omitted it
    is measured by one synchronous execution, which is also how the
    benchmark harness computes overhead ratios.
    """
    sweep = SynchronizerSweep(
        graph, spec, registry=registry, max_pulse=max_pulse, builder=builder
    )
    return sweep.run(delay_model, max_events=max_events)
