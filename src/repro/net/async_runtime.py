"""Asynchronous message-passing simulator (Sections 1.1, 2.2, Appendix B).

Model implemented here:

* Per-message delays are chosen by a :class:`~repro.net.delays.DelayModel`
  (the adversary), bounded by ``tau = 1``; reported times are therefore
  already normalized, matching the paper's ``T = T_real / tau`` definition.
* The acknowledgment discipline of Appendix B: each node may have at most one
  algorithm message in flight per directed link; the next message is injected
  only when the previous one's acknowledgment returns.  Acknowledgments ride
  outside the discipline (at most one each way), also with adversarial delay.
* Per-link outboxes are priority queues.  A message's ``priority`` tuple
  encodes its stage (Lemma 2.5: lower stages first) and its procedure's
  round-robin ticket (Corollary 2.3: fairness among same-stage procedures
  sharing an edge), so the scheduling lemmas of Section 2.2 are realized by
  the transport itself and every protocol above gets them for free.

Protocols are :class:`Process` subclasses; one instance runs per node and
reacts to deliveries via ``on_message``.

Performance architecture (DESIGN.md §6, §8, §9): the runtime *is* the event
loop.  It subclasses :class:`~repro.net.events.EventQueue` and pops
plain-tuple records ``(time, seq, kind, ...)`` in one inlined dispatch
loop.  Per-directed-link state lives in a *struct-of-arrays link table*
(DESIGN.md §8): dense ``link_id`` ints index parallel lists for the busy
slot, outbox head, sequence counters, bound handlers, and the fused-ack
reservation.

A delivery record carries everything its dispatch needs inline: the link
id, the payload, the link's injection number, and the pre-drawn
acknowledgment delay.  The injection number encodes the historical redraw
rule (see ``_ack_delay``): a delivery whose link saw a later injection
before it fired redraws its ack delay.  Acknowledgments split into two
kinds at delivery time: a sender that wants its ``on_delivered`` callback
for this payload gets an :data:`~repro.net.events.EV_ACK_PAYLOAD` record
(payload inline); everyone else gets a bare
:data:`~repro.net.events.EV_ACK` record whose dispatch is nothing but
"free the link, drain the outbox".

Delay randomness is drawn in *blocks*, the one draw shape of the
transport: each link's next :data:`~repro.net.delays.BLOCK_PAIRS`
(message delay, ack delay) pairs are filled into one flat per-runtime
float array in a single closure call, and a send consumes two list loads
instead of calling into the model at all.  The fill is the model's own
``block_stream`` (all shipped models have one) or, for any other model,
:func:`~repro.net.delays.call_block_stream` over its plain ``__call__``.
Per-link injection numbers are strictly sequential, so a block is always
consumed in order and refilled exactly at its boundary; sweeps pass one
shared buffer across replays (:mod:`repro.net.sweep`) so the allocation is
paid once per sweep.

A message usually costs no acknowledgment event at all: when nobody waits
on an ack (no ``on_delivered`` interest, nothing queued or outstanding on
the link), the ack's ``(time, seq)`` identity is merely *reserved* and the
event is materialized only if a later send actually has to wait on it.
Under a fault schedule every transport record passes the fault checks, and
only acks whose firing would be a no-op are fused (DESIGN.md §11).  Under
a controller (``controller=``, a :class:`repro.check.control.
ScheduleController`: the model checker, DESIGN.md §13) the loop head takes
each next record from ``controller.next_record`` instead of the heap top,
with the same fault checks, and no ack is fused.  The controlled mode
itself lives in :mod:`repro.check.control`; this package never imports
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from math import inf
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, MutableSequence, Optional, Tuple
from weakref import WeakKeyDictionary

from ..gcpause import paused_gc
from .delays import (
    BLOCK_PAIRS,
    DelayModel,
    InvalidDelayError,
    TAU,
    call_block_stream,
)
from .faults import DETECT_TIMEOUT, FaultSchedule
from .events import EV_ACK, EV_ACK_PAYLOAD, EV_CALLBACK, EV_DELIVER, EventQueue
from .graph import Graph, NodeId, UnknownLinkError

Payload = Any
Priority = Tuple[Any, ...]
LinkId = int

DEFAULT_PRIORITY: Priority = (0,)

#: Floats per link in a block buffer: BLOCK_PAIRS interleaved
#: (message delay, ack delay) pairs.  Must be a power of two: the send hot
#: path detects block exhaustion as ``cursor & (BLOCK_SPAN - 1) == 0``
#: (cursors rest at a region boundary exactly when the previous cycle is
#: fully consumed), which costs no per-link limit load.
BLOCK_SPAN = 2 * BLOCK_PAIRS
if BLOCK_SPAN & (BLOCK_SPAN - 1):
    # A plain raise, not an assert: stripped asserts under ``python -O``
    # would let a mis-tuned BLOCK_PAIRS silently serve stale buffer values
    # as delays (the mask-based exhaustion test needs power-of-two regions).
    raise ValueError(
        f"BLOCK_PAIRS must be a power of two, got {BLOCK_PAIRS}"
    )


def make_block_buffer(num_links: int) -> MutableSequence[float]:
    """A zeroed flat delay-block buffer for ``num_links`` links.

    A plain list: fills store the float objects they compute, and the send
    path reads them back by reference — two float allocations per message,
    exactly what a per-message (delay, ack) draw would pay.  (An
    ``array('d')`` was measured and rejected: unboxing on fill plus
    re-boxing on read doubles the float allocations per message, which
    costs more than the raw-double layout saves — and with
    :data:`~repro.net.delays.BLOCK_PAIRS` small, the resident float set
    stays a few hundred KB even at n=1024.)
    """
    return [0.0] * (BLOCK_SPAN * num_links)


def _drop_delivery(sender: NodeId, payload: Payload) -> None:
    """Receive handler of a muted link (see :meth:`ProcessContext.mute`)."""


def _fill_checked(
    fill, buf, base: int, seq: int, lid: LinkId, skeleton: "LinkSkeleton",
) -> None:
    """Run one block fill for link ``lid``, then validate every delay.

    A per-element loop on purpose: ``min``/``max`` reductions can skip NaN
    (every comparison with NaN is False), which is exactly the value that
    must not reach the heap.  Runs once per :data:`~repro.net.delays.
    BLOCK_PAIRS` messages, so the validation cost is amortized to a couple
    of float comparisons per send.  The error names the slot and its
    directed link; the link is looked up only when a value is bad.
    """
    fill(buf, base, seq, BLOCK_PAIRS)
    for x in buf[base:base + BLOCK_SPAN]:
        if not 0.0 < x <= TAU:
            off = next(j for j in range(BLOCK_SPAN)
                       if not 0.0 < buf[base + j] <= TAU)
            u = skeleton.lu[lid]
            v = skeleton.lv[lid]
            k = seq + off // 2
            if off % 2:
                link, slot = f"{v}->{u}", f"ack of {u}->{v} injection {k}"
            else:
                link, slot = f"{u}->{v}", f"message, injection {k}"
            raise InvalidDelayError(
                f"delay model produced {x!r} outside (0, {TAU}] on {link}"
                f" ({slot})"
            )


class LinkSkeleton:
    """Immutable directed-link table of one graph: the dense id assignment.

    ``link_id`` ints are assigned once per graph — both orientations of
    every edge, in edge order — and everything derived from the assignment
    alone lives here: the endpoint arrays ``lu``/``lv`` (link id -> source /
    destination node), the per-node outgoing map ``out`` (node ->
    {neighbor -> link id}), and the per-link block bounds ``blk_lims``
    (``(lid + 1) * BLOCK_SPAN``, the exclusive end of link ``lid``'s region
    in a flat block buffer).  Event records name a link by its id alone.
    All of it is immutable after construction, so one skeleton is shared by
    every runtime over the same graph (sweep replays in particular; see
    :func:`link_skeleton_for`).
    """

    __slots__ = ("lu", "lv", "out", "num_links", "blk_lims")

    def __init__(self, graph: Graph) -> None:
        lu: List[NodeId] = []
        lv: List[NodeId] = []
        out: Dict[NodeId, Dict[NodeId, LinkId]] = {v: {} for v in graph.nodes}
        lid = 0
        for u, v in graph.edges:
            lu.append(u)
            lv.append(v)
            out[u][v] = lid
            lid += 1
            lu.append(v)
            lv.append(u)
            out[v][u] = lid
            lid += 1
        self.lu: Tuple[NodeId, ...] = tuple(lu)
        self.lv: Tuple[NodeId, ...] = tuple(lv)
        # Read-only views: the skeleton is shared by every runtime over the
        # graph (and exposed as ``ProcessContext.links``), so a protocol
        # mutating its link map must fail loudly instead of corrupting the
        # per-graph cache.  MappingProxyType lookups stay C-level.
        self.out: Mapping[NodeId, Mapping[NodeId, LinkId]] = MappingProxyType(
            {v: MappingProxyType(links) for v, links in out.items()}
        )
        self.num_links = lid
        self.blk_lims = tuple(range(BLOCK_SPAN, (lid + 1) * BLOCK_SPAN,
                                    BLOCK_SPAN))

    def __getstate__(self):
        """Explicit pickle state: the link-id assignment itself.

        ``mappingproxy`` views don't pickle, and the block bounds are a pure
        function of ``num_links`` — so a shipped skeleton carries only the
        endpoint arrays and a plain-dict copy of the outgoing map.
        Crucially this preserves the *parent's* id assignment verbatim: a
        sharded sweep worker (repro.net.shard) replays against exactly the
        link ids the parent's digests were computed over, instead of
        re-deriving them from the unpickled graph.
        """
        return (self.lu, self.lv,
                {v: dict(links) for v, links in self.out.items()})

    def __setstate__(self, state) -> None:
        lu, lv, out = state
        self.lu = tuple(lu)
        self.lv = tuple(lv)
        self.out = MappingProxyType(
            {v: MappingProxyType(dict(links)) for v, links in out.items()}
        )
        lid = len(self.lu)
        self.num_links = lid
        self.blk_lims = tuple(range(BLOCK_SPAN, (lid + 1) * BLOCK_SPAN,
                                    BLOCK_SPAN))


#: Skeletons are pure functions of the immutable graph; weak keys release
#: dead graphs.  Standalone runs over one graph share the table exactly as
#: sweep replays do.
_SKELETON_CACHE: "WeakKeyDictionary[Graph, LinkSkeleton]" = WeakKeyDictionary()


def link_skeleton_for(graph: Graph) -> LinkSkeleton:
    skeleton = _SKELETON_CACHE.get(graph)
    if skeleton is None:
        skeleton = _SKELETON_CACHE[graph] = LinkSkeleton(graph)
    return skeleton


def adopt_skeleton(graph: Graph, skeleton: LinkSkeleton) -> LinkSkeleton:
    """Seed the per-graph cache with a skeleton shipped from another process.

    The per-graph cache is keyed by graph *identity* (weak keys), so a
    worker that unpickles a ``(graph, skeleton)`` pair starts with a cold
    cache even though the parent built the table already.  Adopting the
    shipped skeleton makes the parent's link-id assignment authoritative in
    the child: every standalone runtime (and every sweep) over the adopted
    graph object shares the one table, exactly as in the parent.  If the
    child cached a skeleton for this graph first, the cached one wins — both
    are derived from the same immutable graph, so they are equal — keeping
    a single shared table per graph either way.
    """
    cached = _SKELETON_CACHE.get(graph)
    if cached is not None:
        return cached
    _SKELETON_CACHE[graph] = skeleton
    return skeleton


class Process:
    """Base class for one node's asynchronous protocol instance."""

    def __init__(self, ctx: "ProcessContext") -> None:
        self.ctx = ctx

    def on_start(self) -> None:  # pragma: no cover - default no-op
        """Called once at time 0."""

    def on_message(self, sender: NodeId, payload: Payload) -> None:
        raise NotImplementedError

    #: Optional filter for ``on_delivered``: when a subclass overrides the
    #: hook but only cares about payloads whose first element equals this
    #: value (and ALL its payloads are non-empty tuples), setting the class
    #: attribute lets the transport skip the callback inline for everything
    #: else — one comparison instead of a Python call per acknowledgment.
    #: Any equality-comparable constant works; the synchronizer stack uses a
    #: small-int opcode.
    ACK_INTEREST_PREFIX: Optional[Any] = None

    #: Optional per-opcode dispatch fast path: a process whose payloads are
    #: ALL tuples starting with a valid small-int opcode may set (usually as
    #: an instance attribute) a tuple of bound handlers indexed by opcode.
    #: The transport then calls ``on_message_table[payload[0]]`` directly,
    #: skipping one wrapper frame per delivery.  The table is trusted: the
    #: transport performs no bounds or sign check (in-simulation traffic
    #: comes from the process's own sends), while the public ``handle``
    #: entry points of the protocol stack keep their guarded dispatch for
    #: externally supplied payloads.
    on_message_table: Optional[Tuple[Callable[[NodeId, Payload], None], ...]] = None

    #: Declared opcode range of ``on_message_table``: when set, the engine
    #: validates ``len(on_message_table) == NUM_OPCODES`` once at wiring time
    #: (alongside a callable check on every slot), so a short or gap-ridden
    #: table fails loudly at setup instead of as an ``IndexError``/
    #: ``TypeError`` deep inside the dispatch loop.  ``None`` skips the
    #: length check (the callable check still runs for any table).
    NUM_OPCODES: Optional[int] = None

    def on_delivered(self, to: NodeId, payload: Payload) -> None:
        """Acknowledgment arrived: ``payload`` was delivered to ``to``.

        The asynchronous model already pays for these acknowledgments
        (Appendix B); protocols that need delivery confirmation — the general
        synchronizer's safety bookkeeping — override this hook.  Default:
        no-op (and the transport skips the call entirely for processes that
        do not override it).
        """

    def on_neighbor_dead(self, neighbor: NodeId) -> None:  # pragma: no cover
        """Failure-detector callback: ``neighbor`` crashed and will never
        answer again.

        Fires ``DETECT_TIMEOUT`` after the neighbor's crash, only under a
        :class:`~repro.net.faults.FaultSchedule` with crashes and only for
        processes that override the hook (the transport elides detectors
        otherwise, so fault-free schedules stay byte-identical).  Default:
        no-op.

        Not fired at all when the neighbor re-joins before the detector
        would have gone off (``rejoin_time <= crash + DETECT_TIMEOUT``):
        a flap faster than the timeout is indistinguishable from slowness
        under the synchrony bound, so the detector stays silent.
        """

    def on_neighbor_alive(self, neighbor: NodeId) -> None:  # pragma: no cover
        """Recovery-detector callback: ``neighbor`` re-joined the network.

        The symmetric hook to :meth:`on_neighbor_dead` (DESIGN.md §15).
        Fires ``DETECT_TIMEOUT`` after the neighbor's rejoin time, only
        under a schedule with re-joins and only for processes that override
        the hook.  The delay is the same sound bound as detection: by
        ``rejoin + DETECT_TIMEOUT`` every pre-rejoin transport record on
        the shared link has either fired or been voided, so readmitting the
        neighbor cannot interleave the old incarnation's traffic with the
        new one's.  Default: no-op.
        """


class ProcessContext:
    """Per-node handle into the runtime: identity, sending, and output.

    ``send`` is bound directly to the runtime's enqueue path (a C-level
    partial application of this node's outgoing link map), so a protocol
    send costs one Python frame.  ``links`` maps each neighbor to the dense
    id of the directed link toward it, and ``send_link`` is the int-indexed
    fast path: protocol engines that resolve their destinations once (the
    synchronizer stack caches parent/children/recipient link ids in their
    per-stage state) skip the per-send neighbor lookup entirely.
    """

    __slots__ = ("_runtime", "node_id", "neighbors", "links", "send",
                 "send_link")

    def __init__(self, runtime: "AsyncRuntime", node_id: NodeId) -> None:
        self._runtime = runtime
        self.node_id = node_id
        self.neighbors = runtime.graph.neighbors(node_id)
        #: neighbor -> dense link id (shared skeleton state; a read-only
        #: mapping — the table is aliased by every runtime over the graph).
        self.links: Mapping[NodeId, LinkId] = runtime._out[node_id]
        # send(to, payload, priority=DEFAULT_PRIORITY)
        self.send = partial(runtime._enqueue_from, self.links, node_id)
        # send_link(link_id, payload, priority=DEFAULT_PRIORITY): the
        # closure form with the link-table arrays pre-bound (cell loads
        # beat attribute loads on the per-send hot path).
        self.send_link = runtime._send_on

    @property
    def now(self) -> float:
        return self._runtime.now

    def schedule_environment_event(self, delay: float, callback) -> None:
        """Schedule an adversary/environment-controlled local event.

        Protocols themselves must never use this (the asynchronous model has
        no clocks); it exists for tests and workload drivers that model the
        environment handing a node an input at an arbitrary time.  Under a
        fault schedule the callback is crash-guarded: a fail-stop node takes
        no steps at or after its crash time, environment-driven or not.
        """
        runtime = self._runtime
        crash_t = runtime._crash_t
        if crash_t is not None:
            t_crash = crash_t[self.node_id]
            if t_crash < inf:
                rejoin_t = runtime._rejoin_t
                t_rejoin = inf if rejoin_t is None else rejoin_t[self.node_id]

                def guarded(_cb=callback, _rt=runtime, _t=t_crash,
                            _r=t_rejoin) -> None:
                    # Dead window is [crash, rejoin): a re-joined node takes
                    # environment steps again.
                    if _rt._now < _t or _rt._now >= _r:
                        _cb()

                runtime.schedule(delay, guarded)
                return
        runtime.schedule(delay, callback)

    def reset_link(self, to: NodeId) -> None:
        """Abandon the outgoing link toward ``to`` (recovery hook).

        A crashed receiver never acknowledges, so the Appendix B discipline
        jams the link forever; a process told by its failure detector that
        ``to`` is dead calls this to clear the in-flight slot and discard
        everything queued toward the corpse.  Only meaningful under a fault
        schedule.

        Interaction with re-joins (DESIGN.md §15): un-jamming here and the
        transport's own un-jam at ``to``'s rejoin time compose cleanly —
        both merely clear sender-side link state, and any record that was
        in flight on the link when ``to`` crashed is *void* at the rejoin
        regardless (the returned incarnation shares no link-layer state
        with the old one).  So the first message the returned ``to``
        observes on this link is whichever send follows the later of the
        reset and the rejoin, in plain injection order: the rejoin-time
        delivery order is exactly the post-rejoin send order, never a
        resurrected pre-crash packet.
        """
        self._runtime._reset_link(self.links[to])

    def mute(self, neighbor: NodeId) -> None:
        """Discard every later delivery from ``neighbor`` (recovery hook).

        Swaps the incoming link's link-table entries for a drop handler, so
        the transport discards a pruned sender's stragglers (a pre-crash
        message deferred across a down interval can arrive arbitrarily
        late) while every other delivery keeps its opcode-table dispatch.
        Acknowledgments still return.  A rejoin of this node clears its
        mutes (the fresh incarnation is wired unmuted).
        """
        lid = self._in_link(neighbor)
        self._runtime._table[lid] = None
        self._runtime._deliver[lid] = _drop_delivery

    def unmute(self, neighbor: NodeId) -> None:
        """Undo :meth:`mute`: deliveries from ``neighbor`` reach this node's
        current handlers again.  A no-op for a link that is not muted."""
        lid = self._in_link(neighbor)
        proc = self._runtime.processes[self.node_id]
        self._runtime._table[lid] = proc.on_message_table
        self._runtime._deliver[lid] = proc.on_message

    def _in_link(self, neighbor: NodeId) -> LinkId:
        if neighbor not in self.links:
            raise UnknownLinkError(self.node_id, neighbor)
        return self._runtime._out[neighbor][self.node_id]

    def set_output(self, value: Any) -> None:
        self._runtime._record_output(self.node_id, value)

    def edge_weight(self, to: NodeId) -> float:
        return self._runtime.graph.weight(self.node_id, to)


@dataclass
class AsyncResult:
    """Outcome of one asynchronous execution (times normalized by tau)."""

    time_to_output: float
    time_to_quiescence: float
    messages: int
    acks: int
    outputs: Dict[NodeId, Any]
    output_time: Dict[NodeId, float]
    #: Number of scheduler events dispatched.  By default fused
    #: acknowledgments (never materialized as events) count as zero; with
    #: ``AsyncRuntime(count_fused_acks=True)`` they are added back, restoring
    #: the paper's raw per-event accounting (one event per delivery and per
    #: acknowledgment).
    events_fired: int
    stop_reason: str
    #: Messages lost to faults: deliveries whose receiver had crashed plus
    #: per-link drop events.  Always 0 without a fault schedule.
    dropped: int = 0

    @property
    def messages_with_acks(self) -> int:
        return self.messages + self.acks


class AsyncRuntime(EventQueue):
    """Discrete-event executor for one protocol over one graph.

    Its heap holds the plain-tuple records of :mod:`repro.net.events`; a
    transport record names its directed link by id (field 3) and carries
    its own payload, and a delivery also its injection number and
    pre-drawn ack delay.  ``run`` pops them in one loop with one delivery
    branch, for timed, faulty and controlled runs alike (DESIGN.md §9).
    Directed-link state is a struct-of-arrays table indexed by the dense
    link ids of the graph's :class:`LinkSkeleton` (DESIGN.md §8):

    * ``_busy[lid]`` — the Appendix B in-flight slot;
    * ``_outbox[lid]`` — the priority outbox heap (``None`` until first used);
    * ``_seq[lid]`` — outbox FIFO tiebreaker;
    * ``_injected[lid]`` — injection counter (drives the block fills and
      recovers ``messages`` at run end);
    * ``_pending[lid]`` — scheduled transport records outstanding for the
      link.  Normally alternates 1 -> 1 -> 0; an ``on_delivered`` callback
      sending on the link it is being notified about can race the ack drain
      and put two messages in flight (a quirk the reference engine has too).
      Gates ack fusing (only allowed when the delivery being dispatched is
      the link's one outstanding record);
    * ``_deliver[lid]`` / ``_table[lid]`` — the receiver's bound
      ``on_message`` and optional opcode dispatch table (a drop handler
      and ``None`` while muted);
    * ``_delivered[lid]`` / ``_ack_prefix[lid]`` — the sender's overridden
      ``on_delivered`` (or ``None``) and its interest prefix;
    * ``_blk_fill[lid]`` / ``_blk_i[lid]`` (+ the flat ``_blk_buf``) —
      per-link block-fill closures and cursors: the model's own
      ``block_stream``, or :func:`~repro.net.delays.call_block_stream`
      over its ``__call__``;
    * ``_free_at[lid]`` / ``_reserved[lid]`` — fused-acknowledgment state:
      when a delivery needs no callback and the outbox is empty, no ack
      event is pushed at all; the ack's (time, seq) identity is *reserved*
      here and only materialized if a later send has to wait on it.
    """

    __slots__ = (
        "graph", "delay_model", "count_fused_acks", "trace",
        "_skeleton", "_lu", "_lv", "_out", "_busy", "_outbox", "_seq",
        "_injected", "_pending", "_deliver", "_table", "_delivered",
        "_ack_prefix", "_blk_fill", "_blk_buf", "_blk_i", "_free_at",
        "_reserved", "_send_on", "_enqueue_from", "_inject_link",
        "messages", "acks", "_fused", "outputs",
        "output_time", "_time_to_output", "processes", "_active_seq",
        "faults", "_crash_t", "_down_fn", "_drop_fn",
        "dropped", "controller", "_rejoin_t", "_stale_seq",
        "_process_factory", "rejoined", "_started", "_horizon",
    )

    @paused_gc()
    def __init__(
        self,
        graph: Graph,
        process_factory: Callable[[ProcessContext], Process],
        delay_model: DelayModel,
        trace: Optional[Callable[[float, NodeId, NodeId, Payload], None]] = None,
        count_fused_acks: bool = False,
        skeleton: Optional[LinkSkeleton] = None,
        block_buffer: Optional[MutableSequence[float]] = None,
        faults: Optional[FaultSchedule] = None,
        controller: Optional[Any] = None,
    ) -> None:
        """``count_fused_acks=True`` restores the paper's raw event
        accounting in ``events_fired`` (fused acknowledgments count as one
        event each, as they did before ack fusing); it does not change the
        schedule, the metrics semantics of ``acks``, or the ``max_events``
        budget, which only meters events that actually enter the heap.
        ``skeleton`` is the graph's precomputed :class:`LinkSkeleton` —
        sweep harnesses pass theirs so the dense link-id assignment is
        derived from the graph only once per sweep; by default it comes
        from the per-graph cache.  ``block_buffer`` is the flat delay-block
        array (``num_links * BLOCK_SPAN`` floats) — sweeps pass one shared
        buffer so the allocation is paid once per sweep; it is pure scratch
        (every value is re-derived from the delay model's pure fills on
        refill), but the caller must not run two runtimes sharing one
        buffer concurrently.  By default each runtime allocates its own.
        ``faults`` is an optional :class:`~repro.net.faults.FaultSchedule`;
        an empty schedule is normalized to ``None`` so it provably cannot
        perturb the fault-free schedule (the dispatch loop's fault branches
        are only taken when a schedule is active); a neighbor's failure
        detector fires :data:`~repro.net.faults.DETECT_TIMEOUT` after its
        crash.
        ``controller`` is a :class:`repro.check.control.ScheduleController`
        that picks every next record (DESIGN.md §13); it excludes
        ``faults``.
        Construction runs under the package's GC pause (DESIGN.md §8): the
        link table and the process instances are long-lived, so collector
        passes over them would free nothing.
        """
        super().__init__()
        self.graph = graph
        self.delay_model = delay_model
        self.count_fused_acks = count_fused_acks
        self.trace = trace
        if skeleton is None:
            skeleton = link_skeleton_for(graph)
        self._skeleton = skeleton
        lu = self._lu = skeleton.lu
        lv = self._lv = skeleton.lv
        self._out = skeleton.out
        n_links = skeleton.num_links
        if faults is not None and faults.is_empty():
            # Empty schedules normalize to "no faults": the fault-free
            # loop runs and existing schedules/metrics stay byte-identical.
            faults = None
        if controller is not None and faults is not None:
            # Controlled runs model fail-stop crashes as controller-chosen
            # actions (the controller's ``crashable``); a timer-keyed
            # fault schedule would reintroduce the clock the controller
            # exists to replace.
            raise ValueError(
                "controller and faults are mutually exclusive: controlled"
                " runs take crash points from ScheduleController.crashable"
            )
        self.controller = controller
        #: Nodes that re-joined during the run (schedule-keyed or
        #: controller-chosen), with the time of the rejoin.
        self.rejoined: Dict[NodeId, float] = {}
        self.faults = faults
        self.dropped = 0
        # Kept for rejoin rebuilds only (a returned node gets a *fresh*
        # process from the same factory); never touched on fault-free runs.
        self._process_factory = process_factory
        if faults is None and controller is None:
            self._crash_t: Optional[List[float]] = None
            self._down_fn = None
            self._drop_fn = None
            self._rejoin_t: Optional[List[float]] = None
        elif faults is None:
            # Controlled run: crashes and rejoins are chosen at run time and
            # write their logical times here, so the fault checks of the
            # dispatch loop serve both modes.  No link is ever down or drops.
            self._crash_t = [inf] * len(graph.nodes)
            self._rejoin_t = [inf] * len(graph.nodes)
            self._down_fn = self._drop_fn = [None] * n_links
        else:
            # Fault state resolved once per runtime: per-node crash times
            # (``inf`` = never) and per-directed-link down/drop checkers
            # (``None`` = the link is never down / never drops), all pure
            # functions of the schedule's seed.
            self._crash_t = [faults.crash_time(v) for v in graph.nodes]
            self._down_fn = [
                faults.down_checker(lu[i], lv[i]) for i in range(n_links)
            ]
            self._drop_fn = [
                faults.drop_checker(lu[i], lv[i]) for i in range(n_links)
            ]
            self._rejoin_t = [faults.rejoin_time(v) for v in graph.nodes]
        # Per-link stale-record watermark: a transport record whose seq is
        # below the link's watermark was in flight when an incident endpoint
        # re-joined and is *void* at fire time (DESIGN.md §15).  All zeros
        # (every real seq is >= 0, and the watermark only moves at a rejoin)
        # means the check is inert on schedules without rejoins.
        self._stale_seq = [0] * n_links
        # Mutable per-replay link state: flat parallel lists (outboxes stay
        # None until a send actually queues — `if outbox[lid]` treats None
        # and empty alike).
        self._busy = [False] * n_links
        self._outbox: List[Optional[List[Tuple[Priority, int, Payload]]]] = (
            [None] * n_links
        )
        self._seq = [0] * n_links
        self._injected = [0] * n_links
        self._pending = [0] * n_links
        self._free_at = [0.0] * n_links
        self._reserved: List[Optional[int]] = [None] * n_links
        block_factory = getattr(delay_model, "block_stream", None)
        if block_factory is None:
            block_factory = partial(call_block_stream, delay_model)
        # Delays come from the flat block buffer.  Cursors start at the
        # exclusive region end, so the first send on a link triggers a fill
        # at its injection number (blocks therefore stay aligned even
        # across run() calls on a buffer another replay has dirtied).
        self._blk_fill = [block_factory(lu[i], lv[i]) for i in range(n_links)]
        if block_buffer is None:
            block_buffer = make_block_buffer(n_links)
        self._blk_buf: MutableSequence[float] = block_buffer
        self._blk_i: List[int] = list(skeleton.blk_lims)
        self.messages = 0
        self.acks = 0
        self._fused = 0
        # Latest fused-ack time over the whole execution: a fused ack never
        # enters the heap, but quiescence still accounts for it (Appendix B
        # pays for acknowledgments), also across resumed ``run`` calls.
        self._horizon = 0.0
        # Whether ``run`` has scheduled the starts (and the fault schedule):
        # a resumed run continues the execution instead of restarting it.
        self._started = False
        self._active_seq = -1  # seq of the event being dispatched
        self._send_on, self._enqueue_from, self._inject_link = (
            self._make_senders()
        )
        self.outputs: Dict[NodeId, Any] = {}
        self.output_time: Dict[NodeId, float] = {}
        self._time_to_output = 0.0
        self.processes: Dict[NodeId, Process] = {}
        self._deliver: List[Optional[Callable]] = [None] * n_links
        self._table: List[Optional[Tuple[Callable, ...]]] = [None] * n_links
        self._delivered: List[Optional[Callable]] = [None] * n_links
        self._ack_prefix: List[Any] = [None] * n_links
        for v in graph.nodes:
            self.processes[v] = process_factory(ProcessContext(self, v))
        for v, proc in self.processes.items():
            self._wire(v, proc)

    def _wire(self, v: NodeId, proc: Process) -> None:
        """Bind ``proc``'s handlers into node ``v``'s link-table entries.

        Incoming links get its ``on_message`` and opcode table, outgoing
        ones its ``on_delivered`` interest (``None`` unless overridden).
        The table is validated here, once: the dispatch loop calls
        ``table[payload[0]]`` unguarded (in-simulation traffic is trusted),
        so a short table or a ``None`` gap must fail loudly at wiring time,
        not as an ``IndexError``/``TypeError`` mid-run.
        """
        cls = type(proc)
        tab = proc.on_message_table
        if tab is not None:
            if cls.NUM_OPCODES is not None and len(tab) != cls.NUM_OPCODES:
                raise ValueError(
                    f"node {v}: {cls.__name__}.on_message_table"
                    f" has {len(tab)} entries but the class declares"
                    f" NUM_OPCODES = {cls.NUM_OPCODES}"
                )
            for op, handler in enumerate(tab):
                if not callable(handler):
                    raise ValueError(
                        f"node {v}: {cls.__name__}"
                        f".on_message_table[{op}] is not callable"
                        f" ({handler!r}); every slot in the opcode range"
                        f" must be a bound handler"
                    )
        overrides = cls.on_delivered is not Process.on_delivered
        delivered = proc.on_delivered if overrides else None
        prefix = cls.ACK_INTEREST_PREFIX if overrides else None
        for w, lid_out in self._out[v].items():
            lid_in = self._out[w][v]
            self._deliver[lid_in] = proc.on_message
            self._table[lid_in] = tab
            self._delivered[lid_out] = delivered
            self._ack_prefix[lid_out] = prefix

    # ------------------------------------------------------------------
    def _record_output(self, node: NodeId, value: Any) -> None:
        self.outputs[node] = value
        now = self._now
        self.output_time[node] = now
        if now > self._time_to_output:
            self._time_to_output = now

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _make_senders(
        self,
    ) -> Tuple[Callable[..., None], Callable[..., None], Callable[..., None]]:
        """Build the three enqueue paths as sibling closures.

        ``inject(lid, payload)`` puts one message on the wire: it is the
        outbox-drain tail the acknowledgment dispatch calls for queued
        messages, and the tail of every send.  ``send_on(lid, payload,
        priority)`` is the int-indexed path bound to
        ``ProcessContext.send_link``: it queues behind a busy link or calls
        ``inject``.  ``enqueue_from(links, u, v, payload, priority)`` is the
        node-id path behind ``ProcessContext.send``: one dict probe, then
        ``send_on``.  The link-table arrays, the block state, the heap, and
        the sequence counter are captured in cells, so a send pays cell
        loads instead of attribute traffic.  Only the loop-mutated scalars
        (``_now``, ``_active_seq``, ``_fused``) go through ``self``.
        """
        busy_a = self._busy
        outbox_a = self._outbox
        seq_a = self._seq
        injected_a = self._injected
        pending_a = self._pending
        blk_fill_a = self._blk_fill
        blk_i_a = self._blk_i
        buf = self._blk_buf
        free_at_a = self._free_at
        reserved_a = self._reserved
        skeleton = self._skeleton
        span = BLOCK_SPAN
        mask = BLOCK_SPAN - 1  # span is a power of two (checked at import)
        fill_checked = _fill_checked
        heap = self._heap
        counter = self._counter
        push = heappush
        pop = heappop
        rt = self

        def inject(lid: LinkId, payload: Payload) -> None:
            """Put ``payload`` on the free link ``lid``.

            ``messages`` is not incremented here: it is recovered at run
            end as the sum of the per-link injection counters.  The (delay,
            ack) pair comes from the link's block region, refilled at its
            boundary; the record carries the ack delay and the injection
            number, which decides at delivery whether the ack is redrawn.
            """
            busy_a[lid] = True
            seq = injected_a[lid] + 1
            injected_a[lid] = seq
            i = blk_i_a[lid]
            if not i & mask:
                # Block exhausted: cursors sit at a region boundary exactly
                # when all pairs of the previous cycle are consumed (regions
                # are power-of-two sized), so no per-link limit is loaded.
                i -= span
                fill_checked(blk_fill_a[lid], buf, i, seq, lid, skeleton)
            blk_i_a[lid] = i + 2
            pending_a[lid] += 1
            push(heap, (rt._now + buf[i], next(counter), EV_DELIVER, lid,
                        payload, seq, buf[i + 1]))

        def send_on(
            lid: LinkId, payload: Payload,
            priority: Priority = DEFAULT_PRIORITY,
        ) -> None:
            """Enqueue on a directed link by dense id (DESIGN.md §8)."""
            if busy_a[lid]:
                rs = reserved_a[lid]
                if rs is None:
                    ob = outbox_a[lid]
                    if ob is None:
                        ob = outbox_a[lid] = []
                    seq = seq_a[lid]
                    seq_a[lid] = seq + 1
                    push(ob, (priority, seq, payload))
                    return
                free_at = free_at_a[lid]
                now = rt._now
                if free_at > now or (free_at == now and rs > rt._active_seq):
                    # The fused ack has not logically fired yet: materialize
                    # the deferred drain event under its reserved
                    # (time, seq) identity — exactly where an eagerly-pushed
                    # ack would sit in the order — and queue the message
                    # behind it.  The ack is no longer fused (it fires as a
                    # real event), so the fused-ack accounting credit moves
                    # back to the ordinary counter.
                    reserved_a[lid] = None
                    pending_a[lid] += 1
                    rt._fused -= 1
                    push(heap, (free_at, rs, EV_ACK, lid))
                    ob = outbox_a[lid]
                    if ob is None:
                        ob = outbox_a[lid] = []
                    seq = seq_a[lid]
                    seq_a[lid] = seq + 1
                    push(ob, (priority, seq, payload))
                    return
                # The fused ack lies in the logical past: the link is free
                # and the reserved event would have been a no-op; drop it.
                reserved_a[lid] = None
            elif outbox_a[lid]:
                # Only possible while the sender's ``on_delivered`` callback
                # runs (busy already cleared, outbox not yet drained): the
                # new message must still contend with the queued ones.
                ob = outbox_a[lid]
                seq = seq_a[lid]
                seq_a[lid] = seq + 1
                push(ob, (priority, seq, payload))
                payload = pop(ob)[2]
            inject(lid, payload)

        def enqueue_from(
            links: Mapping[NodeId, LinkId], u: NodeId, v: NodeId,
            payload: Payload, priority: Priority = DEFAULT_PRIORITY,
        ) -> None:
            """Node-id send path: one dict probe, then ``send_on``."""
            lid = links.get(v)
            if lid is None:
                # Raised at the send site with both endpoints named: an
                # isolated node or a non-neighbor destination must fail
                # loudly here, not as a bare KeyError deep in the link
                # table.
                raise UnknownLinkError(u, v)
            send_on(lid, payload, priority)

        return send_on, enqueue_from, inject

    def _ack_delay(self, lid: LinkId) -> float:
        """Ack delay redrawn at delivery time, as the reference engine does.

        Uses ``-injected`` (the link's latest injection number): if an
        ``on_delivered`` callback slipped an extra injection in before this
        delivery's acknowledgment was scheduled, the draw must see it —
        byte-for-byte reproducibility against the pre-rework engine depends
        on this detail.  The dispatch loop routes exactly those deliveries
        here: the ones whose record's injection number is no longer the
        link's latest.  Every other acknowledgment is pre-drawn by the
        block fill, so this runs for a few hundred messages per run at
        most.
        """
        u = self._lu[lid]
        v = self._lv[lid]
        ack_delay = self.delay_model(v, u, -self._injected[lid], self._now)
        if not 0.0 < ack_delay <= TAU:
            raise InvalidDelayError(
                f"delay model produced ack delay {ack_delay!r} outside"
                f" (0, {TAU}] on {v}->{u}"
            )
        return ack_delay

    # ------------------------------------------------------------------
    # fault mode (DESIGN.md §11)
    # ------------------------------------------------------------------
    def _reset_link(self, lid: LinkId) -> None:
        """Clear the in-flight slot and outbox of one directed link.

        The recovery hook behind :meth:`ProcessContext.reset_link`: a
        crashed receiver never acknowledges, so without this the Appendix B
        discipline would queue the live sender's messages forever.  Any
        record already in flight on the link stays scheduled — its fate is
        decided at fire time by the fault checks.  A delivery in flight here
        is never delivered: it is dropped while the receiver is down and
        void once it has re-joined (DESIGN.md §11), so its pre-drawn ack
        delay needs no invalidation.  A fused ack stays scheduled too:
        its reservation goes (a leftover one would let a later send inject
        while a message is in flight), materialized first, as ``send_on``
        does, if the ack has not logically fired yet.
        """
        self._busy[lid] = False
        ob = self._outbox[lid]
        if ob:
            ob.clear()
        rs = self._reserved[lid]
        if rs is not None:
            self._reserved[lid] = None
            free_at = self._free_at[lid]
            now = self._now
            if free_at > now or (free_at == now and rs > self._active_seq):
                self._pending[lid] += 1
                self._fused -= 1
                heappush(self._heap, (free_at, rs, EV_ACK, lid))

    def _ack_held(self, record: Tuple, lid: LinkId, now: float) -> bool:
        """Fault checks of one ack record (DESIGN.md §11); True if consumed:
        *void* (in flight across an endpoint's rejoin: only the pending
        count drains; checked before deferral so a void record is never
        re-sequenced past the watermark), *deferred* to the end of a down
        interval, or for a *dead sender* (the link frees, but no
        ``on_delivered`` and no outbox drain: its queue dies with it).
        """
        if record[1] < self._stale_seq[lid]:
            self._pending[lid] -= 1
            return True
        down = self._down_fn[lid]
        if down is not None:
            end = down(now)
            if end > 0.0:
                heappush(self._heap, (end, next(self._counter)) + record[2:])
                return True
        sender = self._lu[lid]
        if self._crash_t[sender] <= now < self._rejoin_t[sender]:
            self._pending[lid] -= 1
            self._busy[lid] = False
            return True
        return False

    def _schedule_faults(self) -> None:
        """Schedule the fault callbacks: failure detectors, then re-joins.

        The failure detectors are perfect (DESIGN.md §11): every live
        neighbor of a crashed node learns of the crash exactly
        :data:`~repro.net.faults.DETECT_TIMEOUT` after it happens.  This is the abstraction of a
        missing acknowledgment/Go-Ahead timeout: any message in flight
        toward (or from) a node that crashes at ``t`` resolves by
        ``t + 2*TAU``, so a timeout strictly greater than ``2*TAU`` never
        accuses a live node.  Only a down interval, which defers messages
        and acks, lets pre-crash traffic arrive after it fires.  Detectors
        are elided for observers that are themselves dead by the fire time
        and for processes that do not override ``on_neighbor_dead``.
        Iteration order (crashed nodes ascending, neighbors sorted) is part
        of the determinism contract the reference engine mirrors.
        """
        crash_t = self._crash_t
        rejoin_t = self._rejoin_t
        for c in self.graph.nodes:
            t_crash = crash_t[c]
            if t_crash == inf:
                continue
            t_fire = t_crash + DETECT_TIMEOUT
            if rejoin_t[c] <= t_fire:
                # The corpse is back before the timeout would have gone
                # off: a flap faster than DETECT_TIMEOUT is
                # indistinguishable from slowness under the synchrony
                # bound, so no observer ever accuses it (DESIGN.md §15).
                continue
            for u in self._observers(c, "on_neighbor_dead", t_fire):
                # Fire-time process lookup: if the observer re-joined
                # between scheduling and firing, the *fresh* incarnation
                # gets the callback.
                self.schedule_at(t_fire, partial(self._fire_dead, u, c))
        for v in self.graph.nodes:
            if rejoin_t[v] < inf:
                # Setup-scheduled, so the callback's sequence number is
                # below every transport record's: at equal timestamps the
                # rejoin fires first and same-time traffic is void.
                self.schedule_at(rejoin_t[v], partial(self._rejoin_node, v))

    def _observers(self, v: NodeId, hook: str, t: float) -> List[NodeId]:
        """The neighbors a detector about ``v`` notifies at time ``t``:
        those alive then whose process overrides ``hook``
        (``on_neighbor_dead`` or ``on_neighbor_alive``), ascending."""
        base = getattr(Process, hook)
        return [u for u in sorted(self.graph.neighbors(v))
                if not self._crash_t[u] <= t < self._rejoin_t[u]
                and getattr(type(self.processes[u]), hook) is not base]

    def _fire_dead(self, observer: NodeId, corpse: NodeId) -> None:
        """Deliver ``on_neighbor_dead`` to whoever holds ``observer`` *now*."""
        self.processes[observer].on_neighbor_dead(corpse)

    def _fire_alive(self, observer: NodeId, returned: NodeId) -> None:
        """Deliver ``on_neighbor_alive`` with the same fire-time lookup."""
        self.processes[observer].on_neighbor_alive(returned)

    def _rewire_node(self, v: NodeId) -> Process:
        """Rebuild node ``v`` with fresh protocol state and re-arm its links.

        The mode-agnostic half of a re-join (DESIGN.md §15): a fresh
        process from the original factory replaces the corpse and is wired
        into every incident link (unmuted), both directions are reset, and
        the rejoin is recorded at ``self._now``.  Blank state includes the
        output register: whatever the previous incarnation answered died
        with it (``time_to_output`` keeps its high-water mark — it is a
        scalar over the whole execution).  Mode-specific bookkeeping
        (stale-seq watermarks / bag removal, ``on_start``, alive
        detectors) stays with the caller.
        """
        proc = self._process_factory(ProcessContext(self, v))
        self.processes[v] = proc
        self._wire(v, proc)
        for w, lid_out in self._out[v].items():
            self._reset_link(lid_out)
            self._reset_link(self._out[w][v])
        self.rejoined[v] = self._now
        self.outputs.pop(v, None)
        self.output_time.pop(v, None)
        return proc

    def _rejoin_node(self, v: NodeId) -> None:
        """Timed-mode re-join callback: node ``v`` returns at ``self._now``.

        Runs as an ordinary heap callback scheduled at setup, so at equal
        timestamps it fires *before* any same-time transport record (its
        sequence number is lower).  Every record still scheduled on an
        incident link was injected before this moment and is therefore
        void: the stale watermark is bumped to a freshly consumed sequence
        number — strictly above every record currently in the heap — and
        the dispatch loop discards marked records at fire time.  Then the
        fresh incarnation starts (``on_start``) and recovery detectors
        (``on_neighbor_alive``) are armed ``DETECT_TIMEOUT`` out for live
        overriding neighbors, the same sound bound as crash detection: by
        then all pre-rejoin incident traffic has fired or been voided.
        """
        now = self._now
        mark = next(self._counter)
        stale = self._stale_seq
        out = self._out
        for w in self.graph.neighbors(v):
            stale[out[v][w]] = mark
            stale[out[w][v]] = mark
        self._rewire_node(v).on_start()
        t_fire = now + DETECT_TIMEOUT
        for u in self._observers(v, "on_neighbor_alive", t_fire):
            self.schedule_at(t_fire, partial(self._fire_alive, u, v))

    # ------------------------------------------------------------------
    @paused_gc()
    def run(
        self,
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> AsyncResult:
        """Run until quiescence, ``max_time`` or ``max_events``.

        A later call resumes the same execution: every node starts (and the
        fault schedule is armed) once, on the first call, so a run sliced by
        ``max_time`` or ``max_events`` and resumed ends where one
        uninterrupted run ends.
        """
        controller = self.controller
        controlled = controller is not None
        if controlled and max_time is not None:
            # Controlled runs are untimed: the bag has no earliest record,
            # so a deadline check would mean nothing.
            raise ValueError(
                "max_time has no meaning with a ScheduleController"
                " installed; bound controlled runs with max_events"
            )
        crash_t = self._crash_t
        rejoin_t = self._rejoin_t
        faulty = crash_t is not None
        if not self._started:
            self._started = True
            for v in self.graph.nodes:  # ``nodes`` is an ascending range
                if not faulty or crash_t[v] > 0.0:
                    self.schedule(0.0, self.processes[v].on_start)
            if self.faults is not None:
                self._schedule_faults()
        # Force a refill on every link: a shared block buffer may have been
        # dirtied by another replay since construction (sweeps hand one
        # buffer across replays).  Refills re-derive the same values from
        # the model's pure fills, so this is free for a fresh runtime and
        # correct for a resumed one.
        self._blk_i[:] = self._skeleton.blk_lims

        # The dispatch loop, inlined: record pops, per-kind branches, and
        # the ack push run without any per-event closure or method lookup.
        # The link table is hoisted into locals.  Counters live in locals,
        # written back in the ``finally`` so metrics survive early exits
        # and protocol exceptions alike.  Cyclic GC is paused for the
        # whole call (``paused_gc``: the loop allocates tuples at a rate
        # that trips gen-0 collection constantly and creates no cycles of
        # its own) and restored even when a handler raises.  Under a fault
        # schedule or a controller (``faulty``) every transport record
        # passes the fault checks of DESIGN.md §11.  A controller
        # (``controlled``) returns each next record from its
        # ``next_record`` hook, or a stop reason, or ``None`` for a step it
        # handled itself; no ack is fused, so every causal step is its
        # decision (DESIGN.md §13).
        heap = self._heap
        pop = heappop
        push = heappush
        counter = self._counter
        trace = self.trace
        lu = self._lu
        lv = self._lv
        busy_a = self._busy
        outbox_a = self._outbox
        pending_a = self._pending
        deliver_a = self._deliver
        table_a = self._table
        delivered_a = self._delivered
        prefix_a = self._ack_prefix
        injected_a = self._injected
        free_at_a = self._free_at
        reserved_a = self._reserved
        stale_a = self._stale_seq
        down_a = self._down_fn
        drop_a = self._drop_fn
        inject = self._inject_link
        ack_held = self._ack_held
        # One counter meters both the event budget and ``events_fired``
        # (recovered at exit as the number of decrements); the "unbounded"
        # sentinel is a value no run can exhaust.
        budget = (1 << 62) if max_events is None else max_events
        budget0 = budget
        stop_reason = "quiescent"
        acks = self.acks
        # A delta: a controlled rejoin counts its voided deliveries on
        # ``self.dropped`` during the run.
        dropped = 0
        # Fuses counted locally; materializations (``send_on``,
        # ``_reset_link``) decrement ``self._fused``, combined at exit.
        fused = 0
        horizon = self._horizon
        deadline = inf if max_time is None else max_time
        try:
            while heap or controlled:
                if controlled:
                    record = controller.next_record(self, budget == 0)
                    if isinstance(record, str):
                        stop_reason = record
                        break
                    budget -= 1
                    if record is None:
                        continue
                else:
                    if heap[0][0] > deadline:
                        stop_reason = "max_time"
                        break
                    if budget == 0:
                        stop_reason = "max_events"
                        break
                    budget -= 1
                    record = pop(heap)
                self._now = now = record[0]
                self._active_seq = record[1]
                kind = record[2]
                if kind != EV_DELIVER:
                    if kind == EV_CALLBACK:
                        record[3]()
                        continue
                    # Acknowledgment: free the link, call the sender's
                    # on_delivered if it wants this payload's (decided at
                    # delivery time — nothing re-checked), drain the outbox.
                    lid = record[3]
                    if faulty and ack_held(record, lid, now):
                        continue
                    pending_a[lid] -= 1
                    busy_a[lid] = False
                    if kind == EV_ACK_PAYLOAD:
                        delivered_a[lid](lv[lid], record[4])
                    ob = outbox_a[lid]
                    if ob:
                        inject(lid, heappop(ob)[2])
                    continue
                lid = record[3]
                payload = record[4]
                src = lu[lid]
                dst = lv[lid]
                lost = False
                if faulty:
                    if (record[1] < stale_a[lid]
                            or crash_t[dst] <= now < rejoin_t[dst]):
                        # Void (in flight when an endpoint re-joined; the
                        # link was reset then) or the receiver is dead (the
                        # link jams until ProcessContext.reset_link).  Lost
                        # without an acknowledgment.
                        dropped += 1
                        pending_a[lid] -= 1
                        continue
                    down = down_a[lid]
                    if down is not None:
                        end = down(now)
                        if end > 0.0:
                            # Edge down: defer to the interval's end.
                            push(heap, (end, next(counter)) + record[2:])
                            continue
                    # Schedule drop (keyed to the latest injection number):
                    # lost receiver-side, but the link-layer ack returns.
                    drop = drop_a[lid]
                    lost = drop is not None and drop(injected_a[lid])
                if lost:
                    dropped += 1
                elif trace is not None:
                    trace(now, src, dst, payload)
                acks += 1
                if injected_a[lid] == record[5]:
                    t_ack = now + record[6]
                else:
                    # A later injection on the link raced this delivery:
                    # the historical redraw rule.
                    t_ack = now + self._ack_delay(lid)
                delivered = delivered_a[lid]
                if not lost and delivered is not None and (
                    prefix_a[lid] is None or payload[0] == prefix_a[lid]
                ):
                    push(heap, (t_ack, next(counter), EV_ACK_PAYLOAD, lid,
                                payload))
                elif (controlled or outbox_a[lid] or pending_a[lid] != 1
                      or not busy_a[lid]
                      # An ack inside a down interval is deferred under a
                      # fresh seq, which a reservation cannot express.
                      or faulty and down is not None and down(t_ack) > 0.0):
                    push(heap, (t_ack, next(counter), EV_ACK, lid))
                else:
                    # Fuse: reserve the ack's identity instead of pushing
                    # an event.
                    pending_a[lid] = 0
                    fused += 1
                    free_at_a[lid] = t_ack
                    reserved_a[lid] = next(counter)
                    if t_ack > horizon:
                        horizon = t_ack
                if not lost:
                    table = table_a[lid]
                    if table is not None:
                        table[payload[0]](src, payload)
                    else:
                        deliver_a[lid](src, payload)
        finally:
            self._fired += budget0 - budget
            self.acks = acks
            self.dropped += dropped
            self._fused += fused
            self._horizon = horizon
            self.messages = sum(self._injected)
        quiescence = self._now
        late = 0
        if max_time is None:
            if stop_reason == "quiescent" and horizon > quiescence:
                quiescence = horizon
        elif stop_reason != "max_events":
            # Fused acks never enter the heap, so the deadline check above
            # cannot see them.  Reconcile at exit as the reference engine
            # would have: reservations inside the deadline count as fired
            # (they advance quiescence); one past the deadline means the
            # run was in fact cut short by the horizon, not quiescent.  A
            # reservation past the deadline would never have fired as a raw
            # event either (the reference engine stops before it), so the
            # raw-accounting credit is withdrawn alongside (from this
            # call's result only: a resumed run still fires them).
            for lid in range(len(reserved_a)):
                if reserved_a[lid] is not None:
                    t = free_at_a[lid]
                    if t > max_time:
                        late += 1
                    elif t > quiescence:
                        quiescence = t
            if stop_reason == "quiescent":
                if late:
                    stop_reason = "max_time"
                elif horizon > quiescence:
                    quiescence = horizon
        events = self._fired
        if self.count_fused_acks:
            # Raw accounting: every fused acknowledgment counts as the one
            # event the pre-fusing engine would have fired for it.  (Under a
            # ``max_events`` stop this is an over-count by however many of
            # the outstanding reservations the budget would have cut off —
            # the raw engine's budget is not reconstructible without replay.)
            events += self._fused - late
        return AsyncResult(
            time_to_output=self._time_to_output,
            time_to_quiescence=quiescence,
            messages=self.messages,
            acks=self.acks,
            outputs=dict(self.outputs),
            output_time=dict(self.output_time),
            events_fired=events,
            stop_reason=stop_reason,
            dropped=self.dropped,
        )


def run_asynchronous(
    graph: Graph,
    process_factory: Callable[[ProcessContext], Process],
    delay_model: DelayModel,
    max_time: Optional[float] = None,
    max_events: Optional[int] = 50_000_000,
    count_fused_acks: bool = False,
    faults: Optional[FaultSchedule] = None,
) -> AsyncResult:
    """Convenience wrapper: build the runtime and run to quiescence."""
    runtime = AsyncRuntime(
        graph, process_factory, delay_model, count_fused_acks=count_fused_acks,
        faults=faults,
    )
    return runtime.run(max_time=max_time, max_events=max_events)
