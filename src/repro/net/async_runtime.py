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
*packed-int records* — the common transport record is the 3-tuple
``(time, seq, code)`` with ``code = (kind << LINK_BITS) | link_id`` — in
one inlined dispatch loop.  Per-directed-link state lives in a
*struct-of-arrays link table* (DESIGN.md §8): dense ``link_id`` ints index
parallel lists for the busy slot, outbox head, sequence counters, bound
handlers, and the fused-ack reservation; the packed codes themselves are
precomputed int objects on the shared :class:`LinkSkeleton`, so pushing an
event allocates nothing beyond its record tuple.

A packed delivery's payload and pre-drawn acknowledgment delay ride in
per-link *side slots* (DESIGN.md §9) instead of in the record.  Slot
occupancy is the link's outstanding-record count: an injection finding
``pending == 0`` owns the slot (the Appendix B discipline makes this the
overwhelmingly common case); any other injection — only possible during
the ``on_delivered`` double-inject race — falls back to a "fat"
:data:`~repro.net.events.EV_DELIVER_PAYLOAD` record carrying its fields
inline (same ``(time, seq)`` identity, so schedules are unchanged) and
*invalidates* the slot's pre-drawn ack delay, which encodes the historical
redraw rule (see ``_ack_delay``) without a per-delivery sequence check.

Acknowledgments split into two kinds at delivery time: a sender that wants
its ``on_delivered`` callback for this payload gets an
:data:`~repro.net.events.EV_ACK_PAYLOAD` record (payload inline); everyone
else gets a bare :data:`~repro.net.events.EV_ACK` 3-tuple whose dispatch
is nothing but "free the link, drain the outbox" — no callback or
interest checks per acknowledgment.

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
Same-time packed deliveries to one destination are *batched* without
re-entering the outer per-event bookkeeping, still strictly in
``(time, seq)`` order (any other record ends the batch), so the schedule
is byte-identical to the unbatched loop (pinned by
``tests/test_engine_equivalence.py``).  Under a fault schedule the same
loop runs unbatched, every transport record passes the fault checks, and
only acks whose firing would be a no-op are fused (DESIGN.md §11).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from math import inf
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, MutableSequence, Optional, Tuple
from weakref import WeakKeyDictionary

from .delays import (
    BLOCK_PAIRS,
    DelayModel,
    InvalidDelayError,
    TAU,
    call_block_stream,
)
from .faults import DETECT_TIMEOUT, FaultSchedule
from .events import (
    CODE_ACK,
    CODE_ACK_PAYLOAD,
    CODE_DELIVER,
    CODE_DELIVER_PAYLOAD,
    EV_CALLBACK,
    LINK_MASK,
    EventQueue,
)
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
    {neighbor -> link id}), the packed event codes of every link
    (``deliver_codes[lid] == CODE_DELIVER + lid`` etc. — precomputed int
    *objects*, so the hot paths never allocate an int per event), and the
    per-link block bounds ``blk_lims`` (``(lid + 1) * BLOCK_SPAN``, the
    exclusive end of link ``lid``'s region in a flat block buffer).  All of
    it is immutable after construction, so one skeleton is shared by every
    runtime over the same graph (sweep replays in particular; see
    :func:`link_skeleton_for`).
    """

    __slots__ = ("lu", "lv", "out", "num_links", "deliver_codes",
                 "ack_codes", "ack_payload_codes", "fat_codes", "blk_lims")

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
        if lid > LINK_MASK + 1:
            raise ValueError(
                f"graph has {lid} directed links; packed event codes support"
                f" at most {LINK_MASK + 1} (raise LINK_BITS in repro.net.events)"
            )
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
        self.deliver_codes = tuple(CODE_DELIVER + i for i in range(lid))
        self.ack_codes = tuple(CODE_ACK + i for i in range(lid))
        self.ack_payload_codes = tuple(CODE_ACK_PAYLOAD + i for i in range(lid))
        self.fat_codes = tuple(CODE_DELIVER_PAYLOAD + i for i in range(lid))
        self.blk_lims = tuple(range(BLOCK_SPAN, (lid + 1) * BLOCK_SPAN,
                                    BLOCK_SPAN))

    def __getstate__(self):
        """Explicit pickle state: the link-id assignment itself.

        ``mappingproxy`` views don't pickle, and the packed code tuples are
        pure functions of ``num_links`` — so a shipped skeleton carries only
        the endpoint arrays and a plain-dict copy of the outgoing map.
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
        self.deliver_codes = tuple(CODE_DELIVER + i for i in range(lid))
        self.ack_codes = tuple(CODE_ACK + i for i in range(lid))
        self.ack_payload_codes = tuple(CODE_ACK_PAYLOAD + i for i in range(lid))
        self.fat_codes = tuple(CODE_DELIVER_PAYLOAD + i for i in range(lid))
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

        Fires ``detect_timeout`` after the neighbor's crash, only under a
        :class:`~repro.net.faults.FaultSchedule` with crashes and only for
        processes that override the hook (the transport elides detectors
        otherwise, so fault-free schedules stay byte-identical).  Default:
        no-op.

        Not fired at all when the neighbor re-joins before the detector
        would have gone off (``rejoin_time <= crash + detect_timeout``):
        a flap faster than the timeout is indistinguishable from slowness
        under the synchrony bound, so the detector stays silent.
        """

    def on_neighbor_alive(self, neighbor: NodeId) -> None:  # pragma: no cover
        """Recovery-detector callback: ``neighbor`` re-joined the network.

        The symmetric hook to :meth:`on_neighbor_dead` (DESIGN.md §15).
        Fires ``detect_timeout`` after the neighbor's rejoin time, only
        under a schedule with re-joins and only for processes that override
        the hook.  The delay is the same sound bound as detection: by
        ``rejoin + detect_timeout`` every pre-rejoin transport record on
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
    def time_complexity(self) -> float:
        return self.time_to_output

    @property
    def message_complexity(self) -> int:
        return self.messages

    @property
    def messages_with_acks(self) -> int:
        return self.messages + self.acks


#: :class:`ControlledEvent` kinds (strings, not ints: controlled runs are a
#: verification surface, not a hot path, and the kinds surface verbatim in
#: serialized counterexample traces).
CTRL_DELIVER = "deliver"
CTRL_ACK = "ack"
CTRL_CALLBACK = "callback"
CTRL_CRASH = "crash"
CTRL_DETECT = "detect"
CTRL_REJOIN = "rejoin"
CTRL_ALIVE = "alive"


class ControlledEvent:
    """One schedulable step offered to a :class:`ScheduleController`.

    ``seq`` is the underlying heap record's scheduling sequence number —
    unique, and (because record creation is deterministic given the choices
    made so far) a stable identity for the event across re-executions of
    the same choice prefix.  Synthetic actions (``crash``/``detect``) have
    no record and ``seq is None``; they are identified by their node
    fields instead.  ``acting`` is the process whose protocol state the
    step mutates — the commutativity key of repro.check's partial-order
    reduction (``None`` = unknown, treated as racing with everything).
    """

    __slots__ = ("kind", "seq", "link", "src", "dst", "node", "record")

    def __init__(self, kind, seq, link, src, dst, node, record):
        self.kind = kind
        self.seq = seq
        self.link = link
        self.src = src
        self.dst = dst
        self.node = node
        self.record = record

    @property
    def acting(self) -> Optional[NodeId]:
        kind = self.kind
        if kind == CTRL_DELIVER:
            return self.dst  # the receiver's handler runs
        if kind == CTRL_ACK:
            return self.src  # the sender's callback/outbox drain runs
        if kind == CTRL_DETECT:
            return self.dst  # the observer's on_neighbor_dead runs
        if kind == CTRL_ALIVE:
            return self.dst  # the observer's on_neighbor_alive runs
        if kind == CTRL_REJOIN:
            # A rejoin voids in-flight incident records and disarms armed
            # detects at *other* observers — it enables/disables events
            # whose acting processes are not the returning node, so for
            # the partial-order reduction it races with everything.
            return None
        return self.node  # callback (None when unattributed) / crash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ControlledEvent({self.kind}, seq={self.seq},"
                f" link={self.link}, src={self.src}, dst={self.dst},"
                f" node={self.node})")


class ScheduleController:
    """Scheduling adversary hook for controlled runs (repro.check).

    When an instance is passed to :class:`AsyncRuntime`, ``run()`` enters
    :meth:`AsyncRuntime._run_controlled` instead of the clock-driven
    dispatch loop: the heap becomes an unordered bag of *enabled* events,
    and at every step the controller is shown all of them (plus the
    synthetic crash/detect actions below) and picks which one fires next.
    The delay model still runs — record timestamps and acknowledgment
    redraws are drawn exactly as always, so a replayed choice sequence
    reproduces the execution bit-for-bit — but it no longer *orders*
    anything.  With no controller installed this machinery is never
    touched and the clock-driven dispatch loop is byte-identical.

    ``crashable`` folds fail-stop branch points into the schedule space:
    every node listed here contributes a ``crash`` action to the enabled
    set until it is chosen, and a chosen crash arms one ``detect`` action
    per live neighbor that overrides ``on_neighbor_dead``.  Detection
    honors the fault model's synchrony bound (DESIGN.md §11: delays ≤ τ,
    detection at crash + 2.25τ): a detect action is *withheld* while any
    delivery from a then-live sender that was in flight at the crash is
    still undelivered — those messages provably resolve before the
    timeout fires.  The corpse's own in-flight messages do not block
    detection: a down interval may legally defer them past it, which is
    the straggler race the recovery guard exists for.
    """

    #: Nodes the controller may crash (fail-stop) at a step of its choosing.
    crashable: Tuple[NodeId, ...] = ()

    #: Nodes the controller may *re-join* after crashing them: every
    #: crashed node listed here contributes a ``rejoin`` action to the
    #: enabled set until it is chosen.  A chosen rejoin rebuilds the node
    #: with fresh protocol state, un-jams its incident links, voids the
    #: crash-stranded records still in the bag, and arms one ``alive``
    #: action per live neighbor that overrides ``on_neighbor_alive`` —
    #: racing the pending ``detect`` actions, which is exactly the
    #: D1–D3-shaped interleaving space repro.check must cover.
    rejoinable: Tuple[NodeId, ...] = ()

    def choose(self, events: List[ControlledEvent]) -> Optional[int]:
        """Pick the next step: an index into ``events``, or ``None`` to stop.

        ``events`` is non-empty; record-backed events come first, sorted by
        ``seq``, followed by crash actions (crashable order) and armed
        detect actions (arming order).  Returning ``None`` ends the run
        with ``stop_reason == "controller"``.
        """
        raise NotImplementedError


class AsyncRuntime(EventQueue):
    """Discrete-event executor for one protocol over one graph.

    Directed-link state is a struct-of-arrays table indexed by the dense
    link ids of the graph's :class:`LinkSkeleton` (DESIGN.md §8, §9):

    * ``_busy[lid]`` — the Appendix B in-flight slot;
    * ``_outbox[lid]`` — the priority outbox heap (``None`` until first used);
    * ``_seq[lid]`` — outbox FIFO tiebreaker;
    * ``_injected[lid]`` — injection counter (drives the block fills and
      recovers ``messages`` at run end);
    * ``_pending[lid]`` — scheduled transport records outstanding for the
      link.  Normally alternates 1 -> 1 -> 0; an ``on_delivered`` callback
      sending on the link it is being notified about can race the ack drain
      and put two messages in flight (a quirk the reference engine has too).
      Doubles as the side-slot occupancy test (an injection finding it
      nonzero goes fat) and gates ack fusing (only allowed at zero);
    * ``_slot_payload[lid]`` / ``_slot_ack[lid]`` — the side slots of the
      one packed delivery the link may have in flight: payload, and the
      pre-drawn ack delay or ``None`` (``None`` forces the delivery-time
      redraw at the link's latest injection number; fat injections
      invalidate the slot ack to trigger exactly the historical
      double-inject redraws);
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
        "graph", "delay_model", "count_acks", "count_fused_acks", "trace",
        "_skeleton", "_lu", "_lv", "_out", "_busy", "_outbox", "_seq",
        "_injected", "_pending", "_slot_payload", "_slot_ack",
        "_deliver", "_table", "_delivered",
        "_ack_prefix", "_blk_fill", "_blk_buf", "_blk_i", "_free_at",
        "_reserved", "_send_on", "_enqueue_from", "_inject_link",
        "messages", "acks", "_fused", "outputs",
        "output_time", "_time_to_output", "processes", "_active_seq",
        "faults", "detect_timeout", "_crash_t", "_down_fn", "_drop_fn",
        "dropped", "controller", "crashed",
        "_rejoin_t", "_stale_seq", "_process_factory", "rejoined",
    )

    def __init__(
        self,
        graph: Graph,
        process_factory: Callable[[ProcessContext], Process],
        delay_model: DelayModel,
        count_acks: bool = True,
        trace: Optional[Callable[[float, NodeId, NodeId, Payload], None]] = None,
        count_fused_acks: bool = False,
        skeleton: Optional[LinkSkeleton] = None,
        block_buffer: Optional[MutableSequence[float]] = None,
        faults: Optional[FaultSchedule] = None,
        detect_timeout: float = DETECT_TIMEOUT,
        controller: Optional[ScheduleController] = None,
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
        are only taken when a schedule is active).  ``detect_timeout`` is
        how long after a neighbor's crash its failure detector fires (sound
        for any value > 2*TAU; see :data:`~repro.net.faults.DETECT_TIMEOUT`).
        """
        super().__init__()
        self.graph = graph
        self.delay_model = delay_model
        self.count_acks = count_acks
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
            # actions (``ScheduleController.crashable``); a timer-keyed
            # fault schedule would reintroduce the clock the controller
            # exists to replace.
            raise ValueError(
                "controller and faults are mutually exclusive: controlled"
                " runs take crash points from ScheduleController.crashable"
            )
        self.controller = controller
        #: Nodes crashed by controller-chosen actions, with the logical
        #: time of the crash.  Populated only by ``_run_controlled``.
        self.crashed: Dict[NodeId, float] = {}
        #: Nodes that re-joined during the run (schedule-keyed or
        #: controller-chosen), with the time of the rejoin.
        self.rejoined: Dict[NodeId, float] = {}
        self.faults = faults
        self.detect_timeout = detect_timeout
        self.dropped = 0
        # Kept for rejoin rebuilds only (a returned node gets a *fresh*
        # process from the same factory); never touched on fault-free runs.
        self._process_factory = process_factory
        if faults is None:
            self._crash_t: Optional[List[float]] = None
            self._down_fn = None
            self._drop_fn = None
            self._rejoin_t: Optional[List[float]] = None
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
        self._slot_payload: List[Payload] = [None] * n_links
        self._slot_ack: List[Optional[float]] = [None] * n_links
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
        The table is validated here, once: the dispatch loops call
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
        ``send_on``.  The link-table arrays, the side slots, the block
        state, the heap, and the sequence counter are captured in cells, so
        a send pays cell loads instead of attribute traffic.  Only the
        loop-mutated scalars (``_now``, ``_active_seq``, ``_fused``) go
        through ``self``.
        """
        busy_a = self._busy
        outbox_a = self._outbox
        seq_a = self._seq
        injected_a = self._injected
        pending_a = self._pending
        slot_p_a = self._slot_payload
        slot_ack_a = self._slot_ack
        blk_fill_a = self._blk_fill
        blk_i_a = self._blk_i
        buf = self._blk_buf
        free_at_a = self._free_at
        reserved_a = self._reserved
        skeleton = self._skeleton
        dcode_a = skeleton.deliver_codes
        acode_a = skeleton.ack_codes
        fcode_a = skeleton.fat_codes
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
            boundary; the payload and pre-drawn ack go to the side slots
            when this is the link's only outstanding record, else to a fat
            record (which stales the slot's pre-drawn ack — the historical
            redraw rule).
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
            p = pending_a[lid]
            pending_a[lid] = p + 1
            if p == 0:
                slot_p_a[lid] = payload
                slot_ack_a[lid] = buf[i + 1]
                push(heap, (rt._now + buf[i], next(counter), dcode_a[lid]))
                return
            slot_ack_a[lid] = None
            push(
                heap,
                (rt._now + buf[i], next(counter), fcode_a[lid], payload,
                 seq, buf[i + 1]),
            )

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
                    push(heap, (free_at, rs, acode_a[lid]))
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
        on this detail (fat injections invalidate the slot's pre-drawn ack
        precisely to route those deliveries here).  Every other
        acknowledgment is pre-drawn by the block fill, so this runs for a
        few hundred messages per run at most.
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
        decided at fire time by the fault checks — and so does a fused ack:
        its reservation goes (a leftover one would let a later send inject
        while a message is in flight), materialized first, as ``send_on``
        does, if the ack has not logically fired yet.
        """
        self._busy[lid] = False
        ob = self._outbox[lid]
        if ob:
            ob.clear()
        self._slot_ack[lid] = None
        rs = self._reserved[lid]
        if rs is not None:
            self._reserved[lid] = None
            free_at = self._free_at[lid]
            now = self._now
            if free_at > now or (free_at == now and rs > self._active_seq):
                self._pending[lid] += 1
                self._fused -= 1
                heappush(self._heap,
                         (free_at, rs, self._skeleton.ack_codes[lid]))

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
        ``detect_timeout`` after it happens.  This is the abstraction of a
        missing acknowledgment/Go-Ahead timeout: any message in flight
        toward (or from) a node that crashes at ``t`` resolves by
        ``t + 2*TAU``, so a timeout strictly greater than ``2*TAU`` never
        accuses a live node and never fires while pre-crash traffic from
        the corpse can still arrive.  Detectors are elided for observers
        that are themselves dead by the fire time and for processes that do
        not override ``on_neighbor_dead``.  Iteration order (crashed nodes
        ascending, neighbors sorted) is part of the determinism contract
        the reference engine mirrors.
        """
        crash_t = self._crash_t
        rejoin_t = self._rejoin_t
        base = Process.on_neighbor_dead
        processes = self.processes
        timeout = self.detect_timeout
        for c in self.graph.nodes:
            t_crash = crash_t[c]
            if t_crash == inf:
                continue
            t_fire = t_crash + timeout
            if rejoin_t[c] <= t_fire:
                # The corpse is back before the timeout would have gone
                # off: a flap faster than detect_timeout is
                # indistinguishable from slowness under the synchrony
                # bound, so no observer ever accuses it (DESIGN.md §15).
                continue
            for u in sorted(self.graph.neighbors(c)):
                if crash_t[u] <= t_fire < rejoin_t[u]:
                    continue  # observer dead at the fire time
                proc = processes[u]
                if type(proc).on_neighbor_dead is base:
                    continue
                # Fire-time process lookup: if the observer re-joined
                # between scheduling and firing, the *fresh* incarnation
                # gets the callback (same object as ``proc`` on any
                # schedule without rejoins).
                self.schedule_at(t_fire, partial(self._fire_dead, u, c))
        for v in self.graph.nodes:
            if rejoin_t[v] < inf:
                # Setup-scheduled, so the callback's sequence number is
                # below every transport record's: at equal timestamps the
                # rejoin fires first and same-time traffic is void.
                self.schedule_at(rejoin_t[v], partial(self._rejoin_node, v))

    def _fire_dead(self, observer: NodeId, corpse: NodeId) -> None:
        """Deliver ``on_neighbor_dead`` to whoever holds ``observer`` *now*."""
        self.processes[observer].on_neighbor_dead(corpse)

    def _fire_alive(self, observer: NodeId, returned: NodeId) -> None:
        """Deliver ``on_neighbor_alive`` with the same fire-time lookup."""
        self.processes[observer].on_neighbor_alive(returned)

    def _rewire_node(self, v: NodeId) -> Process:
        """Rebuild node ``v`` with fresh protocol state and re-arm its links.

        The engine-agnostic half of a re-join (DESIGN.md §15): a fresh
        process from the original factory replaces the corpse and is wired
        into every incident link (unmuted), and both directions are reset.
        Timing-specific bookkeeping (stale-seq watermarks / bag removal,
        ``on_start``, alive detectors) stays with the caller.
        """
        proc = self._process_factory(ProcessContext(self, v))
        self.processes[v] = proc
        self._wire(v, proc)
        for w, lid_out in self._out[v].items():
            self._reset_link(lid_out)
            self._reset_link(self._out[w][v])
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
        (``on_neighbor_alive``) are armed ``detect_timeout`` out for live
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
        proc = self._rewire_node(v)
        self.rejoined[v] = now
        # Blank state includes the output register: whatever the previous
        # incarnation answered died with it (``time_to_output`` keeps its
        # high-water mark — it is a scalar over the whole execution).
        self.outputs.pop(v, None)
        self.output_time.pop(v, None)
        proc.on_start()
        crash_t = self._crash_t
        rejoin_t = self._rejoin_t
        base_alive = Process.on_neighbor_alive
        t_fire = now + self.detect_timeout
        for u in sorted(self.graph.neighbors(v)):
            if crash_t[u] <= t_fire < rejoin_t[u]:
                continue  # observer dead at the fire time
            if type(self.processes[u]).on_neighbor_alive is base_alive:
                continue
            self.schedule_at(t_fire, partial(self._fire_alive, u, v))

    # ------------------------------------------------------------------
    # controlled mode (repro.check; DESIGN.md §13)
    # ------------------------------------------------------------------
    def _run_controlled(
        self, max_events: Optional[int] = None
    ) -> AsyncResult:
        """The controller-driven dispatch loop (DESIGN.md §13).

        The heap is treated as an unordered *bag* of enabled events: heap
        order is never consulted (``heappush`` from the send paths is
        harmless on a bag), and at every step the installed
        :class:`ScheduleController` is shown every record plus the pending
        synthetic crash/detect actions and picks one.  Acknowledgments are
        never fused and same-time deliveries never batch, so every causal
        step is a controller decision.  Logical time is the running
        maximum of fired record timestamps — deterministic given the
        choice sequence, which is what makes serialized counterexample
        traces replay bit-exactly.

        Crash semantics mirror the timed fault mode's fail-stop rules, keyed
        on the dynamic ``crashed`` set instead of precomputed crash times:
        deliveries to a corpse vanish and jam the link, a dead sender's
        acknowledgment still frees the link state but the corpse takes no
        step, and a crashed node's scheduled callbacks are elided.
        ``max_time`` has no meaning without the clock; only the
        ``max_events`` step budget is honored.
        """
        controller = self.controller
        processes = self.processes
        heap = self._heap
        counter = self._counter
        push = heappush
        # Attribution of engine-scheduled callbacks (on_start) to their
        # node: the reduction layer treats an attributed callback as a step
        # of that process, and a crashed node's callbacks must not fire.
        cb_node: Dict[int, NodeId] = {}
        for v in self.graph.nodes:  # ``nodes`` is an ascending range
            seq = next(counter)
            push(heap, (0.0, seq, EV_CALLBACK, processes[v].on_start))
            cb_node[seq] = v
        self._blk_i[:] = self._skeleton.blk_lims

        crashable = tuple(controller.crashable)
        rejoinable = tuple(getattr(controller, "rejoinable", ()))
        crashed = self.crashed
        rejoined = self.rejoined
        base_detect = Process.on_neighbor_dead
        base_alive = Process.on_neighbor_alive
        #: Armed failure-detector steps: (observer, dead), arming order.
        detect_ready: List[Tuple[NodeId, NodeId]] = []
        #: Armed recovery-detector steps: (observer, returned), arming
        #: order.  Never withheld: a chosen rejoin voids every pre-rejoin
        #: incident record immediately, so there is nothing the §11 bound
        #: would still be waiting on.
        alive_ready: List[Tuple[NodeId, NodeId]] = []
        #: Per-corpse seqs of live-sender deliveries in flight at the
        #: crash; the corpse's detects are withheld until all have fired
        #: (the §11 synchrony bound: such messages resolve before the
        #: detection timeout).
        detect_blockers: Dict[NodeId, set] = {}

        trace = self.trace
        lu = self._lu
        lv = self._lv
        busy_a = self._busy
        outbox_a = self._outbox
        pending_a = self._pending
        slot_p_a = self._slot_payload
        slot_ack_a = self._slot_ack
        deliver_a = self._deliver
        table_a = self._table
        delivered_a = self._delivered
        prefix_a = self._ack_prefix
        injected_a = self._injected
        acode_a = self._skeleton.ack_codes
        apcode_a = self._skeleton.ack_payload_codes
        inject = self._inject_link
        budget = (1 << 62) if max_events is None else max_events
        budget0 = budget
        stop_reason = "quiescent"
        acks = self.acks
        dropped = self.dropped
        try:
            while True:
                events: List[ControlledEvent] = []
                for record in heap:
                    code = record[2]
                    if code >= CODE_DELIVER:
                        lid = code - CODE_DELIVER
                        events.append(ControlledEvent(
                            CTRL_DELIVER, record[1], lid, lu[lid], lv[lid],
                            None, record))
                    elif code >= CODE_ACK:
                        lid = code - CODE_ACK
                        events.append(ControlledEvent(
                            CTRL_ACK, record[1], lid, lu[lid], lv[lid],
                            None, record))
                    elif code >= CODE_ACK_PAYLOAD:
                        lid = code - CODE_ACK_PAYLOAD
                        events.append(ControlledEvent(
                            CTRL_ACK, record[1], lid, lu[lid], lv[lid],
                            None, record))
                    elif code >= CODE_DELIVER_PAYLOAD:
                        lid = code - CODE_DELIVER_PAYLOAD
                        events.append(ControlledEvent(
                            CTRL_DELIVER, record[1], lid, lu[lid], lv[lid],
                            None, record))
                    else:
                        events.append(ControlledEvent(
                            CTRL_CALLBACK, record[1], None, None, None,
                            cb_node.get(record[1]), record))
                events.sort(key=lambda e: e.seq)
                for v in crashable:
                    if v not in crashed and v not in rejoined:
                        # One crash per node: a re-joined node is not
                        # offered again, which bounds the schedule space
                        # (no infinite crash/rejoin flapping).
                        events.append(ControlledEvent(
                            CTRL_CRASH, None, None, None, None, v, None))
                for v in rejoinable:
                    if v in crashed:
                        events.append(ControlledEvent(
                            CTRL_REJOIN, None, None, None, None, v, None))
                for u, c in detect_ready:
                    if detect_blockers.get(c):
                        continue
                    # detect: src = the dead node, dst/node = the observer.
                    events.append(ControlledEvent(
                        CTRL_DETECT, None, None, c, u, u, None))
                for u, c in alive_ready:
                    # alive: src = the returned node, dst/node = observer.
                    events.append(ControlledEvent(
                        CTRL_ALIVE, None, None, c, u, u, None))
                if not events:
                    break
                if budget == 0:
                    stop_reason = "max_events"
                    break
                choice = controller.choose(events)
                if choice is None:
                    stop_reason = "controller"
                    break
                budget -= 1
                ev = events[choice]
                record = ev.record
                if record is None:
                    if ev.kind == CTRL_CRASH:
                        v = ev.node
                        crashed[v] = self._now
                        blockers = set()
                        for rec in heap:
                            rcode = rec[2]
                            if rcode >= CODE_DELIVER:
                                rlid = rcode - CODE_DELIVER
                            elif rcode >= CODE_ACK_PAYLOAD:
                                continue  # acks drain before any timeout
                            elif rcode >= CODE_DELIVER_PAYLOAD:
                                rlid = rcode - CODE_DELIVER_PAYLOAD
                            else:
                                continue  # callbacks are untimed
                            if lu[rlid] not in crashed:
                                blockers.add(rec[1])
                        if blockers:
                            detect_blockers[v] = blockers
                        # The corpse observes nothing from now on.
                        detect_ready[:] = [
                            pair for pair in detect_ready if pair[0] != v
                        ]
                        alive_ready[:] = [
                            pair for pair in alive_ready if pair[0] != v
                        ]
                        for u in sorted(self.graph.neighbors(v)):
                            if u in crashed:
                                continue
                            if type(processes[u]).on_neighbor_dead \
                                    is base_detect:
                                continue
                            detect_ready.append((u, v))
                    elif ev.kind == CTRL_REJOIN:
                        v = ev.node
                        del crashed[v]
                        rejoined[v] = self._now
                        # Un-fired detects observing v raced the rejoin and
                        # lost: the timeout saw the node answer again.  The
                        # controller covers the other order by firing the
                        # detect *before* choosing the rejoin — exactly the
                        # D1–D3 interleaving pair.
                        detect_ready[:] = [
                            pair for pair in detect_ready if pair[1] != v
                        ]
                        detect_blockers.pop(v, None)
                        # Void every in-flight incident record (and the
                        # corpse's stale attributed callbacks): the new
                        # incarnation shares no link-layer state with the
                        # old one.
                        out = self._out
                        incident = set()
                        for w in self.graph.neighbors(v):
                            incident.add(out[v][w])
                            incident.add(out[w][v])
                        voided = []
                        for rec in heap:
                            rcode = rec[2]
                            if rcode >= CODE_DELIVER:
                                rlid = rcode - CODE_DELIVER
                                is_delivery = True
                            elif rcode >= CODE_ACK:
                                rlid = rcode - CODE_ACK
                                is_delivery = False
                            elif rcode >= CODE_ACK_PAYLOAD:
                                rlid = rcode - CODE_ACK_PAYLOAD
                                is_delivery = False
                            elif rcode >= CODE_DELIVER_PAYLOAD:
                                rlid = rcode - CODE_DELIVER_PAYLOAD
                                is_delivery = True
                            else:
                                if cb_node.get(rec[1]) == v:
                                    voided.append((rec, None, False))
                                continue
                            if rlid in incident:
                                voided.append((rec, rlid, is_delivery))
                        for rec, rlid, is_delivery in voided:
                            heap.remove(rec)
                            if rlid is not None:
                                pending_a[rlid] -= 1
                                if is_delivery:
                                    dropped += 1
                            if detect_blockers:
                                for blk in detect_blockers.values():
                                    blk.discard(rec[1])
                        proc = self._rewire_node(v)
                        # Blank state includes the output register: the
                        # previous incarnation's answer died with it.
                        self.outputs.pop(v, None)
                        self.output_time.pop(v, None)
                        seq = next(counter)
                        push(heap, (self._now, seq, EV_CALLBACK,
                                    proc.on_start))
                        cb_node[seq] = v
                        for u in sorted(self.graph.neighbors(v)):
                            if u in crashed:
                                continue
                            if type(processes[u]).on_neighbor_alive \
                                    is base_alive:
                                continue
                            alive_ready.append((u, v))
                    elif ev.kind == CTRL_ALIVE:
                        alive_ready.remove((ev.dst, ev.src))
                        processes[ev.dst].on_neighbor_alive(ev.src)
                    else:  # CTRL_DETECT
                        detect_ready.remove((ev.dst, ev.src))
                        processes[ev.dst].on_neighbor_dead(ev.src)
                    continue
                # Record-backed step: pull it out of the bag and dispatch.
                heap.remove(record)
                if detect_blockers:
                    for blk in detect_blockers.values():
                        blk.discard(record[1])
                if record[0] > self._now:
                    self._now = record[0]
                now = self._now
                self._active_seq = record[1]
                code = record[2]
                if code >= CODE_DELIVER:
                    lid = code - CODE_DELIVER
                    payload = slot_p_a[lid]
                    inj = injected_a[lid]
                    ack = slot_ack_a[lid]
                elif code >= CODE_ACK:
                    lid = code - CODE_ACK
                    pending_a[lid] -= 1
                    busy_a[lid] = False
                    ob = outbox_a[lid]
                    if ob and lu[lid] not in crashed:
                        inject(lid, heappop(ob)[2])
                    continue
                elif code >= CODE_ACK_PAYLOAD:
                    lid = code - CODE_ACK_PAYLOAD
                    pending_a[lid] -= 1
                    busy_a[lid] = False
                    if lu[lid] in crashed:
                        # The sender is dead: no callback, no drain.
                        continue
                    delivered_a[lid](lv[lid], record[3])
                    ob = outbox_a[lid]
                    if ob:
                        inject(lid, heappop(ob)[2])
                    continue
                elif code >= CODE_DELIVER_PAYLOAD:
                    lid = code - CODE_DELIVER_PAYLOAD
                    payload = record[3]
                    inj = record[4]
                    ack = record[5]
                else:
                    node = cb_node.get(record[1])
                    if node is None or node not in crashed:
                        record[3]()
                    continue
                # ---- delivery flow (packed or fat record) ----
                dst = lv[lid]
                if dst in crashed:
                    # Receiver crashed: the message vanishes and the link
                    # jams (recovery uses ProcessContext.reset_link).
                    dropped += 1
                    pending_a[lid] -= 1
                    continue
                if trace is not None:
                    trace(now, lu[lid], dst, payload)
                acks += 1
                if ack is None or injected_a[lid] != inj:
                    ack = self._ack_delay(lid)
                delivered = delivered_a[lid]
                if delivered is not None and (
                    prefix_a[lid] is None or payload[0] == prefix_a[lid]
                ):
                    push(heap, (now + ack, next(counter), apcode_a[lid],
                                payload))
                else:
                    push(heap, (now + ack, next(counter), acode_a[lid]))
                table = table_a[lid]
                if table is not None:
                    table[payload[0]](lu[lid], payload)
                else:
                    deliver_a[lid](lu[lid], payload)
        finally:
            self._fired += budget0 - budget
            self.acks = acks
            self.dropped = dropped
            self.messages = sum(self._injected)
        return AsyncResult(
            time_to_output=self._time_to_output,
            time_to_quiescence=self._now,
            messages=self.messages,
            acks=self.acks if self.count_acks else 0,
            outputs=dict(self.outputs),
            output_time=dict(self.output_time),
            events_fired=self._fired,
            stop_reason=stop_reason,
            dropped=dropped,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> AsyncResult:
        if self.controller is not None:
            return self._run_controlled(max_events=max_events)
        crash_t = self._crash_t
        rejoin_t = self._rejoin_t
        faulty = crash_t is not None
        for v in self.graph.nodes:  # ``nodes`` is an ascending range
            if not faulty or crash_t[v] > 0.0:
                self.schedule(0.0, self.processes[v].on_start)
        # Force a refill on every link: a shared block buffer may have been
        # dirtied by another replay since construction (sweeps hand one
        # buffer across replays).  Refills re-derive the same values from
        # the model's pure fills, so this is free for a fresh runtime and
        # correct for a resumed one.
        self._blk_i[:] = self._skeleton.blk_lims
        if faulty:
            self._schedule_faults()

        # The dispatch loop, inlined: record pops, per-kind branches, and
        # the ack push run without any per-event closure or method lookup.
        # The link table is hoisted into locals, and a record's kind is
        # decided by comparing its packed code against the kind bases
        # (packed deliveries — the hottest kind — in one comparison).
        # Counters live in locals, written back in the ``finally`` so
        # metrics survive early exits and protocol exceptions alike.
        # Cyclic GC is paused for the duration (the loop allocates tuples
        # at a rate that trips gen-0 collection constantly and creates no
        # cycles of its own) and restored even when a handler raises.
        # Under a fault schedule (``faulty``) every transport record also
        # passes the fault checks of DESIGN.md §11 and same-time batching
        # is off; the fault-free path pays only the ``faulty`` tests.
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
        slot_p_a = self._slot_payload
        slot_ack_a = self._slot_ack
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
        acode_a = self._skeleton.ack_codes
        apcode_a = self._skeleton.ack_payload_codes
        fcode_a = self._skeleton.fat_codes
        inject = self._inject_link
        ack_held = self._ack_held
        # One counter meters both the event budget and ``events_fired``
        # (recovered at exit as the number of decrements); the "unbounded"
        # sentinel is a value no run can exhaust.
        budget = (1 << 62) if max_events is None else max_events
        budget0 = budget
        stop_reason = "quiescent"
        acks = self.acks
        dropped = self.dropped
        # Fuses counted locally; materializations (``send_on``,
        # ``_reset_link``) decrement ``self._fused``, combined at exit.
        fused = 0
        # Latest fused-ack time never materialized as an event; quiescence
        # still accounts for it (Appendix B pays for acknowledgments).
        horizon = 0.0
        deadline = inf if max_time is None else max_time
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap:
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
                code = record[2]
                if code >= CODE_DELIVER:
                    lid = code - CODE_DELIVER
                    ack = slot_ack_a[lid]
                    if faulty or ack is None:
                        # To the delivery flow below, unbatched: the fault
                        # checks, or the redraw that a fat injection racing
                        # this delivery forces (it staled the slot ack).
                        payload = slot_p_a[lid]
                        inj = injected_a[lid]
                    else:
                        dst = lv[lid]
                        # Same-time batch: keep consuming heap-top records
                        # while they are packed deliveries at this instant
                        # for this destination with a live slot ack (strict
                        # (time, seq) order — any other record ends the
                        # batch).  A live slot ack means exactly one
                        # outstanding record (this one) on a busy link, so
                        # the outbox load alone decides the ack's kind.
                        while True:
                            payload = slot_p_a[lid]
                            if trace is not None:
                                trace(now, lu[lid], dst, payload)
                            acks += 1
                            delivered = delivered_a[lid]
                            if delivered is not None and (
                                prefix_a[lid] is None
                                or payload[0] == prefix_a[lid]
                            ):
                                # The sender wants this payload's callback.
                                push(heap, (now + ack, next(counter),
                                            apcode_a[lid], payload))
                            elif outbox_a[lid]:
                                push(heap, (now + ack, next(counter),
                                            acode_a[lid]))
                            else:
                                # Fuse: reserve the ack's identity instead
                                # of pushing an event.
                                pending_a[lid] = 0
                                fused += 1
                                t_ack = now + ack
                                free_at_a[lid] = t_ack
                                reserved_a[lid] = next(counter)
                                if t_ack > horizon:
                                    horizon = t_ack
                            # Per record, not per batch: a muted link
                            # differs from its same-destination siblings.
                            table = table_a[lid]
                            if table is not None:
                                table[payload[0]](lu[lid], payload)
                            else:
                                deliver_a[lid](lu[lid], payload)
                            # Records at ``now`` passed the deadline check
                            # with the batch head.
                            if not heap:
                                break
                            nxt = heap[0]
                            if nxt[0] != now or nxt[2] < CODE_DELIVER:
                                break
                            lid = nxt[2] - CODE_DELIVER
                            ack = slot_ack_a[lid]
                            if lv[lid] != dst or ack is None or budget == 0:
                                break
                            budget -= 1
                            record = pop(heap)
                            self._active_seq = record[1]
                        continue
                elif code >= CODE_ACK:
                    # Bare acknowledgment: free the link, drain the outbox.
                    lid = code - CODE_ACK
                    if faulty and ack_held(record, lid, now):
                        continue
                    pending_a[lid] -= 1
                    busy_a[lid] = False
                    ob = outbox_a[lid]
                    if ob:
                        inject(lid, heappop(ob)[2])
                    continue
                elif code >= CODE_ACK_PAYLOAD:
                    # The sender wants this payload's on_delivered (decided
                    # at delivery time — nothing re-checked).
                    lid = code - CODE_ACK_PAYLOAD
                    if faulty and ack_held(record, lid, now):
                        continue
                    pending_a[lid] -= 1
                    busy_a[lid] = False
                    delivered_a[lid](lv[lid], record[3])
                    ob = outbox_a[lid]
                    if ob:
                        inject(lid, heappop(ob)[2])
                    continue
                elif code >= CODE_DELIVER_PAYLOAD:
                    # Fat delivery (the double-inject race, or a delivery
                    # deferred across a down interval): fields inline.
                    lid = code - CODE_DELIVER_PAYLOAD
                    payload = record[3]
                    inj = record[4]
                    ack = record[5]
                else:
                    record[3]()
                    continue
                # ---- unbatched delivery flow: fat records, stale slot
                # acks, and every delivery under faults
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
                            # Edge down: defer to the interval's end, in fat
                            # form (the side slots may move on meanwhile).
                            push(heap, (end, next(counter), fcode_a[lid],
                                        payload, inj, ack))
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
                if ack is None or injected_a[lid] != inj:
                    ack = self._ack_delay(lid)
                t_ack = now + ack
                delivered = delivered_a[lid]
                if not lost and delivered is not None and (
                    prefix_a[lid] is None or payload[0] == prefix_a[lid]
                ):
                    push(heap, (t_ack, next(counter), apcode_a[lid], payload))
                elif (outbox_a[lid] or pending_a[lid] != 1 or not busy_a[lid]
                      # An ack inside a down interval is deferred under a
                      # fresh seq, which a reservation cannot express.
                      or faulty and down is not None and down(t_ack) > 0.0):
                    push(heap, (t_ack, next(counter), acode_a[lid]))
                else:
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
            if gc_was_enabled:
                gc.enable()
            self._fired += budget0 - budget
            self.acks = acks
            self.dropped = dropped
            self._fused += fused
            self.messages = sum(self._injected)
        quiescence = self._now
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
            # raw-accounting credit is withdrawn alongside.
            late = False
            for lid in range(len(reserved_a)):
                if reserved_a[lid] is not None:
                    t = free_at_a[lid]
                    if t > max_time:
                        late = True
                        self._fused -= 1
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
            events += self._fused
        return AsyncResult(
            time_to_output=self._time_to_output,
            time_to_quiescence=quiescence,
            messages=self.messages,
            acks=self.acks if self.count_acks else 0,
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
    detect_timeout: float = DETECT_TIMEOUT,
) -> AsyncResult:
    """Convenience wrapper: build the runtime and run to quiescence."""
    runtime = AsyncRuntime(
        graph, process_factory, delay_model, count_fused_acks=count_fused_acks,
        faults=faults, detect_timeout=detect_timeout,
    )
    return runtime.run(max_time=max_time, max_events=max_events)
