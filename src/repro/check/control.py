"""Controlled scheduling: the heap as a bag of choices (DESIGN.md §13).

An :class:`~repro.net.async_runtime.AsyncRuntime` built with
``controller=`` takes every next record from
:meth:`ScheduleController.next_record`, the one hook at the head of its
dispatch loop.  This module owns the offer format (:class:`ControlledEvent`,
``CTRL_*``, :func:`event_key`), the synthetic crash/rejoin/detect/alive
actions with the §11 detect blockers, the voiding at a rejoin and the
logical-time stamping; the runtime keeps the dispatch and the fault checks.
"""

from __future__ import annotations

from heapq import heappush
from math import inf
from typing import Any, Dict, List, Optional, Set, Tuple

from ..net.async_runtime import AsyncRuntime
from ..net.events import EV_CALLBACK, EV_DELIVER
from ..net.graph import NodeId

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

#: Serializable event identity: ("ev", seq) | ("crash", v) | ("rejoin", v)
#: | ("detect", u, c) | ("alive", u, r) where u is the observer, c the
#: corpse and r the returned node.
EventKey = Tuple


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


def event_key(ev: ControlledEvent) -> EventKey:
    if ev.seq is not None:
        return ("ev", ev.seq)
    if ev.kind == CTRL_CRASH:
        return ("crash", ev.node)
    if ev.kind == CTRL_REJOIN:
        return ("rejoin", ev.node)
    if ev.kind == CTRL_ALIVE:
        return ("alive", ev.dst, ev.src)
    return ("detect", ev.dst, ev.src)


def is_down(runtime: AsyncRuntime, v: NodeId) -> bool:
    """Whether ``v`` is crashed and not yet re-joined at the runtime's now."""
    return runtime._crash_t[v] <= runtime._now < runtime._rejoin_t[v]


class _ControlState:
    """A controlled run's own state: ``cb_node`` attributes ``on_start``
    callbacks to their node by seq (the partial-order reduction treats one
    as a step of that node, and a down node's start is skipped);
    ``detect_ready``/``alive_ready`` hold the armed detect/alive actions as
    (observer, subject) pairs in arming order; ``blockers`` maps each
    corpse to the delivery seqs its detects still wait for."""

    __slots__ = ("runtime", "cb_node", "detect_ready", "alive_ready",
                 "blockers")

    def __init__(self, runtime: AsyncRuntime) -> None:
        self.runtime = runtime
        # Built at the first step, when the heap holds the starts ``run``
        # scheduled (any environment event stays unattributed).
        self.cb_node: Dict[int, NodeId] = {
            record[1]: v for record in runtime._heap
            if record[2] == EV_CALLBACK
            for v, proc in runtime.processes.items()
            if record[3] == proc.on_start
        }
        self.detect_ready: List[Tuple[NodeId, NodeId]] = []
        self.alive_ready: List[Tuple[NodeId, NodeId]] = []
        self.blockers: Dict[NodeId, Set[int]] = {}


class ScheduleController:
    """Scheduling adversary for controlled runs (repro.check).

    When an instance is passed to :class:`~repro.net.async_runtime.
    AsyncRuntime` as ``controller=``, ``run()`` takes each next record from
    :meth:`next_record` instead of the heap top: the heap becomes an
    unordered bag of *enabled* events, and at every step the controller is
    shown all of them (plus the synthetic crash/detect actions below) and
    picks which one fires next; the same loop dispatches it, with no ack
    fused.  The delay model still runs — record timestamps and
    acknowledgment redraws are drawn exactly as always, so a replayed
    choice sequence reproduces the execution bit-for-bit — but it no
    longer *orders* anything, and ``run(max_time=...)`` is rejected.  With
    no controller installed none of this runs and timed schedules are
    byte-identical.

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

    A controller drives one runtime at a time: its per-run state
    (:class:`_ControlState`) is rebuilt when a different runtime asks.
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

    _state: Optional[_ControlState] = None

    def choose(self, events: List[ControlledEvent]) -> Optional[int]:
        """Pick the next step: an index into ``events``, or ``None`` to stop.

        ``events`` is non-empty; record-backed events come first, sorted by
        ``seq``, followed by crash actions (crashable order) and armed
        detect actions (arming order).  Returning ``None`` ends the run
        with ``stop_reason == "controller"``.
        """
        raise NotImplementedError

    def next_record(self, runtime: AsyncRuntime, exhausted: bool) -> Any:
        """One controller decision of a controlled run (the loop-head hook).

        The heap is an unordered *bag*: :meth:`choose` is shown every
        record, sorted by seq, plus the pending synthetic
        crash/rejoin/detect/alive actions, and picks one.  Returns a stop
        reason if nothing is enabled, the budget is ``exhausted`` or the
        controller stops; ``None`` after a step handled here (a synthetic
        action, or a callback of a down node); else the chosen record for
        the dispatch loop, removed from the bag and stamped with the
        running maximum of fired timestamps.  That logical time is
        deterministic given the choice sequence, so serialized traces
        replay bit-exactly; crashes and rejoins write it into the
        runtime's ``_crash_t``/``_rejoin_t``, where the loop's fault checks
        read it.
        """
        state = self._state
        if state is None or state.runtime is not runtime:
            state = self._state = _ControlState(runtime)
        heap = runtime._heap
        lu = runtime._lu
        lv = runtime._lv
        cb_node = state.cb_node
        detect_ready = state.detect_ready
        alive_ready = state.alive_ready
        blockers = state.blockers
        now = runtime._now
        events: List[ControlledEvent] = []
        for record in heap:
            seq = record[1]
            kind = record[2]
            if kind == EV_CALLBACK:
                events.append(ControlledEvent(
                    CTRL_CALLBACK, seq, None, None, None,
                    cb_node.get(seq), record))
            else:
                lid = record[3]
                events.append(ControlledEvent(
                    CTRL_DELIVER if kind == EV_DELIVER else CTRL_ACK, seq,
                    lid, lu[lid], lv[lid], None, record))
        events.sort(key=lambda e: e.seq)
        for v in self.crashable:
            # One crash per node: a re-joined node is not offered again,
            # which bounds the schedule space (no crash/rejoin flapping).
            if runtime._crash_t[v] == inf:
                events.append(ControlledEvent(
                    CTRL_CRASH, None, None, None, None, v, None))
        for v in self.rejoinable:
            if is_down(runtime, v):
                events.append(ControlledEvent(
                    CTRL_REJOIN, None, None, None, None, v, None))
        for u, c in detect_ready:
            if not blockers.get(c):
                # detect: src = the dead node, dst/node = the observer.
                events.append(ControlledEvent(
                    CTRL_DETECT, None, None, c, u, u, None))
        for u, c in alive_ready:
            # alive: src = the returned node, dst/node = the observer.
            # Never withheld: the rejoin voided every pre-rejoin incident
            # record, so the §11 bound has nothing left to wait on.
            events.append(ControlledEvent(
                CTRL_ALIVE, None, None, c, u, u, None))
        if not events:
            return "quiescent"
        if exhausted:
            return "max_events"
        choice = self.choose(events)
        if choice is None:
            return "controller"
        ev = events[choice]
        record = ev.record
        if record is not None:
            heap.remove(record)
            for blk in blockers.values():
                blk.discard(record[1])
            if record[0] < now:
                record = (now,) + record[1:]
            if ev.node is not None and is_down(runtime, ev.node):
                # An attributed callback (the only record-backed event with
                # a node) of a crashed node: the corpse takes no step.
                runtime._now = record[0]
                return None
            return record
        if ev.kind == CTRL_CRASH:
            v = ev.node
            runtime._crash_t[v] = now
            # Live-sender deliveries in flight at the crash resolve before
            # the detection timeout (the §11 synchrony bound), so the
            # corpse's detects are withheld until all have fired.  Acks
            # drain before any timeout and callbacks are untimed; the
            # corpse's own messages do not block either: a down interval
            # may legally defer them past the timeout.
            blockers[v] = {
                rec[1] for rec in heap
                if rec[2] == EV_DELIVER and not is_down(runtime, lu[rec[3]])
            }
            # The corpse observes nothing from now on.
            detect_ready[:] = [p for p in detect_ready if p[0] != v]
            alive_ready[:] = [p for p in alive_ready if p[0] != v]
            detect_ready += [
                (u, v) for u in runtime._observers(v, "on_neighbor_dead", now)]
        elif ev.kind == CTRL_REJOIN:
            v = ev.node
            runtime._rejoin_t[v] = now
            # Un-fired detects observing v raced the rejoin and lost: the
            # timeout saw the node answer again.  The controller covers the
            # other order by firing the detect *before* choosing the rejoin
            # — exactly the D1–D3 interleaving pair.
            detect_ready[:] = [p for p in detect_ready if p[1] != v]
            blockers.pop(v, None)
            # Void every in-flight incident record (and the corpse's stale
            # attributed callbacks): the new incarnation shares no
            # link-layer state with the old one.
            out = runtime._out
            incident = {lid for w in runtime.graph.neighbors(v)
                        for lid in (out[v][w], out[w][v])}
            voided = [
                rec for rec in heap
                if (cb_node.get(rec[1]) == v if rec[2] == EV_CALLBACK
                    else rec[3] in incident)
            ]
            for rec in voided:
                heap.remove(rec)
                if rec[2] != EV_CALLBACK:
                    runtime._pending[rec[3]] -= 1
                    if rec[2] == EV_DELIVER:
                        runtime.dropped += 1
                for blk in blockers.values():
                    blk.discard(rec[1])
            # The fresh incarnation starts now, attributed to v.
            start = runtime._rewire_node(v).on_start
            seq = next(runtime._counter)
            heappush(heap, (now, seq, EV_CALLBACK, start))
            cb_node[seq] = v
            alive_ready += [(u, v) for u in runtime._observers(
                v, "on_neighbor_alive", now)]
        elif ev.kind == CTRL_ALIVE:
            alive_ready.remove((ev.dst, ev.src))
            runtime._fire_alive(ev.dst, ev.src)
        else:  # CTRL_DETECT
            detect_ready.remove((ev.dst, ev.src))
            runtime._fire_dead(ev.dst, ev.src)
        return None
