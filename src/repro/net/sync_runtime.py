"""Synchronous CONGEST round simulator for event-driven programs.

Implements the synchronous message-passing model of Section 1.1 with the
event-driven interpretation of Section 5.1: at pulse ``p`` exactly the nodes
that received pulse-``p-1`` messages or sent pulse-``p-1`` messages are
activated, receive the full batch of same-round arrivals, and may send the
pulse-``p`` messages.

The runtime reports the two quantities the paper's bounds are stated in:

* time complexity ``T(A)`` (``rounds_to_output``) — rounds until the last
  node produces its output (the "time to output" definition of Appendix B);
* message complexity ``M(A)`` (``messages``) — total messages sent.

Error parity with the asynchronous engine: a send to a non-neighbor fails
at the send site with :class:`~repro.net.graph.UnknownLinkError` naming
both endpoints (raised by :meth:`~repro.net.program.PulseApi.send`, the
only send path into this runtime), exactly as the asynchronous transport's
link table does — a program that oversteps the CONGEST neighborhood gets
the same diagnostic on both engines instead of an engine-specific error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, inf
from typing import Any, Dict, List, Optional, Set, Tuple

from .faults import FaultSchedule
from .graph import Graph, NodeId
from .program import ArrivedBatch, NodeProgram, Payload, ProgramSpec, PulseApi


@dataclass
class SyncResult:
    """Outcome of one synchronous execution."""

    rounds_to_output: int
    rounds_total: int
    messages: int
    outputs: Dict[NodeId, Any]
    output_round: Dict[NodeId, int]
    pulse_messages: List[Tuple[int, NodeId, NodeId, Payload]] = field(repr=False, default_factory=list)
    #: Messages lost to faults (crashed receiver or per-link drop).
    #: Always 0 without a fault schedule.
    dropped: int = 0


class SyncRuntime:
    """Runs one :class:`ProgramSpec` in lockstep rounds."""

    def __init__(
        self,
        graph: Graph,
        spec: ProgramSpec,
        record_messages: bool = False,
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        self.graph = graph
        self.spec = spec
        self.record_messages = record_messages
        if faults is not None and faults.is_empty():
            # Same normalization as the asynchronous engine: an empty
            # schedule provably perturbs nothing, so it runs with the
            # fault steps off.
            faults = None
        self.faults = faults
        self._infos = spec.make_infos(graph)
        self.programs: Dict[NodeId, NodeProgram] = {
            v: spec.node_factory(self._infos[v]) for v in graph.nodes
        }

    def run(self, max_rounds: int = 1_000_000) -> SyncResult:
        """Run to quiescence; a fault schedule is read round-granularly
        (DESIGN.md §11).

        A node is dead at round ``r`` iff ``crash_time(v) <= r <
        rejoin_time(v)`` (dead nodes are never activated; their queued
        sends die with them — sends from earlier rounds were already in
        flight and still arrive).  A send at pulse ``p`` nominally arrives
        at ``p + 1``; if the edge is down over that round it is *deferred*
        to the first round at or after the interval's end (link-layer
        retention, mirroring the asynchronous engine), and a message whose
        receiver is dead at its arrival round — or whose per-link sequence
        number the schedule drops — is lost (counted in ``dropped``; it
        still counts as sent).

        Re-joins are round-granular too (DESIGN.md §15): at the first
        round at or after ``rejoin_time(v)`` the node is rebuilt with
        fresh protocol state, and if it is an initiator it re-runs
        ``on_start`` that round.  Because rounds are the finest unit here,
        the asynchronous engine's sub-round void rule ("in flight at the
        rejoin instant") is not representable: a message is void exactly
        when its *arrival round* falls inside the receiver's dead window,
        so a send that crosses the rejoin boundary is delivered to the
        fresh incarnation rather than voided.  Deterministic on both
        readings; they are documented as different clocks over the same
        schedule.

        Every fault step sits behind one flag fixed for the run, so a
        fault-free run pays one bool test per send and per activation.
        """
        spec = self.spec
        infos = self._infos
        programs = self.programs
        record = self.record_messages
        faults = self.faults
        faulty = faults is not None
        outputs: Dict[NodeId, Any] = {}
        output_round: Dict[NodeId, int] = {}
        message_log: List[Tuple[int, NodeId, NodeId, Payload]] = []
        messages = 0
        dropped = 0
        # Arrival batches keyed by round.  Without faults only ``p + 1`` is
        # ever filled; a down-interval deferral can push a message further.
        future: Dict[int, Dict[NodeId, List[Tuple[NodeId, Payload]]]] = {}
        # Per-directed-link injection counters for the drop keying (1-based,
        # matching the asynchronous engine's injection numbers).
        inj: Dict[Tuple[NodeId, NodeId], int] = {}
        # Rebirth rounds: the first integer round at or after each rejoin
        # time.
        rebirth: Dict[int, List[NodeId]] = {}
        if faulty:
            crash = faults.crash_time
            rejoin = faults.rejoin_time
            down_of = faults.down_checker
            drop_of = faults.drop_checker
            for v in self.graph.nodes:
                if rejoin(v) < inf:
                    rebirth.setdefault(ceil(rejoin(v)), []).append(v)
        initiators = set(spec.initiators(self.graph))
        sent_last: Set[NodeId] = set()

        def post(pulse: int, v: NodeId,
                 sends: List[Tuple[NodeId, Payload]]) -> None:
            nonlocal messages, dropped
            sent_last.add(v)
            messages += len(sends)
            at = future.get(pulse + 1)
            if at is None:
                at = future[pulse + 1] = {}
            for to, payload in sends:
                if faulty:
                    arrive = pulse + 1
                    lk = (v, to)
                    seq = inj[lk] = inj.get(lk, 0) + 1
                    drop = drop_of(v, to)
                    if drop is not None and drop(seq):
                        dropped += 1
                        continue
                    down = down_of(v, to)
                    if down is not None:
                        # First round at or after the interval's end (the
                        # edge is up at ``end``: half-open intervals).
                        end = down(float(arrive))
                        while end > 0.0:
                            arrive = max(ceil(end), arrive + 1)
                            end = down(float(arrive))
                    if crash(to) <= arrive < rejoin(to):
                        dropped += 1
                        continue
                    at = future.setdefault(arrive, {})
                at.setdefault(to, []).append((v, payload))
                if record:
                    message_log.append((pulse, v, to, payload))

        def start(v: NodeId, pulse: int) -> None:
            api = PulseApi(infos[v])
            programs[v].on_start(api)
            sends, has_output, value = api.collect()
            if has_output:
                outputs[v] = value
                output_round[v] = pulse
            if sends:
                post(pulse, v, sends)

        for v in sorted(initiators):
            if not (faulty and crash(v) <= 0.0):
                start(v, 0)
        pulse = 0
        while future or sent_last or rebirth:
            pulse += 1
            if pulse > max_rounds:
                raise RuntimeError(
                    f"synchronous execution of {spec.name!r} exceeded"
                    f" {max_rounds} rounds"
                )
            arrivals = future.pop(pulse, {})
            triggered = sorted(sent_last.union(arrivals))
            sent_last.clear()
            if faulty:
                for v in sorted(rebirth.pop(pulse, ())):
                    # Fresh protocol state, output register included: the
                    # previous incarnation's answer died with it.  An
                    # initiator re-runs on_start, then receives any
                    # same-round arrivals below.
                    programs[v] = spec.node_factory(infos[v])
                    outputs.pop(v, None)
                    output_round.pop(v, None)
                    if v in initiators:
                        start(v, pulse)
            for v in triggered:
                if faulty and crash(v) <= pulse < rejoin(v):
                    # Dead: never activated.  Arrivals addressed to it
                    # were already dropped at send time.
                    continue
                batch: ArrivedBatch = tuple(sorted(arrivals.get(v, ())))
                api = PulseApi(infos[v])
                programs[v].on_pulse(api, batch)
                sends, has_output, value = api.collect()
                if has_output:
                    outputs[v] = value
                    output_round[v] = pulse
                if sends:
                    post(pulse, v, sends)

        return SyncResult(
            rounds_to_output=max(output_round.values(), default=0),
            rounds_total=pulse,
            messages=messages,
            outputs=outputs,
            output_round=output_round,
            pulse_messages=message_log,
            dropped=dropped,
        )


def run_synchronous(
    graph: Graph, spec: ProgramSpec, record_messages: bool = False,
    faults: Optional[FaultSchedule] = None,
) -> SyncResult:
    """Convenience wrapper: build the runtime and run to quiescence."""
    return SyncRuntime(
        graph, spec, record_messages=record_messages, faults=faults
    ).run()
