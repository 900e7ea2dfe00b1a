"""Trace-equivalence of the typed-record transport against a reference engine.

The seed revision's transport scheduled one lambda-closure event per delivery
and per acknowledgment.  The rebuilt engine (typed records, fused
acknowledgments with reserved sequence numbers, per-link delay streams) must
be *observationally identical*: same delivery order, same delivery times,
same metrics, same outputs — for every delay model in the standard adversary
family, across topologies and seeds, for plain protocols and for the full
synchronizer stack.

``ReferenceRuntime`` below is a faithful port of the seed engine (closure
events, ack delay drawn at delivery time).  The one metric excluded from the
comparison is ``events_fired``: the fused engine intentionally does not fire
an event for acknowledgments nobody waits on, so it reports fewer events (the
acks themselves are still counted and still bound quiescence time).
"""

import heapq
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.programs import bfs_spec, broadcast_echo_spec, flood_max_spec
from repro.core.bfs_runner import registry_for_threshold
from repro.core.sweep import SynchronizerSweep
from repro.core.synchronizer import SynchronizerProcess, pulse_bound_for
from repro.net import topology
from repro.net.async_runtime import AsyncResult, AsyncRuntime, Process
from repro.net.delays import standard_adversaries
from repro.net.faults import DETECT_TIMEOUT, FaultSchedule
from repro.net.graph import Graph
from repro.net.sweep import AsyncSweep


class _RefLink:
    __slots__ = ("busy", "outbox", "seq", "injected")

    def __init__(self):
        self.busy = False
        self.outbox = []
        self.seq = 0
        self.injected = 0


class _RefContext:
    """Seed-equivalent ProcessContext."""

    __slots__ = ("_runtime", "node_id", "neighbors")

    def __init__(self, runtime, node_id):
        self._runtime = runtime
        self.node_id = node_id
        self.neighbors = runtime.graph.neighbors(node_id)

    @property
    def now(self):
        return self._runtime.now

    def send(self, to, payload, priority=(0,)):
        self._runtime._enqueue(self.node_id, to, payload, priority)

    def schedule_environment_event(self, delay, callback):
        runtime = self._runtime
        if runtime._faults is not None:
            # Same crash guard as the packed engine: the event stays on the
            # heap (schedules are immutable) but fires as a no-op once the
            # owner is dead.  Dead window is [crash, rejoin).
            t_crash = runtime._crash_t[self.node_id]
            if t_crash != inf:
                t_rejoin = runtime._rejoin_t[self.node_id]
                inner = callback

                def callback(_cb=inner, _rt=runtime, _t=t_crash, _r=t_rejoin):
                    if _rt._now < _t or _rt._now >= _r:
                        _cb()

        runtime._schedule(delay, callback)

    def reset_link(self, to):
        # Seed semantics: clear the in-flight slot and the outbox of the
        # directed link; records already in flight keep their fate.
        link = self._runtime._links[(self.node_id, to)]
        link.busy = False
        link.outbox.clear()

    def set_output(self, value):
        self._runtime._record_output(self.node_id, value)

    def edge_weight(self, to):
        return self._runtime.graph.weight(self.node_id, to)


class ReferenceRuntime:
    """Direct port of the seed engine: closure events, two per message."""

    def __init__(self, graph, process_factory, delay_model, trace=None,
                 faults=None, detect_timeout=DETECT_TIMEOUT):
        self.graph = graph
        self.delay_model = delay_model
        self.trace = trace
        self._factory = process_factory
        self._heap = []
        self._seq = 0
        self._now = 0.0
        self._fired = 0
        self._links = {}
        for u, v in graph.edges:
            self._links[(u, v)] = _RefLink()
            self._links[(v, u)] = _RefLink()
        self.messages = 0
        self.acks = 0
        self.dropped = 0
        self.rejoined = {}
        if faults is not None and faults.is_empty():
            faults = None
        self._faults = faults
        self.detect_timeout = detect_timeout
        # Per-node incarnation counters: a transport closure captures the
        # epochs of both endpoints when it is scheduled and is *void* at
        # fire time if either changed — the reference reading of the
        # packed engine's stale-seq watermarks (DESIGN.md §15).
        self._epoch = {v: 0 for v in graph.nodes}
        if faults is not None:
            self._crash_t = {v: faults.crash_time(v) for v in graph.nodes}
            self._rejoin_t = {v: faults.rejoin_time(v) for v in graph.nodes}
            self._down = {
                pair: faults.down_checker(*pair) for pair in self._links
            }
            self._drop = {
                pair: faults.drop_checker(*pair) for pair in self._links
            }
        else:
            self._rejoin_t = {v: inf for v in graph.nodes}
        self.outputs = {}
        self.output_time = {}
        self._time_to_output = 0.0
        self.processes = {
            v: process_factory(_RefContext(self, v)) for v in graph.nodes
        }

    @property
    def now(self):
        return self._now

    def _schedule(self, delay, callback):
        heapq.heappush(self._heap, (self._now + delay, self._seq, callback))
        self._seq += 1

    def _record_output(self, node, value):
        self.outputs[node] = value
        self.output_time[node] = self._now
        self._time_to_output = max(self._time_to_output, self._now)

    def _enqueue(self, u, v, payload, priority):
        link = self._links.get((u, v))
        if link is None:
            raise ValueError(f"no link {u} -> {v}")
        heapq.heappush(link.outbox, (priority, link.seq, payload))
        link.seq += 1
        if not link.busy:
            self._inject(u, v, link)

    def _void(self, u, v, eu, ev):
        """True when a transport closure scheduled at epochs ``(eu, ev)``
        fires after either endpoint re-joined — it was in flight at the
        rejoin instant and the new incarnation owns the link now."""
        epoch = self._epoch
        return epoch[u] != eu or epoch[v] != ev

    def _inject(self, u, v, link):
        _, _, payload = heapq.heappop(link.outbox)
        link.busy = True
        link.injected += 1
        self.messages += 1
        delay = self.delay_model(u, v, link.injected, self._now)
        eu, ev = self._epoch[u], self._epoch[v]
        self._schedule(delay, lambda: self._deliver(u, v, payload, eu, ev))

    def _deliver(self, u, v, payload, eu, ev):
        link = self._links[(u, v)]
        if self._faults is not None:
            if self._void(u, v, eu, ev):
                # Void across a rejoin: the message vanishes without an
                # acknowledgment, but the link was already reset at the
                # rejoin so nothing stays jammed.
                self.dropped += 1
                return
            if self._crash_t[v] <= self._now < self._rejoin_t[v]:
                # Receiver is dead: the message is lost and the link jams —
                # no acknowledgment ever frees it (fail-stop semantics).
                self.dropped += 1
                return
            down = self._down[(u, v)]
            if down is not None:
                end = down(self._now)
                if end > 0.0:
                    # Down interval: deferral, not loss — retry at its end
                    # (injection-time epochs ride along the retries).
                    self._schedule(
                        end - self._now,
                        lambda: self._deliver(u, v, payload, eu, ev)
                    )
                    return
            drop = self._drop[(u, v)]
            if drop is not None and drop(link.injected):
                # Receiver-side loss with a link-layer acknowledgment: the
                # payload never reaches the process but the link frees.
                self.dropped += 1
                self.acks += 1
                ack_delay = self.delay_model(v, u, -link.injected, self._now)
                aeu, aev = self._epoch[u], self._epoch[v]
                self._schedule(
                    ack_delay, lambda: self._ack_only(u, v, aeu, aev)
                )
                return
        if self.trace is not None:
            self.trace(self._now, u, v, payload)
        self.acks += 1
        ack_delay = self.delay_model(v, u, -link.injected, self._now)
        aeu, aev = self._epoch[u], self._epoch[v]
        self._schedule(
            ack_delay, lambda: self._ack(u, v, payload, aeu, aev)
        )
        self.processes[v].on_message(u, payload)

    def _ack(self, u, v, payload, eu, ev):
        link = self._links[(u, v)]
        if self._faults is not None:
            if self._void(u, v, eu, ev):
                # Void ack: the new incarnation owns the link state.
                return
            down = self._down[(u, v)]
            if down is not None:
                end = down(self._now)
                if end > 0.0:
                    self._schedule(
                        end - self._now,
                        lambda: self._ack(u, v, payload, eu, ev)
                    )
                    return
            link.busy = False
            if self._crash_t[u] <= self._now < self._rejoin_t[u]:
                # Dead sender: no callback, and its outbox dies with it.
                return
            self.processes[u].on_delivered(v, payload)
            if link.outbox:
                self._inject(u, v, link)
            return
        link.busy = False
        self.processes[u].on_delivered(v, payload)
        if link.outbox:
            self._inject(u, v, link)

    def _ack_only(self, u, v, eu, ev):
        """Link-layer ack of a dropped payload: frees and drains, but the
        sender gets no ``on_delivered`` (the message was lost)."""
        if self._void(u, v, eu, ev):
            return
        link = self._links[(u, v)]
        down = self._down[(u, v)]
        if down is not None:
            end = down(self._now)
            if end > 0.0:
                self._schedule(
                    end - self._now, lambda: self._ack_only(u, v, eu, ev)
                )
                return
        link.busy = False
        if self._crash_t[u] <= self._now < self._rejoin_t[u]:
            return
        if link.outbox:
            self._inject(u, v, link)

    def run(self, max_time=None):
        if self._faults is not None:
            return self._run_faulty(max_time)
        for v in sorted(self.graph.nodes):
            self._schedule(0.0, self.processes[v].on_start)
        stop_reason = "quiescent"
        while self._heap:
            if max_time is not None and self._heap[0][0] > max_time:
                stop_reason = "max_time"
                break
            time, _, callback = heapq.heappop(self._heap)
            self._now = time
            self._fired += 1
            callback()
        return AsyncResult(
            time_to_output=self._time_to_output,
            time_to_quiescence=self._now,
            messages=self.messages,
            acks=self.acks,
            outputs=dict(self.outputs),
            output_time=dict(self.output_time),
            events_fired=self._fired,
            stop_reason=stop_reason,
        )

    def _rejoin(self, v):
        """Node ``v`` returns with fresh state: bump its epoch (voiding
        every in-flight incident closure), reset both directions of every
        incident link, rebuild the process, start it, and arm the
        ``on_neighbor_alive`` recovery detectors — mirroring the packed
        engine's ``_rejoin_node`` step for step."""
        self._epoch[v] += 1
        for w in self.graph.neighbors(v):
            for pair in ((v, w), (w, v)):
                link = self._links[pair]
                link.busy = False
                link.outbox.clear()
        self.processes[v] = self._factory(_RefContext(self, v))
        self.rejoined[v] = self._now
        # Blank state includes the output register (time_to_output keeps
        # its high-water mark, matching the packed engine).
        self.outputs.pop(v, None)
        self.output_time.pop(v, None)
        self.processes[v].on_start()
        crash_t = self._crash_t
        rejoin_t = self._rejoin_t
        base_alive = Process.on_neighbor_alive
        t_fire = self._now + self.detect_timeout
        for u in sorted(self.graph.neighbors(v)):
            if crash_t[u] <= t_fire < rejoin_t[u]:
                continue  # observer dead at the fire time
            if type(self.processes[u]).on_neighbor_alive is base_alive:
                continue
            self._schedule(
                t_fire - self._now,
                lambda uu=u, vv=v: self.processes[uu].on_neighbor_alive(vv),
            )

    def _run_faulty(self, max_time=None):
        # Mirrors the packed engine's fault loop: on_start runs directly
        # (ascending node order, crashed-at-zero nodes skipped), then the
        # failure detectors are scheduled, then the rejoin closures, then
        # the heap drains.
        crash_t = self._crash_t
        rejoin_t = self._rejoin_t
        for v in sorted(self.graph.nodes):
            if crash_t[v] <= 0.0:
                continue
            self.processes[v].on_start()
        base_dead = Process.on_neighbor_dead
        for c in sorted(self.graph.nodes):
            t_crash = crash_t[c]
            if t_crash == inf:
                continue
            t_fire = t_crash + self.detect_timeout
            if rejoin_t[c] <= t_fire:
                continue  # back before the timeout: no accusation
            for u in sorted(self.graph.neighbors(c)):
                if crash_t[u] <= t_fire < rejoin_t[u]:
                    continue
                proc = self.processes[u]
                if type(proc).on_neighbor_dead is base_dead:
                    continue
                # Fire-time lookup, like the packed engine: a re-joined
                # observer's fresh incarnation gets the callback.
                self._schedule(
                    t_fire,
                    lambda uu=u, cc=c: self.processes[uu].on_neighbor_dead(cc),
                )
        for v in sorted(self.graph.nodes):
            t_rejoin = rejoin_t[v]
            if t_rejoin < inf:
                self._schedule(t_rejoin, lambda vv=v: self._rejoin(vv))
        stop_reason = "quiescent"
        while self._heap:
            if max_time is not None and self._heap[0][0] > max_time:
                stop_reason = "max_time"
                break
            time, _, callback = heapq.heappop(self._heap)
            self._now = time
            self._fired += 1
            callback()
        return AsyncResult(
            time_to_output=self._time_to_output,
            time_to_quiescence=self._now,
            messages=self.messages,
            acks=self.acks,
            outputs=dict(self.outputs),
            output_time=dict(self.output_time),
            events_fired=self._fired,
            stop_reason=stop_reason,
            dropped=self.dropped,
        )


# ----------------------------------------------------------------------
# Workload protocols
# ----------------------------------------------------------------------
class Gossip(Process):
    """Max-flood: every node spreads the largest id it has seen."""

    def on_start(self):
        self.best = self.ctx.node_id
        for v in self.ctx.neighbors:
            self.ctx.send(v, self.best)

    def on_message(self, sender, value):
        if value > self.best:
            self.best = value
            self.ctx.set_output(value)
            for v in self.ctx.neighbors:
                self.ctx.send(v, value)


class PriorityPingPong(Process):
    """Exercises the outbox: interleaved priorities plus an ack-driven tail."""

    ROUNDS = 6

    def on_start(self):
        if self.ctx.node_id == 0:
            for i in range(3):
                self.ctx.send(self.ctx.neighbors[0], ("lo", i), priority=(2, i))
            for i in range(3):
                self.ctx.send(self.ctx.neighbors[0], ("hi", i), priority=(1, i))

    def on_message(self, sender, payload):
        log = getattr(self, "log", [])
        log.append((self.ctx.now, sender, payload))
        self.log = log
        self.ctx.set_output(list(log))
        kind, k = payload
        if kind == "hi" and k < self.ROUNDS:
            self.ctx.send(sender, ("hi", k + 1))

    def on_delivered(self, to, payload):
        tally = getattr(self, "tally", 0)
        self.tally = tally + 1


class AckChainSender(Process):
    """Bursts on one link and keeps sending from ``on_delivered``.

    This drives the reference engine's double-inject quirk: the callback
    fires after ``busy`` clears but before the outbox drains, so its send
    and the drain each inject — two messages in flight on one link.  The
    rebuilt transport must then *discard* the ack delay pre-drawn by the
    pair stream and re-draw it at the link's latest injection number
    (``_ack_delay``), or the schedules diverge.
    """

    burst = 3
    extra = 5

    def on_start(self):
        if self.ctx.node_id == 0:
            for i in range(self.burst):
                self.ctx.send(1, ("m", i))

    def on_message(self, sender, payload):
        log = getattr(self, "log", [])
        log.append((self.ctx.now, payload))
        self.log = log
        self.ctx.set_output(list(log))

    def on_delivered(self, to, payload):
        sent = getattr(self, "sent_extra", 0)
        if self.ctx.node_id == 0 and sent < self.extra:
            self.sent_extra = sent + 1
            self.ctx.send(to, ("x", sent))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    burst=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=0, max_value=6),
    model_idx=st.integers(min_value=0, max_value=7),
)
def test_double_inject_ack_fallback_equivalence(seed, burst, extra, model_idx):
    """Property: an ``on_delivered`` callback injecting onto the same link
    observes the re-drawn ack delay at the *latest* injection number on
    both engines — the pre-drawn pair-stream value must be discarded
    whenever the callback's send slipped an extra injection in first."""
    graph = topology.path_graph(2)
    process_cls = type(
        "AckChain", (AckChainSender,), {"burst": burst, "extra": extra}
    )
    # Fresh model instances per engine: the hashed models memoize per-link
    # state, and the draws must come out identical from a cold start.
    ref_model = standard_adversaries(seed)[model_idx]
    new_model = standard_adversaries(seed)[model_idx]
    ref_trace, new_trace = [], []
    ref_result = ReferenceRuntime(
        graph, process_cls, ref_model,
        trace=lambda t, u, v, p: ref_trace.append((t, u, v, p)),
    ).run()
    new_result = AsyncRuntime(
        graph, process_cls, new_model,
        trace=lambda t, u, v, p: new_trace.append((t, u, v, p)),
    ).run()
    _assert_equivalent(ref_trace, ref_result, new_trace, new_result)


class EnvResender(Process):
    """Sends on one link at environment-chosen times.

    Each later send races the previous message's *fused* acknowledgment
    (nothing waits on these acks, so they are reservations, not events):
    depending on the adversary's draws the send either waits on the
    materialized drain — which must fire at exactly the reserved
    (time, seq) identity — or finds the reservation in the logical past and
    injects immediately.  Trace equivalence against the reference engine
    (which pushes every ack eagerly with the same sequence numbers) pins
    the identity on both engines, including ties at the drain instant.
    """

    times = (0.5, 1.5)

    def on_start(self):
        if self.ctx.node_id == 0:
            self.ctx.send(1, ("m", 0))
            for i, delay in enumerate(self.times):
                self.ctx.schedule_environment_event(
                    delay, lambda i=i: self.ctx.send(1, ("m", i + 1))
                )

    def on_message(self, sender, payload):
        log = getattr(self, "log", [])
        log.append((self.ctx.now, payload))
        self.log = log
        self.ctx.set_output(list(log))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    model_idx=st.integers(min_value=0, max_value=7),
    times=st.lists(
        st.floats(min_value=0.01, max_value=6.0, allow_nan=False,
                  allow_infinity=False),
        min_size=1, max_size=5,
    ),
)
def test_reserved_ack_identity_under_materialization(seed, model_idx, times):
    """Property: deferred drains fire at exactly their reserved (time, seq)
    on both engines — environment sends at arbitrary times race the fused
    acknowledgments of earlier messages on the same link, covering both the
    materialize (reservation in the logical future) and drop (logical past)
    paths across the whole adversary family."""
    graph = topology.path_graph(2)
    process_cls = type("EnvResend", (EnvResender,), {"times": tuple(times)})
    ref_model = standard_adversaries(seed)[model_idx]
    new_model = standard_adversaries(seed)[model_idx]
    ref_trace, new_trace = [], []
    ref_result = ReferenceRuntime(
        graph, process_cls, ref_model,
        trace=lambda t, u, v, p: ref_trace.append((t, u, v, p)),
    ).run()
    new_result = AsyncRuntime(
        graph, process_cls, new_model,
        trace=lambda t, u, v, p: new_trace.append((t, u, v, p)),
    ).run()
    _assert_equivalent(ref_trace, ref_result, new_trace, new_result)


TOPOLOGIES = {
    "cycle12": lambda: topology.cycle_graph(12),
    "grid3x4": lambda: topology.grid_graph(3, 4),
    "tree13": lambda: topology.random_tree(13, seed=5),
}


def _run_both(graph, factory, model):
    ref_trace, new_trace = [], []
    ref = ReferenceRuntime(
        graph, factory, model, trace=lambda t, u, v, p: ref_trace.append((t, u, v, p))
    )
    ref_result = ref.run()
    new = AsyncRuntime(
        graph, factory, model, trace=lambda t, u, v, p: new_trace.append((t, u, v, p))
    )
    new_result = new.run()
    return ref_trace, ref_result, new_trace, new_result


def _assert_equivalent(ref_trace, ref_result, new_trace, new_result):
    assert new_trace == ref_trace  # identical delivery order, times, payloads
    assert new_result.outputs == ref_result.outputs
    assert new_result.output_time == ref_result.output_time
    assert new_result.messages == ref_result.messages
    assert new_result.acks == ref_result.acks
    assert new_result.time_to_output == ref_result.time_to_output
    assert new_result.time_to_quiescence == ref_result.time_to_quiescence
    assert new_result.stop_reason == ref_result.stop_reason
    assert new_result.dropped == ref_result.dropped


class FaultObservantGossip(Gossip):
    """Gossip plus failure/recovery-detector recorders: the detection times
    and the order the detectors fire in are part of the pinned schedule —
    including the ``on_neighbor_alive`` firings a rejoin arms."""

    def _publish(self):
        self.ctx.set_output((
            "best", self.best,
            "dead", tuple(getattr(self, "dead_log", ())),
            "alive", tuple(getattr(self, "alive_log", ())),
        ))

    def on_neighbor_dead(self, neighbor):
        log = getattr(self, "dead_log", [])
        log.append((self.ctx.now, neighbor))
        self.dead_log = log
        self._publish()

    def on_neighbor_alive(self, neighbor):
        log = getattr(self, "alive_log", [])
        log.append((self.ctx.now, neighbor))
        self.alive_log = log
        self._publish()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    fault_seed=st.integers(min_value=0, max_value=10_000),
    model_idx=st.integers(min_value=0, max_value=7),
    topo=st.sampled_from(sorted(TOPOLOGIES)),
    crash_rate=st.floats(min_value=0.0, max_value=0.4, allow_nan=False),
    down_rate=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    drop_rate=st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
    rejoin_rate=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    recurrent=st.booleans(),
)
def test_fault_schedule_equivalence(
    seed, fault_seed, model_idx, topo, crash_rate, down_rate, drop_rate,
    rejoin_rate, recurrent,
):
    """Property: for an arbitrary seeded ``FaultSchedule`` — now including
    rejoins and recurrent (flapping) links — crossed with every delay model
    in the adversary family, the packed engine's faulty run is
    byte-identical to the reference engine's — same delivery trace, same
    drop count, same detector firings (dead *and* alive), same metrics."""
    graph = TOPOLOGIES[topo]()
    faults = FaultSchedule(
        seed=fault_seed, crash_rate=crash_rate,
        down_rate=down_rate, drop_rate=drop_rate,
        rejoin_rate=rejoin_rate,
        # recurrent=True requires down intervals to repeat.
        recurrent=recurrent and down_rate > 0.0,
    )
    ref_model = standard_adversaries(seed)[model_idx]
    new_model = standard_adversaries(seed)[model_idx]
    ref_trace, new_trace = [], []
    ref_result = ReferenceRuntime(
        graph, FaultObservantGossip, ref_model, faults=faults,
        trace=lambda t, u, v, p: ref_trace.append((t, u, v, p)),
    ).run()
    new_result = AsyncRuntime(
        graph, FaultObservantGossip, new_model, faults=faults,
        trace=lambda t, u, v, p: new_trace.append((t, u, v, p)),
    ).run()
    _assert_equivalent(ref_trace, ref_result, new_trace, new_result)


class ResettingGossip(FaultObservantGossip):
    """Recovery-style reaction to a detected death: reset the jammed link
    toward the corpse, then re-announce twice on it.  The first send jams
    the link again (the corpse never acknowledges), so the second must
    queue behind it — a fused-ack reservation that outlived the reset would
    let it inject instead."""

    def on_neighbor_dead(self, neighbor):
        self.ctx.reset_link(neighbor)
        self.ctx.send(neighbor, self.best)
        self.ctx.send(neighbor, self.best)
        super().on_neighbor_dead(neighbor)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    fault_seed=st.integers(min_value=0, max_value=10_000),
    model_idx=st.integers(min_value=0, max_value=7),
    topo=st.sampled_from(sorted(TOPOLOGIES)),
    crash_rate=st.floats(min_value=0.0, max_value=0.4, allow_nan=False),
    down_rate=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    drop_rate=st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
    rejoin_rate=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    recurrent=st.booleans(),
)
def test_fault_schedule_equivalence_with_link_resets(
    seed, fault_seed, model_idx, topo, crash_rate, down_rate, drop_rate,
    rejoin_rate, recurrent,
):
    """Property: ``ctx.reset_link`` from a failure detector — the recovery
    hook — keeps the packed engine byte-identical to the reference engine
    under arbitrary seeded fault schedules and every delay model."""
    graph = TOPOLOGIES[topo]()
    faults = FaultSchedule(
        seed=fault_seed, crash_rate=crash_rate,
        down_rate=down_rate, drop_rate=drop_rate,
        rejoin_rate=rejoin_rate,
        recurrent=recurrent and down_rate > 0.0,
    )
    ref_trace, new_trace = [], []
    ref_result = ReferenceRuntime(
        graph, ResettingGossip, standard_adversaries(seed)[model_idx],
        faults=faults,
        trace=lambda t, u, v, p: ref_trace.append((t, u, v, p)),
    ).run()
    new_result = AsyncRuntime(
        graph, ResettingGossip, standard_adversaries(seed)[model_idx],
        faults=faults,
        trace=lambda t, u, v, p: new_trace.append((t, u, v, p)),
    ).run()
    _assert_equivalent(ref_trace, ref_result, new_trace, new_result)


@pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gossip_faulty_equivalence_across_adversaries(topo, seed):
    """Deterministic cousin of the property above: a fixed mixed fault
    schedule (crashes + downs + drops) against all eight adversaries."""
    graph = TOPOLOGIES[topo]()
    faults = FaultSchedule(
        seed=seed + 17, crash_rate=0.2, down_rate=0.3, drop_rate=0.1
    )
    for model in standard_adversaries(seed):
        ref_trace, new_trace = [], []
        ref_result = ReferenceRuntime(
            graph, FaultObservantGossip, model, faults=faults,
            trace=lambda t, u, v, p: ref_trace.append((t, u, v, p)),
        ).run()
        new_result = AsyncRuntime(
            graph, FaultObservantGossip, model, faults=faults,
            trace=lambda t, u, v, p: new_trace.append((t, u, v, p)),
        ).run()
        _assert_equivalent(ref_trace, ref_result, new_trace, new_result)


@pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gossip_dynamic_equivalence_across_adversaries(topo, seed):
    """Dynamic-network cousin: every crash re-joins and the down intervals
    recur (flapping links) — the full §15 semantics, pinned against the
    reference engine for all eight adversaries."""
    graph = TOPOLOGIES[topo]()
    faults = FaultSchedule(
        seed=seed + 29, crash_rate=0.3, down_rate=0.25, drop_rate=0.1,
        rejoin_rate=1.0, recurrent=True,
    )
    for model in standard_adversaries(seed):
        ref_trace, new_trace = [], []
        ref_result = ReferenceRuntime(
            graph, FaultObservantGossip, model, faults=faults,
            trace=lambda t, u, v, p: ref_trace.append((t, u, v, p)),
        ).run()
        new_result = AsyncRuntime(
            graph, FaultObservantGossip, model, faults=faults,
            trace=lambda t, u, v, p: new_trace.append((t, u, v, p)),
        ).run()
        _assert_equivalent(ref_trace, ref_result, new_trace, new_result)


@pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gossip_equivalence_across_adversaries(topo, seed):
    graph = TOPOLOGIES[topo]()
    for model in standard_adversaries(seed):
        _assert_equivalent(*_run_both(graph, Gossip, model))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_priority_and_ack_equivalence(seed):
    graph = topology.path_graph(2)
    for model in standard_adversaries(seed):
        _assert_equivalent(*_run_both(graph, PriorityPingPong, model))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("max_time", [0.5, 1.5, 2.5, 7.0])
def test_max_time_equivalence(seed, max_time):
    """Deadline semantics must agree even when the last pending work is a
    fused acknowledgment (which never enters the new engine's heap)."""
    graph = topology.path_graph(3)
    for model in standard_adversaries(seed):
        ref = ReferenceRuntime(graph, Gossip, model).run(max_time=max_time)
        new = AsyncRuntime(graph, Gossip, model).run(max_time=max_time)
        assert new.stop_reason == ref.stop_reason, repr(model)
        assert new.time_to_quiescence == ref.time_to_quiescence, repr(model)
        assert new.outputs == ref.outputs
        assert new.messages == ref.messages


@pytest.mark.parametrize("topo", sorted(TOPOLOGIES))
@pytest.mark.parametrize("seed", [0, 1])
def test_raw_event_accounting_matches_reference(topo, seed):
    """``count_fused_acks=True`` restores the seed engine's exact event
    count: fused vs raw diverge only by the fused-ack count."""
    graph = TOPOLOGIES[topo]()
    for model in standard_adversaries(seed):
        ref = ReferenceRuntime(graph, Gossip, model).run()
        raw = AsyncRuntime(graph, Gossip, model, count_fused_acks=True).run()
        fused = AsyncRuntime(graph, Gossip, model).run()
        assert raw.events_fired == ref.events_fired, repr(model)
        assert 0 <= raw.events_fired - fused.events_fired <= raw.acks


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("max_time", [0.5, 1.5, 2.5, 7.0])
def test_raw_event_accounting_under_deadline(seed, max_time):
    """Raw accounting agrees with the reference engine even when the run is
    cut off with reservations outstanding on both sides of the deadline."""
    graph = topology.path_graph(3)
    for model in standard_adversaries(seed):
        ref = ReferenceRuntime(graph, Gossip, model).run(max_time=max_time)
        raw = AsyncRuntime(graph, Gossip, model, count_fused_acks=True).run(
            max_time=max_time
        )
        assert raw.events_fired == ref.events_fired, repr(model)
        assert raw.stop_reason == ref.stop_reason, repr(model)


@pytest.mark.parametrize("seed", [0, 2])
def test_sweep_replays_match_reference_engine(seed):
    """AsyncSweep replays are trace-identical to the reference engine for
    every delay model, over one shared skeleton."""
    graph = topology.grid_graph(3, 4)
    sweep = AsyncSweep(graph, Gossip)
    for model in standard_adversaries(seed):
        ref_trace, new_trace = [], []
        ref_result = ReferenceRuntime(
            graph, Gossip, model,
            trace=lambda t, u, v, p: ref_trace.append((t, u, v, p)),
        ).run()
        new_result = sweep.run(
            model, trace=lambda t, u, v, p: new_trace.append((t, u, v, p))
        )
        _assert_equivalent(ref_trace, ref_result, new_trace, new_result)


@pytest.mark.parametrize("seed", [0, 2])
def test_synchronizer_sweep_replays_match_reference_engine(seed):
    """The full synchronizer stack through SynchronizerSweep is
    trace-equivalent to the reference engine per delay model — one shared
    cover/registry/pulse-bound setup cannot perturb a single event."""
    graph = topology.cycle_graph(12)
    spec = bfs_spec(0)
    sweep = SynchronizerSweep(graph, spec)
    for model in standard_adversaries(seed):
        ref_trace, new_trace = [], []
        ref_result = ReferenceRuntime(
            graph, sweep.process_cls, model,
            trace=lambda t, u, v, p: ref_trace.append((t, u, v, p)),
        ).run()
        runtime = sweep._sweep.runtime(
            model, trace=lambda t, u, v, p: new_trace.append((t, u, v, p))
        )
        new_result = runtime.run()
        _assert_equivalent(ref_trace, ref_result, new_trace, new_result)


@pytest.mark.parametrize("spec_factory", [
    lambda: bfs_spec(0),
    lambda: broadcast_echo_spec(0),
    flood_max_spec,
])
@pytest.mark.parametrize("seed", [0, 2])
def test_synchronizer_equivalence(spec_factory, seed):
    """The full synchronizer stack is trace-equivalent on both engines."""
    graph = topology.cycle_graph(12)
    spec = spec_factory()
    max_pulse = pulse_bound_for(graph, spec)
    registry = registry_for_threshold(graph, max_pulse)
    namespace = dict(
        spec=spec,
        registry=registry,
        max_pulse=max_pulse,
        initiators=frozenset(spec.initiators(graph)),
        infos=spec.make_infos(graph),
    )
    process_cls = type("EquivSynchronizer", (SynchronizerProcess,), namespace)
    for model in standard_adversaries(seed):
        _assert_equivalent(*_run_both(graph, process_cls, model))
