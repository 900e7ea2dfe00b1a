"""Tests for the asynchronous runtime: ack discipline, priorities, metrics."""

import gc

import pytest

from repro.apps.programs import bfs_spec
from repro.core import SynchronizerSweep
from repro.core.bfs_runner import registry_for_threshold
from repro.core.recovery import RecoverySynchronizerProcess
from repro.core.synchronizer import pulse_bound_for
from repro.net import (
    AlternatingDelay,
    AsyncRuntime,
    AsyncSweep,
    BimodalDelay,
    ConstantDelay,
    FaultSchedule,
    Graph,
    Process,
    SlowEdgesDelay,
    UniformDelay,
    UnknownLinkError,
    run_asynchronous,
    standard_adversaries,
    topology,
)
from repro.check.control import ScheduleController


class Echo(Process):
    """Node 0 sends 'ping' to all neighbors; they output the sender."""

    def on_start(self):
        if self.ctx.node_id == 0:
            for v in self.ctx.neighbors:
                self.ctx.send(v, ("ping",))

    def on_message(self, sender, payload):
        self.ctx.set_output(("got", sender))


class Burst(Process):
    """Node 0 fires `count` messages at node 1 at time zero."""

    count = 5

    def on_start(self):
        if self.ctx.node_id == 0:
            for i in range(self.count):
                self.ctx.send(1, ("burst", i))

    def on_message(self, sender, payload):
        arrivals = getattr(self, "arrivals", [])
        arrivals.append((self.ctx.now, payload))
        self.arrivals = arrivals
        self.ctx.set_output(list(arrivals))


class PriorityBurst(Process):
    """Sends interleaved low/high priority messages; receiver records order."""

    def on_start(self):
        if self.ctx.node_id == 0:
            # Stage 2 first so the outbox must reorder: stage 1 must win.
            for i in range(3):
                self.ctx.send(1, ("stage2", i), priority=(2, i))
            for i in range(3):
                self.ctx.send(1, ("stage1", i), priority=(1, i))

    def on_message(self, sender, payload):
        order = getattr(self, "order", [])
        order.append(payload)
        self.order = order
        self.ctx.set_output(order)


class TestAckDiscipline:
    def test_one_in_flight_serializes_bursts(self):
        """5 messages x 1.0 delay each on one link => last arrives at t=5."""
        g = topology.path_graph(2)
        result = run_asynchronous(g, Burst, ConstantDelay(1.0))
        arrivals = result.outputs[1]
        times = [t for t, _ in arrivals]
        # Message k leaves only after ack of k-1: 1, 3, 5, 7, 9.
        assert times == [1.0, 3.0, 5.0, 7.0, 9.0]

    def test_fifo_within_priority(self):
        g = topology.path_graph(2)
        result = run_asynchronous(g, Burst, UniformDelay(seed=3))
        payloads = [p for _, p in result.outputs[1]]
        assert payloads == [("burst", i) for i in range(5)]

    def test_ack_counting(self):
        g = topology.path_graph(2)
        result = run_asynchronous(g, Burst, ConstantDelay(1.0))
        assert result.messages == 5
        assert result.acks == 5
        assert result.messages_with_acks == 10


class TestPriorities:
    def test_lower_stage_preempts_outbox(self):
        g = topology.path_graph(2)
        result = run_asynchronous(g, PriorityBurst, ConstantDelay(1.0))
        order = result.outputs[1]
        # First message (stage2, 0) is already in flight when stage1 arrives;
        # after that the outbox drains stage 1 before stage 2.
        assert order[0] == ("stage2", 0)
        assert order[1:4] == [("stage1", 0), ("stage1", 1), ("stage1", 2)]
        assert order[4:] == [("stage2", 1), ("stage2", 2)]


class TestMetricsAndOutputs:
    def test_time_to_output_vs_quiescence(self):
        g = topology.path_graph(3)

        class OutputEarly(Process):
            def on_start(self):
                if self.ctx.node_id == 0:
                    self.ctx.set_output("done")
                    self.ctx.send(1, ("tail",))

            def on_message(self, sender, payload):
                if self.ctx.node_id == 1:
                    self.ctx.send(2, ("tail",))

        result = run_asynchronous(g, OutputEarly, ConstantDelay(1.0))
        assert result.time_to_output == 0.0
        assert result.time_to_quiescence >= 2.0

    def test_send_to_non_neighbor_rejected(self):
        g = topology.path_graph(3)

        class Bad(Process):
            def on_start(self):
                if self.ctx.node_id == 0:
                    self.ctx.send(2, ("skip",))

            def on_message(self, sender, payload):
                pass

        # UnknownLinkError subclasses ValueError and names both endpoints.
        with pytest.raises(ValueError, match="no link"):
            run_asynchronous(g, Bad, ConstantDelay(1.0))
        with pytest.raises(UnknownLinkError, match=r"no link 0 -> 2"):
            run_asynchronous(g, Bad, ConstantDelay(1.0))

    def test_send_from_isolated_node_rejected(self):
        # Node 2 has no incident edges at all: its outgoing link map is
        # empty, and a send from it must fail with the same clear error —
        # not a bare KeyError from deep inside the link table.
        g = Graph(3, [(0, 1)])

        class LonelySender(Process):
            def on_start(self):
                if self.ctx.node_id == 2:
                    self.ctx.send(0, ("hello",))

            def on_message(self, sender, payload):  # pragma: no cover
                pass

        with pytest.raises(UnknownLinkError, match=r"no link 2 -> 0") as exc:
            run_asynchronous(g, LonelySender, ConstantDelay(1.0))
        assert exc.value.u == 2
        assert exc.value.v == 0

    def test_stop_reason_quiescent(self):
        g = topology.path_graph(2)
        result = run_asynchronous(g, Echo, ConstantDelay(1.0))
        assert result.stop_reason == "quiescent"
        assert result.outputs[1] == ("got", 0)

    def test_max_events_guard(self):
        g = topology.path_graph(2)

        class PingPong(Process):
            def on_start(self):
                if self.ctx.node_id == 0:
                    self.ctx.send(1, ("ping",))

            def on_message(self, sender, payload):
                self.ctx.send(sender, ("ping",))

        result = run_asynchronous(g, PingPong, ConstantDelay(1.0), max_events=100)
        assert result.stop_reason == "max_events"


class TestMaxTimeBoundary:
    """Deadline semantics at exactly ``max_time``.

    The audit of the trace-replay branch pinned one rule everywhere: an
    event scheduled *at* exactly ``max_time`` fires (the stop checks are
    strictly ``> deadline``), and the same strict comparison governs the
    fused-acknowledgment reconciliation at exit — a reserved ack at exactly
    the deadline counts as fired, one strictly past it turns the stop reason
    into ``max_time``.
    """

    def _burst(self, max_time, **kwargs):
        g = topology.path_graph(2)
        runtime = AsyncRuntime(g, Burst, ConstantDelay(1.0), **kwargs)
        return runtime.run(max_time=max_time)

    def test_delivery_at_exact_deadline_fires(self):
        # Deliveries land at t = 1, 3, 5, 7, 9 (acks at 2, 4, ..., 10).
        result = self._burst(max_time=9.0)
        times = [t for t, _ in result.outputs[1]]
        assert times == [1.0, 3.0, 5.0, 7.0, 9.0]
        # The last ack (t=10, fused: nothing waits on it) lies strictly past
        # the deadline, so the run was cut short by the horizon.
        assert result.stop_reason == "max_time"

    def test_event_just_before_deadline_excluded_semantics(self):
        result = self._burst(max_time=8.999)
        times = [t for t, _ in result.outputs[1]]
        assert times == [1.0, 3.0, 5.0, 7.0]
        assert result.stop_reason == "max_time"

    def test_fused_ack_at_exact_deadline_counts_as_fired(self):
        # All deliveries and acks (last at t=10, fused) fit exactly.
        result = self._burst(max_time=10.0)
        assert result.stop_reason == "quiescent"
        assert result.time_to_quiescence == 10.0

    def test_callback_at_exact_deadline_fires(self):
        g = topology.path_graph(2)
        fired = []

        class Env(Process):
            def on_start(self):
                if self.ctx.node_id == 0:
                    self.ctx.schedule_environment_event(
                        2.5, lambda: fired.append("at-deadline")
                    )

            def on_message(self, sender, payload):  # pragma: no cover
                pass

        result = AsyncRuntime(g, Env, ConstantDelay(1.0)).run(max_time=2.5)
        assert fired == ["at-deadline"]
        assert result.stop_reason == "quiescent"

    def test_max_time_rejected_under_controller(self):
        """A controlled run is untimed (its heap is an unordered bag), so a
        deadline is refused with an error naming both; the step budget
        still bounds the run."""

        class First(ScheduleController):
            def choose(self, events):
                return 0

        g = topology.path_graph(2)
        runtime = AsyncRuntime(g, Burst, ConstantDelay(1.0),
                               controller=First())
        with pytest.raises(ValueError, match="max_time.*ScheduleController"):
            runtime.run(max_time=9.0)
        result = runtime.run(max_events=3)
        assert result.stop_reason == "max_events"
        assert result.events_fired == 3


class TestReservedAckIdentity:
    """A fused ack's reserved (time, seq) identity survives materialization.

    When a later send has to wait on a fused acknowledgment, the deferred
    drain event must fire at *exactly* the (time, seq) the reservation
    recorded at fuse time — not at a freshly drawn sequence number — or
    the schedule drifts from the reference engine wherever
    another event ties at the same instant.
    """

    def test_materialized_drain_fires_at_reserved_time_and_seq(self):
        g = topology.path_graph(2)
        seen = []

        class Resend(Process):
            def on_start(self):
                if self.ctx.node_id == 0:
                    self.ctx.send(1, ("m", 0))
                    # t=1.25: schedule a probe for t=2.0.  Its sequence
                    # number is allocated at t=1.25 — *after* the fuse at
                    # t=1.0 reserved the ack's identity — so the drain
                    # (reserved seq) must fire first at t=2.0 even though
                    # the probe entered the heap before the drain was
                    # materialized.
                    self.ctx.schedule_environment_event(1.25, self._arm)
                    self.ctx.schedule_environment_event(1.5, self._resend)

            def _arm(self):
                self.ctx.schedule_environment_event(
                    0.75, lambda: seen.append(runtime._injected[lid])
                )

            def _resend(self):
                # Materializes the reservation (free_at=2.0 > now=1.5) and
                # queues behind it.
                self.ctx.send(1, ("m", 1))

            def on_message(self, sender, payload):
                arrivals = getattr(self, "arrivals", [])
                arrivals.append((self.ctx.now, payload))
                self.arrivals = arrivals
                self.ctx.set_output(list(arrivals))

        runtime = AsyncRuntime(g, Resend, ConstantDelay(1.0))
        lid = runtime._out[0][1]
        result = runtime.run()
        # msg0 delivered at 1.0 (ack fused, due 2.0); msg1 waits on the
        # materialized drain at exactly (2.0, reserved seq) and lands at 3.0.
        assert [t for t, _ in result.outputs[1]] == [1.0, 3.0]
        # The probe fired at the same instant (2.0) but with a later seq:
        # the drain had already injected msg1 when it ran.  A fresh-seq
        # materialization would have run the probe first and seen 1.
        assert seen == [2]
        assert result.time_to_quiescence == 4.0  # msg1's ack (fused) at 4.0

    def test_drop_path_when_reservation_lies_in_the_past(self):
        g = topology.path_graph(2)

        class LateResend(Process):
            def on_start(self):
                if self.ctx.node_id == 0:
                    self.ctx.send(1, ("m", 0))
                    # t=2.5 > free_at=2.0: the reservation is logically
                    # dead; the send must inject immediately, not wait.
                    self.ctx.schedule_environment_event(
                        2.5, lambda: self.ctx.send(1, ("m", 1))
                    )

            def on_message(self, sender, payload):
                arrivals = getattr(self, "arrivals", [])
                arrivals.append((self.ctx.now, payload))
                self.arrivals = arrivals
                self.ctx.set_output(list(arrivals))

        result = run_asynchronous(g, LateResend, ConstantDelay(1.0))
        assert [t for t, _ in result.outputs[1]] == [1.0, 3.5]


class TestFusedAckAccounting:
    """The ``count_fused_acks`` opt-out restores raw event accounting."""

    def test_raw_accounting_diverges_only_by_fused_ack_count(self):
        g = topology.path_graph(2)
        fused = run_asynchronous(g, Burst, ConstantDelay(1.0))
        raw = run_asynchronous(
            g, Burst, ConstantDelay(1.0), count_fused_acks=True
        )
        # Everything but the event count is identical.
        assert raw.outputs == fused.outputs
        assert raw.messages == fused.messages
        assert raw.acks == fused.acks
        assert raw.time_to_quiescence == fused.time_to_quiescence
        # Burst(5) on one link: the first four acks are materialized (the
        # outbox is non-empty), only the final ack is fused — so raw
        # accounting reports exactly one more event, and never more than one
        # extra event per acknowledgment.
        assert raw.events_fired - fused.events_fired == 1
        assert raw.events_fired - fused.events_fired <= raw.acks

    def test_raw_accounting_across_adversaries(self):
        g = topology.grid_graph(3, 3)

        class Gossip(Process):
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

        for model in standard_adversaries(9):
            fused = run_asynchronous(g, Gossip, model)
            raw = run_asynchronous(g, Gossip, model, count_fused_acks=True)
            # Raw accounting: one event per start, delivery, and ack.  The
            # fused engine drops exactly the fused-ack events.
            assert raw.events_fired == g.num_nodes + 2 * raw.messages, repr(model)
            diverged = raw.events_fired - fused.events_fired
            assert 0 <= diverged <= raw.acks, repr(model)
            assert raw.outputs == fused.outputs


class TestGcPauseRestoration:
    """The dispatch loop's GC pause must not leak a disabled collector."""

    def test_gc_reenabled_after_raising_process(self):
        g = topology.path_graph(2)

        class Exploder(Process):
            def on_start(self):
                if self.ctx.node_id == 0:
                    self.ctx.send(1, ("boom",))

            def on_message(self, sender, payload):
                raise RuntimeError("handler exploded mid-run")

        assert gc.isenabled()
        with pytest.raises(RuntimeError, match="exploded"):
            run_asynchronous(g, Exploder, ConstantDelay(1.0))
        assert gc.isenabled()

    def test_gc_left_alone_when_disabled_by_caller(self):
        g = topology.path_graph(2)
        gc.disable()
        try:
            result = run_asynchronous(g, Echo, ConstantDelay(1.0))
            assert result.stop_reason == "quiescent"
            # The runtime must not have re-enabled a collector the caller
            # (e.g. a sweep-wide pause) had turned off.
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_metrics_written_back_after_raising_process(self):
        g = topology.path_graph(2)
        delivered = []

        class Exploder(Process):
            def on_start(self):
                if self.ctx.node_id == 0:
                    self.ctx.send(1, ("a",))
                    self.ctx.send(1, ("b",))

            def on_message(self, sender, payload):
                delivered.append(payload)
                if payload == ("b",):
                    raise RuntimeError("late failure")

        runtime = AsyncRuntime(g, Exploder, ConstantDelay(1.0))
        with pytest.raises(RuntimeError, match="late failure"):
            runtime.run()
        # The finally block recovered the injection counters.
        assert runtime.messages == 2
        assert delivered == [("a",), ("b",)]


def _observed(result):
    return (result.messages, result.outputs, result.time_to_output,
            result.events_fired, result.time_to_quiescence,
            result.stop_reason)


#: The five delay models of the sweep cells (``benchmarks/perf_regression``).
_SWEEP_MODELS = (
    ConstantDelay(),
    UniformDelay(seed=3),
    BimodalDelay(seed=3),
    SlowEdgesDelay(seed=3),
    AlternatingDelay(seed=3),
)


class TestResumedRun:
    """A run stopped by ``max_time`` or ``max_events`` and resumed ends
    exactly where one uninterrupted run ends: nodes start once and the
    fault schedule is armed once."""

    def test_flood_starts_every_node_once(self):
        starts = []

        class Flood(Process):
            def on_start(self):
                starts.append(self.ctx.node_id)
                for v in self.ctx.neighbors:
                    self.ctx.send(v, ("flood",))

            def on_message(self, sender, payload):
                self.ctx.set_output(sender)

        g = topology.cycle_graph(4)
        whole = AsyncRuntime(g, Flood, ConstantDelay()).run()
        assert (len(starts), whole.messages) == (4, 8)
        starts.clear()
        runtime = AsyncRuntime(g, Flood, ConstantDelay())
        assert runtime.run(max_time=0.5).stop_reason == "max_time"
        resumed = runtime.run()
        assert sorted(starts) == [0, 1, 2, 3]
        assert _observed(resumed) == _observed(whole)

    @pytest.mark.parametrize("model", _SWEEP_MODELS, ids=repr)
    def test_sync_bfs_resumed_through_time_slices(self, model):
        g = topology.grid_graph(6, 6)
        process_cls = SynchronizerSweep(g, bfs_spec(0)).process_cls
        whole = AsyncRuntime(g, process_cls, model).run()
        runtime = AsyncRuntime(g, process_cls, model)
        for max_time in (3.0, 7.5, 20.0):
            assert runtime.run(max_time=max_time).stop_reason == "max_time"
        assert _observed(runtime.run()) == _observed(whole)

    @pytest.mark.parametrize("model", _SWEEP_MODELS, ids=repr)
    def test_sync_bfs_resumed_after_event_budget(self, model):
        g = topology.grid_graph(6, 6)
        process_cls = SynchronizerSweep(g, bfs_spec(0)).process_cls
        whole = AsyncRuntime(g, process_cls, model).run()
        runtime = AsyncRuntime(g, process_cls, model)
        assert runtime.run(max_events=500).stop_reason == "max_events"
        assert _observed(runtime.run()) == _observed(whole)

    def test_recovery_under_faults_resumed(self):
        g = topology.cycle_graph(64)
        spec = bfs_spec(0)
        max_pulse = pulse_bound_for(g, spec)
        process_cls = type("Recovery", (RecoverySynchronizerProcess,), dict(
            spec=spec, registry=registry_for_threshold(g, max_pulse, "ap"),
            max_pulse=max_pulse, initiators=frozenset(spec.initiators(g)),
            infos=spec.make_infos(g),
        ))
        faults = FaultSchedule(seed=5, crash_rate=0.1, rejoin_rate=1.0,
                               down_rate=0.05, recurrent=True)
        model = UniformDelay(seed=5)
        uninterrupted = AsyncRuntime(g, process_cls, model, faults=faults)
        whole = uninterrupted.run()
        assert whole.dropped and uninterrupted.rejoined
        runtime = AsyncRuntime(g, process_cls, model, faults=faults)
        for max_time in (3.0, 7.5, 20.0):
            assert runtime.run(max_time=max_time).stop_reason == "max_time"
        resumed = runtime.run()
        assert _observed(resumed) == _observed(whole)
        assert resumed.dropped == whole.dropped
        assert runtime.rejoined == uninterrupted.rejoined

    def test_resuming_a_finished_run_keeps_fused_ack_horizon(self):
        # Burst(5) on one link: deliveries at 1, 3, .., 9; the last ack
        # (t=10) is fused.  A run that already went quiescent reports the
        # same quiescence when resumed, and a run cut before that fused ack
        # counts it once resumed (raw accounting).
        g = topology.path_graph(2)
        for raw in (False, True):
            whole = AsyncRuntime(g, Burst, ConstantDelay(1.0),
                                 count_fused_acks=raw).run()
            done = AsyncRuntime(g, Burst, ConstantDelay(1.0),
                                count_fused_acks=raw)
            assert done.run(max_time=10.0).stop_reason == "quiescent"
            assert _observed(done.run()) == _observed(whole)
            cut = AsyncRuntime(g, Burst, ConstantDelay(1.0),
                               count_fused_acks=raw)
            assert cut.run(max_time=9.0).stop_reason == "max_time"
            assert _observed(cut.run()) == _observed(whole)


class TestDeterminism:
    @pytest.mark.parametrize("model", standard_adversaries(7), ids=repr)
    def test_identical_reruns(self, model):
        g = topology.grid_graph(3, 3)

        class Gossip(Process):
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

        first = run_asynchronous(g, Gossip, model)
        second = run_asynchronous(g, Gossip, model)
        assert first.outputs == second.outputs
        assert first.messages == second.messages
        assert first.time_to_quiescence == second.time_to_quiescence

    def test_delay_bound_enforced(self):
        g = topology.path_graph(2)

        def bad_delay(u, v, seq, now):
            return 2.0

        with pytest.raises(ValueError, match="outside"):
            run_asynchronous(g, Echo, bad_delay)


class ResendGossip(Process):
    """Max-flood that also re-sends from ``on_delivered``.

    Every node opens with two messages per neighbor, so an acknowledgment
    usually finds the outbox non-empty: the callback's send and the drain
    then both inject (the double-inject race), and the second delivery's
    ack is redrawn through ``AsyncRuntime._ack_delay``.
    """

    def on_start(self):
        self.best = self.ctx.node_id
        self.resent = 0
        for v in self.ctx.neighbors:
            self.ctx.send(v, ("g", self.best))
            self.ctx.send(v, ("h", self.best))

    def on_message(self, sender, payload):
        if payload[1] > self.best:
            self.best = payload[1]
            self.ctx.set_output(self.best)
            for v in self.ctx.neighbors:
                self.ctx.send(v, ("g", self.best))

    def on_delivered(self, to, payload):
        if self.resent < 3:
            self.resent += 1
            self.ctx.send(to, ("x", self.resent))


def _plain(model, redraws):
    """``model`` as a bare function: no ``block_stream`` to find.

    Counts the draws made with a nonzero ``now``: block fills pass 0.0,
    so those are exactly the delivery-time ack redraws.
    """

    def delay(u, v, seq, now):
        if now:
            redraws.append((u, v, seq))
        return model(u, v, seq, now)

    return delay


_FAULTS = {
    "fault-free": None,
    "drops+downs": FaultSchedule(seed=3, drop_rate=0.2, down_rate=0.3),
}


@pytest.mark.parametrize("faults", sorted(_FAULTS))
@pytest.mark.parametrize("model_idx", range(8))
def test_plain_function_model_matches_native(model_idx, faults):
    """A standard adversary wrapped as a plain function runs through the
    ``__call__`` block adapter and yields the same trace and result as the
    native ``block_stream``, bit for bit — standalone and as a sweep
    replay, fault-free and under drops and down intervals."""
    graph = topology.grid_graph(3, 4)
    schedule = _FAULTS[faults]

    def run(model, sweep=False):
        trace = []

        def record(t, u, v, p):
            trace.append((t, u, v, p))

        if sweep:
            result = AsyncSweep(graph, ResendGossip, faults=schedule).run(
                model, trace=record
            )
        else:
            result = AsyncRuntime(
                graph, ResendGossip, model, faults=schedule, trace=record
            ).run()
        return repr(trace), result

    native_trace, native = run(standard_adversaries(4)[model_idx])
    redraws = []
    plain = _plain(standard_adversaries(4)[model_idx], redraws)
    assert not hasattr(plain, "block_stream")
    plain_trace, plain_result = run(plain)
    assert plain_trace == native_trace
    assert repr(plain_result) == repr(native)
    assert redraws, "no ack was redrawn through __call__"
    sweep_trace, sweep_result = run(plain, sweep=True)
    assert sweep_trace == native_trace
    assert repr(sweep_result) == repr(native)
