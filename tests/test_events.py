"""Tests for the event queue's record kinds and the scheduling contracts of
the one loop that fires them, ``AsyncRuntime.run``."""

import pytest

from repro.net import AsyncRuntime, ConstantDelay, Graph, Process, topology
from repro.net.events import EV_ACK, EV_ACK_PAYLOAD, EV_CALLBACK, EV_DELIVER


class Idle(Process):
    """A node that does nothing: its start is its runtime's only own event."""

    def on_message(self, sender, payload):  # pragma: no cover - no links
        pass


def _runtime():
    """A one-node runtime: scheduled callbacks plus the node's start."""
    return AsyncRuntime(Graph(1, []), Idle, ConstantDelay(1.0))


class TestRecordKinds:
    def test_kinds_are_distinct_and_callback_is_zero(self):
        kinds = [EV_CALLBACK, EV_DELIVER, EV_ACK, EV_ACK_PAYLOAD]
        assert EV_CALLBACK == 0
        assert len(set(kinds)) == len(kinds)

    def test_run_interleaves_records_with_callbacks_in_time_seq_order(self):
        """One message 0 -> 1 with delay 1 and ack delay 1: a delivery and
        an ack fire among callbacks in (time, seq) order, on either side
        of same-time callbacks depending on which was created first."""
        log = []

        class Ping(Process):
            def on_start(self):
                if self.ctx.node_id == 0:
                    self.ctx.send(1, ("m",))

            def on_message(self, sender, payload):
                log.append(("deliver", self.ctx.now))
                # Created after the ack record, so it fires after it.
                self.ctx.schedule_environment_event(
                    1.0, lambda: log.append(("late", runtime.now)))

            def on_delivered(self, to, payload):
                log.append(("ack", self.ctx.now))

        runtime = AsyncRuntime(topology.path_graph(2), Ping,
                               ConstantDelay(1.0))
        # Created before the run, so each precedes the same-time record.
        runtime.schedule(1.0, lambda: log.append(("cb", runtime.now)))
        runtime.schedule(2.0, lambda: log.append(("cb", runtime.now)))
        result = runtime.run()
        assert result.stop_reason == "quiescent"
        assert log == [("cb", 1.0), ("deliver", 1.0), ("cb", 2.0),
                       ("ack", 2.0), ("late", 2.0)]
        # Two starts, two callbacks, the delivery, the ack, the late one.
        assert result.events_fired == runtime.fired == 7


class TestScheduling:
    def test_fires_in_time_order(self):
        q = _runtime()
        fired = []
        q.schedule(2.0, lambda: fired.append("b"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.schedule(3.0, lambda: fired.append("c"))
        assert q.run().stop_reason == "quiescent"
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_creation_order(self):
        q = _runtime()
        fired = []
        for i in range(10):
            q.schedule(1.0, lambda i=i: fired.append(i))
        q.run()
        assert fired == list(range(10))

    def test_now_advances(self):
        q = _runtime()
        seen = []
        q.schedule(0.5, lambda: seen.append(q.now))
        q.schedule(1.5, lambda: seen.append(q.now))
        q.run()
        assert seen == [0.5, 1.5]  # both scheduled at time 0

    def test_nested_scheduling(self):
        q = _runtime()
        fired = []

        def first():
            fired.append(("first", q.now))
            q.schedule(1.0, lambda: fired.append(("second", q.now)))

        q.schedule(1.0, first)
        q.run()
        assert fired == [("first", 1.0), ("second", 2.0)]

    def test_negative_delay_rejected(self):
        q = _runtime()
        with pytest.raises(ValueError):
            q.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        q = _runtime()
        q.schedule(5.0, lambda: q.schedule_at(1.0, lambda: None))
        with pytest.raises(ValueError):
            q.run()


class TestRunLimits:
    def test_max_time_stops_before_event(self):
        q = _runtime()
        fired = []
        q.schedule(1.0, lambda: fired.append(1))
        q.schedule(10.0, lambda: fired.append(2))
        assert q.run(max_time=5.0).stop_reason == "max_time"
        assert fired == [1]
        assert q.pending == 1

    def test_max_events(self):
        q = _runtime()
        fired = []
        for i in range(5):
            q.schedule(1.0, lambda i=i: fired.append(i))
        result = q.run(max_events=3)
        assert result.stop_reason == "max_events"
        assert result.events_fired == q.fired == 3
        assert fired == [0, 1]  # the node's start at t=0 is the first event
