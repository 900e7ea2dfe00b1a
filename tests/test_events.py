"""Tests for the deterministic event queue and its record kinds."""

import heapq

import pytest

from repro.net import EventQueue
from repro.net.events import EV_ACK, EV_ACK_PAYLOAD, EV_CALLBACK, EV_DELIVER


class RecordingQueue(EventQueue):
    """Queue that records every non-callback record handed to dispatch."""

    def __init__(self):
        super().__init__()
        self.dispatched = []

    def push(self, time, *fields):
        heapq.heappush(self._heap, (time, next(self._counter)) + fields)

    def dispatch(self, record):
        self.dispatched.append((self.now, record))


class TestRecordKinds:
    def test_kinds_are_distinct_and_callback_is_zero(self):
        kinds = [EV_CALLBACK, EV_DELIVER, EV_ACK, EV_ACK_PAYLOAD]
        assert EV_CALLBACK == 0
        assert len(set(kinds)) == len(kinds)

    def test_step_hands_transport_records_to_dispatch(self):
        q = RecordingQueue()
        q.push(1.5, EV_DELIVER, 3, ("m",), 1, 0.5)
        assert q.step() is True
        assert q.dispatched == [(1.5, (1.5, 0, EV_DELIVER, 3, ("m",), 1, 0.5))]
        assert q.fired == 1

    def test_run_interleaves_records_with_callbacks_in_time_seq_order(self):
        q = RecordingQueue()
        fired = []
        q.push(2.0, EV_ACK, 4)
        q.schedule(1.0, lambda: fired.append(("cb", q.now)))
        q.schedule(2.0, lambda: fired.append(("cb", q.now)))
        q.push(1.0, EV_ACK_PAYLOAD, 4, ("p",))
        assert q.run() == "quiescent"
        assert fired == [("cb", 1.0), ("cb", 2.0)]
        # Same-time records fire in creation order on either side of the
        # callbacks: the ack created first at t=2 precedes the t=2 callback.
        assert [(t, r[1], r[2]) for t, r in q.dispatched] == [
            (1.0, 3, EV_ACK_PAYLOAD), (2.0, 0, EV_ACK),
        ]
        assert q.fired == 4

    def test_dispatch_error_names_the_kind(self):
        q = EventQueue()
        with pytest.raises(ValueError, match=f"event kind {EV_DELIVER}"):
            q.dispatch((0.0, 0, EV_DELIVER, 3, ("m",), 1, 0.5))


class TestScheduling:
    def test_fires_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(2.0, lambda: fired.append("b"))
        q.schedule(1.0, lambda: fired.append("a"))
        q.schedule(3.0, lambda: fired.append("c"))
        assert q.run() == "quiescent"
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_creation_order(self):
        q = EventQueue()
        fired = []
        for i in range(10):
            q.schedule(1.0, lambda i=i: fired.append(i))
        q.run()
        assert fired == list(range(10))

    def test_now_advances(self):
        q = EventQueue()
        seen = []
        q.schedule(0.5, lambda: seen.append(q.now))
        q.schedule(1.5, lambda: seen.append(q.now))
        q.run()
        assert seen == [0.5, 1.5]  # both scheduled at time 0

    def test_nested_scheduling(self):
        q = EventQueue()
        fired = []

        def first():
            fired.append(("first", q.now))
            q.schedule(1.0, lambda: fired.append(("second", q.now)))

        q.schedule(1.0, first)
        q.run()
        assert fired == [("first", 1.0), ("second", 2.0)]

    def test_negative_delay_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        q = EventQueue()
        q.schedule(5.0, lambda: q.schedule_at(1.0, lambda: None))
        with pytest.raises(ValueError):
            q.run()


class TestRunLimits:
    def test_max_time_stops_before_event(self):
        q = EventQueue()
        fired = []
        q.schedule(1.0, lambda: fired.append(1))
        q.schedule(10.0, lambda: fired.append(2))
        assert q.run(max_time=5.0) == "max_time"
        assert fired == [1]
        assert q.pending == 1

    def test_max_events(self):
        q = EventQueue()
        for _ in range(5):
            q.schedule(1.0, lambda: None)
        assert q.run(max_events=3) == "max_events"
        assert q.fired == 3

    def test_step_on_empty(self):
        assert EventQueue().step() is False
