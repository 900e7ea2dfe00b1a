"""A minimal deterministic discrete-event scheduler over plain-tuple records.

Events fire in (time, sequence) order; the sequence number is assigned at
scheduling time, so simultaneous events fire in the order they were created.
This makes every simulation a pure function of (graph, protocol, delay model).

Every record is a plain tuple ``(time, seq, kind, ...)``: the first two
fields give the total order (``seq`` is unique, so comparison never reaches
``kind``), the third selects the handler, and the rest are the kind's
fields (DESIGN.md §9):

* :data:`EV_CALLBACK` — ``(time, seq, EV_CALLBACK, callback)``: a
  zero-argument callable; what :meth:`EventQueue.schedule` produces.
* :data:`EV_DELIVER` — ``(time, seq, EV_DELIVER, link_id, payload, inj,
  ack)``: a message on a directed link, with its injection number on the
  link and its pre-drawn acknowledgment delay.
* :data:`EV_ACK` — ``(time, seq, EV_ACK, link_id)``: the bare
  acknowledgment; frees the link and drains its outbox, nothing else.
* :data:`EV_ACK_PAYLOAD` — ``(time, seq, EV_ACK_PAYLOAD, link_id,
  payload)``: an acknowledgment whose sender wants the ``on_delivered``
  callback (decided once at delivery time, so dispatch re-checks nothing).

:class:`EventQueue` holds the heap, the clock and the scheduling entry
points; the one loop that fires records of every kind is
:class:`~repro.net.async_runtime.AsyncRuntime`'s ``run`` (the runtime
subclasses this queue).
"""

from __future__ import annotations

import heapq
from itertools import count
from math import inf
from typing import Callable, List, Tuple

from .delays import InvalidDelayError

Callback = Callable[[], None]

#: Record kinds (field 2 of every record); see the module docstring for
#: the layouts.
EV_CALLBACK = 0
EV_DELIVER = 1
EV_ACK = 2
EV_ACK_PAYLOAD = 3


class EventQueue:
    """Priority queue of plain-tuple event records with deterministic ties."""

    __slots__ = ("_heap", "_counter", "_now", "_fired")

    def __init__(self) -> None:
        self._heap: List[Tuple] = []
        # itertools.count hands out sequence numbers at C speed (the
        # read-increment-write of a plain int attribute costs twice as much
        # on the hot path).
        self._counter = count()
        self._now = 0.0
        self._fired = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def fired(self) -> int:
        return self._fired

    def schedule(self, delay: float, callback: Callback) -> None:
        """Schedule ``callback`` at ``now + delay`` (delay must be >= 0, finite)."""
        # Written as a membership test so NaN (every comparison False) and
        # +inf fail it too, not just negative delays: a non-finite time in
        # the heap silently corrupts (time, seq) ordering for every later
        # event, so fail loudly with a named error at scheduling time.
        if not 0.0 <= delay < inf:
            raise InvalidDelayError(f"invalid delay {delay!r} (must be finite, >= 0)")
        heapq.heappush(
            self._heap, (self._now + delay, next(self._counter), EV_CALLBACK, callback)
        )

    def schedule_at(self, time: float, callback: Callback) -> None:
        if not self._now <= time < inf:
            raise InvalidDelayError(
                f"invalid event time {time!r} (must be finite, >= now={self._now})"
            )
        heapq.heappush(
            self._heap, (time, next(self._counter), EV_CALLBACK, callback)
        )
