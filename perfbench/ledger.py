"""In-memory spans and counters recorded around calls into each layer.

Nothing here reaches inside ``src/``: every span wraps a call the benchmark
itself makes into a layer's public function, and the per-message numbers
come from three public seams of the transport:

* the runtime's ``trace=`` hook, which sees every delivered payload and so
  tallies messages by opcode;
* the bound process class's dispatch table (``on_message_table``) and its
  ``on_message`` fallback, whose entries are wrapped to time each handler
  (inclusive of the sends and delay fills it triggers);
* the delay model's ``block_stream`` fill, wrapped through
  :class:`TracedDelay` to count and time refills.

An untraced iteration uses only :meth:`Ledger.span`, a handful of clock
reads per cell, so its schedule and timing are the program's own.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Opcode range of the synchronizer's dispatch table (``NUM_OPCODES``).
NUM_OPCODES = 11

#: Protocol module that owns each opcode: cluster aggregation 0-1,
#: registration 2-5, the synchronizer's own vnode traffic 6, 7, 9, 10 and
#: the application program's messages 8 (``repro.core.synchronizer``).
OPCODE_MODULES: Dict[str, Tuple[int, ...]] = {
    "cluster_ops": (0, 1),
    "registration": (2, 3, 4, 5),
    "synchronizer": (6, 7, 9, 10),
    "apps": (8,),
}

#: (name, parent name or None, start, end) in the ledger's clock.
Span = Tuple[str, Optional[str], float, float]


class Ledger:
    """Spans and counters of one benchmark iteration, read off ``clock``
    (a :class:`perfbench.hostclock.ReferenceClock` in benchmark runs)."""

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._open: List[str] = []
        #: Deliveries of the current cell by opcode (``trace=`` hook).
        self.delivered = [0] * NUM_OPCODES
        #: Per-cell delivery tallies, appended by :meth:`close_cell`.
        self.cell_tallies: List[List[int]] = []
        self.handler_s = [0.0] * NUM_OPCODES
        self.fills = 0
        self.fill_s = 0.0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        self._open.append(name)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._open.pop()
            self.spans.append((name, parent, start, end))

    def seconds(self, *names: str) -> float:
        """Summed duration of every span with one of ``names``."""
        return sum(end - start for name, _, start, end in self.spans
                   if name in names)

    def on_delivery(self, now: float, src: int, dst: int, payload) -> None:
        """``AsyncRuntime(trace=...)`` hook: one call per delivered message."""
        self.delivered[payload[0]] += 1

    def close_cell(self) -> List[int]:
        """Store and reset the current cell's opcode tallies."""
        tally, self.delivered = self.delivered, [0] * NUM_OPCODES
        self.cell_tallies.append(tally)
        return tally

    def module_msgs(self, module: str) -> int:
        ops = OPCODE_MODULES[module]
        return sum(t[op] for t in self.cell_tallies for op in ops)

    def module_handler_s(self, module: str) -> float:
        return sum(self.handler_s[op] for op in OPCODE_MODULES[module])

    def timed(self, handler: Callable) -> Callable:
        """A message handler whose calls are timed under their opcode."""
        clock = self.clock
        handler_s = self.handler_s

        def timed(sender, payload) -> None:
            start = clock()
            handler(sender, payload)
            handler_s[payload[0]] += clock() - start

        return timed

    def to_json(self) -> dict:
        return {
            "spans": [list(s) for s in self.spans],
            "cell_tallies": self.cell_tallies,
            "handler_s": self.handler_s,
            "fills": self.fills,
            "fill_s": self.fill_s,
        }


def traced_process_class(base: type, ledger: Ledger) -> type:
    """``base`` with every instance's dispatch entries timed by ``ledger``.

    The transport reads ``on_message_table`` (or ``on_message`` when the
    table is ``None``, as for the recovery process) once per link at wiring
    time, so swapping the instance attributes right after the base
    constructor routes every delivery through the timers.
    """

    def __init__(self, ctx) -> None:
        base.__init__(self, ctx)
        table = self.on_message_table
        if table is not None:
            self.on_message_table = tuple(ledger.timed(h) for h in table)
        self.on_message = ledger.timed(self.on_message)

    return type("Traced" + base.__name__, (base,), {"__init__": __init__})


class TracedDelay:
    """Delay-model proxy that counts and times ``block_stream`` fills.

    Every other attribute (``link_stream``, ``pair_stream``, calls) is the
    wrapped model's own, so the runtime draws bit-identical delays.
    """

    def __init__(self, model, ledger: Ledger) -> None:
        if getattr(model, "block_stream", None) is None:
            raise TypeError(f"{model!r} has no block_stream to trace")
        self._model = model
        self._ledger = ledger

    def __call__(self, u, v, seq, now):
        return self._model(u, v, seq, now)

    def __getattr__(self, name):
        return getattr(self._model, name)

    def block_stream(self, u, v):
        fill = self._model.block_stream(u, v)
        ledger = self._ledger
        clock = ledger.clock

        def timed_fill(buf, base, start, n) -> None:
            t0 = clock()
            fill(buf, base, start, n)
            ledger.fill_s += clock() - t0
            ledger.fills += 1

        return timed_fill
