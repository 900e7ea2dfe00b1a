"""Schedule controllers for the model checker (DESIGN.md §13).

:class:`~repro.check.control.ScheduleController` shows a controller every
enabled event and lets it pick the next step.  This module supplies the
commutativity layer and the controllers on top:

* :func:`~repro.check.control.event_key` — a stable, serializable
  identity for an enabled event.  Record-backed events are keyed by their
  scheduling sequence number (unique, and deterministic given the choice
  prefix — record creation order is a pure function of the fired order);
  synthetic crash/detect actions are keyed by the nodes involved.
* :func:`dependent` — the race relation of the partial-order reduction:
  two steps commute iff their *acting* processes are both known and
  different.  A delivery acts on its receiver, an acknowledgment on its
  original sender (outbox drain + delivered-callback), a detect on its
  observer, a crash on the corpse; an unattributed callback races with
  everything (conservative).
* Three controllers: :class:`DFSController` (drives one execution of the
  explorer's depth-first search, maintaining sleep sets past the scripted
  prefix), :class:`ReplayController` (strict: the trace's choice sequence
  must match the enabled sets bit-for-bit), and
  :class:`PreferenceController` (tolerant: used by trace shrinking —
  follows a preference list, silently skipping choices that are no longer
  enabled).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..net.async_runtime import AsyncRuntime
from ..net.graph import NodeId
from .control import (
    CTRL_ACK,
    CTRL_ALIVE,
    CTRL_CALLBACK,
    CTRL_CRASH,
    CTRL_DETECT,
    CTRL_REJOIN,
    ControlledEvent,
    EventKey,
    ScheduleController,
    event_key,
)
from .invariants import Probe
from .state import fingerprint


def dependent(a: Optional[NodeId], b: Optional[NodeId]) -> bool:
    """Race relation over acting processes: commute iff both known and
    distinct.  ``None`` (an unattributed callback) races with everything."""
    return a is None or b is None or a == b


class PrunedExecution(Exception):
    """Raised by :class:`DFSController` when the continuation is provably
    redundant: every enabled event is in the sleep set (``reason ==
    "sleep"``, Mazurkiewicz equivalence) or the full observable state was
    already explored (``reason == "state"``, convergence dedup).  The
    execution stops and its terminal checks are skipped — the equivalent
    execution ran them."""

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(f"{reason}: {message}")
        self.reason = reason


class ReplayMismatch(Exception):
    """A trace's recorded choice is not enabled at the recorded step —
    the trace does not belong to this workload/build."""


class Frame:
    """One node of the exploration tree (a prefix of choices).

    ``enabled``/``acting`` describe the state the frame was *first*
    reached in; determinism of the engine guarantees every re-execution
    of the same prefix reproduces them (the controllers assert it).
    ``backtrack`` accumulates the DPOR race reversals to try from here,
    ``done`` the choices already explored, ``sleep`` the events whose
    exploration here would be redundant.
    """

    __slots__ = ("enabled", "acting", "chosen", "backtrack", "done", "sleep")

    def __init__(
        self,
        enabled: Tuple[EventKey, ...],
        acting: Dict[EventKey, Optional[NodeId]],
        chosen: EventKey,
        sleep: Set[EventKey],
    ) -> None:
        self.enabled = enabled
        self.acting = acting
        self.chosen = chosen
        self.backtrack: Set[EventKey] = {chosen}
        self.done: Set[EventKey] = set()
        self.sleep = sleep


def _default_pick(
    events: List[ControlledEvent],
    keys: List[EventKey],
    sleep: Set[EventKey],
) -> Optional[int]:
    """First awake event in offer order, crashes and rejoins last.

    The engine offers record-backed events in ``seq`` order, then crash
    actions, then rejoin actions, then armed detects and alives;
    deferring crashes makes the first execution of a churn cell the run
    where the crash lands at quiescence, and backtracking walks it
    earlier step by step (crash-at-each-point falls out of DPOR instead
    of being sampled).  Rejoins defer for the same reason — the natural
    first execution is crash → drain → detect batch → rejoin → alive
    batch, and DPOR walks the rejoin back across the detects (the D1–D3
    race of DESIGN.md §15) and across deliveries step by step.
    """
    fallback = None
    for i, ev in enumerate(events):
        if keys[i] in sleep:
            continue
        if ev.kind in (CTRL_CRASH, CTRL_REJOIN):
            if fallback is None:
                fallback = i
            continue
        return i
    return fallback


class _ProbedController(ScheduleController):
    """Shared probe plumbing and the delivery-granularity reduction.

    Every ``choose`` call happens *between* steps, so the previous step's
    ``after_step`` hooks run first, then the controller steps, then the
    chosen event's ``before_step`` hooks run.  The explorer runs the final
    ``after_step``/``at_end`` pass itself once ``run()`` returns (the last
    fired step never re-enters ``choose``).

    **Auto-steps**: acknowledgments and callbacks are fired eagerly in
    ``seq`` order whenever any is enabled; only deliveries and the
    synthetic crash/detect actions are *decision points* handed to the
    subclass ``pick``.  The checked schedule space is therefore all
    delivery/crash/detect interleavings under eager acknowledgment
    scheduling — the reduction ISSUE 8 names ("DFS over delivery
    orderings"): same-process deliveries are the race points, while ack
    timing is deterministic given the delivery order, which both keeps
    the tree tractable and makes a serialized choice sequence (decision
    points only) a complete, bit-exact execution description.

    **Detect batching**: once the first detect for a corpse is picked,
    the corpse's remaining armed detects auto-fire before anything else.
    The timed fault model fires every observer's ``on_neighbor_dead`` at
    the same instant (crash + timeout), so split detections — one
    neighbor pruning the corpse while another keeps weaving waves through
    it — are not behaviors of the implemented model.  Only the batch
    *position* is a decision; order within the batch is arming order
    (prunes at distinct observers commute).  **Alive batching** mirrors
    it for recovery: the timed model fires every observer's
    ``on_neighbor_alive`` at rejoin + timeout, so once the first alive
    for a returned node is picked the rest of its batch auto-fires
    (readmissions at distinct observers commute too)."""

    def __init__(
        self, probes: Sequence[Probe], max_steps: int = 1 << 30
    ) -> None:
        self.probes = tuple(probes)
        self.runtime: Optional[AsyncRuntime] = None
        self.last_event: Optional[ControlledEvent] = None
        self.chosen_keys: List[EventKey] = []
        self.steps = 0
        self.max_steps = max_steps
        self.truncated = False
        #: Corpses whose detect batch has started: src values of fired
        #: CTRL_DETECT steps.
        self._detected: Set[NodeId] = set()
        #: Returned nodes whose alive batch has started: src values of
        #: fired CTRL_ALIVE steps.
        self._enlivened: Set[NodeId] = set()

    def attach(self, runtime: AsyncRuntime) -> None:
        self.runtime = runtime
        for probe in self.probes:
            probe.reset(runtime)

    def choose(self, events: List[ControlledEvent]) -> Optional[int]:
        runtime = self.runtime
        if self.last_event is not None:
            for probe in self.probes:
                probe.after_step(runtime, self.last_event)
        if self.steps >= self.max_steps:
            self.truncated = True
            return None
        auto = None
        if self._detected:
            for i, ev in enumerate(events):
                if ev.kind == CTRL_DETECT and ev.src in self._detected:
                    auto = i
                    break
        if auto is None and self._enlivened:
            for i, ev in enumerate(events):
                if ev.kind == CTRL_ALIVE and ev.src in self._enlivened:
                    auto = i
                    break
        if auto is None:
            for i, ev in enumerate(events):
                if ev.kind in (CTRL_ACK, CTRL_CALLBACK) and (
                    auto is None or ev.seq < events[auto].seq
                ):
                    auto = i
        if auto is not None:
            choice = auto
            keys = None
        else:
            keys = [event_key(ev) for ev in events]
            choice = self.pick(events, keys)
            if choice is None:
                return None
        ev = events[choice]
        if ev.kind == CTRL_DETECT:
            self._detected.add(ev.src)
        elif ev.kind == CTRL_ALIVE:
            self._enlivened.add(ev.src)
        for probe in self.probes:
            probe.before_step(runtime, ev)
        self.last_event = ev
        if keys is not None:
            self.chosen_keys.append(keys[choice])
        self.steps += 1
        return choice

    def finish(self) -> None:
        """Run the deferred ``after_step`` hooks for the final step."""
        if self.last_event is not None:
            for probe in self.probes:
                probe.after_step(self.runtime, self.last_event)
            self.last_event = None

    def pick(
        self, events: List[ControlledEvent], keys: List[EventKey]
    ) -> Optional[int]:
        raise NotImplementedError


class DFSController(_ProbedController):
    """One execution of the explorer's DFS.

    Steps ``0 .. len(frames)-1`` are scripted: the frame's ``chosen`` key
    must be enabled (engine determinism; asserted).  Past the script the
    controller extends ``frames`` itself: the child sleep set is the
    classic carry — ``(sleep ∪ done)`` of the parent, minus events that
    race with the parent's choice, intersected with what is still enabled
    — and the next choice is the first awake event (crashes deferred).
    When everything enabled is asleep the whole continuation is redundant
    and the execution aborts with :class:`PrunedExecution`.
    """

    def __init__(
        self,
        frames: List[Frame],
        probes: Sequence[Probe],
        max_steps: int,
        visited: Optional[set] = None,
        use_sleep: bool = True,
    ) -> None:
        super().__init__(probes, max_steps=max_steps)
        self.frames = frames
        self.scripted = len(frames)
        #: ``False`` in the ground-truth mode (``explore(full=True)``):
        #: plain exhaustive search over the state DAG, no equivalence
        #: reasoning beyond convergence dedup.
        self.use_sleep = use_sleep
        #: Fingerprints of decision-point states whose continuations are
        #: already (being) explored; ``None`` disables convergence dedup.
        self.visited = visited
        #: (key, acting) pairs eligible to sleep at the next new frame.
        self._carry: List[Tuple[EventKey, Optional[NodeId]]] = []

    def pick(
        self, events: List[ControlledEvent], keys: List[EventKey]
    ) -> Optional[int]:
        depth = len(self.chosen_keys)
        frames = self.frames
        if depth < self.scripted:
            frame = frames[depth]
            try:
                choice = keys.index(frame.chosen)
            except ValueError:
                raise ReplayMismatch(
                    f"scripted choice {frame.chosen!r} not enabled at"
                    f" step {depth}: engine nondeterminism or stale frames"
                ) from None
            if depth + 1 == self.scripted:
                # Entering the free region next step: seed the sleep carry
                # from this frame's already-explored/slept alternatives.
                self._carry = [
                    (k, frame.acting.get(k))
                    for k in frame.enabled
                    if k != frame.chosen
                    and (k in frame.sleep or k in frame.done)
                ]
                self._carry = [
                    (k, a) for k, a in self._carry
                    if not dependent(a, frame.acting.get(frame.chosen))
                ]
            return choice
        if self.visited is not None:
            digest = fingerprint(self.runtime, events)
            if digest in self.visited:
                raise PrunedExecution(
                    "state", f"state at decision {depth} already explored"
                )
            self.visited.add(digest)
        enabled_now = set(keys)
        sleep = (
            {k for k, _ in self._carry if k in enabled_now}
            if self.use_sleep else set()
        )
        choice = _default_pick(events, keys, sleep)
        if choice is None:
            raise PrunedExecution(
                "sleep", f"all enabled events asleep at {depth}"
            )
        chosen = keys[choice]
        acting = {k: events[i].acting for i, k in enumerate(keys)}
        frames.append(Frame(tuple(keys), acting, chosen, sleep))
        chosen_acting = acting[chosen]
        self._carry = [
            (k, a) for k, a in self._carry
            if k in enabled_now and k != chosen
            and not dependent(a, chosen_acting)
        ]
        return choice


class ReplayController(_ProbedController):
    """Strict trace replay: follow the serialized choice sequence exactly,
    stop when it is exhausted."""

    def __init__(
        self,
        choices: Sequence[EventKey],
        probes: Sequence[Probe],
        max_steps: int = 1 << 30,
    ) -> None:
        super().__init__(probes, max_steps=max_steps)
        self.choices = [tuple(c) for c in choices]

    def pick(
        self, events: List[ControlledEvent], keys: List[EventKey]
    ) -> Optional[int]:
        depth = len(self.chosen_keys)
        if depth >= len(self.choices):
            return None
        want = self.choices[depth]
        try:
            return keys.index(want)
        except ValueError:
            raise ReplayMismatch(
                f"trace step {depth} wants {want!r} but enabled events"
                f" are {sorted(keys)}"
            ) from None


class PreferenceController(_ProbedController):
    """Tolerant replay for shrinking: walk the preference list in order,
    choosing the first remaining entry that is currently enabled.  With
    ``extend`` (the shrinker's mode) an exhausted list falls back to the
    default pick so the run still reaches quiescence and the terminal
    probes — a deleted event must not truncate the execution it was
    deleted from."""

    def __init__(
        self,
        preferences: Sequence[EventKey],
        probes: Sequence[Probe],
        extend: bool = False,
        max_steps: int = 1 << 30,
    ) -> None:
        super().__init__(probes, max_steps=max_steps)
        self.preferences = [tuple(p) for p in preferences]
        self.extend = extend

    def pick(
        self, events: List[ControlledEvent], keys: List[EventKey]
    ) -> Optional[int]:
        prefs = self.preferences
        enabled = {k: i for i, k in enumerate(keys)}
        for j in range(len(prefs)):
            idx = enabled.get(prefs[j])
            if idx is not None:
                # Entries skipped over stay in the list: a choice that is
                # not enabled *yet* may become enabled after this step.
                del prefs[j]
                return idx
        if self.extend:
            return _default_pick(events, keys, set())
        return None
