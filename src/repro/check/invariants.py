"""Invariant probes checked after every controlled step (DESIGN.md §13).

A probe is a passive observer: it inspects runtime/process state between
scheduler steps and raises :class:`InvariantViolation` the moment a
protocol invariant breaks, so the explorer can serialize the exact choice
prefix that produced the state.  Probes must be *schedule-insensitive* on
the real tree — a probe that fires on some legal interleaving is a bug in
the probe, and the exhaustive cycle(4) run is the regression test for
that.

The catalog maps the paper's correctness claims onto directly observable
state:

* **Lemma 5.1** (pulse soundness) — the synchronizer core already carries
  the oracle as an ``AssertionError`` in ``SynchronizerNode._handle_app``
  (a pulse-``p`` message arriving after pulse ``p+1`` evaluated);
  :class:`ExceptionProbe` is the thin wrapper that turns any protocol
  exception escaping a dispatched handler into a violation.
  :class:`PulseProbe` adds the external half: per-node ``evaluated`` sets
  only grow and never exceed the declared ``max_pulse``.
* **Registration single-completion** — a (cluster, tag) key completes
  registration (state ``REGISTERED``) at most once per node, and a live
  stage's state only moves forward through
  ``NONE → REGISTERING → REGISTERED → DEREGISTERED → FREE``.
* **Stage taint** — no stage a crash touched may be retired (the
  poisoning rule of DESIGN.md §11).  :class:`StageTaintProbe` shadows the
  rule from outside: when a ``detect`` step fires it snapshots exactly the
  stages ``RegistrationModule.prune_child`` is about to poison, and then
  asserts each of those objects stays in its module's ``_stages``.  The
  shadow is what lets the seeded ``skip-poisoning`` mutant fail loudly
  instead of silently retiring a crash-torn stage.
* **Message count** — a fault-free run sends the same messages on every
  interleaving: :class:`MessageCountProbe` compares each quiescent
  execution's count with one uncontrolled run's.
* **Output bounds** — fault-free runs must reproduce the synchronous
  reference outputs exactly; crash runs must keep every produced BFS
  distance inside ``dist_G(v) <= out <= dist_H(v)`` (DESIGN.md §11).
* **Rejoin consistency** — blank state at rebirth (the output register is
  voided), immediate and durable readmission after ``on_neighbor_alive``,
  and the lower half of the sandwich for the fresh incarnation's output
  (DESIGN.md §15).  :class:`RejoinConsistencyProbe` is what catches the
  seeded readmit-dropping mutant of the recovery synchronizer.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Set, Tuple

from ..net.async_runtime import AsyncResult, AsyncRuntime
from ..net.graph import NodeId
from .control import CTRL_ALIVE, CTRL_DETECT, CTRL_REJOIN, ControlledEvent

#: Registration states in protocol order; a live stage may only move
#: rightward (indexes into this tuple compare as progress).
_REG_ORDER: Tuple[str, ...] = (
    "none", "registering", "registered", "deregistered", "free"
)
_REG_RANK: Dict[str, int] = {s: i for i, s in enumerate(_REG_ORDER)}


class InvariantViolation(Exception):
    """A probe observed a broken invariant at a specific scheduler step.

    ``signature()`` is the stable identity used to decide that a shrunk or
    replayed execution reproduces *the same* violation: probe name plus
    message, both deterministic functions of the choice prefix.
    """

    def __init__(self, probe: str, message: str) -> None:
        super().__init__(f"{probe}: {message}")
        self.probe = probe
        self.message = message

    def signature(self) -> Tuple[str, str]:
        return (self.probe, self.message)


class Probe:
    """Base class: all hooks are optional no-ops.

    ``before_step`` sees the chosen event *before* it fires (the one hook
    that can snapshot pre-transition state); ``after_step`` sees the state
    it left behind; ``at_end`` runs once on quiescent, non-pruned
    executions.  Hooks report a violation by raising
    :class:`InvariantViolation`.
    """

    name = "probe"

    def reset(self, runtime: AsyncRuntime) -> None:
        """Called once per execution, before the first step."""

    def before_step(self, runtime: AsyncRuntime, ev: ControlledEvent) -> None:
        pass

    def after_step(self, runtime: AsyncRuntime, ev: ControlledEvent) -> None:
        pass

    def at_end(self, runtime: AsyncRuntime, result: AsyncResult) -> None:
        pass

    def fail(self, message: str) -> None:
        raise InvariantViolation(self.name, message)


def _sync_nodes(runtime: AsyncRuntime):
    """(node_id, SynchronizerNode) pairs, ascending — or nothing when the
    workload's process class is not synchronizer-shaped."""
    for v in runtime.graph.nodes:
        node = getattr(runtime.processes[v], "node", None)
        if node is not None and hasattr(node, "evaluated"):
            yield v, node


def _reg_modules(runtime: AsyncRuntime):
    """(node_id, RegistrationModule) pairs, ascending.

    Finds the module wherever the workload put it: ``proc.node.reg`` for
    the synchronizer stack, ``proc.reg`` for the direct registration
    driver."""
    for v in runtime.graph.nodes:
        proc = runtime.processes[v]
        owner = getattr(proc, "node", proc)
        reg = getattr(owner, "reg", None)
        if reg is not None and hasattr(reg, "_stages"):
            yield v, reg


class PulseProbe(Probe):
    """Per-node ``evaluated`` sets only grow and stay within ``max_pulse``."""

    name = "pulse-bound"

    def reset(self, runtime: AsyncRuntime) -> None:
        self._seen: Dict[NodeId, FrozenSet[int]] = {}

    def after_step(self, runtime: AsyncRuntime, ev: ControlledEvent) -> None:
        if ev.kind == CTRL_REJOIN:
            # The returned node is a fresh incarnation with an empty
            # evaluated set; its old generation's history does not bind it.
            self._seen.pop(ev.node, None)
        for v, node in _sync_nodes(runtime):
            evaluated = node.evaluated
            prev = self._seen.get(v, frozenset())
            if not prev.issubset(evaluated):
                self.fail(
                    f"node {v} un-evaluated pulses"
                    f" {sorted(prev - evaluated)}"
                )
            if len(evaluated) != len(prev):
                top = max(evaluated)
                if top > node.max_pulse:
                    self.fail(
                        f"node {v} evaluated pulse {top} beyond the"
                        f" declared bound {node.max_pulse}"
                    )
                if min(evaluated) < 0:
                    self.fail(f"node {v} evaluated a negative pulse")
                self._seen[v] = frozenset(evaluated)


class RegistrationProbe(Probe):
    """Forward-only registration state per live (node, stage key).

    A live stage's state may only move rightward through ``NONE →
    REGISTERING → REGISTERED → DEREGISTERED → FREE`` — which also makes
    single-completion *within a generation* structural (reaching
    ``REGISTERED`` twice would require a backward move first).  A stage
    that vanishes from ``_stages`` (retired once terminal-clean) ends its
    generation; the same key re-registering later is a fresh generation
    and legitimately completes again (a late registrant can reuse a
    (cluster, tag) identity after the first full cycle retired), so no
    cross-generation memory is kept.
    """

    name = "registration-single-completion"

    def reset(self, runtime: AsyncRuntime) -> None:
        #: Last observed state per live (node, key) stage generation.
        self._state: Dict[Tuple[NodeId, Any], str] = {}

    def after_step(self, runtime: AsyncRuntime, ev: ControlledEvent) -> None:
        state = self._state
        live: Set[Tuple[NodeId, Any]] = set()
        for v, reg in _reg_modules(runtime):
            for key, stage in reg._stages.items():
                ident = (v, key)
                live.add(ident)
                cur = stage.state
                prev = state.get(ident)
                if prev is not None and _REG_RANK[cur] < _REG_RANK[prev]:
                    self.fail(
                        f"node {v} stage {key!r} moved backward"
                        f" {prev} -> {cur}"
                    )
                if cur != prev:
                    state[ident] = cur
        for ident in list(state):
            if ident not in live:
                del state[ident]


class StageTaintProbe(Probe):
    """No stage a crash touched is ever retired.

    Shadow of ``RegistrationModule.prune_child``'s poisoning rule: just
    before a ``detect`` step runs at observer ``u``, snapshot the live
    stages at ``u`` the corpse participates in (parent, marked child, or
    view child — the exact poisoning condition), each with the module
    that holds it.  Afterwards, each of those objects must stay in that
    module's ``_stages``; a module a rejoin replaced is out of scope.
    Membership is identity (``is``), never ``id()``: object addresses
    must not feed any ordered or emitted value (DET002), and taint is
    pure bookkeeping either way.
    """

    name = "stage-taint"

    def reset(self, runtime: AsyncRuntime) -> None:
        #: observer -> (module, stage) pairs snapshotted at its detects.
        self._tainted: Dict[NodeId, List[Tuple[Any, Any]]] = {}

    def before_step(self, runtime: AsyncRuntime, ev: ControlledEvent) -> None:
        if ev.kind != CTRL_DETECT:
            return
        observer, dead = ev.dst, ev.src
        proc = runtime.processes[observer]
        reg = getattr(getattr(proc, "node", proc), "reg", None)
        if reg is None or not hasattr(reg, "_stages"):
            return
        tainted = self._tainted.setdefault(observer, [])
        for _key, stage in reg._stages.items():
            view = stage.view
            if (view.parent == dead or dead in stage.child_marks
                    or dead in view.children):
                if not any(stage is t for _reg, t in tainted):
                    tainted.append((reg, stage))

    def after_step(self, runtime: AsyncRuntime, ev: ControlledEvent) -> None:
        if not self._tainted:
            return
        regs = dict(_reg_modules(runtime))
        for v in sorted(self._tainted):
            live = regs.get(v)
            for reg, stage in self._tainted[v]:
                if reg is live and reg._stages.get(stage.key) is not stage:
                    self.fail(
                        f"node {v} retired crash-touched stage"
                        f" {stage.key!r}"
                    )


class OutputEqualityProbe(Probe):
    """Fault-free terminal check: outputs equal the reference run's."""

    name = "output-equality"

    def __init__(self, reference: Dict[NodeId, Any]) -> None:
        self.reference = reference

    def at_end(self, runtime: AsyncRuntime, result: AsyncResult) -> None:
        if dict(result.outputs) != self.reference:
            missing = sorted(set(self.reference) - set(result.outputs))
            wrong = sorted(
                v for v in result.outputs
                if self.reference.get(v) != result.outputs[v]
            )
            self.fail(
                f"terminal outputs diverge from the reference"
                f" (missing={missing}, wrong={wrong})"
            )


class DistanceBoundProbe(Probe):
    """Crash-run terminal check: ``dist_G <= out <= dist_H`` (§11).

    ``dist_g`` is distance in the original graph (a crash only ever
    lengthens paths), ``dist_h`` distance in the surviving component.
    Degrade mode tolerates survivors with *no* output; any output that is
    produced must respect the sandwich.
    """

    name = "distance-bound"

    def __init__(
        self,
        dist_g: Dict[NodeId, float],
        dist_h: Dict[NodeId, float],
        survivors: Tuple[NodeId, ...],
    ) -> None:
        self.dist_g = dist_g
        self.dist_h = dist_h
        self.survivors = survivors

    def at_end(self, runtime: AsyncRuntime, result: AsyncResult) -> None:
        for v in self.survivors:
            out = result.outputs.get(v)
            if out is None:
                continue
            dist = out[0] if isinstance(out, tuple) else out
            if not self.dist_g[v] <= dist <= self.dist_h[v]:
                self.fail(
                    f"survivor {v} output distance {dist} outside"
                    f" [{self.dist_g[v]}, {self.dist_h[v]}]"
                )


class RejoinConsistencyProbe(Probe):
    """Re-join semantics hold on every interleaving (DESIGN.md §15).

    Three checkable halves of the blank-state + readmission contract:

    * **Blank state includes the output register** — immediately after a
      ``rejoin`` step the returned node must have no recorded output (the
      previous incarnation's answer died with it).
    * **Readmission is immediate and durable** — after an ``alive`` step
      fires at observer ``u`` for returned node ``r``, ``u``'s
      synchronizer must no longer prune ``r`` (``r ∉ node._pruned``), and
      it must still not prune it at quiescence (nothing disarms a
      readmission: detects for ``r`` were withdrawn at the rejoin and a
      node crashes at most once).  The seeded readmit-dropping mutant of
      ``RecoverySynchronizerProcess.on_neighbor_alive`` is caught here on
      every interleaving where a detect fired before the rejoin.
    * **Lower distance bound** — any output the fresh incarnation does
      produce is a real path length in a sub-topology of ``G``, so it
      must respect ``dist_G(r) <= out`` (no finite upper bound applies:
      the time-varying graph ``H`` admits arbitrarily late readmission).
    """

    name = "rejoin-consistency"

    def __init__(self, dist_g: Dict[NodeId, float]) -> None:
        self.dist_g = dist_g  # det: ignore[DET003] -- per-cell configuration (distances in the full topology G), constant across executions; reset() clears all per-execution state

    def reset(self, runtime: AsyncRuntime) -> None:
        self._returned: Set[NodeId] = set()
        #: returned node -> observers whose ``alive`` step fired.
        self._notified: Dict[NodeId, Set[NodeId]] = {}

    def _pruned_at(self, runtime: AsyncRuntime, observer: NodeId):
        node = getattr(runtime.processes[observer], "node", None)
        return getattr(node, "_pruned", None)

    def after_step(self, runtime: AsyncRuntime, ev: ControlledEvent) -> None:
        if ev.kind == CTRL_REJOIN:
            v = ev.node
            self._returned.add(v)
            if v in runtime.outputs:
                self.fail(
                    f"re-joined node {v} kept its pre-crash output"
                    f" {runtime.outputs[v]!r} (blank state must void it)"
                )
        elif ev.kind == CTRL_ALIVE:
            observer, returned = ev.dst, ev.src
            self._notified.setdefault(returned, set()).add(observer)
            pruned = self._pruned_at(runtime, observer)
            if pruned is not None and returned in pruned:
                self.fail(
                    f"observer {observer} still prunes re-joined neighbor"
                    f" {returned} after on_neighbor_alive"
                )

    def at_end(self, runtime: AsyncRuntime, result: AsyncResult) -> None:
        for v in sorted(self._returned):
            out = result.outputs.get(v)
            if out is not None:
                dist = out[0] if isinstance(out, tuple) else out
                if dist < self.dist_g.get(v, 0):
                    self.fail(
                        f"re-joined node {v} output distance {dist} below"
                        f" dist_G {self.dist_g[v]}"
                    )
            for observer in sorted(self._notified.get(v, ())):
                pruned = self._pruned_at(runtime, observer)
                if pruned is not None and v in pruned:
                    self.fail(
                        f"observer {observer} re-pruned re-joined neighbor"
                        f" {v} by quiescence"
                    )


class MessageCountProbe(Probe):
    """Fault-free terminal check: every interleaving sends exactly the
    messages of one uncontrolled run (``reference``)."""

    name = "message-count"

    def __init__(self, reference: int) -> None:
        self.reference = reference

    def at_end(self, runtime: AsyncRuntime, result: AsyncResult) -> None:
        if result.messages != self.reference:
            self.fail(
                f"sent {result.messages} messages, the uncontrolled run"
                f" sent {self.reference}"
            )


class QuiescentOutputsProbe(Probe):
    """Fault-free runs must end quiescent with every node answered."""

    name = "all-nodes-answer"

    def at_end(self, runtime: AsyncRuntime, result: AsyncResult) -> None:
        missing = sorted(set(runtime.graph.nodes) - set(result.outputs))
        if missing:
            self.fail(f"nodes {missing} never produced an output")
