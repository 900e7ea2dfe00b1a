"""Stateless DFS over delivery orderings with DPOR pruning (DESIGN.md §13).

The explorer re-executes the workload from its initial state once per
explored interleaving: a persistent stack of :class:`Frame` objects holds
the current choice prefix, a :class:`DFSController` drives one execution
along it and extends it with a default schedule, and after every
execution a race analysis in the Flanagan–Godefroid style adds reversal
points.  Two reduction mechanisms compose:

* **Backtrack sets** — for each fired step ``i``, find the *latest*
  earlier step ``j`` whose acting process races with ``i``'s; if ``i``'s
  event was already enabled at ``j`` (i.e. the two are concurrent, not
  causally ordered) the reversed order is scheduled by adding ``i``'s key
  to ``j``'s backtrack set.  ``--full`` replaces this with
  backtrack-everything, the sound-but-slower baseline the cross-check
  tests compare against.
* **Sleep sets** — an explored (or slept) choice is carried into sibling
  subtrees while it stays independent of every subsequent choice; an
  execution whose enabled events are all asleep is Mazurkiewicz-
  equivalent to an explored one and is cut short (``pruned``).

Violations surface three ways and are normalized to
:class:`InvariantViolation`: a probe raises between steps, a protocol
handler raises during dispatch (e.g. the Lemma 5.1 ``AssertionError`` in
``SynchronizerNode._handle_app``), or a terminal probe rejects the
quiescent state.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..net.async_runtime import AsyncResult
from .invariants import InvariantViolation
from .scheduler import (
    DFSController,
    EventKey,
    Frame,
    PrunedExecution,
    ReplayMismatch,
    _ProbedController,
    dependent,
)
from .workloads import Workload

#: Per-execution step ceiling: cycle(4) sync-bfs quiesces in 172 steps, the
#: CI churn cells in ~130; anything past this is a livelock, not a run.
DEFAULT_MAX_STEPS = 5_000

#: Exception types a protocol handler can realistically raise mid-dispatch;
#: anything else (SystemExit, explorer bugs wrapped in custom errors)
#: propagates to the caller.
_PROTOCOL_ERRORS = (
    AssertionError, AttributeError, IndexError, KeyError, LookupError,
    RuntimeError, TypeError, ValueError,
)


@dataclass
class RunOutcome:
    """One controlled execution, normalized."""

    result: Optional[AsyncResult]
    violation: Optional[InvariantViolation]
    #: ``None`` (ran to a stop) or the prune reason: "sleep" | "state".
    pruned: Optional[str]
    truncated: bool
    chosen: List[EventKey]


def run_execution(workload: Workload, controller: _ProbedController) -> RunOutcome:
    """Build a fresh runtime, run it under ``controller``, normalize."""
    runtime = workload.build_runtime(controller)
    controller.attach(runtime)
    result: Optional[AsyncResult] = None
    violation: Optional[InvariantViolation] = None
    pruned: Optional[str] = None
    try:
        result = runtime.run()
    except InvariantViolation as exc:
        violation = exc
    except PrunedExecution as exc:
        pruned = exc.reason
    except ReplayMismatch:
        raise
    except _PROTOCOL_ERRORS as exc:
        violation = _wrap_protocol_error(exc)
    if violation is None and pruned is None:
        try:
            controller.finish()
            if result is not None and result.stop_reason == "quiescent":
                for probe in controller.probes:
                    probe.at_end(runtime, result)
        except InvariantViolation as exc:
            violation = exc
    return RunOutcome(
        result=result,
        violation=violation,
        pruned=pruned,
        truncated=controller.truncated,
        chosen=list(controller.chosen_keys),
    )


def _wrap_protocol_error(exc: BaseException) -> InvariantViolation:
    frames = traceback.extract_tb(exc.__traceback__)
    site = ""
    for fr in reversed(frames):
        if "/repro/" in fr.filename.replace("\\", "/"):
            name = fr.filename.replace("\\", "/").rsplit("/repro/", 1)[1]
            site = f" (at repro/{name}:{fr.lineno})"
            break
    return InvariantViolation(
        "protocol-exception", f"{type(exc).__name__}: {exc}{site}"
    )


@dataclass
class ExploreReport:
    """Result of exploring one workload cell."""

    workload: str
    executions: int = 0
    #: Executions cut short by convergence dedup (state already explored).
    state_pruned: int = 0
    #: Executions cut short by sleep sets (Mazurkiewicz equivalence).
    pruned_executions: int = 0
    #: Enabled-but-asleep alternatives never descended into.
    sleep_pruned: int = 0
    races: int = 0
    #: Distinct decision-point states explored (convergence dedup size).
    states: int = 0
    max_depth: int = 0
    steps_total: int = 0
    exhausted: bool = False
    truncated: bool = False
    violation: Optional[Tuple[str, str]] = None
    violation_choices: List[EventKey] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violation is None


def _race_analyze(frames: List[Frame], start: int) -> int:
    """Backtrack-point computation for the suffix ``frames[start:]``.

    For each new step ``i``: walk back to the latest ``j`` whose chosen
    event is dependent with ``i``'s.  If ``i``'s event was enabled at
    ``j`` they are concurrent and the reversal is scheduled by adding the
    single key.  If not, the race can still be reversible through ``i``'s
    enabling chain — the canonical example is a ``detect`` step racing
    with an earlier delivery to the same observer while the enabling
    ``crash`` had not fired yet — so per Flanagan–Godefroid fall back to
    scheduling *every* event enabled at ``j`` (the sound conservative
    choice; sleep sets and convergence dedup absorb most of the slack).
    """
    races = 0
    for i in range(max(start, 1), len(frames)):
        fi = frames[i]
        key_i = fi.chosen
        acting_i = fi.acting.get(key_i)
        for j in range(i - 1, -1, -1):
            fj = frames[j]
            if not dependent(fj.acting.get(fj.chosen), acting_i):
                continue
            if key_i in fj.acting:
                if key_i not in fj.backtrack:
                    fj.backtrack.add(key_i)
                    races += 1
            else:
                missing = fj.acting.keys() - fj.backtrack
                fj.backtrack.update(missing)
                races += len(missing)
            break
    return races


def explore(
    workload: Workload,
    budget: Optional[int] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    full: bool = False,
) -> ExploreReport:
    """DFS the workload's schedule space until exhaustion or ``budget``
    executions; stop at the first invariant violation."""
    report = ExploreReport(workload=workload.name)
    frames: List[Frame] = []
    visited: set = set()
    while True:
        if budget is not None and report.executions >= budget:
            report.states = len(visited)
            return report
        controller = DFSController(
            frames, workload.probes(), max_steps, visited=visited,
            use_sleep=not full,
        )
        outcome = run_execution(workload, controller)
        report.executions += 1
        report.steps_total += controller.steps
        report.max_depth = max(report.max_depth, len(frames))
        if outcome.violation is not None:
            report.violation = outcome.violation.signature()
            report.violation_choices = outcome.chosen
            report.states = len(visited)
            return report
        if outcome.pruned == "state":
            report.state_pruned += 1
        elif outcome.pruned == "sleep":
            report.pruned_executions += 1
        if outcome.truncated:
            report.truncated = True
        if full:
            for frame in frames[controller.scripted:]:
                frame.backtrack = set(frame.enabled)
        else:
            report.races += _race_analyze(frames, controller.scripted)
        depth = len(frames) - 1
        while depth >= 0:
            frame = frames[depth]
            frame.done.add(frame.chosen)
            next_choice = None
            for key in frame.enabled:
                if (key in frame.backtrack and key not in frame.done
                        and key not in frame.sleep):
                    next_choice = key
                    break
            if next_choice is not None:
                frame.chosen = next_choice
                del frames[depth + 1:]
                break
            report.sleep_pruned += sum(
                1 for key in frame.enabled
                if key in frame.sleep and key not in frame.done
            )
            frames.pop()
            depth -= 1
        else:
            report.exhausted = not report.truncated
            report.states = len(visited)
            return report


def explore_all(
    workloads: Sequence[Workload],
    budget: Optional[int] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    full: bool = False,
) -> List[ExploreReport]:
    reports = []
    for workload in workloads:
        report = explore(workload, budget=budget, max_steps=max_steps, full=full)
        reports.append(report)
        if report.violation is not None:
            break
    return reports
