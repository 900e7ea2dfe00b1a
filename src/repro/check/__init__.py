"""repro.check — bounded stateless model checking with DPOR (DESIGN.md §13).

Drives the transport's controlled mode (:class:`~repro.check.control.
ScheduleController`, called through the runtime's one ``next_record`` hook)
through every inequivalent delivery interleaving of a small workload,
checks invariant probes after each step, and ships violations as
minimized, bit-exactly replayable traces.  The third determinism
enforcement axis next to the dynamic equivalence suites and the static
``repro.lint`` pass: exhaustive at small n.
"""

from .control import event_key
from .explorer import ExploreReport, explore, explore_all, run_execution
from .invariants import InvariantViolation, Probe
from .scheduler import (
    DFSController,
    PreferenceController,
    ReplayController,
    ReplayMismatch,
)
from .trace import load_trace, make_trace, replay, save_trace, shrink
from .workloads import Workload, build_workload, expand_workloads

__all__ = [
    "DFSController",
    "ExploreReport",
    "InvariantViolation",
    "PreferenceController",
    "Probe",
    "ReplayController",
    "ReplayMismatch",
    "Workload",
    "build_workload",
    "event_key",
    "expand_workloads",
    "explore",
    "explore_all",
    "load_trace",
    "make_trace",
    "replay",
    "run_execution",
    "save_trace",
    "shrink",
]
