"""Seeded-mutant acceptance tests for repro.check (DESIGN.md §13).

Each test plants one real protocol bug — a guard the fault-tolerance
design depends on, deleted the way a refactor plausibly would delete it —
and asserts the model checker finds it within a bounded budget, shrinks
the counterexample, and serializes a trace that replays bit-exactly.

Mutant 1 drops the recovery synchronizer's straggler guard: answers from
a pruned (dead) child are no longer discarded, so a corpse-sent CHILD_ANS
deferred across the down interval lands in a force-closed wave and trips
the Lemma 5.1 oracle inside the core.  Mutant 2 skips crash poisoning in
the registration module: ``prune_child`` no longer marks crash-touched
stages, so a torn stage is retired as if terminal-clean and the
stage-taint probe catches the retirement.  Mutant 3 drops the readmission on
``on_neighbor_alive``: a re-joined neighbor stays pruned forever, and the
rejoin-consistency probe catches the stale prune on every interleaving
where a detect fired before the rejoin (DESIGN.md §15).

The mutants are loaded by source-patching the module text and exec-ing it
under a private module name — the installed package is never modified, and
both the mutated and the pristine class exist side by side so the tests
can also assert the real tree stays clean on the same cells.
"""

import importlib.util
import sys

import pytest

from repro.check import explore
from repro.check.trace import (
    canonical_bytes,
    make_trace,
    replay,
    shrink,
    trace_signature,
)
from repro.check.workloads import RegWorkload, SyncWorkload
from repro.net.topology import cycle_graph, star_graph

#: (module path, substring to replace, replacement) per mutant.  Both
#: replacements are verified to actually occur (see test_mutants_differ).
STRAGGLER_GUARD = (
    "repro/core/recovery.py",
    "self.ctx.mute(neighbor)",
    "pass  # mutant: straggler guard dropped",
)
SKIP_POISONING = (
    "repro/core/registration.py",
    "stage.poisoned = True",
    "stage.poisoned = False",
)
READMIT_DROPPED = (
    "repro/core/recovery.py",
    "self.node.readmit_neighbor(neighbor)",
    "pass  # mutant: readmission dropped",
)


def _load_mutated(which, modname):
    """Exec a source-patched copy of a repro.core module under ``modname``.

    The module must be registered in ``sys.modules`` *before* exec: the
    dataclasses in these modules look their defining module up by name
    during class processing.
    """
    relpath, old, new = which
    import repro

    root = repro.__file__.rsplit("/repro/", 1)[0]
    path = f"{root}/{relpath}"
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    assert old in source, f"mutation site {old!r} missing from {relpath}"
    mutated = source.replace(old, new)
    assert mutated != source
    spec = importlib.util.spec_from_loader(modname, loader=None, origin=path)
    module = importlib.util.module_from_spec(spec)
    module.__package__ = "repro.core"
    sys.modules[modname] = module
    try:
        exec(compile(mutated, f"{path} (mutated)", "exec"), module.__dict__)
    except BaseException:
        del sys.modules[modname]
        raise
    return module


@pytest.fixture(scope="module")
def straggler_mutant():
    mod = _load_mutated(STRAGGLER_GUARD, "repro.core._mut_recovery")
    yield mod
    sys.modules.pop("repro.core._mut_recovery", None)


@pytest.fixture(scope="module")
def poisoning_mutant():
    mod = _load_mutated(SKIP_POISONING, "repro.core._mut_registration")
    yield mod
    sys.modules.pop("repro.core._mut_registration", None)


@pytest.fixture(scope="module")
def readmit_mutant():
    mod = _load_mutated(READMIT_DROPPED, "repro.core._mut_readmit")
    yield mod
    sys.modules.pop("repro.core._mut_readmit", None)


def _straggler_workload(mod):
    return SyncWorkload(
        "churn:cycle:5:crash:2", cycle_graph(5), crashable=(2,),
        base_cls=mod.RecoverySynchronizerProcess,
    )


def _poisoning_workload(mod):
    return RegWorkload(
        "reg:star:4:crash:1", star_graph(4), crashable=(1,),
        module_cls=mod.RegistrationModule,
    )


def _readmit_workload(mod):
    return SyncWorkload(
        "rejoin:cycle:5:crash:2", cycle_graph(5), crashable=(2,),
        rejoinable=(2,), base_cls=mod.RecoverySynchronizerProcess,
    )


def test_mutants_differ(straggler_mutant, poisoning_mutant):
    """The patched classes are genuinely distinct objects from the real
    ones (a no-op patch would make every other test vacuous)."""
    from repro.core.recovery import RecoverySynchronizerProcess
    from repro.core.registration import RegistrationModule

    assert straggler_mutant.RecoverySynchronizerProcess is not (
        RecoverySynchronizerProcess
    )
    assert poisoning_mutant.RegistrationModule is not RegistrationModule


def test_checker_finds_straggler_mutant(straggler_mutant):
    report = explore(_straggler_workload(straggler_mutant), budget=500)
    assert report.violation is not None, (
        f"straggler mutant survived {report.executions} executions"
    )
    probe, message = report.violation
    assert probe == "protocol-exception"
    assert "unexpected child answer" in message
    assert report.violation_choices


def test_checker_finds_poisoning_mutant(poisoning_mutant):
    report = explore(_poisoning_workload(poisoning_mutant), budget=100)
    assert report.violation is not None, (
        f"skip-poisoning mutant survived {report.executions} executions"
    )
    probe, message = report.violation
    assert probe == "stage-taint"
    assert "retired crash-touched stage" in message
    assert report.violation_choices


def test_checker_finds_readmit_mutant(readmit_mutant):
    from repro.core.recovery import RecoverySynchronizerProcess

    assert readmit_mutant.RecoverySynchronizerProcess is not (
        RecoverySynchronizerProcess
    )
    report = explore(_readmit_workload(readmit_mutant), budget=500)
    assert report.violation is not None, (
        f"readmit-dropped mutant survived {report.executions} executions"
    )
    probe, message = report.violation
    assert probe == "rejoin-consistency"
    assert "still prunes" in message
    assert report.violation_choices


def test_readmit_counterexample_shrinks_and_replays(readmit_mutant):
    """Full counterexample lifecycle for the rejoin path: find, shrink,
    serialize, strict-replay, and byte-identical re-derivation from a
    second independent run (the ISSUE's replayable-shrunk-trace bar)."""
    traces = []
    for _ in range(2):
        workload = _readmit_workload(readmit_mutant)
        report = explore(workload, budget=500)
        assert report.violation is not None
        choices = shrink(
            workload, report.violation_choices, report.violation
        )
        assert len(choices) <= len(report.violation_choices)
        trace = make_trace(workload.name, choices, report.violation)
        outcome = replay(trace, _readmit_workload(readmit_mutant))
        assert outcome.violation is not None
        assert outcome.violation.signature() == trace_signature(trace)
        traces.append(canonical_bytes(trace))
    assert traces[0] == traces[1]


def test_real_tree_clean_on_rejoin_cell():
    """The rejoin cell stays clean on the pristine tree within the same
    budget the mutant falls in — the finding is the bug's, not the
    cell's.  (Rejoin cells are too deep to exhaust; bounded cleanliness
    is what CI asserts too.)"""
    report = explore(
        SyncWorkload(
            "rejoin:cycle:5:crash:2", cycle_graph(5), crashable=(2,),
            rejoinable=(2,),
        ),
        budget=500,
    )
    assert report.violation is None


def test_real_tree_clean_on_mutant_cells():
    """The same cells exhaust with zero violations on the pristine tree —
    the mutant findings are the bug's, not the cells'."""
    report = explore(
        RegWorkload("reg:star:4:crash:1", star_graph(4), crashable=(1,)),
        budget=2000,
    )
    assert report.exhausted
    assert report.violation is None


def test_poisoning_counterexample_shrinks_and_replays(poisoning_mutant):
    """End-to-end counterexample lifecycle on the cheap mutant: find,
    shrink, serialize, strict-replay, and byte-identical re-derivation
    from a second independent run."""
    traces = []
    for _ in range(2):
        workload = _poisoning_workload(poisoning_mutant)
        report = explore(workload, budget=100)
        assert report.violation is not None
        choices = shrink(
            workload, report.violation_choices, report.violation
        )
        assert len(choices) <= len(report.violation_choices)
        trace = make_trace(workload.name, choices, report.violation)
        outcome = replay(trace, _poisoning_workload(poisoning_mutant))
        assert outcome.violation is not None
        assert outcome.violation.signature() == trace_signature(trace)
        traces.append(canonical_bytes(trace))
    assert traces[0] == traces[1]


def test_straggler_counterexample_replays(straggler_mutant):
    """The straggler counterexample strict-replays unshrunk (shrinking the
    long churn trace is exercised implicitly by the CLI path; here the
    point is bit-exact reproduction of the raw finding)."""
    workload = _straggler_workload(straggler_mutant)
    report = explore(workload, budget=500)
    assert report.violation is not None
    trace = make_trace(workload.name, report.violation_choices, report.violation)
    outcome = replay(trace, _straggler_workload(straggler_mutant))
    assert outcome.violation is not None
    assert outcome.violation.signature() == trace_signature(trace)
    # Two independent finds serialize byte-identically.
    second = explore(_straggler_workload(straggler_mutant), budget=500)
    assert second.violation == report.violation
    assert canonical_bytes(
        make_trace(workload.name, second.violation_choices, second.violation)
    ) == canonical_bytes(trace)
