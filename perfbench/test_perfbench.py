"""Checks of the benchmark itself, on small instances of its workloads.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.apps.programs import bfs_spec
from repro.core import run_synchronized
from repro.net import digest_outputs, topology
from repro.net.delays import ConstantDelay, UniformDelay

from perfbench import run
from perfbench.hostclock import ReferenceClock, probe
from perfbench.workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    ChurnRejoin512,
    ReplaySync256,
    SynchronizedWorkload,
)

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class SmallReplay(SynchronizedWorkload):
    name = "small-replay"
    graphs = (
        (lambda: topology.cycle_graph(24), bfs_spec(0)),
        (lambda: topology.grid_graph(4, 5), bfs_spec(0)),
    )

    def models(self):
        return (ConstantDelay(), UniformDelay(seed=self.seed))


class SmallChurn(ChurnRejoin512):
    name = "small-churn"
    n = 48


def test_replay_pipeline_matches_run_synchronized():
    workload = SmallReplay(DEFAULT_SEED, traced=False)
    it = workload.iterate(traced=False)
    assert it.failed == 0
    for cell in it.cells:
        gi, mi = cell.key
        build, spec = workload.graphs[gi]
        result = run_synchronized(build(), spec, workload.models()[mi])
        assert (cell.messages, cell.digest) == (
            result.messages, digest_outputs(result.outputs))


@pytest.mark.parametrize("workload_cls", [SmallReplay, SmallChurn])
def test_traced_iteration_matches_untraced(workload_cls):
    workload = workload_cls(DEFAULT_SEED, traced=True)
    plain = workload.iterate(traced=False)
    traced = workload.iterate(traced=True)
    assert plain.failed == traced.failed == 0
    assert (traced.messages, traced.digest) == (plain.messages, plain.digest)
    dropped = plain.counts.get("faults.dropped", 0)
    for cell in traced.cells:
        # Every delivery is tallied under exactly one opcode.
        assert sum(cell.tally) + dropped == cell.messages
        if dropped == 0:
            # The synchronizer relays each program message exactly once.
            assert cell.tally[8] == cell.sync_msgs


def test_opcode_modules_partition_the_dispatch_table():
    from perfbench.ledger import NUM_OPCODES, OPCODE_MODULES
    from repro.core.synchronizer import SynchronizerProcess

    ops = sorted(op for group in OPCODE_MODULES.values() for op in group)
    assert ops == list(range(NUM_OPCODES)) == list(
        range(SynchronizerProcess.NUM_OPCODES))


def test_metric_names_match_the_contract():
    workload = SmallReplay(DEFAULT_SEED, traced=True)
    plain = [workload.iterate(traced=False)]
    traced = [workload.iterate(traced=True)]
    e2e = run.end_to_end(plain)
    layers = run.per_layer(plain, traced, workload.alloc_peak_mb())
    assert [m["name"] for m in CONTRACT["end_to_end"]] == list(e2e)
    assert [m["name"] for m in CONTRACT["per_layer"]] == list(layers)
    for spec, metrics in ((CONTRACT["end_to_end"], e2e),
                          (CONTRACT["per_layer"], layers)):
        for metric in spec:
            assert metrics[metric["name"]][1] == metric["unit"]
    assert all(value > 0 for value, _ in e2e.values())
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)


def test_replay_reproduces_the_committed_gate_cell():
    workload = ReplaySync256(DEFAULT_SEED, traced=False)
    it = workload.iterate(traced=False)
    assert it.failed == 0
    assert workload.check_run([it]) == []


def test_reference_clock_rescales_cpu_time_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with ReferenceClock() as clock:
        ref0, cpu0 = clock(), time.process_time()
        while time.process_time() - cpu0 < 0.2:
            probe()
        ratio = (clock() - ref0) / (time.process_time() - cpu0)
    assert signal.getsignal(signal.SIGALRM) is before
    # The probes' own CPU time is excluded, and the scale is a host speed
    # ratio: positive and within an order of magnitude of 1.
    assert 0.1 < ratio < 10


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-sync256",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
