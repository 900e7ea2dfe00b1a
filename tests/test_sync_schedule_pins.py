"""Pinned schedules of the synchronizer, fault-free and under churn.

Fault-free cells drive :func:`~repro.core.synchronizer.run_synchronized` on
three event-driven programs, two graphs and three delay models.  The
recovery synchronizer run with no fault schedule must hit the same pins:
its churn bookkeeping may never move a fault-free schedule.

Churn cells replay the five cycle(128) ``run_churn`` cells of
``benchmarks/BENCH_core.json`` (degrade, rebuild, reanchor, flapping links
and certain re-join), and the pinned values are cross-checked against that
file.  Each cell pins the message count, the transport's ``events_fired``
and the output digest, so a change to the synchronizer or its recovery
path that moves a schedule by one event shows up here.
"""

import json
from pathlib import Path

import pytest

from repro.apps.programs import bfs_spec, flood_max_spec, multi_bfs_spec
from repro.core.recovery import RecoverySynchronizerProcess, run_churn
from repro.core.synchronizer import run_synchronized
from repro.net import AsyncRuntime, topology
from repro.net.delays import BimodalDelay, DirectionalSkewDelay, UniformDelay
from repro.net.faults import FaultSchedule
from repro.net.shard import digest_outputs

MODELS = (
    lambda: UniformDelay(7),
    lambda: BimodalDelay(7),
    lambda: DirectionalSkewDelay(7, slow_up=True),
)
GRAPHS = {
    "cycle64": lambda: topology.cycle_graph(64),
    "grid8x8": lambda: topology.grid_graph(8, 8),
}
SPECS = {
    "sync-bfs": lambda: bfs_spec(0),
    "multi-bfs": lambda: multi_bfs_spec(4),
    "flood-max": flood_max_spec,
}

#: (program, graph, model index) -> (messages, events_fired, output digest).
PINNED = {
    ("sync-bfs", "cycle64", 0): (8272, 10218, "5ba8f26eb172336e"),
    ("sync-bfs", "cycle64", 1): (8272, 9854, "5ba8f26eb172336e"),
    ("sync-bfs", "cycle64", 2): (8272, 10356, "5ba8f26eb172336e"),
    ("sync-bfs", "grid8x8", 0): (4148, 5623, "c54ceccd33d8fdf1"),
    ("sync-bfs", "grid8x8", 1): (4148, 5414, "c54ceccd33d8fdf1"),
    ("sync-bfs", "grid8x8", 2): (4148, 5200, "c54ceccd33d8fdf1"),
    ("multi-bfs", "cycle64", 0): (4016, 4918, "0a19f31161d45f48"),
    ("multi-bfs", "cycle64", 1): (4016, 4891, "0a19f31161d45f48"),
    ("multi-bfs", "cycle64", 2): (4016, 4904, "0a19f31161d45f48"),
    ("multi-bfs", "grid8x8", 0): (3868, 5405, "dad1a470298697b3"),
    ("multi-bfs", "grid8x8", 1): (3868, 5237, "dad1a470298697b3"),
    ("multi-bfs", "grid8x8", 2): (3868, 4949, "dad1a470298697b3"),
    ("flood-max", "cycle64", 0): (36632, 56045, "16516f572ccebcaa"),
    ("flood-max", "cycle64", 1): (36632, 54147, "16516f572ccebcaa"),
    ("flood-max", "cycle64", 2): (36632, 55027, "16516f572ccebcaa"),
    ("flood-max", "grid8x8", 0): (12594, 21636, "16516f572ccebcaa"),
    ("flood-max", "grid8x8", 1): (12594, 20705, "16516f572ccebcaa"),
    ("flood-max", "grid8x8", 2): (12594, 22122, "16516f572ccebcaa"),
}

SEED = 2305  # the seed of benchmarks/perf_regression.py
CRASHES = dict(seed=SEED, crash_rate=0.1, protect=(0,))

#: BENCH_core.json cell -> (fault schedule kwargs, run_churn mode).
CHURN_CELLS = {
    "churn-degrade/cycle/128": (CRASHES, "degrade"),
    "churn-rebuild/cycle/128": (CRASHES, "rebuild"),
    "churn-reanchor/cycle/128": (CRASHES, "reanchor"),
    "churn-flap/cycle/128": (
        dict(seed=SEED, down_rate=0.05, recurrent=True), "degrade"),
    "rejoin-degrade/cycle/128": (
        dict(seed=SEED, crash_rate=0.1, rejoin_rate=1.0, protect=(0,)),
        "degrade"),
}

#: Churn cell -> (messages of all passes, events_fired, output digest).
CHURN_PINNED = {
    "churn-degrade/cycle/128": (5273, 8509, "d6ce7edb4178c5df"),
    "churn-rebuild/cycle/128": (7063, 10889, "dd6520428a11db1f"),
    "churn-reanchor/cycle/128": (5351, 8610, "2ae6f91618f7de7e"),
    "churn-flap/cycle/128": (26113, 30298, "8b0708a7f145b3b1"),
    "rejoin-degrade/cycle/128": (21806, 26383, "8b0708a7f145b3b1"),
}

BENCH_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "BENCH_core.json"


def _cell_id(cell):
    return "-".join(map(str, cell))


@pytest.mark.parametrize("cell", sorted(PINNED), ids=_cell_id)
def test_schedule_pinned(cell):
    spec, graph, model = cell
    result = run_synchronized(GRAPHS[graph](), SPECS[spec](), MODELS[model]())
    got = (result.messages, result.events_fired, digest_outputs(result.outputs))
    assert got == PINNED[cell]


@pytest.mark.parametrize("cell", sorted(PINNED), ids=_cell_id)
def test_recovery_process_without_faults_hits_the_pins(cell):
    spec, graph, model = cell
    g = GRAPHS[graph]()
    process_cls = RecoverySynchronizerProcess.bind(g, SPECS[spec]())
    result = AsyncRuntime(g, process_cls, MODELS[model]()).run()
    assert result.stop_reason == "quiescent"
    got = (result.messages, result.events_fired, digest_outputs(result.outputs))
    assert got == PINNED[cell]


@pytest.mark.parametrize("cell", sorted(CHURN_CELLS))
def test_churn_schedule_pinned(cell):
    faults, mode = CHURN_CELLS[cell]
    outcome = run_churn(
        topology.cycle_graph(128), bfs_spec, UniformDelay(seed=SEED),
        FaultSchedule(**faults), mode=mode,
    )
    got = (outcome.total_messages, outcome.events_fired,
           digest_outputs(outcome.outputs))
    assert got == CHURN_PINNED[cell]


def test_churn_pins_match_the_benchmark_baseline():
    workloads = json.loads(BENCH_PATH.read_text())["workloads"]
    for cell, pinned in CHURN_PINNED.items():
        entry = workloads[cell]
        assert (entry["messages"], entry["events_fired"],
                entry["outputs_digest"]) == pinned, cell
