"""Census of the protocol state a synchronizer run holds, at its peak.

A trace hook samples every ``--every`` deliveries.  Each sample counts,
over all nodes, the entries of the aggregation modules' instance dicts
(DESIGN.md §10) and the registration stages still open:

* ``live``: instances that have not sent their value up, each its own
  ``_InstanceState`` record;
* ``settled-shared``: instances that sent their value up and are their
  cluster view's shared link record (no record of their own);
* ``settled-private``: settled instances with a private record, because a
  prune gave them a pruned child or filtered broadcast links;
* ``retired``: finished instances, kept as the ``_RETIRED`` tombstone key;
* ``stages``: open registration stages.

It prints the sample with the most held (live plus settled) instances and
the state left at the end of the run.  The cells mirror the benchmark's
workloads: one run of the same graph, program, delay model and faults.

Usage::

    python benchmarks/state_census.py CELL [--every N] [--seed S]

with CELL one of ``cold-ms2048``, ``churn-rejoin512``, ``sync-cycle256``
and ``sync-grid16x16``.  Stdlib only; it gates nothing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.apps.programs import bfs_spec, multi_bfs_spec  # noqa: E402
from repro.core import RecoverySynchronizerProcess  # noqa: E402
from repro.core.synchronizer import SynchronizerProcess  # noqa: E402
from repro.core.cluster_ops import _RETIRED, _InstanceState  # noqa: E402
from repro.net import AsyncRuntime, topology  # noqa: E402
from repro.net.delays import UniformDelay  # noqa: E402
from repro.net.faults import FaultSchedule  # noqa: E402

DEFAULT_SEED = 2305

#: Census columns, in print order.
FIELDS = ("live", "settled-shared", "settled-private", "retired", "stages")

Trace = Callable[[float, int, int, tuple], None]


def _sync_cell(make_graph, spec) -> Callable[[int, Trace], AsyncRuntime]:
    def build(seed: int, trace: Trace) -> AsyncRuntime:
        graph = make_graph()
        return AsyncRuntime(
            graph, SynchronizerProcess.bind(graph, spec),
            UniformDelay(seed=seed), trace=trace,
        )
    return build


def _churn_cell(seed: int, trace: Trace) -> AsyncRuntime:
    # run_churn's degrade pass on the churn-rejoin512 schedule.
    n, root, hops = 512, 0, 4
    graph = topology.cycle_graph(n)
    faults = FaultSchedule(
        seed=seed, crash_rate=0.1, rejoin_rate=1.0, down_rate=0.05,
        recurrent=True,
        protect=sorted({(root + d) % n for d in range(-hops, hops + 1)}),
    )
    return AsyncRuntime(
        graph, RecoverySynchronizerProcess.bind(graph, bfs_spec(root)),
        UniformDelay(seed=seed), faults=faults, trace=trace,
    )


CELLS: Dict[str, Callable[[int, Trace], AsyncRuntime]] = {
    "cold-ms2048": _sync_cell(
        lambda: topology.grid_graph(32, 64), multi_bfs_spec(64)),
    "churn-rejoin512": _churn_cell,
    "sync-cycle256": _sync_cell(
        lambda: topology.cycle_graph(256), bfs_spec(0)),
    "sync-grid16x16": _sync_cell(
        lambda: topology.grid_graph(16, 16), bfs_spec(0)),
}


def census(runtime: AsyncRuntime) -> Dict[str, int]:
    """Count the state every node holds now (see the module docstring)."""
    counts = dict.fromkeys(FIELDS, 0)
    for process in runtime.processes.values():
        node = process.node
        agg = node.agg
        shared = agg._view_links
        for entry in agg._instances.values():
            if entry is _RETIRED:
                counts["retired"] += 1
            elif type(entry) is _InstanceState:
                counts["live"] += 1
            elif shared.get(entry.view) is entry:
                counts["settled-shared"] += 1
            else:
                counts["settled-private"] += 1
        counts["stages"] += len(node.reg._stages)
    return counts


def run_census(cell: str, seed: int = DEFAULT_SEED,
               every: int = 5000) -> Tuple[List[Tuple], Tuple]:
    """Run ``cell`` once; return its samples and its end-of-run row.

    A row is ``(time, deliveries, counts)``.
    """
    samples: List[Tuple] = []
    deliveries = 0
    runtime: Optional[AsyncRuntime] = None

    def trace(now, src, dst, payload):
        nonlocal deliveries
        deliveries += 1
        if deliveries % every == 0:
            samples.append((now, deliveries, census(runtime)))

    runtime = CELLS[cell](seed, trace)
    result = runtime.run(max_events=100_000_000)
    if result.stop_reason != "quiescent":
        raise RuntimeError(f"{cell} stopped: {result.stop_reason}")
    return samples, (result.time_to_quiescence, deliveries, census(runtime))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("cell", choices=sorted(CELLS))
    parser.add_argument("--every", type=int, default=5000, metavar="N",
                        help="deliveries between samples (default: 5000)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args(argv)
    if args.every < 1:
        parser.error("--every must be >= 1")
    samples, end = run_census(args.cell, args.seed, args.every)
    print(f"{args.cell} seed {args.seed}: {end[1]:,} deliveries,"
          f" {len(samples)} samples every {args.every:,}")
    print(f"{'':6}{'t':>9}{'deliveries':>12}"
          + "".join(f"{name:>17}" for name in FIELDS))
    rows = [("end", end)]
    if samples:
        # The peak: the most instances not yet finished.
        peak = max(samples, key=lambda row: row[2]["live"]
                   + row[2]["settled-shared"] + row[2]["settled-private"])
        rows.insert(0, ("peak", peak))
    for label, (now, count, counts) in rows:
        print(f"{label:6}{now:9.1f}{count:12,}"
              + "".join(f"{counts[name]:17,}" for name in FIELDS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
