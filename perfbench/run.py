"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload replay-sync256 --seed 2305 \\
        --seconds 20 --trace 0

Iterates the workload from fresh graphs until ``--seconds`` have passed
(and at least ``MIN_ITERATIONS`` times), checks every cell against the
synchronous reference, and prints one JSON object as the last line of
stdout: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced iterations and reports the per-layer metrics, writing the traced
spans and counters to ``.perfbench/`` when the run ends.  Exits 1 when any
check fails.  README.md maps each metric to the layer it measures.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Every untraced run medians at least this many iterations (set-ups).
MIN_ITERATIONS = 3


def _load_workloads() -> dict:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: {ROOT / 'src' / 'repro'} is missing;"
                 " run from a full checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS
    return WORKLOADS


def measure(workload, seconds: float, traced: bool):
    """Untraced iterations (and, with ``traced``, one traced iteration
    after each) until ``seconds`` of wall time have passed."""
    plain, traced_its = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        plain.append(workload.iterate(traced=False))
        if traced:
            gc.collect()
            traced_its.append(workload.iterate(traced=True))
        enough = len(plain) >= (1 if traced else MIN_ITERATIONS)
        if enough and time.perf_counter() - start >= seconds:
            return plain, traced_its


def _median(values) -> float:
    return statistics.median(list(values))


def end_to_end(plain) -> dict:
    first = plain[0]
    return {
        "wall_s": (_median(it.wall for it in plain), "s"),
        "setup_s": (_median(it.setup for it in plain), "s"),
        "run_s": (_median(it.run for it in plain), "s"),
        "msgs_per_s": (_median(it.messages / it.wall for it in plain), "1/s"),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "msg_overhead": (
            first.messages / sum(c.budget for c in first.cells), "ratio"),
        "time_overhead": (
            statistics.fmean(c.time_overhead for c in first.cells), "ratio"),
    }


def per_layer(plain, traced, alloc_peak_mb: float) -> dict:
    def med(fn) -> float:
        return _median(fn(it) for it in traced)

    def span(*names):
        return med(lambda it: it.ledger.seconds(*names))

    first = traced[0]
    counts = {**plain[0].counts, **first.counts}
    metrics = {
        "sync_runtime.ref_s": (span("sync_runtime.ref"), "s"),
        "sync_runtime.msgs": (sum(c.sync_msgs for c in first.cells), "count"),
        "sync_runtime.rounds": (counts["sync_runtime.rounds"], "count"),
        "covers.build_s": (span("covers.build"), "s"),
        "covers.clusters": (counts["covers.clusters"], "count"),
        "covers.max_membership": (counts["covers.max_membership"], "count"),
        "covers.max_edge_load": (counts["covers.max_edge_load"], "count"),
        "covers.alloc_peak_mb": (alloc_peak_mb, "MB"),
        "registry.build_s": (span("registry.build"), "s"),
        "async_runtime.wire_s": (span("async_runtime.wire"), "s"),
        "async_runtime.dispatch_s": (span("async_runtime.dispatch"), "s"),
        "async_runtime.loop_s": (med(
            lambda it: it.ledger.seconds("async_runtime.dispatch")
            - sum(it.ledger.handler_s)), "s"),
        "async_runtime.events": (first.events, "count"),
        "async_runtime.events_per_msg": (
            first.events / first.messages, "ratio"),
        "delays.fills": (first.ledger.fills, "count"),
        "delays.fill_s": (med(lambda it: it.ledger.fill_s), "s"),
    }
    for module in ("cluster_ops", "registration", "synchronizer", "apps"):
        metrics[f"{module}.msgs"] = (first.ledger.module_msgs(module), "count")
        metrics[f"{module}.handler_s"] = (
            med(lambda it: it.ledger.module_handler_s(module)), "s")
    for name in ("faults.crashed", "faults.rejoined", "faults.dropped",
                 "recovery.extra_msgs"):
        metrics[name] = (counts.get(name, 0), "count")
    metrics["trace_overhead"] = (
        med(lambda it: it.wall) / _median(it.wall for it in plain), "ratio")
    # Where msgs/s go: cover + registry construction as a share of the
    # untraced iteration.
    metrics["setup.cover_share"] = (_median(
        it.ledger.seconds("covers.build", "registry.build",
                          "registry.for_threshold") / it.wall
        for it in plain), "ratio")
    return metrics


def write_trace(workload, seed: int, traced) -> Path:
    out = ROOT / ".perfbench" / f"{workload.name}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(
        {"workload": workload.name, "seed": seed,
         "iterations": [it.ledger.to_json() for it in traced]}))
    return out


def main(argv=None) -> int:
    workloads = _load_workloads()
    from perfbench.hostclock import ReferenceClock
    from perfbench.workloads import DEFAULT_SEED

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    traced = bool(args.trace)

    with ReferenceClock() as clock:
        workload = workloads[args.workload](args.seed, traced, clock)
        # Before the loop, while the process holds little memory that a
        # cover build could reuse.
        alloc_peak_mb = workload.alloc_peak_mb() if traced else 0.0
        plain, traced_its = measure(workload, args.seconds, traced)
        metrics = per_layer(plain, traced_its, alloc_peak_mb) if traced \
            else end_to_end(plain)
    everything = plain + traced_its

    problems = workload.check_run(plain)
    signatures = {(it.messages, it.digest) for it in everything}
    if len(signatures) != 1:
        problems.append(f"iterations disagree on (messages, digest):"
                        f" {sorted(signatures)}")
    failed = sum(it.failed for it in everything)
    if failed:
        problems.append(f"{failed} cell(s) failed their reference check")

    first = plain[0]
    print(f"{workload.name} seed={args.seed}: {len(plain)} iteration(s),"
          f" {len(first.cells)} cell(s) each, {first.messages} msgs,"
          f" digest {first.digest}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit}")
    if traced:
        print(f"  trace written to {write_trace(workload, args.seed, traced_its)}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(it.cells) for it in everything),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
