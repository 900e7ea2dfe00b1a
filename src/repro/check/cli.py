"""Command-line front end: ``python -m repro.check`` / ``repro-check``.

Subcommands::

    explore WORKLOAD [WORKLOAD ...]   DFS the schedule space of each cell
        [--budget N]                  max executions per cell (default: run
                                      to exhaustion)
        [--max-steps N]               per-execution step ceiling
        [--full]                      backtrack-everything baseline (no DPOR
                                      race analysis; sleep sets only)
        [--trace-out PATH]            where to write a violation trace
        [--json]                      machine-readable report
    replay TRACE.json                 strict bit-exact replay of a trace
    list                              the known workload spec forms

Exit status: 0 clean, 1 violation found (explore) or reproduced-mismatch
(replay), 2 usage/spec errors.  ``explore`` with no subcommand word is
implied when the first argument is a flag, so CI can say
``python -m repro.check --budget ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .explorer import DEFAULT_MAX_STEPS, ExploreReport, explore
from .scheduler import ReplayMismatch
from .trace import (
    load_trace,
    make_trace,
    replay,
    save_trace,
    shrink,
    trace_signature,
)
from .workloads import Workload, build_workload, expand_workloads

#: The CI cells: exhaustive fault-free cells, the registration crash
#: matrix, and the crash-at-each-point churn matrix (CI budget-bounds the
#: churn cells; everything else exhausts in seconds).  The rejoin matrix
#: (``rejoin:cycle:5``) is deliberately absent: its cells are too deep to
#: exhaust, so a bare (unbudgeted) ``explore`` would never finish — CI
#: runs it as a separate budget-bounded step instead.
DEFAULT_WORKLOADS = (
    "sync-bfs:cycle:4",
    "sync-bfs:star:4",
    "reg:star:4",
    "reg:star:4:crash",
    "churn:cycle:5",
)


def _report_line(report: ExploreReport) -> str:
    status = "VIOLATION" if report.violation else (
        "exhausted" if report.exhausted else "budget"
    )
    line = (
        f"{report.workload}: {status} — {report.executions} executions"
        f" ({report.pruned_executions} pruned), {report.states} states,"
        f" {report.races} races,"
        f" {report.sleep_pruned} sleep-set cuts, depth {report.max_depth},"
        f" {report.steps_total} steps"
    )
    if report.violation:
        line += f"\n  {report.violation[0]}: {report.violation[1]}"
    return line


def _report_dict(report: ExploreReport) -> dict:
    return {
        "workload": report.workload,
        "executions": report.executions,
        "pruned_executions": report.pruned_executions,
        "states": report.states,
        "sleep_pruned": report.sleep_pruned,
        "races": report.races,
        "max_depth": report.max_depth,
        "steps_total": report.steps_total,
        "exhausted": report.exhausted,
        "truncated": report.truncated,
        "violation": (
            None if report.violation is None
            else {"probe": report.violation[0],
                  "message": report.violation[1]}
        ),
    }


def _cmd_explore(args: argparse.Namespace) -> int:
    try:
        cells: List[Workload] = []
        for spec in args.workloads:
            cells.extend(expand_workloads(spec))
    except ValueError as exc:
        print(f"repro.check: {exc}", file=sys.stderr)
        return 2
    reports = []
    failed: Optional[ExploreReport] = None
    failed_cell: Optional[Workload] = None
    for cell in cells:
        report = explore(
            cell, budget=args.budget, max_steps=args.max_steps,
            full=args.full,
        )
        reports.append(report)
        if not args.json:
            print(_report_line(report))
        if report.violation is not None:
            failed = report
            failed_cell = cell
            break
    trace_path = None
    if failed is not None and failed_cell is not None:
        choices = shrink(
            failed_cell, failed.violation_choices, failed.violation
        )
        trace = make_trace(failed_cell.name, choices, failed.violation)
        if args.trace_out:
            save_trace(trace, args.trace_out)
            trace_path = args.trace_out
            if not args.json:
                print(
                    f"  minimized to {len(choices)} steps"
                    f" (from {len(failed.violation_choices)});"
                    f" trace written to {trace_path}"
                )
        elif not args.json:
            print(
                f"  minimized to {len(choices)} steps"
                f" (from {len(failed.violation_choices)}); re-run with"
                f" --trace-out to serialize it"
            )
    if args.json:
        print(json.dumps(
            {"reports": [_report_dict(r) for r in reports],
             "trace": trace_path},
            sort_keys=True, separators=(",", ":"),
        ))
    return 1 if failed is not None else 0


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        trace = load_trace(args.trace)
        workload = build_workload(trace["workload"])
    except (OSError, ValueError, KeyError) as exc:
        print(f"repro.check: cannot load trace: {exc}", file=sys.stderr)
        return 2
    try:
        outcome = replay(trace, workload)
    except ReplayMismatch as exc:
        print(f"repro.check: replay diverged: {exc}", file=sys.stderr)
        return 1
    want = trace_signature(trace)
    got = None if outcome.violation is None else outcome.violation.signature()
    if got == want:
        print(
            f"reproduced after {len(outcome.chosen)} steps:"
            f" {want[0]}: {want[1]}"
        )
        return 0
    print(
        f"repro.check: trace did NOT reproduce — recorded {want!r},"
        f" replay produced {got!r}", file=sys.stderr,
    )
    return 1


def _cmd_list(_args: argparse.Namespace) -> int:
    print("workload spec forms:")
    print("  sync-bfs:TOPO:N          fault-free synchronized BFS")
    print("  churn:TOPO:N             crash-at-each-point matrix")
    print("  churn:TOPO:N:crash:V     single crashable node V")
    print("  rejoin:TOPO:N            crash+rejoin-at-each-point matrix")
    print("  rejoin:TOPO:N:crash:V    single crashable+rejoinable node V")
    print("  reg:TOPO:N               registration cycles, fault-free")
    print("  reg:TOPO:N:crash         registration crash matrix")
    print("  reg:TOPO:N:crash:V       single crashable node V")
    print("topologies: cycle, star")
    print(f"default cells: {', '.join(DEFAULT_WORKLOADS)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description="DPOR-style schedule-space model checker (DESIGN.md §13)",
    )
    sub = parser.add_subparsers(dest="command")
    exp = sub.add_parser("explore", help="DFS the schedule space")
    exp.add_argument(
        "workloads", nargs="*", default=list(DEFAULT_WORKLOADS),
        help="cell specs (see `repro-check list`)",
    )
    exp.add_argument("--budget", type=int, default=None,
                     help="max executions per cell (default: exhaustion)")
    exp.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS,
                     help="per-execution step ceiling")
    exp.add_argument("--full", action="store_true",
                     help="backtrack-everything baseline (no race analysis)")
    exp.add_argument("--trace-out", default=None,
                     help="write the minimized violation trace here")
    exp.add_argument("--json", action="store_true",
                     help="machine-readable report on stdout")
    exp.set_defaults(func=_cmd_explore)
    rep = sub.add_parser("replay", help="bit-exact trace replay")
    rep.add_argument("trace", help="trace JSON emitted by explore")
    rep.set_defaults(func=_cmd_replay)
    lst = sub.add_parser("list", help="known workload spec forms")
    lst.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # `python -m repro.check --budget 500` reads naturally in CI: a bare
    # flag (or nothing at all) implies the explore subcommand.
    if not argv or argv[0].startswith("-"):
        argv.insert(0, "explore")
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    return args.func(args)
