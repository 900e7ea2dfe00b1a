"""Shared helpers for the experiment benchmarks (E1–E11).

Each benchmark runs the protocol(s) once inside pytest-benchmark (wall time
is reported for reproducibility, but the quantities of interest are the
*protocol* metrics: simulated time normalized by the delay bound τ, and
message counts).  Every benchmark prints the series EXPERIMENTS.md records
and attaches them to ``benchmark.extra_info``.

Running under PyPy (a compatibility lane)
-----------------------------------------

The whole stack is pure Python with zero native dependencies, so it runs
unmodified under PyPy::

    pypy3 -m pip install pytest pytest-benchmark hypothesis networkx
    PYTHONPATH=src pypy3 -m pytest -x -q
    PYTHONPATH=src pypy3 benchmarks/perf_regression.py --quick   # prints only

The lane checks compatibility, not speed: no PyPy-vs-CPython speedup and
no layout's effect under the JIT has ever been measured in this repo, so
none is claimed.  Keep in mind:

* Determinism is unaffected — delays are pure functions of (edge,
  direction, seq, seed), and hash-based draws use explicit 32/64-bit
  mixing, not ``hash()`` — so message counts and output digests must match
  CPython exactly (the ``perf_regression.py --check`` determinism fields
  are interpreter-independent).
* Do NOT ``--check`` or ``--write`` the committed throughput baseline from
  a PyPy run: ``BENCH_core.json`` floors are calibrated for CPython CI
  runners (the calibration loop itself JITs, so the host-speed rescaling
  would not cancel out), and PyPy walls include JIT warm-up.
* CI runs this recipe on every push: the ``pypy`` job in
  ``.github/workflows/ci.yml`` runs the tier-1 tests plus the print-only
  ``perf_regression.py --quick`` smoke.

Reading ``perf_regression.py --profile`` output under host drift
----------------------------------------------------------------

The profile lane (``--profile <workload>``) exists so hot-spot *claims*
(DESIGN.md §9/§10: "X% of wall is protocol handlers") are reproducible,
but two caveats apply on shared or drifting hosts:

* **Ratios are trustworthy, absolute times are not.**  Wall clocks on
  this class of host drift ±30% between load windows, and cProfile adds
  ~1µs of overhead per call on top, inflating call-heavy code (many
  small protocol handlers) relative to loop-heavy code (the inlined
  event loop).  Compare the *shares* of two functions within one profile
  — never a profiled time against a plain wall clock, and never two
  profiles from different windows.
* **Decide speedups with interleaved A/B, not with the profiler.**  The
  profile tells you *where* to aim; whether a change landed is decided
  by order-balanced interleaved A/B runs (old, new, new, old, ...) whose
  trimmed-mean ratio cancels drift that hits both sides — the same
  discipline `measure()` applies to the sweep-vs-independent pairs.
  §9 and §10 both record cases where the profiler said "hot" but the
  interleaved A/B said "parity": the per-call costs were already at the
  CPython floor, so redistributing them moved shares, not walls.

Reading multiprocess (``--jobs``) speedups under host drift
-----------------------------------------------------------

The sharded sweep executor (DESIGN.md §14; ``perf_regression.py
--jobs N`` and the ``shard-*`` workloads) adds one more drift trap on
top of the ±30% windows above, because a pool's wall clock aggregates
*several* processes' windows at once:

* **Interleave per pair, trust the ratio.**  ``measure()`` already
  interleaves each shard workload with its serial twin (shard, serial,
  serial, shard, ...), so a load window that slows one side slows the
  other and the reported ``shard speedup [kind]`` ratio cancels it.
  Never compare a shard wall from one run against a serial wall from
  another — only the in-run pairing is drift-balanced.
* **Trimmed means beat best-of-N for pools.**  Best-of-N is right for
  single-process walls (the floor is the signal), but a pool's best rep
  is the one where *every* worker dodged the noise at once — a rarer
  event the more workers you add, so best-of-N under-reports shard cost
  at small rep counts.  When reps are plentiful, trim the extremes and
  compare means; at the committed rep counts the printed ratio keeps
  best-of-N for symmetry with the serial lanes, so read it as a
  *lower bound* on shard overhead, not an exact cost.
* **Core count gates the ceiling.**  Speedup is capped by
  min(jobs, cells, cores); on 1–2 core CI runners expect ~1.0x or
  below (pool setup plus one bundle shipment per worker is pure
  overhead there), and ≥1.5x only from ≥4-core hosts.  That is why the
  ``sweep_speedups`` shard entries in BENCH_core.json are print-only
  and never ``--check``-gated: the *digest equality* between shard and
  serial lanes is the gated claim, the ratio is host-dependent
  telemetry.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

from repro.analysis import Series, fit_power_law

# One deterministic adversary for benchmarks (correctness across the whole
# adversary family is covered by the test suite).
from repro.net.delays import (
    AlternatingDelay,
    BimodalDelay,
    ConstantDelay,
    SlowEdgesDelay,
    UniformDelay,
)

BENCH_DELAYS = UniformDelay(seed=2305)  # arXiv number of the paper


def SWEEP_DELAYS(seed: int = 2305):
    """The 5-model family the sweep benchmarks replay (one shared engine
    setup per graph via the protocol sweeps; fresh model instances per call)."""
    return (
        ConstantDelay(),
        UniformDelay(seed=seed),
        BimodalDelay(seed=seed),
        SlowEdgesDelay(seed=seed),
        AlternatingDelay(seed=seed),
    )


def run_once(benchmark, fn: Callable[[], Any]) -> Any:
    """Execute fn exactly once under pytest-benchmark and return its result."""
    box: Dict[str, Any] = {}

    def wrapped():
        box["result"] = fn()

    benchmark.pedantic(wrapped, rounds=1, iterations=1, warmup_rounds=0)
    return box["result"]


def record(benchmark, series: Series) -> None:
    print()
    print(series.render())
    benchmark.extra_info["table"] = {
        "title": series.title,
        "columns": list(series.columns),
        "rows": [list(map(str, row)) for row in series.rows],
    }


def power_exponent(xs, ys) -> float:
    exponent, _ = fit_power_law(xs, ys)
    return exponent
