"""Process-pool sweep executor: fan replay cells across cores (DESIGN.md §14).

Every experiment in the paper is a sweep of independent replay cells — one
immutable ``(graph, program)`` skeleton under a family of delay models (or
seeds).  The cells share everything expensive (cover, registry views, pulse
tables, link skeleton) and nothing mutable, so they parallelize perfectly:
this module ships the shared bundle to each pool worker **exactly once**
(pickled once per worker under ``spawn``, inherited copy-on-write under
``fork``) and streams back one compact :class:`CellSummary` per cell.

The determinism contract, in order of importance:

* **Merged output is worker-independent.**  Workers complete in load-
  dependent order; summaries are re-sorted by their cell ``index`` before
  anything downstream sees them, so completion order can never reach a
  digest (the one ordering hazard multiprocessing adds).
* **Byte-identity with the serial engine.**  Each worker runs its cells
  through the untouched :class:`~repro.net.sweep.AsyncSweep` fast path over
  the parent's shipped :class:`~repro.net.async_runtime.LinkSkeleton` — the
  link-id assignment travels with the bundle, it is never re-derived — so a
  cell's outputs digest and message counts equal the serial ``run_all``'s,
  pinned by the equivalence suite (``tests/test_shard.py``).
* **``jobs=1`` is the untouched in-process loop** — :func:`run_models`,
  the serial replay loop every ``run_all`` uses, with its
  :func:`~repro.gcpause.paused_gc` discipline; no pool, no pickling — so
  1-core CI runners and the serial baselines pay zero overhead.

Wall-clock fields (``CellSummary.wall``) are *reporting metadata*: they are
excluded from :meth:`CellSummary.comparable` and never feed schedules,
merge order, or digests.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Protocol

from ..gcpause import paused_gc


def run_models(run_one: Callable[[Any], Any],
               delay_models: Iterable[Any]) -> List[Any]:
    """Replay every model through ``run_one`` under one GC pause.

    The pause keeps the collector from rescanning each replay's young
    objects generation by generation.  Each replay's dead engine is a
    cycle cluster refcounting cannot reclaim, so one young collection
    (``gc.collect(0)``, which works while the collector is disabled)
    frees it right after its replay: under the pause every object the
    replay allocated is still in generation 0, and the sweep holds one
    engine at a time (DESIGN.md §8).

    Shared by the transport- and protocol-level ``run_all`` methods and
    by :func:`run_serial` (over cell indices): results align with the
    input order.
    """
    with paused_gc():
        results: List[Any] = []
        for model in delay_models:
            results.append(run_one(model))
            gc.collect(0)
        return results


def digest_outputs(outputs: Dict[Any, Any]) -> str:
    """Canonical 16-hex digest of an outputs map.

    The exact formula ``benchmarks/perf_regression.py`` has pinned in
    ``BENCH_core.json`` since PR 2 (sorted items, ``repr``, sha256/16) —
    defined here so the sharded and serial paths share one implementation
    and a worker-side digest is comparable to a committed baseline digest.
    """
    return hashlib.sha256(
        repr(sorted(outputs.items())).encode()
    ).hexdigest()[:16]


@dataclass(frozen=True)
class CellSummary:
    """Compact, picklable result of one replay cell.

    Everything the benchmark and equivalence layers consume — counts, times
    and the outputs digest — without the outputs map itself, so result
    traffic back from workers stays a few hundred bytes per cell regardless
    of n.
    """

    index: int
    messages: int
    acks: int
    events_fired: int
    dropped: int
    time_to_output: float
    time_to_quiescence: float
    outputs_digest: str
    stop_reason: str
    #: Worker-side wall seconds for this cell — reporting metadata only.
    wall: float

    def comparable(self) -> tuple:
        """Every deterministic field — everything except the wall clock."""
        return (
            self.index,
            self.messages,
            self.acks,
            self.events_fired,
            self.dropped,
            self.time_to_output,
            self.time_to_quiescence,
            self.outputs_digest,
            self.stop_reason,
        )


def summarize(index: int, result: Any, wall: float = 0.0) -> CellSummary:
    """Fold one replay result into a :class:`CellSummary`.

    Accepts an :class:`~repro.net.async_runtime.AsyncResult` directly, or
    any outcome wrapper carrying one as ``.result`` (the protocol layer's
    ``BFSOutcome``).
    """
    result = getattr(result, "result", result)
    return CellSummary(
        index=index,
        messages=result.messages,
        acks=result.acks,
        events_fired=result.events_fired,
        dropped=result.dropped,
        time_to_output=result.time_to_output,
        time_to_quiescence=result.time_to_quiescence,
        outputs_digest=digest_outputs(result.outputs),
        stop_reason=result.stop_reason,
        wall=wall,
    )


def run_timed(index: int, run: Callable[[], Any]) -> CellSummary:
    """Run one cell and summarize it with its worker-side wall time."""
    t0 = perf_counter()  # det: ignore[DET002] -- wall-clock is CellSummary reporting metadata only: excluded from comparable(), never feeds schedules, merge order, or digests
    result = run()
    wall = perf_counter() - t0  # det: ignore[DET002] -- wall-clock is CellSummary reporting metadata only: excluded from comparable(), never feeds schedules, merge order, or digests
    return summarize(index, result, wall)


class CellBundle(Protocol):
    """What :func:`run_sharded` needs from a bundle of replay cells.

    A bundle is the *entire* per-worker shipment: it must be picklable
    (``spawn``) or fork-inheritable, carry all shared immutable state, and
    evaluate any one cell by index.  :func:`repro.net.sweep.run_sweeps_sharded`
    provides the protocol-level implementation over
    :class:`~repro.net.sweep.ProtocolSweep` replays.
    """

    def __len__(self) -> int: ...

    def run_cell(self, index: int) -> CellSummary: ...


def default_jobs() -> int:
    """One worker per visible core; 1 on hosts that cannot say."""
    return max(1, os.cpu_count() or 1)


def preferred_start_method() -> str:
    """``fork`` where the platform offers it (zero-copy bundle shipment),
    otherwise whatever the platform prefers (``spawn`` on Windows/macOS)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


# Per-worker bundle slot: installed exactly once by the pool initializer
# (``initargs`` pickles it once per worker under ``spawn``; under ``fork``
# the closure-free initializer just inherits the parent's object).  Tasks
# then carry only a cell index each way.
_WORKER_BUNDLE: Optional[CellBundle] = None


def _init_worker(bundle: CellBundle) -> None:
    """Install the shared bundle in this worker — and normalize GC.

    A ``fork`` inside a :func:`~repro.gcpause.paused_gc` window (a parent
    mid-``run_models``) would hand the child a *permanently* disabled
    collector: the parent's re-enabling ``finally`` never runs here.  The
    worker is a fresh replay context, so GC starts enabled unconditionally;
    each cell then manages its own pause exactly as the serial engine does.
    """
    global _WORKER_BUNDLE
    if not gc.isenabled():
        gc.enable()
    _WORKER_BUNDLE = bundle


def _run_cell(index: int) -> CellSummary:
    bundle = _WORKER_BUNDLE
    assert bundle is not None, "pool worker used before _init_worker ran"
    return bundle.run_cell(index)


def run_serial(bundle: CellBundle) -> List[CellSummary]:
    """The untouched in-process loop: every cell, in order, one GC pause.

    Literally :func:`run_models` over the cell indices — sweep-wide
    pause, one young collection after each replay — so ``jobs=1``
    changes nothing about how serial sweeps run.
    """
    return run_models(bundle.run_cell, range(len(bundle)))


def run_sharded(
    bundle: CellBundle,
    jobs: Optional[int] = None,
    start_method: Optional[str] = None,
) -> List[CellSummary]:
    """Evaluate every cell of ``bundle``; return summaries in index order.

    ``jobs=None`` uses :func:`default_jobs`; ``jobs=1`` (or a single cell)
    short-circuits to :func:`run_serial` with no pool and no pickling.
    With ``jobs >= 2`` a ``multiprocessing.Pool`` is created — **outside**
    any GC pause, see :func:`_init_worker` — the bundle ships once per
    worker, cells stream through ``imap_unordered`` (a worker picks up its
    next cell the moment it finishes one), and the summaries are sorted by
    cell index before returning: the merge order is canonical and worker-
    independent, so scheduling jitter can never reach a digest.
    """
    num_cells = len(bundle)
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1 or num_cells <= 1:
        return run_serial(bundle)
    ctx = multiprocessing.get_context(start_method or preferred_start_method())
    with ctx.Pool(
        processes=min(jobs, num_cells),
        initializer=_init_worker,
        initargs=(bundle,),
    ) as pool:
        summaries = list(pool.imap_unordered(_run_cell, range(num_cells)))
    summaries.sort(key=lambda s: s.index)
    return summaries
