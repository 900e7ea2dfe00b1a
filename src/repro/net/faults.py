"""Seeded fault schedules: the adversary family beyond delays (DESIGN.md §11).

The delay models in :mod:`repro.net.delays` bound *when* a message arrives;
a :class:`FaultSchedule` decides *whether* it arrives at all.  Three fault
kinds compose, each a deterministic pure function of the schedule's seed:

* **permanent node crashes** — node ``v`` crashes at a fixed time (fail-stop:
  it never takes another step, messages addressed to it vanish, messages it
  queued but had not injected die with it);
* **link-down intervals** — the undirected edge ``{u, v}`` is down over
  half-open intervals ``[start, end)``; a delivery or acknowledgment that
  would fire while the edge is down is *deferred* to the interval's end
  (link-layer retention: nothing is lost, only delayed — the fault analogue
  of an adversarial delay outside ``(0, TAU]``);
* **per-link message drops** — the ``seq``-th injection on directed link
  ``u -> v`` is lost receiver-side; the link-layer acknowledgment still
  returns (the transport frees the link), but the payload never reaches the
  process and ``on_delivered`` never fires.

Two *dynamic-network* extensions (DESIGN.md §15) compose with the three
kinds above:

* **node re-joins** — a crashed node may return at a derived time
  ``rejoin_time(v) > crash_time(v)`` with *fresh* protocol state; its
  incident links un-jam and any transport record that was in flight on an
  incident link when the node left is **void** (both engines discard it at
  fire time — the returned node shares no link-layer state with its former
  incarnation);
* **recurrent links** — with ``recurrent=True`` the seeded down-interval
  train of each churned edge repeats with a per-link seeded period, so a
  link can flap for the whole run instead of only inside ``[0, horizon)``.
  Only the ``down_checker`` view is periodic; ``down_intervals`` still
  returns the base train so interval validation and the sync engine's
  round arithmetic stay unchanged.

Determinism contract: every query is a pure function of
``(label, seed, endpoints, seq)`` using the same 64-bit mixing helpers as
the delay models, so both engines — the packed-record
:class:`~repro.net.async_runtime.AsyncRuntime` and the reference engine in
the equivalence tests — and every sweep replay observe bit-identical fault
decisions for a fixed schedule.  No state is consumed by querying.

Schedules validate eagerly at construction (:class:`FaultScheduleError`)
so a malformed interval can never corrupt heap order at draw time.
"""

from __future__ import annotations

from math import inf, isfinite
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .delays import _link_base, _model_seed, _unit
from .graph import Edge, NodeId, edge_key


class FaultScheduleError(ValueError):
    """A fault schedule is malformed (bad rate, interval, or conflict)."""


#: Default crashed-neighbor detection timeout for the perfect-failure-detector
#: abstraction (DESIGN.md §11).  Any message in flight toward a node that
#: crashes at time ``t`` was injected before ``t`` and therefore resolves —
#: delivery plus acknowledgment — by ``t + 2*TAU``.  A timeout strictly
#: greater than ``2*TAU`` after the crash is thus *sound*: it never accuses
#: a live node (this is exactly the missing-ack bound a real implementation
#: would time out on).  On a link that stays up, no pre-crash traffic can
#: arrive after it fires; a down interval defers messages and acks past it
#: (link-layer retention), and the recovery process drops such stragglers.
DETECT_TIMEOUT = 2.25

_DownFn = Callable[[float], float]
_DropFn = Callable[[int], bool]


def _check_rate(name: str, rate: float) -> float:
    rate = float(rate)
    if not (isfinite(rate) and 0.0 <= rate <= 1.0):
        raise FaultScheduleError(f"{name} must lie in [0, 1], got {rate!r}")
    return rate


def _check_span(name: str, span: Tuple[float, float]) -> Tuple[float, float]:
    lo, hi = float(span[0]), float(span[1])
    if not (isfinite(lo) and isfinite(hi) and 0.0 <= lo <= hi):
        raise FaultScheduleError(
            f"{name} must be a finite pair 0 <= lo <= hi, got {span!r}"
        )
    return lo, hi


def _check_intervals(edge: Edge, intervals: Iterable[Tuple[float, float]]) -> Tuple[Tuple[float, float], ...]:
    out: List[Tuple[float, float]] = []
    last_end = -inf
    for iv in intervals:
        s, e = float(iv[0]), float(iv[1])
        if not (isfinite(s) and isfinite(e) and 0.0 <= s < e):
            raise FaultScheduleError(
                f"down interval {iv!r} on edge {edge} must satisfy 0 <= start < end (finite)"
            )
        if s < last_end:
            raise FaultScheduleError(
                f"down intervals on edge {edge} must be sorted and disjoint"
            )
        last_end = e
        out.append((s, e))
    return tuple(out)


class FaultSchedule:
    """Deterministic, seed-derived crash/down/drop schedule.

    Explicit faults and seeded random families compose: ``crashes`` /
    ``downs`` / ``drops`` name exact faults, while ``crash_rate`` /
    ``down_rate`` / ``drop_rate`` derive additional ones from the seed.
    ``protect`` lists nodes that never crash (e.g. a BFS root); protecting a
    node named in ``crashes`` is a contradiction and raises.
    """

    __slots__ = (
        "seed", "label", "crash_rate", "crash_window", "down_rate",
        "down_lengths", "up_lengths", "horizon", "drop_rate", "protect",
        "rejoin_rate", "rejoin_delays", "recurrent",
        "_crashes", "_downs", "_drops", "_rejoins",
        "_ms_crash", "_ms_down", "_ms_drop", "_ms_rejoin", "_ms_recur",
        "_crash_cache", "_down_cache", "_drop_cache", "_rejoin_cache",
    )

    def __init__(
        self,
        seed: int = 0,
        *,
        crashes: Optional[Dict[NodeId, float]] = None,
        downs: Optional[Dict[Edge, Sequence[Tuple[float, float]]]] = None,
        drops: Optional[Iterable[Tuple[NodeId, NodeId, int]]] = None,
        crash_rate: float = 0.0,
        crash_window: Tuple[float, float] = (0.0, 8.0),
        down_rate: float = 0.0,
        down_lengths: Tuple[float, float] = (0.25, 2.0),
        up_lengths: Tuple[float, float] = (1.0, 7.0),
        horizon: float = 32.0,
        drop_rate: float = 0.0,
        rejoins: Optional[Dict[NodeId, float]] = None,
        rejoin_rate: float = 0.0,
        rejoin_delays: Tuple[float, float] = (4.0, 12.0),
        recurrent: bool = False,
        protect: Iterable[NodeId] = (),
        label: str = "faults",
    ) -> None:
        self.seed = seed
        self.label = label
        self.crash_rate = _check_rate("crash_rate", crash_rate)
        self.crash_window = _check_span("crash_window", crash_window)
        self.down_rate = _check_rate("down_rate", down_rate)
        self.down_lengths = _check_span("down_lengths", down_lengths)
        self.up_lengths = _check_span("up_lengths", up_lengths)
        if self.down_lengths[0] <= 0.0 and self.down_rate > 0.0:
            raise FaultScheduleError("down_lengths must have a positive minimum")
        if self.up_lengths[0] <= 0.0 and self.down_rate > 0.0:
            raise FaultScheduleError("up_lengths must have a positive minimum")
        horizon = float(horizon)
        if not (isfinite(horizon) and horizon >= 0.0):
            raise FaultScheduleError(f"horizon must be finite and >= 0, got {horizon!r}")
        self.horizon = horizon
        self.drop_rate = _check_rate("drop_rate", drop_rate)
        self.rejoin_rate = _check_rate("rejoin_rate", rejoin_rate)
        self.rejoin_delays = _check_span("rejoin_delays", rejoin_delays)
        if self.rejoin_delays[0] <= 0.0 and self.rejoin_rate > 0.0:
            raise FaultScheduleError("rejoin_delays must have a positive minimum")
        self.recurrent = bool(recurrent)
        if self.recurrent and self.down_rate <= 0.0 and not (downs or {}):
            raise FaultScheduleError(
                "recurrent=True requires down intervals (down_rate or downs)"
            )
        if self.recurrent and self.up_lengths[0] <= 0.0:
            # The seeded period is span + up-draw; a positive up minimum
            # guarantees every period ends with an up phase, so deferral
            # always terminates even when intervals tile the base train.
            raise FaultScheduleError(
                "recurrent=True requires up_lengths with a positive minimum"
            )
        self.protect = frozenset(protect)

        explicit_crashes: Dict[NodeId, float] = {}
        for v, t in (crashes or {}).items():
            t = float(t)
            if not (isfinite(t) and t >= 0.0):
                raise FaultScheduleError(
                    f"crash time for node {v} must be finite and >= 0, got {t!r}"
                )
            explicit_crashes[v] = t
        conflict = self.protect & set(explicit_crashes)
        if conflict:
            raise FaultScheduleError(
                f"nodes {sorted(conflict)} are both protected and crashed"
            )
        self._crashes = explicit_crashes

        explicit_downs: Dict[Edge, Tuple[Tuple[float, float], ...]] = {}
        for edge, intervals in (downs or {}).items():
            key = edge_key(edge[0], edge[1])
            explicit_downs[key] = _check_intervals(key, intervals)
        self._downs = explicit_downs

        explicit_drops: Dict[Tuple[NodeId, NodeId], frozenset] = {}
        if drops:
            by_link: Dict[Tuple[NodeId, NodeId], set] = {}
            for (u, v, s) in drops:
                if s < 0:
                    raise FaultScheduleError(
                        f"drop sequence numbers are injection counts >= 0, got {s}"
                    )
                by_link.setdefault((u, v), set()).add(s)
            explicit_drops = {lk: frozenset(ss) for lk, ss in by_link.items()}
        self._drops = explicit_drops

        # Domain-separated sub-seeds: each fault kind draws from its own
        # 64-bit stream so composing kinds never correlates them.
        self._ms_crash = _model_seed(label + ":crash", seed)
        self._ms_down = _model_seed(label + ":down", seed)
        self._ms_drop = _model_seed(label + ":drop", seed)
        self._ms_rejoin = _model_seed(label + ":rejoin", seed)
        self._ms_recur = _model_seed(label + ":recur", seed)
        self._crash_cache: Dict[NodeId, float] = {}
        self._down_cache: Dict[Edge, Optional[_DownFn]] = {}
        self._drop_cache: Dict[Tuple[NodeId, NodeId], Optional[_DropFn]] = {}
        self._rejoin_cache: Dict[NodeId, float] = {}

        # Explicit re-joins validate against the *computed* crash time so a
        # rejoin for a node that never crashes (or one that precedes its own
        # crash) fails at construction, not at draw time.
        explicit_rejoins: Dict[NodeId, float] = {}
        for v, t in (rejoins or {}).items():
            t = float(t)
            if not (isfinite(t) and t >= 0.0):
                raise FaultScheduleError(
                    f"rejoin time for node {v} must be finite and >= 0, got {t!r}"
                )
            crash_t = self.crash_time(v)
            if crash_t == inf:
                raise FaultScheduleError(
                    f"node {v} has a rejoin time but never crashes"
                )
            if t <= crash_t:
                raise FaultScheduleError(
                    f"rejoin time {t!r} for node {v} must exceed its crash "
                    f"time {crash_t!r}"
                )
            explicit_rejoins[v] = t
        self._rejoins = explicit_rejoins

    def __getstate__(self):
        # The checker caches memoize pure functions of the domain-separated
        # seeds — and the down/drop checkers are closures, which don't
        # pickle.  Ship every validated field and start the caches cold: a
        # shard worker's schedule re-derives byte-identical fault decisions
        # on demand (DESIGN.md §14).
        return {
            name: getattr(self, name)
            for name in self.__slots__
            if not name.endswith("_cache")
        }

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._crash_cache = {}
        self._down_cache = {}
        self._drop_cache = {}
        self._rejoin_cache = {}

    # -- queries ---------------------------------------------------------

    def is_empty(self) -> bool:
        """True when the schedule can never produce a fault."""
        return (
            not self._crashes and not self._downs and not self._drops
            and self.crash_rate == 0.0 and self.down_rate == 0.0
            and self.drop_rate == 0.0
        )

    def crash_time(self, v: NodeId) -> float:
        """When node ``v`` crashes (``inf`` = never).  Pure, cached."""
        cached = self._crash_cache.get(v)
        if cached is not None:
            return cached
        if v in self.protect:
            t = inf
        elif v in self._crashes:
            t = self._crashes[v]
        elif self.crash_rate > 0.0:
            base = _link_base(self._ms_crash, v, v)
            if _unit(base, 0) <= self.crash_rate:
                w0, w1 = self.crash_window
                t = w0 + _unit(base, 1) * (w1 - w0)
            else:
                t = inf
        else:
            t = inf
        self._crash_cache[v] = t
        return t

    def crashed_nodes(self, nodes: Iterable[NodeId]) -> List[NodeId]:
        """Nodes among ``nodes`` that ever crash, in ascending order."""
        return sorted(v for v in nodes if self.crash_time(v) < inf)

    def rejoin_time(self, v: NodeId) -> float:
        """When node ``v`` re-joins after its crash (``inf`` = never).

        Pure and cached, like :meth:`crash_time`.  A node that never crashes
        never re-joins; a node that does crash re-joins either at its
        explicit time (validated ``> crash_time(v)`` at construction) or,
        under ``rejoin_rate``, at ``crash + delay`` with the delay drawn
        from ``rejoin_delays`` on the ``:rejoin`` sub-stream — independent
        of the crash draw, so toggling rejoins never perturbs crash times.
        """
        cached = self._rejoin_cache.get(v)
        if cached is not None:
            return cached
        t_crash = self.crash_time(v)
        if t_crash == inf:
            t = inf
        elif v in self._rejoins:
            t = self._rejoins[v]
        elif self.rejoin_rate > 0.0:
            base = _link_base(self._ms_rejoin, v, v)
            if _unit(base, 0) <= self.rejoin_rate:
                r_lo, r_hi = self.rejoin_delays
                t = t_crash + r_lo + _unit(base, 1) * (r_hi - r_lo)
            else:
                t = inf
        else:
            t = inf
        self._rejoin_cache[v] = t
        return t

    def rejoining_nodes(self, nodes: Iterable[NodeId]) -> List[NodeId]:
        """Nodes among ``nodes`` that crash and later re-join, ascending."""
        return sorted(v for v in nodes if self.rejoin_time(v) < inf)

    def has_rejoins(self, nodes: Iterable[NodeId]) -> bool:
        """True when any node in ``nodes`` ever re-joins."""
        return any(self.rejoin_time(v) < inf for v in nodes)

    def down_intervals(self, u: NodeId, v: NodeId) -> Tuple[Tuple[float, float], ...]:
        """Sorted disjoint half-open down intervals for the edge {u, v}."""
        key = edge_key(u, v)
        explicit = self._downs.get(key, ())
        if self.down_rate <= 0.0:
            return explicit
        base = _link_base(self._ms_down, key[0], key[1])
        if _unit(base, 0) > self.down_rate:
            return explicit
        d_lo, d_hi = self.down_lengths
        u_lo, u_hi = self.up_lengths
        out: List[Tuple[float, float]] = []
        # First down starts after a seeded up-phase so t=0 edges are live.
        t = _unit(base, 1) * u_hi
        k = 2
        while t < self.horizon:
            d = d_lo + _unit(base, k) * (d_hi - d_lo)
            out.append((t, t + d))
            t += d + u_lo + _unit(base, k + 1) * (u_hi - u_lo)
            k += 2
        if explicit:
            merged = sorted(out + list(explicit))
            return _check_intervals(key, merged)
        return tuple(out)

    def down_checker(self, u: NodeId, v: NodeId) -> Optional[_DownFn]:
        """``f(t) -> end`` if the edge is down at ``t`` (else 0.0); None if never down.

        Half-open semantics: down iff ``start <= t < end``, so at ``t ==
        end`` the edge is up and a deferred event re-fired at ``end`` makes
        progress (no infinite deferral).
        """
        key = edge_key(u, v)
        cached = self._down_cache.get(key, False)
        if cached is not False:
            return cached
        intervals = self.down_intervals(u, v)
        if not intervals:
            self._down_cache[key] = None
            return None

        if self.recurrent:
            # Recurrent mode: the base train repeats with a per-link seeded
            # period strictly greater than its span (span + a draw from
            # up_lengths on the ``:recur`` sub-stream), so the link flaps
            # for the whole run.  Fold ``t`` into ``[0, period)`` and map
            # the deferral target back out — half-open semantics survive
            # the fold, so a deferred event re-fired at ``e + k*period``
            # still makes progress.
            base = _link_base(self._ms_recur, key[0], key[1])
            u_lo, u_hi = self.up_lengths
            span = intervals[-1][1]
            period = span + u_lo + _unit(base, 0) * (u_hi - u_lo)

            def checker_recurrent(
                t: float,
                _iv: Tuple[Tuple[float, float], ...] = intervals,
                _p: float = period,
            ) -> float:
                k = int(t // _p)
                t0 = t - k * _p
                for s, e in _iv:
                    if t0 < s:
                        return 0.0
                    if t0 < e:
                        return e + k * _p
                return 0.0

            self._down_cache[key] = checker_recurrent
            return checker_recurrent

        def checker(t: float, _iv: Tuple[Tuple[float, float], ...] = intervals) -> float:
            for s, e in _iv:
                if t < s:
                    return 0.0
                if t < e:
                    return e
            return 0.0

        self._down_cache[key] = checker
        return checker

    def drop_checker(self, u: NodeId, v: NodeId) -> Optional[_DropFn]:
        """``f(seq) -> bool`` for drops on the directed link u -> v; None if never."""
        lk = (u, v)
        cached = self._drop_cache.get(lk, False)
        if cached is not False:
            return cached
        explicit = self._drops.get(lk)
        rate = self.drop_rate
        if rate <= 0.0:
            if explicit is None:
                self._drop_cache[lk] = None
                return None

            def checker_explicit(seq: int, _ex: frozenset = explicit) -> bool:
                return seq in _ex

            self._drop_cache[lk] = checker_explicit
            return checker_explicit
        base = _link_base(self._ms_drop, u, v)
        if explicit is None:

            def checker_rate(seq: int, _b: int = base, _r: float = rate) -> bool:
                return _unit(_b, seq) <= _r

            self._drop_cache[lk] = checker_rate
            return checker_rate

        def checker_both(seq: int, _b: int = base, _r: float = rate,
                         _ex: frozenset = explicit) -> bool:
            return seq in _ex or _unit(_b, seq) <= _r

        self._drop_cache[lk] = checker_both
        return checker_both

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultSchedule(seed={self.seed}, label={self.label!r}, "
            f"crash_rate={self.crash_rate}, down_rate={self.down_rate}, "
            f"drop_rate={self.drop_rate}, rejoin_rate={self.rejoin_rate}, "
            f"recurrent={self.recurrent}, explicit={len(self._crashes)}c/"
            f"{len(self._downs)}d/{len(self._drops)}x/{len(self._rejoins)}r)"
        )
