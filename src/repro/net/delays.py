"""Adversarial message-delay models.

The asynchronous model (Section 1.1) lets an adversary pick every message's
delay in ``(0, tau]`` with ``tau = 1`` after normalization.  Correctness of
the synchronizer must hold for *every* delay assignment, so the test-suite
runs each protocol under the whole family below.  Every model is a
deterministic function of (edge, direction, per-link sequence number, seed) —
rerunning a simulation reproduces it exactly.

Performance architecture (DESIGN.md §6): the hashed models draw their
pseudo-randomness from a cached *per-link base* — one value per directed
link, derived once from (model label, seed, u, v) by 64-bit mixing — so a
draw costs a dict probe plus a little arithmetic instead of the ``repr`` +
``blake2b`` digest per call that earlier revisions paid.  Two per-seq
schemes are used deliberately:

* :class:`UniformDelay` (the benchmark workhorse) uses a float Weyl
  sequence — five float operations per draw.  Its draws are equidistributed
  over the range but *temporally structured* (consecutive seqs differ by
  the golden-ratio conjugate mod 1); for magnitude jitter that structure is
  harmless and the speed matters.
* The structural adversaries (:class:`BimodalDelay`, :class:`SlowEdgesDelay`)
  hash each (link base, seq) through a 32-bit murmur-style finalizer
  (:func:`_unit`) so their slow/fast *patterns* stay i.i.d.-like — bursty
  slow-slow runs remain as likely as a fair coin, which is exactly what
  those adversaries exist to produce.  ``__call__`` runs the finalizer once
  per draw; a block fill runs it once per *stream* through
  :func:`_hash_lanes`, which packs a block's 32-bit lanes into 64-bit
  fields of one Python int and applies every xorshift-multiply round to all
  lanes in one bigint operation (DESIGN.md §9 argues it bit-equal).

A literal per-link ``random.Random`` *stream* would not do for either:
delays must be a pure function of the sequence number (acknowledgment draws
use negative sequence numbers interleaved with the reverse link's positive
ones, and deterministic replay re-queries arbitrary (link, seq) pairs),
which a stateful stream cannot provide.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, Iterable, Optional, Protocol, Tuple

from .graph import Edge, NodeId, edge_key

TAU = 1.0
_MIN_DELAY = 1e-6


class InvalidDelayError(ValueError):
    """A delay model (or fault schedule) produced an unusable delay.

    Raised at draw/schedule time when a delay is non-positive, non-finite
    (NaN or infinity), or outside the model contract's ``(0, TAU]`` range.
    Named so engines can fail loudly instead of silently corrupting the
    event heap's (time, seq) order — a NaN time in a heapq heap poisons
    every later comparison.
    """

_MASK64 = (1 << 64) - 1
_MASK32 = 0xFFFFFFFF
#: Per-draw mixing runs in 32-bit arithmetic on purpose: CPython represents
#: ints in 30-bit digits, so 64-bit multiplies allocate multi-digit bigints
#: on every operation while 32-bit state stays in the 1–2 digit fast path —
#: measured ~4x cheaper per draw.  32 bits of jitter per delay is far more
#: than the simulation needs; link bases are still derived with 64-bit
#: mixing (once per link).
_K1 = 2654435761  # Knuth's 32-bit multiplicative constant (odd)
_C1 = 0x45D9F3B  # lowbias32-style mixing multiplier
_INV_2_32 = 2.0 ** -32
#: Per-seq draws on the transport hot path use a Weyl sequence instead:
#: ``frac(link_base + seq * phi)`` with phi the golden-ratio conjugate is a
#: low-discrepancy, deterministic function of (link, seq) computed in five
#: float operations — no bigint traffic at all.  Each directed link gets its
#: own well-mixed starting phase, so delays are equidistributed over the
#: range per link and uncorrelated across links.
_WEYL = 0.6180339887498949


def _mix64(x: int) -> int:
    """Murmur3/splitmix-style 64-bit finalizer (bijective, well-mixed)."""
    x &= _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _MASK64
    return x ^ (x >> 33)


def _model_seed(label: str, seed: int) -> int:
    """Stable 64-bit stream id for one (model, seed); hashed once per model."""
    digest = hashlib.blake2b(f"{label}:{seed}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def _link_base(model_seed: int, u: NodeId, v: NodeId) -> int:
    """Per-directed-link 32-bit base; ``(u << 32) ^ v`` is injective."""
    return _mix64(model_seed ^ ((u << 32) ^ v)) & _MASK32


def _unit(base: int, seq: int) -> float:
    """Deterministic pseudo-random float in (0, 1] for one (link base, seq)."""
    x = (base ^ (seq * _K1)) & _MASK32
    x = (((x >> 16) ^ x) * _C1) & _MASK32
    x = (((x >> 16) ^ x) * _C1) & _MASK32
    return (((x >> 16) ^ x) + 1) * _INV_2_32


class DelayModel(Protocol):
    """Callable assigning a delay in ``(0, TAU]`` to one message injection.

    A delay is a pure function of ``(u, v, seq)``: the same triple always
    yields the same float.  ``now`` is not a time source — models must not
    read it, and the transport passes ``0.0`` when it draws delays ahead of
    time in blocks (see :func:`call_block_stream`).
    """

    def __call__(self, u: NodeId, v: NodeId, seq: int, now: float) -> float:
        """Delay for the ``seq``-th message injected on the link u -> v."""


# The transport pre-draws every delay through one shape, ``block_stream(u,
# v) -> fill`` (only the rare delivery-time ack redraw calls ``__call__``
# directly), where
#
#     fill(buf, base, start, n) -> None
#
# writes the (message delay, ack delay) pairs for injection numbers
# ``start, start+1, ..., start+n-1`` into the flat float buffer ``buf`` at
# ``buf[base + 2*k]`` / ``buf[base + 2*k + 1]``: exactly
# ``model(u, v, start + k, now)`` and ``model(v, u, -(start + k), now)``,
# bit-for-bit (acknowledgments are the reverse link's draw at the negated
# injection number; pinned by ``tests/test_delays.py`` over 10k triples
# including block boundaries).  Every shipped model implements it with its
# per-link bases bound once; :func:`call_block_stream` derives it from a
# plain ``__call__`` for any other model.  ``buf`` is any index-assignable
# float sequence — the transport passes a plain list (see
# ``make_block_buffer``; an ``array('d')`` was measured and rejected
# there), but fills must stick to indexed stores rather than list-slice
# assignment so array-like buffers keep working too.  The transport
# refills one block of :data:`BLOCK_PAIRS` pairs per call and then serves
# :data:`BLOCK_PAIRS` consecutive injections from two indexed loads each,
# so the send hot path makes no per-message model call; per-link injection
# numbers are strictly sequential, so blocks are always drawn in order and
# never re-queried.  A block is filled eagerly — a link that sends fewer
# than BLOCK_PAIRS messages wastes the tail draws — which is why the block
# is small.

#: Pairs per block fill.  Small on purpose: a block is drawn eagerly, so a
#: link that sends m messages wastes ``(-m) % BLOCK_PAIRS`` tail draws, and
#: every resident block adds float objects to the engine's working set —
#: measured at n=256-1024, the cache pressure of big blocks costs more than
#: the amortization saves (DESIGN.md §9).  8 keeps the wasted tail and the
#: footprint (16 floats per active link) negligible while still cutting the
#: per-message model call to one-eighth.
BLOCK_PAIRS = 8


def _lane_tables(n: int) -> tuple:
    """Constants of :func:`_hash_lanes` for ``n`` lanes.

    Lane ``i`` is the 64-bit field at bit ``64 * i``: ``ones`` has a 1 in
    every lane, ``mask`` keeps each lane's low 32 bits, and the up/down
    ramps hold ``(+-i * _K1) mod 2**32``.
    """
    shifts = [64 * i for i in range(n)]
    ones = sum(1 << s for s in shifts)
    return (
        ones,
        _MASK32 * ones,
        sum(((i * _K1) & _MASK32) << s for i, s in enumerate(shifts)),
        sum(((-i * _K1) & _MASK32) << s for i, s in enumerate(shifts)),
        8 * n,
        # Only each lane's low 32 bits are read: the final round leaves
        # bits of the lane above in the high half, and the format skips it.
        struct.Struct("<" + "I4x" * n).unpack,
    )


#: The transport fills whole blocks; other lengths build their tables.
_BLOCK_LANES = _lane_tables(BLOCK_PAIRS)


def _hash_lanes(base: int, seq: int, n: int, down: bool = False) -> Tuple[int, ...]:
    """:func:`_unit`'s 32-bit hash for ``n`` consecutive seqs, bit-equal.

    Lane ``i`` hashes seq ``seq + i`` (``seq - i`` when ``down``), so
    ``_unit(base, s) == (h + 1) * 2**-32`` for its hash ``h``.  The lanes
    share one Python int, one 64-bit field each, and every step of the
    finalizer runs on all of them at once.  No lane carries into the
    next: the ramp sum stays below 2**33, each multiply sees a masked
    32-bit lane and stays below 2**59, and the mask clears the bits each
    ``>> 16`` shifts in from the lane above (DESIGN.md §9).
    """
    ones, mask, up_ramp, down_ramp, nbytes, unpack = (
        _BLOCK_LANES if n == BLOCK_PAIRS else _lane_tables(n)
    )
    x = (((seq * _K1) & _MASK32) * ones + (down_ramp if down else up_ramp)) & mask
    x ^= base * ones
    x = ((((x >> 16) ^ x) & mask) * _C1) & mask
    x = ((((x >> 16) ^ x) & mask) * _C1) & mask
    return unpack(((x >> 16) ^ x).to_bytes(nbytes, "little"))


def call_block_stream(model: DelayModel, u: NodeId, v: NodeId):
    """The block fill of ``model``'s link u -> v, drawn through ``__call__``.

    The transport's adapter for models without a ``block_stream`` of their
    own (plain functions included): one model call per slot, the message
    at ``seq`` and its acknowledgment on the reverse link at ``-seq``.
    """

    def fill(buf, base: int, start: int, n: int) -> None:
        i = base
        for k in range(start, start + n):
            buf[i] = model(u, v, k, 0.0)
            buf[i + 1] = model(v, u, -k, 0.0)
            i += 2

    return fill


class ConstantDelay:
    """Every message takes exactly ``value`` time units (default: the bound)."""

    def __init__(self, value: float = TAU) -> None:
        if not 0 < value <= TAU:
            raise ValueError(f"delay must be in (0, {TAU}], got {value}")
        self.value = value

    def __call__(self, u: NodeId, v: NodeId, seq: int, now: float) -> float:
        return self.value

    def block_stream(self, u: NodeId, v: NodeId):
        value = self.value

        def fill(buf, base: int, start: int, n: int) -> None:
            for i in range(base, base + 2 * n):
                buf[i] = value

        return fill

    def __repr__(self) -> str:
        return f"ConstantDelay({self.value})"


class UniformDelay:
    """Per-link Weyl-sequence delays equidistributed over ``[low, high)``.

    Magnitudes are uniform over the range but temporally low-discrepancy
    (see module docstring); use :class:`BimodalDelay` / :class:`SlowEdgesDelay`
    when the *pattern* of slow messages is what the experiment stresses.
    """

    __slots__ = ("seed", "low", "high", "_span", "_seed64", "_links")

    def __init__(self, seed: int, low: float = _MIN_DELAY, high: float = TAU) -> None:
        if not 0 < low <= high <= TAU:
            raise ValueError("need 0 < low <= high <= TAU")
        self.seed = seed
        self.low = low
        self.high = high
        self._span = high - low
        self._seed64 = _model_seed("uniform", seed)
        self._links: Dict[Tuple[NodeId, NodeId], float] = {}

    def __call__(self, u: NodeId, v: NodeId, seq: int, now: float) -> float:
        links = self._links
        base = links.get((u, v))
        if base is None:
            base = links[(u, v)] = _link_base(self._seed64, u, v) * _INV_2_32
        # Identical expression to the block fill below — the two paths must
        # produce bit-equal floats (the equivalence tests rely on it).
        return self.low + self._span * ((base + seq * _WEYL) % 1.0)

    def block_stream(self, u: NodeId, v: NodeId):
        fwd = _link_base(self._seed64, u, v) * _INV_2_32
        rev = _link_base(self._seed64, v, u) * _INV_2_32
        low = self.low
        span = self._span

        def fill(buf, base: int, start: int, n: int) -> None:
            # Same expressions as __call__, seq by seq (the ack at the
            # negated seq: ``rev - k*phi`` equals ``rev + (-k)*phi``
            # bit-for-bit under IEEE negation), so the two paths agree.
            i = base
            for k in range(start, start + n):
                w = k * _WEYL
                buf[i] = low + span * ((fwd + w) % 1.0)
                buf[i + 1] = low + span * ((rev - w) % 1.0)
                i += 2

        return fill

    def __reduce__(self):
        # The per-link base cache is a pure function of (seed, link): a
        # shipped model rebuilds from its constructor state and starts the
        # cache cold, re-deriving bit-equal fills on demand (shard workers
        # rely on this — DESIGN.md §14).
        return (UniformDelay, (self.seed, self.low, self.high))

    def __repr__(self) -> str:
        return f"UniformDelay(seed={self.seed}, low={self.low}, high={self.high})"


def _check_fast(fast: float) -> None:
    if not 0 < fast <= TAU:
        raise ValueError(f"fast must be in (0, {TAU}], got {fast}")


class BimodalDelay:
    """Most messages are fast; a hashed fraction hit the full bound.

    This is the classic adversary against naive asynchronous BFS: fast
    detours beat slow direct edges, so any protocol that trusts arrival
    order computes wrong distances.
    """

    __slots__ = ("seed", "slow_fraction", "fast", "_pick64", "_fast64", "_links")

    def __init__(self, seed: int, slow_fraction: float = 0.2, fast: float = 0.05) -> None:
        if not 0 <= slow_fraction <= 1:
            raise ValueError("slow_fraction must be in [0, 1]")
        _check_fast(fast)
        self.seed = seed
        self.slow_fraction = slow_fraction
        self.fast = fast
        self._pick64 = _model_seed("bimodal-pick", seed)
        self._fast64 = _model_seed("bimodal-fast", seed)
        self._links: Dict[Tuple[NodeId, NodeId], Tuple[int, int]] = {}

    def __call__(self, u: NodeId, v: NodeId, seq: int, now: float) -> float:
        bases = self._links.get((u, v))
        if bases is None:
            bases = self._links[(u, v)] = (
                _link_base(self._pick64, u, v),
                _link_base(self._fast64, u, v),
            )
        if _unit(bases[0], seq) <= self.slow_fraction:
            return TAU
        d = self.fast * _unit(bases[1], seq)
        return d if d > _MIN_DELAY else _MIN_DELAY

    def block_stream(self, u: NodeId, v: NodeId):
        pick_f = _link_base(self._pick64, u, v)
        fast_f = _link_base(self._fast64, u, v)
        pick_r = _link_base(self._pick64, v, u)
        fast_r = _link_base(self._fast64, v, u)
        # ``_unit(b, s) <= slow_fraction`` is ``h < slow_cut`` for the hash
        # h, and ``fast * _unit(b, s)`` is ``scale * (h + 1)``: both exact
        # rewrites of __call__ (DESIGN.md §9), so the fill stays bit-equal.
        slow_cut = int(self.slow_fraction * 2**32)
        scale = self.fast * _INV_2_32

        def fill(buf, base: int, start: int, n: int) -> None:
            # Integer hashing on purpose: the slow/fast pattern must stay
            # i.i.d.-like (see module docstring).
            i = base
            for p, f, q, r in zip(
                _hash_lanes(pick_f, start, n),
                _hash_lanes(fast_f, start, n),
                _hash_lanes(pick_r, -start, n, True),
                _hash_lanes(fast_r, -start, n, True),
            ):
                if p < slow_cut:
                    d = TAU
                else:
                    d = scale * (f + 1)
                    if d <= _MIN_DELAY:
                        d = _MIN_DELAY
                if q < slow_cut:
                    a = TAU
                else:
                    a = scale * (r + 1)
                    if a <= _MIN_DELAY:
                        a = _MIN_DELAY
                buf[i] = d
                buf[i + 1] = a
                i += 2

        return fill

    def __repr__(self) -> str:
        return f"BimodalDelay(seed={self.seed}, slow_fraction={self.slow_fraction})"


class SlowEdgesDelay:
    """A chosen edge set is maximally slow; everything else is fast.

    With ``edges=None`` a hashed half of the edges is slow — an adversary
    that consistently starves entire regions of the graph.
    """

    __slots__ = ("seed", "fast", "_edges", "_pick64", "_fast64", "_links")

    def __init__(
        self,
        seed: int,
        edges: Optional[Iterable[Edge]] = None,
        fast: float = 0.01,
    ) -> None:
        _check_fast(fast)
        self.seed = seed
        self.fast = fast
        self._edges: Optional[frozenset] = (
            frozenset(edge_key(*e) for e in edges) if edges is not None else None
        )
        self._pick64 = _model_seed("slow-edge", seed)
        self._fast64 = _model_seed("slow-fast", seed)
        # Per directed link: (is_slow, fast-draw base).
        self._links: Dict[Tuple[NodeId, NodeId], Tuple[bool, int]] = {}

    def _is_slow(self, u: NodeId, v: NodeId) -> bool:
        # Symmetric by construction: both the explicit edge set and the
        # hashed pick are keyed on the *canonical* (sorted) edge, so a link's
        # acknowledgment always shares its message's speed class.  The
        # property test in tests/test_delays.py pins this invariant — the
        # slow block fill and the fused-ack horizon both rely on it.
        key = edge_key(u, v)
        if self._edges is not None:
            return key in self._edges
        return _unit(_link_base(self._pick64, key[0], key[1]), 0) < 0.5

    def __call__(self, u: NodeId, v: NodeId, seq: int, now: float) -> float:
        entry = self._links.get((u, v))
        if entry is None:
            entry = self._links[(u, v)] = (
                self._is_slow(u, v),
                _link_base(self._fast64, u, v),
            )
        if entry[0]:
            return TAU
        d = self.fast * _unit(entry[1], seq)
        return d if d > _MIN_DELAY else _MIN_DELAY

    def block_stream(self, u: NodeId, v: NodeId):
        if self._is_slow(u, v):
            # The slow class is symmetric (see _is_slow): message and ack
            # directions are both maximally slow.
            def fill_slow(buf, base: int, start: int, n: int) -> None:
                for i in range(base, base + 2 * n):
                    buf[i] = TAU

            return fill_slow
        fast_f = _link_base(self._fast64, u, v)
        fast_r = _link_base(self._fast64, v, u)
        scale = self.fast * _INV_2_32  # exact rewrite, as in BimodalDelay

        def fill(buf, base: int, start: int, n: int) -> None:
            i = base
            for f, r in zip(
                _hash_lanes(fast_f, start, n),
                _hash_lanes(fast_r, -start, n, True),
            ):
                d = scale * (f + 1)
                if d <= _MIN_DELAY:
                    d = _MIN_DELAY
                a = scale * (r + 1)
                if a <= _MIN_DELAY:
                    a = _MIN_DELAY
                buf[i] = d
                buf[i + 1] = a
                i += 2

        return fill

    def __repr__(self) -> str:
        return f"SlowEdgesDelay(seed={self.seed})"


class AlternatingDelay:
    """Delay flips between near-zero and the bound per message on each link.

    Maximizes reordering pressure *between* links while keeping each link
    FIFO (the model delivers per-link messages in injection order anyway,
    matching the acknowledgment discipline of Appendix B).
    """

    __slots__ = ("seed", "_seed64", "_links")

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._seed64 = _model_seed("alt-phase", seed)
        self._links: Dict[Tuple[NodeId, NodeId], bool] = {}

    def __call__(self, u: NodeId, v: NodeId, seq: int, now: float) -> float:
        phase = self._links.get((u, v))
        if phase is None:
            phase = self._links[(u, v)] = (
                _unit(_link_base(self._seed64, u, v), 0) < 0.5
            )
        fast_turn = (seq % 2 == 0) == phase
        return 0.01 if fast_turn else TAU

    def block_stream(self, u: NodeId, v: NodeId):
        phase_f = _unit(_link_base(self._seed64, u, v), 0) < 0.5
        phase_r = _unit(_link_base(self._seed64, v, u), 0) < 0.5
        fwd = (TAU, 0.01) if phase_f else (0.01, TAU)  # [odd parity, even]
        rev = (TAU, 0.01) if phase_r else (0.01, TAU)

        def fill(buf, base: int, start: int, n: int) -> None:
            # (-k) % 2 == k % 2 in sign-magnitude parity terms, so the ack
            # shares the message's parity — same as __call__.
            i = base
            for k in range(start, start + n):
                even = k % 2 == 0
                buf[i] = fwd[even]
                buf[i + 1] = rev[even]
                i += 2

        return fill

    def __repr__(self) -> str:
        return f"AlternatingDelay(seed={self.seed})"


class DirectionalSkewDelay:
    """One direction of every link is fast, the other slow.

    Stresses the convergecast-vs-broadcast asymmetry inside cluster trees:
    e.g. registration waves move quickly toward roots but Go-Aheads crawl
    back down (or vice versa).
    """

    def __init__(self, seed: int, slow_up: bool = True) -> None:
        self.seed = seed
        self.slow_up = slow_up

    def __call__(self, u: NodeId, v: NodeId, seq: int, now: float) -> float:
        toward_higher_id = v > u
        slow = toward_higher_id == self.slow_up
        return TAU if slow else 0.02

    def block_stream(self, u: NodeId, v: NodeId):
        d = TAU if (v > u) == self.slow_up else 0.02
        a = TAU if (u > v) == self.slow_up else 0.02

        def fill(buf, base: int, start: int, n: int) -> None:
            i = base
            for _ in range(n):
                buf[i] = d
                buf[i + 1] = a
                i += 2

        return fill

    def __repr__(self) -> str:
        return f"DirectionalSkewDelay(seed={self.seed}, slow_up={self.slow_up})"


def standard_adversaries(seed: int = 0) -> Tuple[DelayModel, ...]:
    """The delay models every correctness test sweeps over."""
    return (
        ConstantDelay(),
        ConstantDelay(0.25),
        UniformDelay(seed),
        BimodalDelay(seed),
        SlowEdgesDelay(seed),
        AlternatingDelay(seed),
        DirectionalSkewDelay(seed, slow_up=True),
        DirectionalSkewDelay(seed, slow_up=False),
    )
