"""Tests for the adversarial delay models."""

import re
from math import inf, nan, nextafter

import pytest

from hypothesis import given, settings, strategies as st

from repro.net import (
    TAU,
    AlternatingDelay,
    BimodalDelay,
    ConstantDelay,
    DirectionalSkewDelay,
    SlowEdgesDelay,
    UniformDelay,
    standard_adversaries,
)
from repro.net import topology
from repro.net.async_runtime import BLOCK_SPAN, LinkSkeleton, _fill_checked
from repro.net.delays import (
    _INV_2_32,
    BLOCK_PAIRS,
    InvalidDelayError,
    _hash_lanes,
    _link_base,
    _unit,
    call_block_stream,
)

ALL_MODELS = standard_adversaries(seed=11)


@pytest.mark.parametrize("model", ALL_MODELS, ids=[repr(m) for m in ALL_MODELS])
class TestBoundsAndDeterminism:
    def test_delays_within_bound(self, model):
        for u, v in [(0, 1), (3, 2), (7, 9)]:
            for seq in range(1, 30):
                d = model(u, v, seq, now=float(seq))
                assert 0 < d <= TAU

    def test_deterministic(self, model):
        first = [model(0, 1, seq, 0.0) for seq in range(1, 20)]
        second = [model(0, 1, seq, 0.0) for seq in range(1, 20)]
        assert first == second


class TestConstantDelay:
    def test_value(self):
        assert ConstantDelay(0.5)(0, 1, 1, 0.0) == 0.5

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ConstantDelay(0.0)
        with pytest.raises(ValueError):
            ConstantDelay(1.5)


class TestUniformDelay:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            UniformDelay(seed=0, low=0.8, high=0.2)

    def test_seed_changes_sequence(self):
        a = [UniformDelay(seed=1)(0, 1, s, 0.0) for s in range(1, 30)]
        b = [UniformDelay(seed=2)(0, 1, s, 0.0) for s in range(1, 30)]
        assert a != b

    def test_spreads_over_range(self):
        model = UniformDelay(seed=3)
        values = [model(0, 1, s, 0.0) for s in range(1, 200)]
        assert min(values) < 0.2
        assert max(values) > 0.8


class TestBimodal:
    def test_extreme_fractions(self):
        all_slow = BimodalDelay(seed=0, slow_fraction=1.0)
        assert all(all_slow(0, 1, s, 0.0) == TAU for s in range(1, 10))
        all_fast = BimodalDelay(seed=0, slow_fraction=0.0)
        assert all(all_fast(0, 1, s, 0.0) < 0.1 for s in range(1, 10))

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            BimodalDelay(seed=0, slow_fraction=1.5)


@pytest.mark.parametrize("cls", [BimodalDelay, SlowEdgesDelay])
class TestFastValidation:
    @pytest.mark.parametrize("fast", [0, -0.5, 2.0, nan])
    def test_rejects_fast_outside_range(self, cls, fast):
        with pytest.raises(ValueError, match="fast"):
            cls(seed=0, fast=fast)

    @pytest.mark.parametrize("fast", [TAU, 1e-9])
    def test_accepts_fast_in_range(self, cls, fast):
        model = cls(seed=0, fast=fast)
        assert all(0 < model(0, 1, s, 0.0) <= TAU for s in range(1, 20))


class TestSlowEdges:
    def test_explicit_edge_set(self):
        model = SlowEdgesDelay(seed=0, edges=[(1, 0)])
        assert model(0, 1, 1, 0.0) == TAU
        assert model(1, 0, 1, 0.0) == TAU
        assert model(2, 3, 1, 0.0) < 0.1

    def test_hashed_half_is_stable_per_edge(self):
        model = SlowEdgesDelay(seed=5)
        slow_now = model(4, 9, 1, 0.0) == TAU
        assert (model(9, 4, 7, 3.0) == TAU) == slow_now

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        u=st.integers(min_value=0, max_value=200),
        v=st.integers(min_value=0, max_value=200),
        edges=st.one_of(
            st.none(),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=200),
                    st.integers(min_value=0, max_value=200),
                ).filter(lambda e: e[0] != e[1]),
                max_size=20,
            ),
        ),
    )
    def test_slow_class_is_symmetric(self, seed, u, v, edges):
        """A link's acknowledgment must share its message's speed class:
        ``_is_slow(u, v) == _is_slow(v, u)`` for hashed halves and explicit
        edge sets alike (either orientation in the set marks the edge)."""
        if u == v:
            v = u + 1
        model = SlowEdgesDelay(seed=seed, edges=edges)
        assert model._is_slow(u, v) == model._is_slow(v, u)
        # The delay *class* (slow = TAU, fast < TAU) is symmetric too, for
        # any seq and between a message and its acknowledgment (the reverse
        # link's draw at the negated seq).
        for seq in (1, 2, -1):
            assert (model(u, v, seq, 0.0) == TAU) == (model(v, u, seq, 0.0) == TAU)
        assert (model(u, v, 1, 0.0) == TAU) == (model(v, u, -1, 0.0) == TAU)


class TestDirectionalSkew:
    def test_directions_differ(self):
        model = DirectionalSkewDelay(seed=0, slow_up=True)
        up = model(2, 7, 1, 0.0)
        down = model(7, 2, 1, 0.0)
        assert up == TAU and down < TAU


class TestAlternating:
    def test_alternates_per_link(self):
        model = AlternatingDelay(seed=0)
        values = {model(0, 1, s, 0.0) for s in range(1, 5)}
        assert values == {0.01, TAU}


@settings(max_examples=100, deadline=None)
@given(
    u=st.integers(min_value=0, max_value=50),
    v=st.integers(min_value=0, max_value=50),
    seq=st.integers(min_value=-1000, max_value=1000),
    now=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    seed=st.integers(min_value=0, max_value=100),
)
def test_every_model_respects_the_bound(u, v, seq, now, seed):
    if u == v:
        v = u + 1
    for model in standard_adversaries(seed):
        d = model(u, v, seq, now)
        assert 0 < d <= TAU


class TestStreamConsistency:
    """Block fills must be bit-equal to direct calls.

    The transport draws every delay through ``block_stream`` (or the
    :func:`call_block_stream` adapter over ``__call__``), and engine
    equivalence relies on the fill never drifting from the direct call:
    slot ``2k`` is ``model(u, v, seq)`` and slot ``2k + 1`` is the
    acknowledgment ``model(v, u, -seq)``.  Cross-checked here for every
    model over 10k (u, v, seq) triples and at block boundaries.
    """

    # 50 directed pairs x 100 seqs x 2 slots = 10,000 triples per model.
    PAIRS = [(3 * i % 29, (5 * i + 7) % 31 + 29) for i in range(50)]

    @staticmethod
    def _expected(model, u, v, seq):
        return model(u, v, seq, 0.0), model(v, u, -seq, 0.0)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=[repr(m) for m in ALL_MODELS])
    def test_block_stream_matches_direct_calls(self, model):
        """``fill(buf, base, start, n)`` writes exactly the direct-call
        values at ``seq`` and ``-seq``, bit-for-bit, over 10k triples.

        The transport serves BLOCK_PAIRS consecutive injections from one
        fill and refills exactly at block boundaries, so the sweep walks
        seqs 1..100 in aligned chunks at a nonzero base offset.
        """
        B = BLOCK_PAIRS
        for u, v in self.PAIRS:
            fill = model.block_stream(u, v)
            buf = [0.0] * (2 * 100 + 4)
            for start in range(1, 101, B):
                n = min(B, 101 - start)
                fill(buf, 4, start, n)
                for k in range(n):
                    seq = start + k
                    got = (buf[4 + 2 * k], buf[4 + 2 * k + 1])
                    assert got == self._expected(model, u, v, seq), (u, v, seq)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=[repr(m) for m in ALL_MODELS])
    def test_call_adapter_matches_native_fill(self, model):
        """The ``__call__`` adapter fills the same floats as the model's
        own ``block_stream`` over the same 10k triples."""
        B = BLOCK_PAIRS
        for u, v in self.PAIRS:
            native = model.block_stream(u, v)
            adapted = call_block_stream(model, u, v)
            want = [0.0] * (2 * 100)
            got = [0.0] * (2 * 100)
            for start in range(1, 101, B):
                n = min(B, 101 - start)
                native(want, 2 * (start - 1), start, n)
                adapted(got, 2 * (start - 1), start, n)
            assert got == want, (u, v)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=[repr(m) for m in ALL_MODELS])
    def test_stream_results_respect_the_bound(self, model):
        for u, v in self.PAIRS[:10]:
            buf = [0.0] * (2 * 40)
            model.block_stream(u, v)(buf, 0, 1, 40)
            assert all(0 < x <= TAU for x in buf), (u, v)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=[repr(m) for m in ALL_MODELS])
    @pytest.mark.parametrize("start", [BLOCK_PAIRS - 1, BLOCK_PAIRS,
                                       BLOCK_PAIRS + 1])
    def test_block_stream_at_block_boundary_seqs(self, model, start):
        """Blocks beginning at seqs B-1, B, B+1 (the refill boundaries a
        link crosses when its block cycles) agree with direct calls."""
        fill = model.block_stream(3, 9)
        buf = [0.0] * (2 * BLOCK_PAIRS)
        fill(buf, 0, start, BLOCK_PAIRS)
        for k in range(BLOCK_PAIRS):
            got = (buf[2 * k], buf[2 * k + 1])
            assert got == self._expected(model, 3, 9, start + k), start + k

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=500),
        model_idx=st.integers(min_value=0, max_value=len(ALL_MODELS) - 1),
        u=st.integers(min_value=0, max_value=80),
        v=st.integers(min_value=0, max_value=80),
        start=st.integers(min_value=1, max_value=3 * BLOCK_PAIRS + 2),
        n=st.integers(min_value=1, max_value=2 * BLOCK_PAIRS),
        base=st.integers(min_value=0, max_value=7),
    )
    def test_block_stream_property_arbitrary_windows(
        self, seed, model_idx, u, v, start, n, base
    ):
        """Property: any (model, link, window) fill equals per-seq direct
        calls — arbitrary bases, lengths, and starts, including every
        block-boundary seq."""
        if u == v:
            v = u + 1
        model = standard_adversaries(seed)[model_idx]
        fill = model.block_stream(u, v)
        buf = [None] * (base + 2 * n)
        fill(buf, base, start, n)
        for k in range(n):
            got = (buf[base + 2 * k], buf[base + 2 * k + 1])
            assert got == self._expected(model, u, v, start + k)


class TestHashKernel:
    """The lane-packed kernel behind the integer-hashed fills, bit for bit.

    Seqs sit near 2**31, 2**32 and 10**9 (where the 32-bit products wrap),
    every start residue mod BLOCK_PAIRS is covered, and ``n`` runs from 1 to
    17 lanes, so each window crosses its centre.  Floats are compared by
    ``float.hex`` so a sign or ulp slip cannot hide behind ``==``.
    """

    CENTRES = (2**31, 2**32, 10**9)
    STARTS = [c - 9 + r for c in CENTRES for r in range(BLOCK_PAIRS)]

    MODELS = (
        BimodalDelay(seed=4),
        BimodalDelay(seed=4, slow_fraction=0.0),
        BimodalDelay(seed=4, slow_fraction=1.0),
        # fast * unit falls below the 1e-6 floor for about half the draws.
        BimodalDelay(seed=4, slow_fraction=0.1, fast=2e-6),
        SlowEdgesDelay(seed=4, fast=2e-6),
        SlowEdgesDelay(seed=4, edges=[(2, 5), (9, 1)]),
    )

    @pytest.mark.parametrize("down", [False, True])
    def test_lanes_match_unit(self, down):
        step = -1 if down else 1
        for base in (0, 1, 0x9E3779B9, 0xFFFFFFFF):
            for start in self.STARTS:
                seq = step * start
                for n in range(1, 18):
                    got = _hash_lanes(base, seq, n, down)
                    assert len(got) == n
                    for i, h in enumerate(got):
                        want = _unit(base, seq + step * i).hex()
                        assert ((h + 1) * _INV_2_32).hex() == want, (
                            base, seq, n, i)

    @pytest.mark.parametrize("model", MODELS, ids=[
        "bimodal", "bimodal-none-slow", "bimodal-all-slow",
        "bimodal-clamped", "slow-edges-clamped", "slow-edges-explicit"])
    def test_fill_matches_direct_calls_bit_for_bit(self, model):
        for u, v in [(2, 5), (5, 2), (3, 8), (9, 1)]:
            fill = model.block_stream(u, v)
            for start in self.STARTS:
                for n in range(1, 18):
                    buf = [None] * (3 + 2 * n)
                    fill(buf, 3, start, n)
                    want = []
                    for k in range(start, start + n):
                        want += [model(u, v, k, 0.0).hex(),
                                 model(v, u, -k, 0.0).hex()]
                    assert [x.hex() for x in buf[3:]] == want, (u, v, start, n)

    @pytest.mark.parametrize("offset", [0.0, 0.5, 1.0])
    def test_slow_threshold_at_the_hash(self, offset):
        """``slow_fraction`` placed exactly at (and half an ulp of the hash
        above) a pick hash: the integer threshold agrees with ``<=`` on
        the unit float at the tie itself."""
        seed, u, v, seq = 4, 2, 5, 2**32 + 3
        pick = BimodalDelay(seed=seed)._pick64
        h = _hash_lanes(_link_base(pick, u, v), seq, 1)[0]
        model = BimodalDelay(seed=seed, slow_fraction=(h + offset) * _INV_2_32)
        buf = [None] * 2
        model.block_stream(u, v)(buf, 0, seq, 1)
        assert (buf[0] == TAU) == (offset == 1.0)
        assert buf[0].hex() == model(u, v, seq, 0.0).hex()

    def test_models_reach_every_branch(self):
        """The sweep above covers both speed classes and the clamp."""
        seqs = range(1, 200)
        assert {BimodalDelay(seed=4, slow_fraction=0.0)(0, 1, s, 0.0) == TAU
                for s in seqs} == {False}
        assert {BimodalDelay(seed=4, slow_fraction=1.0)(0, 1, s, 0.0)
                for s in seqs} == {TAU}
        clamped = [SlowEdgesDelay(seed=4, fast=2e-6)(3, 8, s, 0.0)
                   for s in seqs]
        assert 1e-6 in clamped and max(clamped) > 1e-6
        explicit = SlowEdgesDelay(seed=4, edges=[(2, 5), (9, 1)])
        assert explicit(5, 2, 1, 0.0) == TAU and explicit(3, 8, 1, 0.0) < TAU


@pytest.mark.parametrize("bad", [nan, inf, 0.0, nextafter(TAU, 2.0)])
@pytest.mark.parametrize("slot", range(BLOCK_SPAN))
def test_fill_check_names_every_slot(bad, slot):
    """The transport's per-element check catches one bad value in any of a
    block's slots and names its directed link, direction and injection."""
    skeleton = LinkSkeleton(topology.path_graph(3))
    lid, seq, base = 2, 17, BLOCK_SPAN  # link 1->2, a block at seqs 17..24
    assert (skeleton.lu[lid], skeleton.lv[lid]) == (1, 2)

    def fill(buf, at, start, n):
        for i in range(at, at + 2 * n):
            buf[i] = 0.5
        buf[at + slot] = bad

    k = seq + slot // 2
    if slot % 2:
        where = f"on 2->1 (ack of 1->2 injection {k})"
    else:
        where = f"on 1->2 (message, injection {k})"
    buf = [0.0] * (3 * BLOCK_SPAN)
    with pytest.raises(InvalidDelayError,
                       match=re.escape(f"produced {bad!r} ") + ".*"
                       + re.escape(where)):
        _fill_checked(fill, buf, base, seq, lid, skeleton)
