"""Tests for pulse arithmetic — Definitions 4.3/4.4 and Lemmas 4.7/4.13/4.14/4.16."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pulse import (
    COVER_LEVEL_OFFSET,
    INFINITE_LEVEL,
    cover_level,
    gating_pulses_at,
    level,
    prev,
    prev_prev,
    registration_pulses_at,
    source_pulses,
)

PULSES = st.integers(min_value=1, max_value=1 << 16)


class TestLevel:
    def test_zero_has_infinite_level(self):
        assert level(0) == INFINITE_LEVEL

    @pytest.mark.parametrize(
        "p,expected", [(1, 0), (2, 1), (3, 0), (4, 2), (6, 1), (8, 3), (12, 2), (96, 5)]
    )
    def test_known_values(self, p, expected):
        assert level(p) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            level(-1)

    @settings(max_examples=200, deadline=None)
    @given(p=PULSES)
    def test_definition(self, p):
        lev = int(level(p))
        assert p % (1 << lev) == 0
        assert p % (1 << (lev + 1)) != 0


class TestPrev:
    @pytest.mark.parametrize(
        "p,expected",
        [(0, 0), (1, 0), (2, 0), (3, 2), (4, 0), (5, 2), (6, 4), (7, 6), (8, 0), (9, 6), (12, 8)],
    )
    def test_known_values(self, p, expected):
        assert prev(p) == expected

    @settings(max_examples=300, deadline=None)
    @given(p=PULSES)
    def test_definition_4_4(self, p):
        """prev(p) is the largest pulse of level l(p)+1 at most p - 2^l(p)."""
        lev = int(level(p))
        q = prev(p)
        if q > 0:
            assert level(q) == lev + 1
            assert q <= p - (1 << lev)
        # Maximality: no pulse of level l(p)+1 in (q, p - 2^l(p)].
        for candidate in range(max(q + 1, 1), p - (1 << lev) + 1):
            assert level(candidate) != lev + 1

    @settings(max_examples=300, deadline=None)
    @given(p=PULSES)
    def test_lemma_4_7_first_bound(self, p):
        assert p - prev(p) <= 3 * (1 << int(level(p)))

    @settings(max_examples=300, deadline=None)
    @given(p=PULSES)
    def test_lemma_4_7_second_bound(self, p):
        assert p - prev_prev(p) <= 9 * (1 << int(level(p)))

    @settings(max_examples=200, deadline=None)
    @given(p=PULSES)
    def test_prev_decreases(self, p):
        assert prev(p) < p

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            prev(-3)


class TestLemma413:
    """sum over p <= 2^t of 2^l(p) is O(t * 2^t)."""

    @pytest.mark.parametrize("t", [1, 3, 5, 8, 10])
    def test_sum_bound(self, t):
        total = sum(1 << int(level(p)) for p in range(1, (1 << t) + 1))
        assert total <= (t + 1) * (1 << t)


class TestLemma414:
    """For any p1, only O(t) pulses p <= 2^t have prev_prev(p) <= p1 <= p."""

    @pytest.mark.parametrize("t", [4, 6, 8])
    def test_window_count(self, t):
        max_pulse = 1 << t
        for p1 in range(0, max_pulse + 1, max(1, max_pulse // 16)):
            count = sum(
                1 for p in range(1, max_pulse + 1) if prev_prev(p) <= p1 <= p
            )
            assert count <= 10 * (t + 1)


class TestRegistrationPulses:
    def test_source_pulses_lemma_4_16(self):
        for t in (3, 5, 8, 10):
            pulses = source_pulses(1 << t)
            assert len(pulses) <= 10 * (t + 1)
            assert all(prev_prev(p) == 0 for p in pulses)

    def test_registration_pulses_match_definition(self):
        max_pulse = 64
        for w in range(0, 33):
            pulses = registration_pulses_at(w, max_pulse)
            assert pulses == [
                p for p in range(1, max_pulse + 1) if prev_prev(p) == w
            ]

    def test_gating_pulses_match_definition(self):
        max_pulse = 64
        for q in range(0, 33):
            pulses = gating_pulses_at(q, max_pulse)
            assert pulses == [p for p in range(1, max_pulse + 1) if prev(p) == q]

    @settings(max_examples=100, deadline=None)
    @given(p=st.integers(min_value=1, max_value=512))
    def test_gating_and_registration_consistent(self, p):
        """p is gated at pulse prev(p) and registered at pulse prev_prev(p)."""
        q = prev(p)
        w = prev_prev(p)
        assert p in gating_pulses_at(q, p)
        assert p in registration_pulses_at(w, p)


class TestCoverLevel:
    def test_offset(self):
        assert cover_level(1) == COVER_LEVEL_OFFSET
        assert cover_level(4) == 2 + COVER_LEVEL_OFFSET

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            cover_level(0)
