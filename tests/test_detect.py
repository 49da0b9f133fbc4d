"""Gap-constrained detection, first occurrence, and pattern statistics."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqobf.core import Alphabet, Pattern, RandomSource, Trace
from seqobf.detect import (
    PatternStats, _contiguous_matches, _found_in_list, _pattern_found, first_occurrence,
    has_pattern,
)
from seqobf.superstring import _shortest_array
from oracles import (
    brute_force_has_pattern,
    brute_force_pattern_counts,
    naive_first_occurrence,
)


def make_trace(symbols, r):
    return Trace(np.asarray(symbols, dtype=np.int64), Alphabet(r))


class TestHasPattern:
    def test_adjacent_pairs_in_small_trace(self):
        t = make_trace([0, 0, 1, 1, 0], 2)
        for pair in [(0, 0), (0, 1), (1, 1), (1, 0)]:
            assert has_pattern(t, Pattern(pair, gap=1))

    def test_absent_symbol_is_never_found(self):
        t = make_trace([0] * 30, 2)
        for gap in (1, 5, None):
            assert not has_pattern(t, Pattern((0, 1), gap=gap))

    def test_gap_constraint_binds(self):
        # 0 ... 1 at distance 4
        t = make_trace([0, 2, 2, 2, 1], 3)
        assert not has_pattern(t, Pattern((0, 1), gap=3))
        assert has_pattern(t, Pattern((0, 1), gap=4))
        assert has_pattern(t, Pattern((0, 1), gap=None))

    def test_later_start_can_rescue_the_match(self):
        # The first 0 is too far from the only 1; the second is not.
        t = make_trace([0, 2, 2, 2, 0, 1], 3)
        assert has_pattern(t, Pattern((0, 1), gap=2))

    def test_rejects_alphabet_mismatch(self):
        t = make_trace([0, 1], 2)
        with pytest.raises(ValueError):
            has_pattern(t, Pattern((0, 5), gap=1))

    def test_a_block_of_traces_is_decided_row_by_row(self):
        # m from 1 to 40 and these gaps make m + min(gap, m) often end
        # inside a byte; each row alone is a 1-D call, answered by a 0-d bool.
        gen = np.random.default_rng(405)
        for _ in range(600):
            rows, m = int(gen.integers(1, 10)), int(gen.integers(1, 41))
            gaps = [1, 2, 7, 8, 9, max(m - 1, 1), m, m + 5, None]
            gap = gaps[int(gen.integers(len(gaps)))]
            block = gen.integers(0, 3, size=(rows, m))
            pattern = tuple(int(s) for s in gen.integers(0, 3, size=int(gen.integers(1, 6))))
            found = _pattern_found(block, pattern, gap)
            assert found.shape == (rows,)
            for row, got in zip(block, found):
                want = brute_force_has_pattern(row, pattern, gap)
                one = _pattern_found(row, pattern, gap)
                assert isinstance(one, np.bool_)
                assert got == one == want

    def test_no_match_spans_two_rows(self):
        # Row 0 ends in the pattern's first symbol and row 1 starts with its
        # second: adjacent in memory, but neither row holds the pattern.
        m = 12
        block = np.full((2, m), 2)
        block[0, -1], block[1, 0] = 0, 1
        for gap in (1, 2, 7, 8, m - 1, m, m + 5, None):
            assert not _pattern_found(block, (0, 1), gap).any()

    def test_an_empty_last_axis_holds_nothing(self):
        for gap in (1, 3, None):
            assert _pattern_found(np.zeros((4, 0), dtype=np.int64), (0,), gap).tolist() == [False] * 4
            assert not _pattern_found(np.zeros(0, dtype=np.int64), (0, 0), gap)

    def test_pattern_longer_than_trace_is_absent(self):
        t = make_trace([0, 1], 2)
        for gap in (1, 3, None):
            assert has_pattern(t, Pattern((0, 1, 0), gap=gap)) is False

    def test_agrees_with_brute_force(self):
        gen = np.random.default_rng(404)
        for _ in range(1500):
            m = int(gen.integers(3, 31))
            l = int(gen.integers(1, 4))
            gap = [1, 2, 5, None][int(gen.integers(4))]
            trace = gen.integers(0, 3, size=m)
            pattern = tuple(int(s) for s in gen.integers(0, 3, size=l))
            got = has_pattern(make_trace(trace, 3), Pattern(pattern, gap=gap))
            assert got == brute_force_has_pattern(trace, pattern, gap)

    @given(
        st.lists(st.integers(0, 2), min_size=2, max_size=25),
        st.lists(st.integers(0, 2), min_size=1, max_size=3),
        st.integers(1, 6),
    )
    @settings(max_examples=200)
    def test_monotone_in_gap(self, trace, pattern, gap):
        if len(pattern) > len(trace):
            return
        t = make_trace(trace, 3)
        looser = [gap + 1, gap + 3, None]
        if has_pattern(t, Pattern(tuple(pattern), gap=gap)):
            for g in looser:
                assert has_pattern(t, Pattern(tuple(pattern), gap=g))

    @given(
        st.lists(st.integers(0, 2), min_size=2, max_size=20),
        st.lists(st.integers(0, 2), min_size=1, max_size=3),
        st.lists(st.integers(0, 2), min_size=1, max_size=8),
    )
    @settings(max_examples=200)
    def test_present_in_prefix_stays_present(self, trace, pattern, suffix):
        if len(pattern) > len(trace):
            return
        p = Pattern(tuple(pattern), gap=2)
        if has_pattern(make_trace(trace, 3), p):
            assert has_pattern(make_trace(trace + suffix, 3), p)

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=30), st.integers(0, 3))
    @settings(max_examples=200)
    def test_single_symbol_pattern_is_membership(self, trace, symbol):
        t = make_trace(trace, 4)
        assert has_pattern(t, Pattern((symbol,), gap=1)) == (symbol in trace)


def test_detection_memory_is_linear_in_the_block():
    # Every level of an all-zero pattern stays reached on an all-zero block.
    # With an unbounded gap each row takes 2m positions: one byte each in the
    # bool match buffer and one bit each in the packed matches and in the
    # few ints of a level, about 3.3 bytes per symbol in all.  The bound
    # leaves no room for an int64 array over the block.
    rows, m, order = 32, 20_000, 16
    block = np.zeros((rows, m), dtype=np.int64)
    tracemalloc.start()
    try:
        found = _pattern_found(block, (0,) * order, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found.all()
    assert peak < 6 * rows * m


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("gap", [1, 3, 10])
def test_a_plain_list_scan_agrees_with_the_kernel(order, gap):
    # Windows as manp's settle test reads them, (l - 1) * gap + 1 symbols
    # that end with the pattern's last symbol, and shorter and longer ones,
    # over alphabets small enough that the pattern often occurs.
    rng = np.random.default_rng(100 * order + gap)
    found = 0
    for _ in range(400):
        r = int(rng.integers(2, 5))
        q = tuple(rng.integers(0, r, size=order).tolist())
        window = rng.integers(0, r, size=int(rng.integers(1, 3 * order * gap + 2)))
        if rng.random() < 0.5:
            window = window[-(order - 1) * gap - 1:]
            window[-1] = q[-1]
        want = bool(_pattern_found(window, q, gap))
        assert _found_in_list(window.tolist(), q, gap) == want
        found += want
    assert 0 < found < 400


class TestFirstOccurrence:
    def test_trace_equal_to_pattern(self):
        t = make_trace([2, 0, 1], 3)
        assert first_occurrence(t, Pattern((2, 0, 1), gap=1)) == 1

    def test_no_occurrence(self):
        t = make_trace([0, 0, 0], 2)
        assert first_occurrence(t, Pattern((1,), gap=1)) is None

    def test_rejects_nonunit_gap(self):
        t = make_trace([0, 1], 2)
        with pytest.raises(ValueError):
            first_occurrence(t, Pattern((0, 1), gap=2))

    def test_agrees_with_naive_scan(self):
        gen = np.random.default_rng(777)
        for _ in range(10**4):
            m = int(gen.integers(2, 61))
            l = int(gen.integers(1, 4))
            trace = gen.integers(0, 3, size=m)
            if l > m:
                continue
            pattern = tuple(int(s) for s in gen.integers(0, 3, size=l))
            got = first_occurrence(make_trace(trace, 3), Pattern(pattern, gap=1))
            assert got == naive_first_occurrence(trace, pattern)

    def test_a_block_scan_matches_each_row_against_its_own_pattern(self):
        gen = np.random.default_rng(406)
        for _ in range(300):
            m = int(gen.integers(1, 31))
            l = int(gen.integers(1, 4))
            block = gen.integers(0, 3, size=(6, m))
            patterns = gen.integers(0, 3, size=(6, l))
            hit = _contiguous_matches(block, patterns)
            assert hit.shape == (6, max(m - l + 1, 0))
            for row, pattern, got in zip(block, patterns, hit):
                want = naive_first_occurrence(row, pattern)
                assert (int(np.argmax(got)) + 1 if got.any() else None) == want

    def test_mean_index_in_rotated_covering_streams(self):
        # A uniformly rotated covering stream puts any fixed pattern at a
        # uniform start index, so the mean is (r**l + 1) / 2.
        r, l = 10, 2
        pattern = Pattern((3, 7), gap=1)
        gen = RandomSource(55).generator
        draws = 20000
        idx = np.empty(draws)
        for i in range(draws):
            stream = _shortest_array(r, l, gen)
            got = first_occurrence(make_trace(stream, r), pattern)
            assert got is not None
            idx[i] = got
        expected = (r**l + 1) / 2
        se = idx.std(ddof=1) / np.sqrt(draws)
        assert abs(idx.mean() - expected) < 3 * se + 1e-9


class TestPatternStats:
    def test_first_symbol_histogram(self):
        stats = PatternStats(order=1, gap=1)
        stats.update(3)
        assert stats.count((3,)) == 1
        assert stats.prefix_length == 1

    def test_pair_counts_on_short_prefix(self):
        stats = PatternStats.from_symbols([0, 1, 0], order=2, gap=2)
        assert stats.count((0, 1)) == 1
        assert stats.count((1, 0)) == 1
        assert stats.count((0, 0)) == 1
        assert stats.distinct_patterns == 3

    def test_incremental_equals_from_scratch(self):
        gen = np.random.default_rng(12)
        for _ in range(1000):
            m = int(gen.integers(1, 13))
            order = int(gen.integers(1, 3))
            gap = [1, 2, 3, 5, None][int(gen.integers(5))]
            prefix = [int(s) for s in gen.integers(0, 3, size=m)]
            stats = PatternStats.from_symbols(prefix, order=order, gap=gap)
            assert stats.counts == brute_force_pattern_counts(prefix, order, gap)

    def test_triple_counts_match_enumeration(self):
        gen = np.random.default_rng(13)
        for _ in range(200):
            prefix = [int(s) for s in gen.integers(0, 2, size=10)]
            gap = [1, 2, None][int(gen.integers(3))]
            stats = PatternStats.from_symbols(prefix, order=3, gap=gap)
            assert stats.counts == brute_force_pattern_counts(prefix, 3, gap)

    def test_recent_symbols_window(self):
        stats = PatternStats.from_symbols([4, 3, 2, 1, 0], order=2, gap=3)
        assert stats.recent_symbols() == (2, 1, 0)

    def test_unbounded_gap_keeps_whole_prefix(self):
        stats = PatternStats.from_symbols([0, 1, 2, 3], order=2, gap=None)
        assert stats.recent_symbols() == (0, 1, 2, 3)
        assert stats.count((0, 3)) == 1
