"""Covering-superstring construction and verification."""
import tracemalloc
from collections import OrderedDict
from itertools import product

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import stats as sstats

from seqobf import superstring
from seqobf.core import RandomSource
from seqobf.sim import run_first_occurrence_race
from seqobf.superstring import (
    Superstring,
    _canonical_cycle,
    _concat_array,
    _cycle_starts,
    _shortest_array,
    _shortest_first_index,
    concat_superstring,
    de_bruijn,
    shortest_superstring,
    verify_superstring,
)
from oracles import window_set


def cyclic_windows(seq, order):
    wrapped = np.concatenate([seq, seq[: order - 1]]) if order > 1 else seq
    return [tuple(wrapped[i : i + order]) for i in range(len(seq))]


class TestDeBruijn:
    def test_order_one_is_a_permutation_of_the_alphabet(self):
        seq = de_bruijn(2, 1)
        assert sorted(seq) == [0, 1]

    def test_three_two_covers_all_pairs_cyclically(self):
        seq = de_bruijn(3, 2)
        assert len(seq) == 9
        assert set(cyclic_windows(seq, 2)) == set(product(range(3), repeat=2))

    def test_two_four_has_all_distinct_windows(self):
        seq = de_bruijn(2, 4)
        assert len(seq) == 16
        windows = cyclic_windows(seq, 4)
        assert len(set(windows)) == 16

    @pytest.mark.parametrize("r,l", [(2, 1), (2, 3), (3, 3), (4, 2), (5, 2)])
    def test_every_window_occurs_exactly_once(self, r, l):
        seq = de_bruijn(r, l)
        windows = cyclic_windows(seq, l)
        assert len(windows) == r**l
        assert len(set(windows)) == r**l

    def test_size_cap(self):
        with pytest.raises(ValueError):
            de_bruijn(2, 30)
        with pytest.raises(ValueError):
            de_bruijn(2, 25)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            de_bruijn(1, 2)
        with pytest.raises(ValueError):
            de_bruijn(3, 0)


class TestShortestSuperstring:
    def test_three_two_has_length_ten(self):
        ss = shortest_superstring(3, 2, RandomSource(0))
        assert len(ss) == 10
        assert verify_superstring(ss.symbols, 3, 2)

    def test_two_two_contains_all_pairs(self):
        ss = shortest_superstring(2, 2, RandomSource(1))
        assert len(ss) == 5
        assert window_set(ss.symbols, 2) == set(product(range(2), repeat=2))

    def test_two_three_covers_all_triples(self):
        ss = shortest_superstring(2, 3, RandomSource(2))
        assert len(ss) == 10
        assert window_set(ss.symbols, 3) == set(product(range(2), repeat=3))

    @pytest.mark.parametrize("r", [2, 3])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_always_verifies_across_seeds(self, r, l):
        for seed in range(25):
            ss = shortest_superstring(r, l, RandomSource(seed))
            assert len(ss) == r**l + l - 1
            assert verify_superstring(ss.symbols, r, l)

    def test_start_window_is_uniform_over_rotations(self):
        r, l = 3, 2
        src = RandomSource(99)
        counts = np.zeros(r**l, dtype=np.int64)
        draws = 20000
        for _ in range(draws):
            ss = shortest_superstring(r, l, src)
            counts[ss.symbols[0] * r + ss.symbols[1]] += 1
        assert counts.sum() == draws
        assert sstats.chisquare(counts).pvalue > 0.001


class TestConcatSuperstring:
    def test_two_two_blocks(self):
        ss = concat_superstring(2, 2, RandomSource(3))
        assert len(ss) == 8
        blocks = [tuple(ss.symbols[i : i + 2]) for i in range(0, 8, 2)]
        assert sorted(blocks) == sorted(product(range(2), repeat=2))

    def test_three_two_length(self):
        ss = concat_superstring(3, 2, RandomSource(4))
        assert len(ss) == 18
        assert verify_superstring(ss.symbols, 3, 2)

    def test_whole_draw_over_the_cap_is_refused(self):
        # 2^20 passes the cap on r^l, but 20 * 2^20 symbols do not.
        with pytest.raises(ValueError, match=r"20\*2\^20 exceeds the size cap"):
            concat_superstring(2, 20, RandomSource(5))
        assert len(concat_superstring(2, 16, RandomSource(5))) == 16 * 2**16

    def test_block_slot_assignment_is_uniform(self):
        r, l = 2, 3
        n_blocks = r**l
        src = RandomSource(123)
        draws = 10**5
        slot_of_zero_block = np.zeros(n_blocks, dtype=np.int64)
        for _ in range(draws):
            ss = concat_superstring(r, l, src)
            for slot in range(n_blocks):
                block = ss.symbols[slot * l : (slot + 1) * l]
                if not block.any():
                    slot_of_zero_block[slot] += 1
                    break
        freqs = slot_of_zero_block / draws
        assert np.all(np.abs(freqs - 1 / n_blocks) < 0.01)


class TestPartialDraws:
    """A draw of count symbols is the head of the whole draw, as the whole
    draw was first built, and leaves the stream where the whole draw does."""

    CASES = [(2, 1), (3, 2), (4, 2), (2, 3), (5, 3)]

    @pytest.mark.parametrize("r,l", CASES)
    def test_shortest_gathers_the_rotated_cycle(self, r, l):
        cycle = de_bruijn(r, l)
        length = r**l + l - 1
        for seed, count in enumerate([None, 0, 1, l, length - 1, length, length + 4]):
            gen = np.random.default_rng(seed)
            got = _shortest_array(r, l, gen, count)
            replay = np.random.default_rng(seed)
            rotated = np.roll(cycle, -int(replay.integers(cycle.size)))
            whole = np.concatenate([rotated, rotated[: l - 1]])
            assert np.array_equal(got, whole[:count])
            assert gen.integers(2**62) == replay.integers(2**62)

    @pytest.mark.parametrize("r,l", CASES)
    def test_concatenation_gathers_only_the_blocks_used(self, r, l):
        blocks = np.array(list(product(range(r), repeat=l)))
        length = l * r**l
        for seed, count in enumerate([None, 0, 1, l - 1, l + 1, length, length + 4]):
            gen = np.random.default_rng(seed)
            got = _concat_array(r, l, gen, count)
            replay = np.random.default_rng(seed)
            whole = blocks[replay.permutation(r**l)].ravel()
            assert np.array_equal(got, whole[:count])
            assert gen.integers(2**62) == replay.integers(2**62)


class _FixedOffset:
    """Stands in for a Generator: integers(n) returns the offset set last."""

    def __init__(self, offset=0):
        self.offset = offset

    def integers(self, n):
        assert 0 <= self.offset < n
        return self.offset


def _pairs(max_size):
    return [(r, l) for l in range(1, 11) for r in range(2, max_size + 1)
            if r**l <= max_size]


class TestShortestFirstIndex:
    """The closed-form first index equals a scan of the same shortest draw."""

    @pytest.mark.parametrize("r,l", _pairs(100))
    def test_every_pattern_at_every_offset(self, r, l):
        patterns = np.array(list(product(range(r), repeat=l)))
        powers = r ** np.arange(l - 1, -1, -1)
        gen = _FixedOffset()
        for offset in range(r**l):
            gen.offset = offset
            codes = sliding_window_view(_shortest_array(r, l, gen), l) @ powers
            _, first = np.unique(codes, return_index=True)
            got = _shortest_first_index(r, l, np.full(len(patterns), offset), patterns)
            assert np.array_equal(got, first + 1)

    def test_every_offset_and_every_pattern_up_to_a_thousand(self):
        # Each offset is paired with one pattern, each pattern with one
        # offset, at every (r, l) with l > 1 and r^l <= 1000.  Order 1,
        # whose cycle is 0..r-1, is sampled above r = 100: its 900 sizes
        # would take most of the time.  patterns[c] is the string of code c.
        orders_one = [(r, 1) for r in (101, 256, 500, 999, 1000)]
        for r, l in [(r, l) for r, l in _pairs(1000) if l > 1] + orders_one:
            n = r**l
            patterns = np.array(list(product(range(r), repeat=l)))
            targets = np.random.default_rng(n + l).permutation(n)
            draws = np.empty((n, n + l - 1), dtype=np.int64)
            for offset in range(n):
                draws[offset] = _shortest_array(r, l, _FixedOffset(offset))
            got = _shortest_first_index(r, l, np.arange(n), patterns[targets])
            windows = sliding_window_view(draws, l, axis=1)
            hit = (windows == patterns[targets][:, None]).all(2)
            assert hit.any(axis=1).all()
            assert np.array_equal(got, hit.argmax(axis=1) + 1), (r, l)


class TestTableCache:
    def test_the_least_recently_used_table_goes_first(self, monkeypatch):
        monkeypatch.setattr(superstring, "_tables", OrderedDict())
        first, second = _canonical_cycle(3, 2), _canonical_cycle(2, 3)
        monkeypatch.setattr(superstring, "_TABLE_CACHE_BYTES", first.nbytes + second.nbytes)
        assert _canonical_cycle(3, 2) is first
        _canonical_cycle(4, 1)
        assert _canonical_cycle(3, 2) is first
        rebuilt = _canonical_cycle(2, 3)
        assert rebuilt is not second
        assert np.array_equal(rebuilt, second)

    def test_alternating_races_reuse_their_tables(self, monkeypatch):
        monkeypatch.setattr(superstring, "_tables", OrderedDict())
        configs = [(10, 2), (20, 2), (10, 3)]
        tables = {c: _cycle_starts(*c) for c in configs}
        for _ in range(2):
            for r, l in configs:
                run_first_occurrence_race(r, l, 2)
                assert _cycle_starts(r, l) is tables[r, l]


def test_concatenation_keeps_no_block_table():
    # The permutation of 2^20 codes takes 8 MB; a 2^20 x 20 block table
    # would take 168 MB.
    gen = np.random.default_rng(5)
    tracemalloc.start()
    try:
        out = _concat_array(2, 20, gen, count=100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.size == 100
    assert peak < 3 * 8 * 2**20


class TestVerify:
    def test_known_positive(self):
        assert verify_superstring([0, 0, 1, 1, 0], 2, 2)

    def test_known_negative_missing_pair(self):
        assert not verify_superstring([0, 0, 1, 1], 2, 2)

    def test_too_short_sequences(self):
        assert not verify_superstring([0], 2, 2)
        assert not verify_superstring([], 2, 1)

    def test_out_of_range_symbols_do_not_count(self):
        assert not verify_superstring([0, 0, 5, 1, 1, 0], 2, 2)
        assert verify_superstring([5, 0, 0, 1, 1, 0, 5], 2, 2)

    def test_agrees_with_window_set_oracle_on_random_sequences(self):
        gen = np.random.default_rng(8)
        for _ in range(300):
            r = int(gen.integers(2, 4))
            l = int(gen.integers(1, 4))
            seq = gen.integers(0, r, size=int(gen.integers(1, 30)))
            expected = window_set(seq, l) >= set(product(range(r), repeat=l))
            assert verify_superstring(seq, r, l) == expected


class TestMinimality:
    def test_no_shorter_two_two_superstring_exists(self):
        for cand in product(range(2), repeat=4):
            assert not verify_superstring(cand, 2, 2)

    def test_no_shorter_three_two_superstring_exists(self):
        for cand in product(range(3), repeat=9):
            assert not verify_superstring(cand, 3, 2)

    @pytest.mark.parametrize("r,l", [(3, 3), (4, 2)])
    def test_randomized_search_finds_no_shorter_superstring(self, r, l):
        gen = np.random.default_rng(2025)
        shorter = r**l + l - 2
        for _ in range(20000):
            cand = gen.integers(0, r, size=shorter)
            assert not verify_superstring(cand, r, l)

    def test_superstring_type_enforces_length(self):
        with pytest.raises(ValueError):
            Superstring(np.zeros(4, dtype=np.int64), 2, 2, "shortest")
        with pytest.raises(ValueError):
            Superstring(np.zeros(5, dtype=np.int64), 2, 2, "concatenation")
        with pytest.raises(ValueError):
            Superstring(np.zeros(5, dtype=np.int64), 2, 2, "other")
