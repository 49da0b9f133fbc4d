"""Core types and the deterministic randomness contract."""
import numpy as np
import pytest

from seqobf.core import Alphabet, Pattern, RandomSource, Trace


def make_trace(symbols, r):
    return Trace(np.asarray(symbols, dtype=np.int64), Alphabet(r))


class TestAlphabetAndTrace:
    def test_alphabet_rejects_size_below_two(self):
        with pytest.raises(ValueError):
            Alphabet(1)

    def test_trace_rejects_out_of_range_symbols(self):
        with pytest.raises(ValueError):
            make_trace([0, 1, 2], 2)
        with pytest.raises(ValueError):
            make_trace([-1, 0], 2)

    def test_trace_rejects_empty(self):
        with pytest.raises(ValueError):
            make_trace([], 2)

    def test_trace_is_immutable(self):
        t = make_trace([0, 1, 0], 2)
        with pytest.raises(ValueError):
            t.symbols[0] = 1

    def test_trace_equality(self):
        assert make_trace([0, 1], 3) == make_trace([0, 1], 3)
        assert make_trace([0, 1], 3) != make_trace([1, 0], 3)
        assert make_trace([0, 1], 3) != make_trace([0, 1], 2)


class TestPattern:
    def test_order_and_gap(self):
        p = Pattern((1, 2, 0), gap=5)
        assert p.order == 3
        assert Pattern((1,), gap=None).gap is None

    def test_rejects_bad_gap(self):
        with pytest.raises(ValueError):
            Pattern((0, 1), gap=0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Pattern((), gap=1)


class TestRandomSource:
    def test_same_identity_same_draws(self):
        a = RandomSource(42, (3, 1)).generator.random(64)
        b = RandomSource(42, (3, 1)).generator.random(64)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        root = RandomSource(42)
        a = root.derive(0).generator.random(64)
        b = root.derive(1).generator.random(64)
        assert not np.array_equal(a, b)

    def test_derive_is_stable_under_added_siblings(self):
        # Drawing from stream 0 must not depend on stream 1 existing.
        first = RandomSource(7).derive(0).generator.random(16)
        root = RandomSource(7)
        root.derive(1).generator.random(1000)
        again = root.derive(0).generator.random(16)
        assert np.array_equal(first, again)
