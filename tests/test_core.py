"""Core types and the deterministic randomness contract."""
import numpy as np
import pytest

from seqobf.core import (
    Alphabet,
    Pattern,
    Permutation,
    RandomSource,
    Trace,
    anonymize,
)


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


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_inverse(self):
        p = Permutation((2, 0, 1))
        inv = p.inverse()
        assert all(inv.apply(p.apply(u)) == u for u in range(3))


class TestAnonymize:
    def test_single_trace_identity(self):
        t = make_trace([0, 1, 1], 2)
        out, perm = anonymize([t], RandomSource(5))
        assert out == [t]
        assert perm.mapping == (0,)

    def test_multiset_preserved(self):
        traces = [make_trace([i % 2, 1], 2) for i in range(3)]
        out, perm = anonymize(traces, RandomSource(17))
        assert sorted(tuple(t.symbols) for t in out) == sorted(
            tuple(t.symbols) for t in traces
        )
        assert all(out[perm.apply(u)] == traces[u] for u in range(3))

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            anonymize([], RandomSource(0))

    def test_permutation_is_uniform(self):
        traces = [make_trace([i], 4) for i in range(4)]
        src = RandomSource(31)
        runs = 10**5
        counts: dict[tuple, int] = {}
        for _ in range(runs):
            _, perm = anonymize(traces, src)
            counts[perm.mapping] = counts.get(perm.mapping, 0) + 1
        assert len(counts) == 24
        for freq in counts.values():
            assert abs(freq / runs - 1 / 24) < 0.005
