"""Core types, the shared parameter rules and the deterministic randomness
contract."""
import re

import numpy as np
import pytest

from seqobf import core
from seqobf.bounds import BoundParams, ScheduleParams, lov_bound
from seqobf.core import (
    Alphabet, Pattern, RandomSource, Trace, _below, _derive_keys, _HalfReader,
    _keyed_generators, _raw_values, _row_halves,
)
from seqobf.detect import PatternStats
from seqobf.engines import plov_distribution
from seqobf.sim import ExperimentSpec


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

    def test_trace_rejects_a_2d_array(self):
        with pytest.raises(ValueError, match="1-d symbol sequence"):
            make_trace([[0, 1], [1, 0]], 2)

    def test_trace_length(self):
        assert len(make_trace([0, 1, 0], 2)) == 3

    def test_trace_equality(self):
        assert make_trace([0, 1], 3) == make_trace([0, 1], 3)
        assert make_trace([0, 1], 3) != make_trace([1, 0], 3)
        assert make_trace([0, 1], 3) != make_trace([0, 1], 2)
        assert (make_trace([0, 1], 3) == object()) is False


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

    def test_rejects_a_negative_symbol(self):
        with pytest.raises(ValueError, match="non-negative"):
            Pattern((0, -1), gap=1)


def schedule_params(**overrides):
    return ScheduleParams(**{**dict(n_users=100, order=2, beta=0.5, theta=0.1,
                                    trace_length=100), **overrides})


def fraction_spec(**overrides):
    return ExperimentSpec(**{**dict(scenario="fraction", alphabet_size=8, order=2, gap=5,
                                    trace_length=50, p_obf=0.2), **overrides})


class TestParameterRules:
    """Each entry point refuses a value outside its domain with the shared
    rule's message."""

    @pytest.mark.parametrize("call,message", [
        (lambda: Alphabet(None), "alphabet size must be >= 2, got None"),
        (lambda: Pattern((0, 1), gap=0), "gap must be >= 1, got 0"),
        (lambda: BoundParams(0, 5, 2, 3, 0.1), "trace_length must be >= 1, got 0"),
        (lambda: BoundParams(100, 5, 0, 3, 0.1), "order must be >= 1, got 0"),
        (lambda: BoundParams(100, 5, 2, 0, 0.1), "the bounds need a finite gap h >= 1, got 0"),
        (lambda: BoundParams(100, 5, 2, None, 0.1),
         "the bounds need a finite gap h >= 1, got None"),
        (lambda: lov_bound(0, 5, 0.1), "trace_length must be >= 1, got 0"),
        (lambda: schedule_params(n_users=0), "n_users must be >= 1, got 0"),
        (lambda: schedule_params(order=1), "the schedule needs order >= 2, got 1"),
        (lambda: schedule_params(trace_length=0), "trace_length must be >= 1, got 0"),
        (lambda: PatternStats(0, 1), "order must be >= 1, got 0"),
        (lambda: PatternStats(2, 0), "gap must be >= 1, got 0"),
        (lambda: fraction_spec(iterations=0), "iterations must be >= 1, got 0"),
        (lambda: fraction_spec(n_users=1), "the fraction scenario needs n_users >= 2, got 1"),
        (lambda: plov_distribution(np.ones(3), 0.0), "gamma must be > 0, got 0.0"),
    ], ids=["alphabet_none", "pattern_gap", "bound_trace_length", "bound_order", "bound_gap",
            "bound_gap_none", "lov_bound_trace_length", "schedule_users", "schedule_order",
            "schedule_trace_length", "stats_order", "stats_gap",
            "spec_iterations", "fraction_users", "plov_gamma"])
    def test_refuses_with_the_rule_message(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


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

    def test_repr_names_seed_and_path(self):
        assert repr(RandomSource(3, (1, 2))) == "RandomSource(master_seed=3, path=(1, 2))"

    def test_derive_is_stable_under_added_siblings(self):
        # Drawing from stream 0 must not depend on stream 1 existing.
        first = RandomSource(7).derive(0).generator.random(16)
        root = RandomSource(7)
        root.derive(1).generator.random(1000)
        again = root.derive(0).generator.random(16)
        assert np.array_equal(first, again)

    @pytest.mark.parametrize("make", [lambda: RandomSource(0, (-1,)),
                                      lambda: RandomSource(0).derive(-1)],
                             ids=["path", "derive"])
    def test_refuses_a_negative_path_index(self, make):
        with pytest.raises(ValueError, match=re.escape("non-negative, got path (-1,)")):
            make()


class TestDeriveKeys:
    """The bulk derivation against numpy's own SeedSequence as the oracle."""

    # 2**128 - 1 fills the 4-word pool; 2**128 and 2**160 + 3 have seed
    # words past it.
    SEEDS = (0, 2**32 - 1, 2**32 + 5, 2**64 - 1, 2**128 - 1, 2**128, 2**160 + 3)

    @staticmethod
    def seed_sequence_key(master_seed, path):
        seq = np.random.SeedSequence(master_seed, spawn_key=tuple(int(i) for i in path))
        return seq.generate_state(2, np.uint64)

    @pytest.mark.parametrize("master_seed", SEEDS)
    @pytest.mark.parametrize("depth", range(6))
    def test_matches_seed_sequence(self, master_seed, depth):
        # Depths past 4 run beyond SeedSequence's 4-word pool.
        gen = np.random.default_rng(depth)
        paths = gen.integers(0, 2**32, size=(12, depth))
        paths[0] = 0
        paths[1] = 2**32 - 1
        keys = _derive_keys(master_seed, paths)
        assert keys.shape == (12, 2) and keys.dtype == np.uint64
        for path, key in zip(paths, keys):
            assert np.array_equal(key, self.seed_sequence_key(master_seed, path))

    def test_empty_path(self):
        for master_seed in self.SEEDS:
            key = _derive_keys(master_seed, np.empty((1, 0), dtype=np.int64))[0]
            assert np.array_equal(key, self.seed_sequence_key(master_seed, ()))

    def test_refuses_indices_outside_one_word(self):
        # SeedSequence reads an index >= 2**32 as two words; bulk derivation
        # refuses it rather than guess.
        with pytest.raises(ValueError, match="2\\*\\*32"):
            _derive_keys(3, [[0, 2**32]])
        with pytest.raises(ValueError):
            _derive_keys(3, [[-1]])
        with pytest.raises(ValueError):
            _derive_keys(-1, [[0]])

    def test_keyed_generator_draws_as_random_source(self, monkeypatch):
        monkeypatch.setattr(core._pool, "generators", [])
        path = (4, 17, 2)
        keyed = _keyed_generators(_derive_keys(2**40 + 7, [path]))[0]
        plain = RandomSource(2**40 + 7, path).generator
        assert np.array_equal(keyed.random(1000), plain.random(1000))
        assert np.array_equal(keyed.integers(0, 20, size=1000), plain.integers(0, 20, size=1000))


def draw_everything(gen):
    return (gen.integers(0, 5, size=7).tolist(), gen.random(3).tolist(),
            gen.permutation(9).tolist(), gen.integers(0, 2**40, size=2).tolist())


class TestKeyedGenerators:
    def test_a_re_keyed_generator_draws_as_a_fresh_one(self, monkeypatch):
        monkeypatch.setattr(core._pool, "generators", [])
        keys = _derive_keys(2**40 + 7, np.arange(6)[:, None])
        pool = _keyed_generators(keys[:3])
        for gen in pool:
            # An odd count of small-bound integers leaves half a 64-bit word
            # buffered, which the re-key must drop.
            gen.integers(0, 5, size=3)
            gen.random()
            gen.permutation(11)
            assert gen.bit_generator.state["has_uint32"] == 1
        for i, gen in enumerate(_keyed_generators(keys[3:]), start=3):
            assert draw_everything(gen) == draw_everything(RandomSource(2**40 + 7, (i,)).generator)

    def test_the_pool_grows_only_past_its_largest_block(self, monkeypatch):
        monkeypatch.setattr(core._pool, "generators", [])
        pool = core._pool.generators
        keys = _derive_keys(3, np.arange(40)[:, None])
        first = _keyed_generators(keys[:5])
        assert len(pool) == 5
        again = _keyed_generators(keys[5:8])
        assert len(pool) == 5 and all(a is b for a, b in zip(again, first))
        grown = _keyed_generators(keys[8:20])
        assert len(pool) == 12 and all(a is b for a, b in zip(grown, first))
        for i, gen in enumerate(grown, start=8):
            assert draw_everything(gen) == draw_everything(RandomSource(3, (i,)).generator)


def fresh_generators(seed, rows):
    return [RandomSource(seed, (i,)).generator for i in range(rows)]


# Bounds at which 2**32 % b is 0, tiny, or a quarter to a half of all
# halves (2**31 + 1 and 3 * 2**30).
RAW_BOUNDS = [2, 3, 10, 20, 1000, 2**16 + 1, 2**24, 2**24 - 3, 2**31 + 1, 3 * 2**30, 2**32 - 1]


class TestRawRule:
    """Raw draws equal Generator.integers on the numpy that is installed:
    the same values, and the same place in the stream."""

    @pytest.mark.parametrize("bound", RAW_BOUNDS)
    def test_a_draw_equals_integers(self, bound):
        sizes = np.random.default_rng(bound)
        for seed in range(6):
            rows, k = int(sizes.integers(1, 40)), int(sizes.integers(1, 300))
            out = np.empty((rows, k), dtype=np.int64)
            left = _raw_values(fresh_generators(seed, rows), np.full(rows, -1),
                                   [(k, bound)], out)
            for i, gen in enumerate(fresh_generators(seed, rows)):
                np.testing.assert_array_equal(out[i], gen.integers(0, bound, size=k))
                # The half left unread is the next one Generator would read.
                if left[i] >= 0:
                    assert left[i] == gen.integers(0, 2**32, dtype=np.uint64)

    @pytest.mark.parametrize("bound", RAW_BOUNDS)
    def test_rows_that_start_with_a_spare_half(self, bound):
        # A first draw at 3 * 2**30, where a quarter of all halves are
        # rejected, leaves rows with and without a spare half in one slice;
        # a second draw of even length continues each row's stream.
        sizes = np.random.default_rng(bound + 1)
        for seed in range(6):
            rows, j, k = (int(sizes.integers(*span)) for span in ((2, 40), (1, 6), (1, 150)))
            gens = fresh_generators(seed, rows)
            head = np.empty((rows, j), dtype=np.int64)
            spare = _raw_values(gens, np.full(rows, -1), [(j, 3 * 2**30)], head)
            out = np.empty((rows, 2 * k), dtype=np.int64)
            _raw_values(gens, spare, [(2 * k, bound)], out)
            for i, row in enumerate(out):
                replay = RandomSource(seed, (i,)).generator
                np.testing.assert_array_equal(head[i], replay.integers(0, 3 * 2**30, size=j))
                np.testing.assert_array_equal(row, replay.integers(0, bound, size=2 * k))

    def test_a_spare_half_needs_an_even_draw(self):
        # Every row takes ceil(k / 2) words, one too many for a row that
        # holds a spare half when k is odd.
        with pytest.raises(ValueError, match="even count"):
            _raw_values(fresh_generators(0, 2), np.array([-1, 5]), [(3, 10)],
                            np.empty((2, 3), dtype=np.int64))

    def test_a_zero_column_draw_reads_no_words(self):
        # A fraction block in which no position is masked draws no values.
        gens = fresh_generators(4, 3)
        spare = np.array([-1, 7, -1])
        left = _raw_values(gens, spare, [(0, 10)], np.empty((3, 0), dtype=np.int64))
        np.testing.assert_array_equal(left, spare)
        for gen, fresh in zip(gens, fresh_generators(4, 3)):
            np.testing.assert_array_equal(gen.bit_generator.random_raw(4),
                                          fresh.bit_generator.random_raw(4))

    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_segments_equal_scalar_calls_then_a_sized_one(self, l):
        for r in (3, 10, 2**31 + 1):
            rows = 30
            out = np.empty((rows, l + 1 + 50), dtype=np.int64)
            offset = min(r**l, 2**32 - 1)
            _raw_values(fresh_generators(r, rows), np.full(rows, -1),
                            [(l, r), (1, offset), (50, r)], out)
            for i, row in enumerate(out.tolist()):
                gen = RandomSource(r, (i,)).generator
                want = [gen.integers(r) for _ in range(l)]
                want.append(gen.integers(offset))
                assert row == want + gen.integers(0, r, size=50).tolist()

    def test_row_halves_are_each_rows_next_halves(self):
        gens = fresh_generators(3, 5)
        halves = _row_halves(gens, 4)
        for i, gen in enumerate(gens):
            replay = RandomSource(3, (i,)).generator
            assert halves[i].tolist() == replay.integers(0, 2**32, size=8, dtype=np.uint64).tolist()
            # The generator reads on after them.
            assert gen.integers(0, 2**32, dtype=np.uint64) == replay.integers(0, 2**32,
                                                                              dtype=np.uint64)

    @pytest.mark.parametrize("bound", [1] + RAW_BOUNDS)
    def test_below_is_the_rule_that_integers_applies(self, bound):
        halves = _row_halves(fresh_generators(bound % 1000, 40), 2)
        values, kept = _below(halves, bound)
        # A bound per row broadcasts as one bound does, and a numpy scalar or
        # 0-d bound, which numpy 1.x casts by value, gives what an int does.
        for form in (lambda b: np.full((40, 1), b), np.uint64, np.asarray):
            form_values, form_kept = _below(halves, form(bound))
            np.testing.assert_array_equal(form_values, values)
            np.testing.assert_array_equal(form_kept, kept)
        for i in range(40):
            replay = RandomSource(bound % 1000, (i,)).generator
            if bound == 1:
                assert values[i].tolist() == [0] * 4 and kept[i].all()
            elif kept[i].any():
                assert values[i, kept[i].argmax()] == replay.integers(bound)

    @pytest.mark.parametrize("words", [0, 1, 3])
    def test_a_half_reader_reads_as_integers_does(self, words):
        # lov's bounds, at most r, almost never reject a half, so the reader
        # is driven at 3 * 2**30 and 2**31 + 1, where a quarter to a half of
        # all halves are rejected, and at 1, which reads no half.  Rows run
        # past the words drawn ahead of them into their generator's words.
        choices = np.random.default_rng(words)
        bounds = [1, 2, 7, 3 * 2**30, 2**31 + 1]
        for seed in range(40):
            scalars = [int(b) for b in choices.choice(bounds, size=int(choices.integers(0, 8)))]
            r, n = int(choices.choice(bounds[1:])), int(choices.integers(0, 12))
            gen = RandomSource(seed, (words,)).generator
            reader = _HalfReader(gen, _row_halves([gen], words)[0])
            got = [reader.integers(b) for b in scalars] + reader.integers(r, size=n).tolist()
            replay = RandomSource(seed, (words,)).generator
            want = [int(replay.integers(b)) for b in scalars] + replay.integers(r, size=n).tolist()
            assert got == want
            # It reads on from there, its unread halves first.
            np.testing.assert_array_equal(reader.integers(2**31 + 1, size=3),
                                          replay.integers(2**31 + 1, size=3))
