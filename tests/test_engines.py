"""Obfuscation engines: replacement kernels, masks, and noise streams."""
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqobf import engines
from seqobf.bounds import lov_bound
from seqobf.core import Alphabet, RandomSource, Trace
from seqobf.detect import PatternStats
from seqobf.engines import (
    METHODS,
    EngineConfig,
    _replacement_stream,
    lov_choose,
    manp_choose,
    obfuscate,
    plov_distribution,
)
from seqobf.superstring import verify_superstring
from oracles import REFERENCE_POLICIES, exact_lov_bound, plov_reference


def make_trace(symbols, r):
    return Trace(np.asarray(symbols, dtype=np.int64), Alphabet(r))


def random_trace(gen, m, r):
    return make_trace(gen.integers(0, r, size=m), r)


def manp_state(stats, alphabet_size):
    """The (pair-seen matrix, window) state manp_choose reads, from PatternStats."""
    seen = np.zeros((alphabet_size, alphabet_size), dtype=bool)
    for a, b in stats.counts:
        seen[a, b] = True
    return seen, np.array(stats.recent_symbols(), dtype=np.int64)


def config_for(method, p_obf, r=6):
    # two_stage reads no p_obf: its noise comes from its stage levels.
    return EngineConfig(
        method=method, p_obf=0.0 if method == "two_stage" else p_obf, order=2, gamma=0.1,
        gap=3 if method == "manp" else None,
        stage_noise=(0.2, 0.3) if method == "two_stage" else (0.0, 0.0),
    )


class TestEngineConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            EngineConfig(method="xor", p_obf=0.5)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            EngineConfig(method="iid", p_obf=1.2)

    def test_manp_needs_a_window(self):
        with pytest.raises(ValueError):
            EngineConfig(method="manp", p_obf=0.5)

    def test_plov_needs_positive_gamma(self):
        with pytest.raises(ValueError):
            EngineConfig(method="plov", p_obf=0.5, gamma=0.0)

    def test_two_stage_noise_range(self):
        with pytest.raises(ValueError):
            EngineConfig(method="two_stage", stage_noise=(0.5, 1.5))

    def test_two_stage_rejects_noise_it_would_not_apply(self):
        # two_stage reads no p_obf, whatever its stage levels are.
        with pytest.raises(ValueError, match="two_stage"):
            EngineConfig(method="two_stage", p_obf=0.3)
        with pytest.raises(ValueError, match="p_obf applies to .* only, not two_stage"):
            EngineConfig(method="two_stage", p_obf=0.3, stage_noise=(0.0, 0.2))
        EngineConfig(method="two_stage")

    def test_stage_levels_compare_by_value(self):
        # A list of levels, as a JSON file gives them, is read as a tuple is.
        EngineConfig(method="iid", p_obf=0.1, stage_noise=[0.0, 0.0])
        with pytest.raises(ValueError, match="stage noise applies to two_stage only"):
            EngineConfig(method="iid", p_obf=0.1, stage_noise=[0.0, 0.2])

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "two_stage"])
    @pytest.mark.parametrize("stage_noise", [(0.9, 0.9), (0.0, 0.2)])
    def test_stage_noise_off_two_stage_is_refused(self, method, stage_noise):
        # Only two_stage reads its stage levels; any other method would
        # leave them unapplied.
        with pytest.raises(ValueError, match="stage noise applies to two_stage only"):
            EngineConfig(method=method, p_obf=0.0, gap=3 if method == "manp" else None,
                         stage_noise=stage_noise)

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "manp"])
    def test_gap_off_manp_is_refused(self, method):
        # Only manp reads a window width; any other method would leave it
        # unapplied.
        with pytest.raises(ValueError, match=f"gap applies to manp only, not {method}"):
            EngineConfig(method=method, gap=3)


class TestCommonEngineContract:
    @pytest.mark.parametrize("method", METHODS)
    def test_zero_noise_is_identity(self, method):
        gen = np.random.default_rng(1)
        t = random_trace(gen, 60, 6)
        cfg = EngineConfig(
            method=method, p_obf=0.0, order=2,
            gap=3 if method == "manp" else None,
        )
        assert obfuscate(t, cfg, RandomSource(5)) == t

    @pytest.mark.parametrize("method", METHODS)
    def test_mask_fidelity(self, method):
        gen = np.random.default_rng(2)
        for seed in range(8):
            t = random_trace(gen, 80, 6)
            z, mask = obfuscate(
                t, config_for(method, 0.4), RandomSource(seed), return_mask=True
            )
            assert z.length == t.length
            assert np.array_equal(z.symbols[~mask], t.symbols[~mask])
            z.alphabet.validate(z.symbols)

    @pytest.mark.parametrize("method", METHODS)
    def test_replay_is_deterministic(self, method):
        gen = np.random.default_rng(3)
        t = random_trace(gen, 50, 5)
        cfg = config_for(method, 0.5, r=5)
        a = obfuscate(t, cfg, RandomSource(11, (2,)))
        b = obfuscate(t, cfg, RandomSource(11, (2,)))
        assert a == b

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "two_stage"])
    def test_mask_is_the_first_block_of_the_stream(self, method):
        gen = np.random.default_rng(5)
        m, p = 70, 0.4
        t = random_trace(gen, m, 5)
        _, mask = obfuscate(
            t, config_for(method, p), RandomSource(12, (3, 1)), return_mask=True
        )
        expected = RandomSource(12, (3, 1)).generator.random(m) < p
        assert np.array_equal(mask, expected)

    def test_replaced_fraction_tracks_noise_level(self):
        gen = np.random.default_rng(4)
        m, p = 20000, 0.3
        t = random_trace(gen, m, 4)
        _, mask = obfuscate(
            t, EngineConfig(method="iid", p_obf=p), RandomSource(6), return_mask=True
        )
        se = np.sqrt(p * (1 - p) / m)
        assert abs(mask.mean() - p) < 3 * se


class TestRowsFrame:
    @pytest.mark.parametrize("method", [m for m in METHODS if m != "two_stage"])
    def test_each_row_comes_out_as_it_would_alone(self, method):
        gen = np.random.default_rng(8)
        x = gen.integers(0, 6, size=(5, 70))
        config = config_for(method, 0.3)
        z = x.copy()
        touched = engines._obfuscate_rows(
            z, 6, config, [RandomSource(3, (i, 1)).generator for i in range(5)]
        )
        for i in range(5):
            alone, mask = obfuscate(
                make_trace(x[i], 6), config, RandomSource(3, (i, 1)), return_mask=True
            )
            assert np.array_equal(z[i], alone.symbols)
            assert np.array_equal(touched[i], mask)


class TestIndependentEngines:
    def test_iid_channel_marginal(self):
        # Per position: stays itself with prob 1-p+p/r, flips to a specific
        # other symbol with prob p/r.
        m, r, p = 10**5, 2, 0.5
        t = make_trace(np.zeros(m, dtype=np.int64), r)
        z = obfuscate(t, EngineConfig(method="iid", p_obf=p), RandomSource(7))
        stay = (z.symbols == 0).mean()
        expect = 1 - p + p / r
        assert abs(stay - expect) < 3 * np.sqrt(expect * (1 - expect) / m)

    def test_full_noise_iid_draws_follow_the_mask_block(self):
        r, m = 7, 90
        t = make_trace(np.zeros(m, dtype=np.int64), r)
        z = obfuscate(t, EngineConfig(method="iid", p_obf=1.0), RandomSource(14, (2,)))
        replay = RandomSource(14, (2,)).generator
        replay.random(m)  # the mask block
        assert np.array_equal(z.symbols, replay.integers(0, r, size=m))

    def test_full_noise_superstring_output_is_a_stream_prefix(self):
        r, l = 3, 2
        m = r**l + l - 1
        t = make_trace(np.zeros(m, dtype=np.int64), r)
        cfg = EngineConfig(method="sl_sbu", p_obf=1.0, order=l)
        z = obfuscate(t, cfg, RandomSource(21))
        assert verify_superstring(z.symbols, r, l)

    @pytest.mark.parametrize("method", ("iid", "sbu", "sl_sbu"))
    def test_replacement_subsequence_equals_generated_stream(self, method):
        r, l, m = 4, 2, 90
        gen = np.random.default_rng(31)
        t = random_trace(gen, m, r)
        cfg = EngineConfig(method=method, p_obf=1.0, order=l)
        z = obfuscate(t, cfg, RandomSource(13, (1,)))
        replay = RandomSource(13, (1,)).generator
        replay.random(m)  # the mask block
        expected = _replacement_stream(replay, r, cfg, m)
        assert np.array_equal(z.symbols, expected)

    @pytest.mark.parametrize("method", ("sbu", "sl_sbu", "two_stage"))
    @pytest.mark.parametrize("r,order,message", [(5000, 2, "exceeds the size cap"),
                                                 (6, 0, "order must be >= 1")])
    def test_refuses_a_superstring_it_cannot_draw(self, method, r, order, message):
        # 5000^2 symbols are over the cap, however short the trace.
        config = replace(config_for(method, 0.5), order=order)
        with pytest.raises(ValueError, match=message):
            obfuscate(make_trace([0, 1, 2], r), config, RandomSource(1))

    def test_stream_spans_several_superstrings_on_exhaustion(self):
        r, l = 2, 2
        block = r**l + l - 1
        m = 3 * block
        t = make_trace(np.zeros(m, dtype=np.int64), r)
        z = obfuscate(
            t, EngineConfig(method="sl_sbu", p_obf=1.0, order=l), RandomSource(17)
        )
        for i in range(3):
            assert verify_superstring(z.symbols[i * block : (i + 1) * block], r, l)


def refused(*args):
    raise AssertionError("a raw draw was made")


def refuse_raw_draws(monkeypatch):
    monkeypatch.setattr(engines, "_raw_values", refused)


# (method, r, l, p, m, rows) of a row block.
BLOCK_CASES = [
    ("iid", 20, 2, 0.1, 1000, 32),  # the canonical cell's block
    ("sl_sbu", 20, 2, 0.1, 1000, 32),
    ("iid", 7, 2, 0.03, 60, 20),  # rows with no replacement
    ("sl_sbu", 7, 2, 0.03, 60, 20),
    ("sl_sbu", 3, 2, 0.9, 200, 12),  # about 18 superstrings of 10 symbols a row
    ("sl_sbu", 2, 1, 1.0, 30, 3),  # 15 superstrings of 2 symbols a row
    ("iid", 2**31 + 1, 2, 0.5, 300, 9),  # about half of all halves rejected
    ("iid", 6, 2, 0.0, 50, 4),  # nothing to draw
    ("sl_sbu", 2, 3, 0.0, 50, 4),
    ("iid", 5, 1, 0.5, 40, 2),  # the fewest rows that a block holds
]
# The same, for a call on one row.
ONE_ROW_CASES = [
    ("iid", 5, 1, 0.5, 40, 1),
    ("sl_sbu", 5, 2, 0.5, 40, 1),
    ("sl_sbu", 3, 2, 0.9, 200, 1),  # about 18 superstrings
    ("iid", 2**31 + 1, 2, 0.5, 300, 1),  # about half of all halves rejected
]
CASE_ID = "{}-r{}-l{}-p{}-m{}x{}".format
# (r, a, p, m, rows) of a lov row block whose base symbols lie in 0..a-1.
LOV_CASES = [
    (20, 18, 0.1, 1000, 32),  # the canonical cell's block
    (2, 1, 0.5, 40, 6),  # one missing symbol, drawn with no half read
    (3, 3, 0.05, 100, 10),  # rows that observe every symbol before a replacement
    (6, 6, 0.02, 30, 12),  # rows with no replacement
    (50, 48, 0.3, 30, 8),  # rows that never observe every symbol
    (5, 4, 1.0, 20, 4),  # the first replacement observes nothing
    (6, 4, 0.0, 50, 3),  # nothing to draw
]
LOV_ID = "lov-r{}-a{}-p{}-m{}x{}".format


def lov_block(case):
    """The base symbols and config of a LOV_CASES block."""
    r, a, p, m, rows = case
    base = np.random.default_rng(1000 * r + m).integers(0, a, size=(rows, m))
    return base, EngineConfig("lov", p_obf=p)


def block_counts(case):
    """Each row's replacement count k in a block of the case."""
    _, _, _, p, m, rows = case
    return np.array([np.count_nonzero(RandomSource(5, (i,)).generator.random(m) < p)
                     for i in range(rows)])


class TestBlockFill:
    """The row count picks the fill path.  A block of two or more rows fills
    iid, sl_sbu and lov from raw words, bit for bit as the same rows filled
    one at a time; one row draws with Generator.integers."""

    @staticmethod
    def block_and_rows(r, config, m, rows, base=None):
        """(z, mask) of one call on the whole block, then of one call per
        row, on the base symbols, or on zeros."""
        base = np.zeros((rows, m), dtype=np.int64) if base is None else base
        z = base.copy()
        mask = engines._obfuscate_rows(
            z, r, config, [RandomSource(5, (i,)).generator for i in range(rows)])
        row_z = base.copy()
        row_mask = np.concatenate([
            engines._obfuscate_rows(row_z[i : i + 1], r, config, [RandomSource(5, (i,)).generator])
            for i in range(rows)])
        return (z, mask), (row_z, row_mask)

    @pytest.mark.parametrize("case", BLOCK_CASES, ids=lambda c: CASE_ID(*c))
    def test_block_equals_rows(self, case, monkeypatch):
        method, r, l, p, m, rows = case
        config = EngineConfig(method, p_obf=p, order=l)
        raw_calls = []
        raw_values = engines._raw_values

        def counted(*args):
            raw_calls.append(args[3].shape)
            return raw_values(*args)

        monkeypatch.setattr(engines, "_raw_values", counted)
        (z, mask), (want_z, want_mask) = self.block_and_rows(r, config, m, rows)
        np.testing.assert_array_equal(mask, want_mask)
        np.testing.assert_array_equal(z, want_z)
        np.testing.assert_array_equal(mask.sum(axis=1), block_counts(case))
        # One raw draw of the whole block, and none for the rows alone.
        kmax = int(mask.sum(axis=1).max())
        length = r**l + l - 1
        assert raw_calls == [(rows, kmax if method == "iid" else -(-kmax // length))]

    @pytest.mark.parametrize("case", ONE_ROW_CASES, ids=lambda c: CASE_ID(*c))
    def test_one_row_draws_as_integers_does(self, case, monkeypatch):
        method, r, l, p, m, _ = case
        config = EngineConfig(method, p_obf=p, order=l)
        refuse_raw_draws(monkeypatch)
        z = np.zeros((1, m), dtype=np.int64)
        gen = RandomSource(5, (0,)).generator
        mask = engines._obfuscate_rows(z, r, config, [gen])
        replay = RandomSource(5, (0,)).generator
        want_mask = replay.random(m) < p
        want = _replacement_stream(replay, r, config, want_mask.sum())
        np.testing.assert_array_equal(mask[0], want_mask)
        np.testing.assert_array_equal(z[0, want_mask], want)
        # The generator stands where the integers calls left it, unread half and all.
        halves = [g.integers(0, 2**32, dtype=np.uint64, size=3).tolist() for g in (gen, replay)]
        assert halves[0] == halves[1]

    def test_cases_cover_empty_rows_one_row_and_several_superstrings(self):
        assert all(case[5] >= 2 for case in BLOCK_CASES)
        assert all(case[5] == 1 for case in ONE_ROW_CASES)
        counts = {case: block_counts(case) for case in BLOCK_CASES + ONE_ROW_CASES}
        assert any(0 in k and k.max() > 0 for k in counts.values())
        assert all(k.max() > 0 for case, k in counts.items() if case in ONE_ROW_CASES)
        for cases in (BLOCK_CASES, ONE_ROW_CASES):
            assert any(case[0] == "sl_sbu"
                       and counts[case].min() > 3 * (case[1]**case[2] + case[2] - 1)
                       for case in cases)

    def test_an_alphabet_of_2_to_the_32_or_more_stays_on_integers(self, monkeypatch):
        # Raw draws take bounds below 2**32.
        refuse_raw_draws(monkeypatch)
        (z, mask), (want_z, want_mask) = self.block_and_rows(
            2**32 + 5, EngineConfig("iid", p_obf=0.3), 100, 8)
        np.testing.assert_array_equal(mask, want_mask)
        np.testing.assert_array_equal(z, want_z)
        assert z.max() > 2**31

    def test_an_sbu_block_stays_on_integers(self, monkeypatch):
        # sbu draws a permutation per superstring.
        refuse_raw_draws(monkeypatch)
        (z, mask), (want_z, want_mask) = self.block_and_rows(
            4, EngineConfig("sbu", p_obf=0.6, order=2), 120, 6)
        np.testing.assert_array_equal(mask, want_mask)
        np.testing.assert_array_equal(z, want_z)
        # Each row runs past its first superstring of l r^l symbols.
        assert mask.sum(axis=1).min() > 2 * 4**2

    @pytest.mark.parametrize("method", ("iid", "sl_sbu"))
    def test_one_trace_obfuscate_draws_no_raw_words(self, method, monkeypatch):
        refuse_raw_draws(monkeypatch)
        trace = random_trace(np.random.default_rng(3), 300, 6)
        source = RandomSource(9, (4,))
        z = obfuscate(trace, EngineConfig(method, p_obf=0.5, order=2), source)
        replay = RandomSource(9, (4,)).generator
        mask = replay.random(300) < 0.5
        want = _replacement_stream(replay, 6, EngineConfig(method, order=2), mask.sum())
        np.testing.assert_array_equal(z.symbols[mask], want)
        # The source stands where the integers calls left it, unread half and all.
        halves = [gen.integers(0, 2**32, dtype=np.uint64, size=3).tolist()
                  for gen in (source.generator, replay)]
        assert halves[0] == halves[1]

    @pytest.mark.parametrize("case", LOV_CASES, ids=lambda c: LOV_ID(*c))
    def test_a_lov_block_equals_rows_and_reads_its_words_once(self, case, monkeypatch):
        r, _, _, m, rows = case
        base, config = lov_block(case)
        reads = []
        row_halves = engines._row_halves

        def counted(gens, words):
            reads.append((len(gens), words))
            return row_halves(gens, words)

        monkeypatch.setattr(engines, "_row_halves", counted)
        # With no rejected half, no row is filled again.
        monkeypatch.setattr(engines, "_HalfReader", refused)
        (z, mask), (want_z, want_mask) = self.block_and_rows(r, config, m, rows, base)
        np.testing.assert_array_equal(mask, want_mask)
        np.testing.assert_array_equal(z, want_z)
        words = -(-int(mask.sum(axis=1).max()) // 2)
        assert reads == [(rows, words)]
        # Each generator read its mask's m words and then its block's words.
        gens = [RandomSource(5, (i,)).generator for i in range(rows)]
        engines._obfuscate_rows(base.copy(), r, config, gens)
        for i, gen in enumerate(gens):
            fresh = RandomSource(5, (i,)).generator.bit_generator.random_raw(m + words + 1)
            assert gen.bit_generator.random_raw() == fresh[-1]

    @pytest.mark.parametrize("case", LOV_CASES, ids=lambda c: LOV_ID(*c))
    def test_one_lov_row_reads_no_raw_words(self, case, monkeypatch):
        r, _, p, m, _ = case
        base, config = lov_block(case)
        monkeypatch.setattr(engines, "_row_halves", refused)
        refuse_raw_draws(monkeypatch)
        z = base[:1].copy()
        gen = RandomSource(5, (0,)).generator
        mask = engines._obfuscate_rows(z, r, config, [gen])
        replay = RandomSource(5, (0,)).generator
        want_mask = replay.random(m) < p
        want = base[0].copy()
        engines._fill_lov(want, want_mask, r, replay)
        np.testing.assert_array_equal(mask[0], want_mask)
        np.testing.assert_array_equal(z[0], want)
        # The generator stands where _fill_lov left it, unread half and all.
        halves = [g.integers(0, 2**32, dtype=np.uint64, size=3).tolist() for g in (gen, replay)]
        assert halves[0] == halves[1]

    def test_lov_cases_cover_every_kind_of_row(self):
        kinds = set()
        for case in LOV_CASES:
            r, rows = case[0], case[4]
            base, config = lov_block(case)
            mask = engines._obfuscate_rows(
                base, r, config, [RandomSource(5, (i,)).generator for i in range(rows)])
            for row, row_mask in zip(base, mask):
                # The symbols missing before each replacement, read off the filled row.
                missing = [r - np.unique(row[:t]).size for t in np.flatnonzero(row_mask)]
                if not missing:
                    kinds.add("no replacement")
                elif missing[0] == 0:
                    kinds.add("only a tail")
                elif min(missing) > 0:
                    kinds.add("never observes every symbol")
                if 1 in missing:
                    kinds.add("one missing symbol")
        assert kinds == {"no replacement", "only a tail", "never observes every symbol",
                         "one missing symbol"}
        assert any(case[0] == 2 for case in LOV_CASES)

    def test_a_lov_row_that_read_a_rejected_half_is_filled_again(self, monkeypatch):
        # lov's bounds are at most r, so a half is practically never
        # rejected.  Here the first row of every step and of the tails is
        # told that its half was, and is filled again from its halves and
        # then its generator.
        below, reader = engines._below, engines._HalfReader
        mended = []

        def rejecting(halves, bound):
            values, kept = below(halves, bound)
            kept[:1] = False
            return values, kept

        def counted(gen, halves):
            mended.append(gen)
            return reader(gen, halves)

        monkeypatch.setattr(engines, "_below", rejecting)
        monkeypatch.setattr(engines, "_HalfReader", counted)
        base, config = lov_block(LOV_CASES[0])
        (z, mask), (want_z, want_mask) = self.block_and_rows(20, config, 1000, 32, base)
        np.testing.assert_array_equal(mask, want_mask)
        np.testing.assert_array_equal(z, want_z)
        assert 0 < len(mended) < 32


class TestLov:
    def test_uniform_over_missing_symbols(self):
        observed = np.zeros(4, dtype=bool)
        observed[[0, 1]] = True
        src = RandomSource(3)
        picks = np.array([lov_choose(observed, src.generator) for _ in range(10**5)])
        assert set(picks) == {2, 3}
        assert abs((picks == 2).mean() - 0.5) < 0.01

    def test_single_missing_symbol_is_certain(self):
        observed = np.ones(5, dtype=bool)
        observed[3] = False
        src = RandomSource(4)
        assert all(lov_choose(observed, src.generator) == 3 for _ in range(50))

    def test_uniform_once_everything_observed(self):
        observed = np.ones(4, dtype=bool)
        src = RandomSource(5)
        picks = np.array([lov_choose(observed, src.generator) for _ in range(10**5)])
        for s in range(4):
            assert abs((picks == s).mean() - 0.25) < 0.01

    def test_empty_prefix_is_uniform_over_alphabet(self):
        observed = np.zeros(3, dtype=bool)
        src = RandomSource(6)
        picks = np.array([lov_choose(observed, src.generator) for _ in range(3 * 10**4)])
        for s in range(3):
            assert abs((picks == s).mean() - 1 / 3) < 0.02

    def test_full_noise_covers_alphabet(self):
        r = 5
        t = make_trace(np.zeros(40, dtype=np.int64) + 1, r)
        z = obfuscate(t, EngineConfig(method="lov", p_obf=1.0), RandomSource(9))
        assert set(int(s) for s in z.symbols) == set(range(r))


class TestPlov:
    def test_flat_counts_give_uniform(self):
        assert np.allclose(plov_distribution(np.array([4, 4, 4]), 0.1), 1 / 3)

    def test_empty_histogram_gives_uniform(self):
        assert np.allclose(plov_distribution(np.zeros(5), 0.1), 0.2)

    def test_matches_high_precision_reference(self):
        got = plov_distribution(np.array([2, 1, 1]), 0.1)
        want = plov_reference([2, 1, 1], 0.1)
        assert np.max(np.abs(got - np.array(want))) < 1e-12

    def test_validity_and_equivariance_on_random_histograms(self):
        gen = np.random.default_rng(18)
        for _ in range(2000):
            r = int(gen.integers(2, 9))
            counts = gen.integers(0, 50, size=r)
            p = plov_distribution(counts, 0.1)
            assert p.min() >= 0
            assert abs(p.sum() - 1.0) < 1e-9
            perm = gen.permutation(r)
            assert np.allclose(plov_distribution(counts[perm], 0.1), p[perm])

    def test_less_observed_is_strictly_more_likely(self):
        gen = np.random.default_rng(19)
        for _ in range(500):
            counts = gen.integers(0, 30, size=6)
            p = plov_distribution(counts, 0.25)
            for i in range(6):
                for j in range(6):
                    if counts[i] < counts[j]:
                        assert p[i] > p[j]

    @given(st.floats(0.01, 3.0), st.lists(st.integers(0, 40), min_size=2, max_size=8))
    @settings(max_examples=300)
    def test_always_a_distribution(self, gamma, counts):
        p = plov_distribution(np.array(counts, dtype=float), gamma)
        assert p.min() >= -1e-12
        assert abs(p.sum() - 1.0) < 1e-9


class TestManp:
    def test_empty_prefix_is_uniform(self):
        state = manp_state(PatternStats(order=2, gap=2), 3)
        src = RandomSource(8)
        picks = np.array([manp_choose(*state, src.generator) for _ in range(3 * 10**4)])
        for s in range(3):
            assert abs((picks == s).mean() - 1 / 3) < 0.02

    def test_symmetric_single_predecessor_ties_uniformly(self):
        src = RandomSource(9)
        picks = []
        for _ in range(3 * 10**4):
            stats = PatternStats.from_symbols([0], order=2, gap=1)
            picks.append(manp_choose(*manp_state(stats, 3), src.generator))
        picks = np.array(picks)
        for s in range(3):
            assert abs((picks == s).mean() - 1 / 3) < 0.02

    def test_argmax_prefers_unseen_completions(self):
        # Prefix 0,1 with window 2: candidates 0 and 2 complete two new
        # patterns each, candidate 1 only one; 1 must never win.
        src = RandomSource(10)
        seen = set()
        for _ in range(200):
            stats = PatternStats.from_symbols([0, 1], order=2, gap=2)
            pick = manp_choose(*manp_state(stats, 3), src.generator)
            assert pick in (0, 2)
            seen.add(pick)
        assert seen == {0, 2}

    def test_full_noise_eventually_covers_all_pairs(self):
        for r in (2, 3, 4):
            t = make_trace(np.zeros(60 * r, dtype=np.int64), r)
            cfg = EngineConfig(method="manp", p_obf=1.0, gap=2)
            z = obfuscate(t, cfg, RandomSource(r))
            stats = PatternStats.from_symbols(z.symbols, order=2, gap=2)
            assert stats.distinct_patterns == r * r


# (seed, r, m, p, gamma, gap) for the bit-for-bit check against the
# per-position reference policies.
DATADEP_CORPUS = [
    (1, 20, 1000, 0.1, 0.1, 10),  # the canonical fraction cell
    (2, 2, 60, 0.5, 0.3, 1),  # binary alphabet
    (3, 7, 1, 1.0, 0.1, 1),  # one position, replaced
    (4, 7, 1, 0.0, 0.1, 1),  # one position, kept
    (5, 5, 120, 0.0, 0.7, 3),  # no noise
    (6, 5, 120, 1.0, 1.5, 2),  # full noise
    (7, 6, 40, 0.3, 0.1, 40),  # window as long as the trace
    (8, 4, 150, 0.3, 2.0, 500),  # window longer than the trace
    (9, 29, 400, 0.9, 0.05, 7),
    (10, 3, 200, 0.05, 0.1, 4),  # lov covers the alphabet early
    (11, 12, 300, 0.01, 0.4, 2),
]


def reference_pass(trace, config, source):
    """One pass of the mask-then-replace frame run with a reference policy."""
    gen = source.generator
    mask = gen.random(trace.length) < config.p_obf
    z = trace.symbols.copy()
    REFERENCE_POLICIES[config.method](z, mask, trace.alphabet.size, config, gen)
    return z, mask


class TestDataDependentMatchReference:
    @pytest.mark.parametrize("method", sorted(REFERENCE_POLICIES))
    @pytest.mark.parametrize("case", DATADEP_CORPUS, ids=lambda c: f"seed{c[0]}")
    def test_bit_identical_to_per_position_reference(self, method, case):
        seed, r, m, p, gamma, gap = case
        t = random_trace(np.random.default_rng(seed), m, r)
        cfg = EngineConfig(method=method, p_obf=p, gamma=gamma,
                           gap=gap if method == "manp" else None)
        z, mask = obfuscate(t, cfg, RandomSource(seed, (1,)), return_mask=True)
        want_z, want_mask = reference_pass(t, cfg, RandomSource(seed, (1,)))
        assert np.array_equal(mask, want_mask)
        assert np.array_equal(z.symbols, want_z)

    def test_manp_pair_marking_in_small_blocks(self, monkeypatch):
        # Long windows mark their pairs in several bounded numpy calls.
        monkeypatch.setattr(engines, "_PAIR_BLOCK", 7)
        t = random_trace(np.random.default_rng(12), 150, 4)
        cfg = EngineConfig(method="manp", p_obf=0.3, gap=500)
        z, mask = obfuscate(t, cfg, RandomSource(12, (1,)), return_mask=True)
        want_z, want_mask = reference_pass(t, cfg, RandomSource(12, (1,)))
        assert np.array_equal(mask, want_mask)
        assert np.array_equal(z.symbols, want_z)

    def test_corpus_reaches_the_batched_lov_tail(self):
        # Some lov run must see every symbol in its prefix before its last
        # replacement, so that the batched uniform tail is compared too.
        reached = False
        for seed, r, m, p, gamma, gap in DATADEP_CORPUS:
            t = random_trace(np.random.default_rng(seed), m, r)
            cfg = EngineConfig(method="lov", p_obf=p)
            z, mask = reference_pass(t, cfg, RandomSource(seed, (1,)))
            replaced = np.flatnonzero(mask)
            if replaced.size and np.unique(z[: replaced[-1]]).size == r:
                reached = True
        assert reached


# (rows, r, m, p, gamma) for the row-block plov policy.
PLOV_BLOCKS = [
    (1, 20, 1000, 0.1, 0.1),  # one row, the canonical cell
    (32, 6, 80, 0.3, 0.1),  # a full row block
    (33, 2, 50, 0.5, 0.3),  # one row past a block, binary alphabet
    (32, 5, 1, 0.5, 0.1),  # one position per row: 0 or 1 replacement
    (33, 4, 60, 1.0, 1.5),  # full noise
    (32, 7, 100, 0.02, 0.1),  # several rows with no replacement
    (5, 7, 30, 0.0, 0.1),  # no replacement at all
]


class TestPlovBlock:
    def test_rows_equal_the_one_row_call(self):
        gen = np.random.default_rng(31)
        for r in (2, 5, 20):
            mixed = np.vstack([
                np.zeros(r), np.full(r, 3), gen.integers(0, 9, size=(6, r)),
                np.eye(r)[0] * 40, gen.integers(0, 10**6, size=(2, r)),
            ])
            for block in (mixed, np.zeros((4, r)), np.full((3, r), 7.0)):
                got = plov_distribution(block, 0.1)
                assert got.shape == block.shape
                for row, want in zip(block, got):
                    assert np.array_equal(plov_distribution(row, 0.1), want)

    def test_a_degenerate_row_raises(self):
        # Nearly flat: b is huge and p loses its unit sum to cancellation.
        degenerate = np.array([1.0, 1.0, 1.0 + 1e-14])
        with pytest.raises(ValueError, match="degenerate"):
            plov_distribution(degenerate, 1.0)
        block = np.vstack([[2.0, 1.0, 0.0], degenerate, np.zeros(3)])
        with pytest.raises(ValueError, match="degenerate"):
            plov_distribution(block, 1.0)

    @pytest.mark.parametrize("case", PLOV_BLOCKS, ids=lambda c: f"{c[0]}x{c[2]}r{c[1]}p{c[3]}")
    def test_rows_match_the_per_position_reference(self, case):
        rows, r, m, p, gamma = case
        x = np.random.default_rng(rows * m).integers(0, r, size=(rows, m))
        cfg = EngineConfig(method="plov", p_obf=p, gamma=gamma)
        z = x.copy()
        touched = engines._obfuscate_rows(
            z, r, cfg, [RandomSource(17, (i,)).generator for i in range(rows)]
        )
        for i in range(rows):
            want_z, want_mask = reference_pass(make_trace(x[i], r), cfg, RandomSource(17, (i,)))
            assert np.array_equal(touched[i], want_mask)
            assert np.array_equal(z[i], want_z)

    def test_blocks_cover_empty_and_unequal_rows(self):
        zero = unequal = False
        for rows, r, m, p, gamma in PLOV_BLOCKS:
            k = [np.count_nonzero(RandomSource(17, (i,)).generator.random(m) < p)
                 for i in range(rows)]
            zero |= 0 in k and max(k) > 0
            unequal |= len(set(k)) > 2
        assert zero and unequal

    def test_memory_stays_linear_in_rows_length_and_alphabet(self):
        rows, r, m = 32, 2000, 1000
        z = np.random.default_rng(5).integers(0, r, size=(rows, m))
        cfg = EngineConfig(method="plov", p_obf=1.0)
        gens = [RandomSource(5, (i,)).generator for i in range(rows)]
        tracemalloc.start()
        try:
            engines._obfuscate_rows(z, r, cfg, gens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A rows x k x r array of distributions would take 488 MiB here.
        assert peak < 32 * 2**20


def two_stage(a, b):
    return EngineConfig("two_stage", order=2, stage_noise=(a, b))


class TestTwoStage:
    def test_inert_first_stage_matches_superstring_engine(self):
        gen = np.random.default_rng(40)
        t = random_trace(gen, 70, 5)
        src = RandomSource(23)
        combined = obfuscate(t, two_stage(0.0, 0.35), src)
        alone = obfuscate(
            t, EngineConfig(method="sl_sbu", p_obf=0.35, order=2),
            RandomSource(23).derive(1),
        )
        assert combined == alone

    def test_inert_second_stage_matches_iid_engine(self):
        gen = np.random.default_rng(41)
        t = random_trace(gen, 70, 5)
        combined = obfuscate(t, two_stage(0.35, 0.0), RandomSource(24))
        alone = obfuscate(
            t, EngineConfig(method="iid", p_obf=0.35), RandomSource(24).derive(0)
        )
        assert combined == alone

    def test_touch_rate_is_the_combined_noise_level(self):
        m, a, b = 10**6, 0.1, 0.1
        t = make_trace(np.zeros(m, dtype=np.int64), 4)
        _, mask = obfuscate(t, two_stage(a, b), RandomSource(25), return_mask=True)
        psi = a + b - a * b
        se = np.sqrt(psi * (1 - psi) / m)
        assert abs(mask.mean() - psi) < 3 * se

    def test_second_pass_runs_on_the_first_pass_output(self):
        gen = np.random.default_rng(43)
        t = random_trace(gen, 80, 5)
        src = RandomSource(27, (1,))
        combined, mask = obfuscate(t, two_stage(0.3, 0.4), src, return_mask=True)
        mid, mask_a = obfuscate(
            t, EngineConfig(method="iid", p_obf=0.3), src.derive(0), return_mask=True
        )
        second = EngineConfig(method="sl_sbu", p_obf=0.4, order=2)
        out, mask_b = obfuscate(mid, second, src.derive(1), return_mask=True)
        assert combined == out
        assert np.array_equal(mask, mask_a | mask_b)

    @pytest.mark.parametrize("a,b", [(0.3, 0.4), (0.0, 0.5), (0.6, 0.0), (1.0, 1.0)])
    def test_equals_two_one_pass_frame_calls(self, a, b):
        gen = np.random.default_rng(44)
        t = random_trace(gen, 90, 6)
        src = RandomSource(28, (2, 5))
        combined, mask = obfuscate(
            t, EngineConfig("two_stage", order=3, stage_noise=(a, b)), src, return_mask=True
        )
        z = t.symbols[None, :].copy()
        mask_a = engines._obfuscate_rows(
            z, 6, EngineConfig(method="iid", p_obf=a), [src.derive(0).generator]
        )
        mask_b = engines._obfuscate_rows(
            z, 6, EngineConfig(method="sl_sbu", p_obf=b, order=3), [src.derive(1).generator]
        )
        assert np.array_equal(combined.symbols, z[0])
        assert np.array_equal(mask, (mask_a | mask_b)[0])


class TestLovBound:
    def test_saturates_at_full_noise(self):
        assert lov_bound(10, 5, 1.0) == pytest.approx(1.0)

    def test_zero_noise_gives_zero(self):
        assert lov_bound(100, 5, 0.0) == 0.0

    @pytest.mark.parametrize("m", [1, 3, 10, 60, 200])
    @pytest.mark.parametrize("r", [2, 5, 17])
    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 10**12), Fraction(1, 10**6),
                                   Fraction(1, 1000), Fraction(1, 10), Fraction(1, 2),
                                   Fraction(9, 10), Fraction(1)])
    def test_matches_exact_rational_evaluation(self, m, r, p):
        got = lov_bound(m, r, float(p))
        want = float(exact_lov_bound(m, r, p))
        assert got == pytest.approx(want, rel=1e-10)

    def test_short_traces_cap_at_coverage(self):
        # With m < r replacements cannot cover the alphabet.
        assert lov_bound(3, 5, 1.0) == pytest.approx(3 / 5)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            lov_bound(0, 5, 0.5)
        with pytest.raises(ValueError):
            lov_bound(10, 1, 0.5)
        with pytest.raises(ValueError):
            lov_bound(10, 5, -0.2)
