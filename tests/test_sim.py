"""Experiment harness: protocols, determinism, and statistical sanity."""
import io
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy import stats as sstats

from seqobf import core, engines, sim
from seqobf.bounds import lov_bound
from seqobf.core import Alphabet, RandomSource, Trace
from seqobf.engines import EngineConfig, obfuscate
from seqobf.ingest import read_trace_file, write_trace_file
from seqobf.sim import (
    _KEY_BLOCK,
    _ROW_BLOCK,
    ExperimentSpec,
    _fraction_iterations,
    _fraction_plan,
    run,
    run_first_occurrence_race,
    run_fraction,
    run_crowd_count,
    sweep,
    write_csv,
)
from oracles import (brute_force_iid_fraction, brute_force_lov_fraction,
                     fraction_counts_reference, iid_fraction_exact, lov_fraction_exact,
                     manp_policy_reference)


def fraction_spec(**overrides):
    base = dict(
        scenario="fraction", alphabet_size=8, order=2, gap=5, trace_length=200,
        p_obf=0.2, methods=("iid", "sl_sbu"), n_users=20, iterations=30,
        master_seed=77,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_rejects_unknown_scenario(self):
        with pytest.raises(ValueError):
            fraction_spec(scenario="other")

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            fraction_spec(methods=("iid", "magic"))

    def test_rejects_alphabet_smaller_than_pattern(self):
        with pytest.raises(ValueError):
            fraction_spec(alphabet_size=2, order=2)

    def test_rejects_an_ingested_pool_over_one_symbol(self):
        # The pool is read over the reduced alphabet of r - l symbols.
        with pytest.raises(ValueError, match="r - l >= 2"):
            fraction_spec(alphabet_size=3, order=2, trace_file="pool.txt")
        fraction_spec(alphabet_size=4, order=2, trace_file="pool.txt")

    def test_rejects_manp_without_a_finite_gap(self):
        with pytest.raises(ValueError, match="manp needs a finite gap"):
            fraction_spec(methods=("iid", "manp"), gap=None)

    def test_rejects_an_empty_trace_length(self):
        with pytest.raises(ValueError, match="trace_length"):
            fraction_spec(trace_length=0)

    def test_rejects_a_race_of_one_iteration(self):
        with pytest.raises(ValueError, match="iterations >= 2"):
            fraction_spec(scenario="first_occurrence", iterations=1)
        fraction_spec(scenario="first_occurrence", iterations=2)

    def test_rejects_two_stage_without_stage_noise_keys(self):
        # A spec cannot set the per-stage levels, so two_stage would run
        # with no noise at all.
        with pytest.raises(ValueError, match="two_stage"):
            fraction_spec(methods=("iid", "two_stage"))

    @pytest.mark.parametrize("scenario", ["fraction", "bounds_table"])
    def test_rejects_a_gap_below_one(self, scenario):
        with pytest.raises(ValueError, match="gap must be >= 1"):
            fraction_spec(scenario=scenario, gap=0)

    def test_bounds_table_needs_a_finite_gap(self):
        with pytest.raises(ValueError, match="finite gap"):
            fraction_spec(scenario="bounds_table", gap=None)

    def test_bounds_table_refuses_what_the_bounds_refuse(self):
        # m - h*(l-1) = 200 - 300 leaves no room for the pattern.
        with pytest.raises(ValueError, match="trace too short"):
            fraction_spec(scenario="bounds_table", gap=300)

    @pytest.mark.parametrize("crowd", [
        dict(beta=0.5), dict(match_probability=0.1),
        dict(match_probability=1.5, beta=0.5), dict(match_probability=-0.1, beta=0.5),
    ])
    def test_crowd_count_needs_a_match_probability_in_range_and_beta(self, crowd):
        with pytest.raises(ValueError, match="match_probability"):
            fraction_spec(scenario="crowd_count", **crowd)

    @pytest.mark.parametrize("n_users", [0, -1])
    def test_crowd_count_needs_a_user(self, n_users):
        with pytest.raises(ValueError, match=f"n_users must be >= 1, got {n_users}"):
            fraction_spec(scenario="crowd_count", match_probability=0.1, beta=0.5,
                          n_users=n_users)
        fraction_spec(scenario="crowd_count", match_probability=0.1, beta=0.5, n_users=1)

    @pytest.mark.parametrize("overrides,message", [
        (dict(scenario="first_occurrence", alphabet_size=40, order=5), "size cap"),
        (dict(scenario="first_occurrence", alphabet_size=1), "alphabet size must be >= 2"),
        (dict(methods=("sl_sbu",), alphabet_size=5000), "size cap"),
        (dict(methods=("plov",), gamma=0.0), "gamma must be > 0"),
        (dict(order=0), "1 <= l < r"),
        (dict(methods=("iid", "iid")), "methods must be distinct"),
        (dict(trace_file=""), "trace_file is empty"),
    ], ids=["race_over_the_size_cap", "race_over_one_symbol", "sl_sbu_over_the_size_cap",
            "plov_without_tilt", "empty_pattern", "duplicate_methods", "empty_trace_file"])
    def test_refuses_what_its_runner_would_refuse(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            fraction_spec(**overrides)

    @pytest.mark.parametrize("overrides", [
        dict(),
        dict(scenario="first_occurrence"),
        dict(scenario="crowd_count", match_probability=0.1, beta=0.5),
        dict(scenario="bounds_table"),
    ], ids=["fraction", "first_occurrence", "crowd_count", "bounds_table"])
    def test_every_scenario_refuses_a_negative_seed(self, overrides):
        with pytest.raises(ValueError, match="master seed must be non-negative, got -1"):
            fraction_spec(master_seed=-1, **overrides)

    @pytest.mark.parametrize("overrides", [
        dict(scenario="first_occurrence"),
        dict(scenario="crowd_count", match_probability=0.1, beta=0.5),
        dict(scenario="bounds_table"),
    ], ids=["first_occurrence", "crowd_count", "bounds_table"])
    def test_only_the_fraction_scenario_takes_a_trace_file(self, overrides):
        # No other runner reads the file, so setting it would be ignored.
        with pytest.raises(ValueError, match="only the fraction scenario reads a trace_file"):
            fraction_spec(trace_file="pool.txt", **overrides)
        fraction_spec(**overrides)


class TestRunFraction:
    def test_zero_noise_never_finds_the_reserved_pattern(self):
        # gap=None: the reserved symbols never occur in a raw trace at all.
        for gap in (5, None):
            res = run_fraction(fraction_spec(p_obf=0.0, iterations=10, gap=gap))
            for rec in res.records:
                assert rec["estimate"] == 0.0

    def test_estimates_lie_in_unit_interval(self):
        res = run_fraction(fraction_spec())
        for rec in res.records:
            assert 0.0 <= rec["estimate"] <= 1.0
            assert rec["std_error"] >= 0.0
            assert rec["samples"] == 30 * 19

    def test_identical_spec_and_seed_reproduce_records(self):
        a = run_fraction(fraction_spec())
        b = run_fraction(fraction_spec())
        assert a.records == b.records

    def test_worker_count_does_not_change_results(self):
        spec = fraction_spec(iterations=12, n_users=8)
        serial = run_fraction(spec, workers=1)
        parallel = run_fraction(spec, workers=3)
        assert serial.records == parallel.records

    def test_standard_error_shrinks_with_iterations(self):
        small = run_fraction(fraction_spec(iterations=20)).records[0]
        large = run_fraction(fraction_spec(iterations=80)).records[0]
        ratio = large["std_error"] / small["std_error"]
        assert 0.35 < ratio < 0.65

    def test_superstring_engine_dominates_iid(self):
        res = run_fraction(fraction_spec(iterations=60))
        by_method = {rec["method"]: rec for rec in res.records}
        assert (
            by_method["sl_sbu"]["estimate"]
            >= by_method["iid"]["estimate"] - 3 * by_method["iid"]["std_error"]
        )

    def test_lov_engine_dominates_its_coverage_bound(self):
        m, r, p = 300, 8, 0.05
        spec = fraction_spec(
            alphabet_size=r, order=1, trace_length=m, p_obf=p,
            methods=("lov",), n_users=40, iterations=25,
        )
        rec = run_fraction(spec).records[0]
        floor = lov_bound(m, r, p)
        assert rec["estimate"] + 3 * rec["std_error"] >= floor


SPEC_METHODS = ("iid", "sbu", "sl_sbu", "lov", "plov", "manp")


def assert_matches_reference(spec, workers):
    hits, replaced, samples = fraction_counts_reference(spec, 0, spec.iterations)
    result = run_fraction(spec, workers=workers)
    assert result.counters["samples"] == samples
    for rec, method, h, k in zip(result.records, spec.methods, hits, replaced):
        assert rec["samples"] == samples
        assert rec["estimate"] == h / samples
        assert result.counters[f"hits.{method}"] == h
        assert result.counters[f"replacements.{method}"] == k


class TestFractionMatchesReference:
    """The batched protocol against the one-user-at-a-time loop, bit for bit."""

    @pytest.mark.parametrize("workers", (1, 3))
    @pytest.mark.parametrize("gap", (1, 3, None))
    def test_every_spec_method(self, gap, workers):
        methods = tuple(m for m in SPEC_METHODS if gap is not None or m != "manp")
        spec = fraction_spec(alphabet_size=6, trace_length=40, p_obf=0.3, gap=gap,
                             methods=methods, n_users=6, iterations=4, master_seed=2**33 + 1)
        assert_matches_reference(spec, workers)

    @pytest.mark.parametrize("workers", (1, 3))
    def test_ingested_source(self, tmp_path, workers):
        gen = np.random.default_rng(12)
        path = tmp_path / "pool.txt"
        write_trace_file(path, [Trace(gen.integers(0, 6, size=int(n)), Alphabet(6))
                                for n in gen.integers(20, 90, size=7)])
        spec = fraction_spec(trace_length=30, gap=4, methods=("iid", "sbu", "lov"),
                             n_users=5, iterations=6, trace_file=str(path))
        assert_matches_reference(spec, workers)

    @staticmethod
    def logged_pool(tmp_path, monkeypatch):
        """An ingested spec, and a log that gains a line per read of its file."""
        gen = np.random.default_rng(13)
        path = tmp_path / "pool.txt"
        write_trace_file(path, [Trace(gen.integers(0, 6, size=40), Alphabet(6))] * 3)
        # Reads are logged to a file, which worker processes can append to.
        log = tmp_path / "reads.log"
        log.touch()

        def logged_read(*args):
            with open(log, "a") as fh:
                fh.write("read\n")
            return read_trace_file(*args)

        monkeypatch.setattr("seqobf.ingest.read_trace_file", logged_read)
        spec = fraction_spec(trace_length=30, n_users=4, iterations=6,
                             trace_file=str(path))
        return spec, log

    @pytest.mark.parametrize("workers", (1, 3))
    def test_an_ingested_file_is_read_once_per_run(self, tmp_path, monkeypatch, workers):
        spec, log = self.logged_pool(tmp_path, monkeypatch)
        run_fraction(spec, workers=workers)
        assert log.read_text().splitlines() == ["read"]

    @pytest.mark.parametrize("workers", (1, 3))
    def test_a_sweep_reads_an_ingested_file_once(self, tmp_path, monkeypatch, workers):
        spec, log = self.logged_pool(tmp_path, monkeypatch)
        grid = (0.1, 0.3, 0.6)
        cells = [run_fraction(replace(spec, p_obf=p), workers=workers) for p in grid]
        log.write_text("")
        result = sweep(spec, grid, workers=workers)
        assert log.read_text().splitlines() == ["read"]
        swept, one_by_one = io.StringIO(), io.StringIO()
        write_csv(result.records, swept)
        write_csv([rec for cell in cells for rec in cell.records], one_by_one)
        assert swept.getvalue() == one_by_one.getvalue()

    def test_an_unreadable_file_is_reported_before_any_worker_starts(self, tmp_path,
                                                                      monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("seqobf.sim.ProcessPoolExecutor", no_pool)
        spec = fraction_spec(trace_file=str(tmp_path / "missing.txt"))
        with pytest.raises(FileNotFoundError):
            run_fraction(spec, workers=3)

    @pytest.mark.parametrize("workers", (1, 3))
    def test_across_row_and_key_block_edges(self, workers):
        # 35 users give 34 rows per iteration, one past a row block; 31
        # iterations give 1054 samples, past the first key block.
        spec = fraction_spec(trace_length=20, p_obf=0.4, n_users=_ROW_BLOCK + 3,
                             iterations=31, master_seed=5)
        assert (spec.n_users - 1) * spec.iterations > _KEY_BLOCK
        assert_matches_reference(spec, workers)

    def test_every_method_across_row_and_key_block_edges(self):
        # Each purpose's generator pool is re-keyed for 32 row blocks, then
        # for the second key block's one short row block.
        spec = fraction_spec(trace_length=12, p_obf=0.4, gap=3, methods=SPEC_METHODS,
                             n_users=_ROW_BLOCK + 3, iterations=31, master_seed=6)
        assert_matches_reference(spec, 1)


def row_heights(monkeypatch, spec):
    """The rows of each _obfuscate_rows call of a run, per method, in call order."""
    def spied(z, r, config, gens, settled=None):
        heights.setdefault(config.method, []).append(len(z))
        return obfuscate_rows(z, r, config, gens, settled)

    heights = {}
    obfuscate_rows = sim._obfuscate_rows
    monkeypatch.setattr(sim, "_obfuscate_rows", spied)
    run_fraction(spec)
    return heights


def traced_peak(spec):
    """The tracemalloc peak of one iteration of spec, after a run at zero
    noise has grown the thread's generator pool to the spec's blocks."""
    quiet = replace(spec, p_obf=0.0)
    _fraction_iterations(quiet, *_fraction_plan(quiet), 0, 1)
    plan = _fraction_plan(spec)
    tracemalloc.start()
    try:
        _fraction_iterations(spec, *plan, 0, 1)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLockstepBlocks:
    """With lov or plov among a run's configs, a row block holds up to
    _LOCKSTEP_SYMBOLS positions, and at least _ROW_BLOCK rows; the last
    config that reads a block's base traces fills them in place.  Records
    and counters stay bit for bit."""

    @pytest.mark.parametrize("methods", [("lov",), ("iid", "plov")], ids="-".join)
    @pytest.mark.parametrize("m", (20, 1000, 4096, 8192))
    def test_a_block_holds_up_to_its_symbols_in_at_least_32_rows(self, monkeypatch, m,
                                                                 methods):
        # A key block caps the 6 553 rows of 20-symbol traces.
        rows = min(max(32, 2**17 // m), _KEY_BLOCK)
        assert rows == {20: _KEY_BLOCK, 1000: 131, 4096: 32, 8192: 32}[m]
        spec = fraction_spec(trace_length=m, p_obf=0.05, methods=methods, n_users=rows + 4,
                             iterations=1)
        assert row_heights(monkeypatch, spec) == {method: [rows, 3] for method in methods}

    def test_below_a_key_block_the_symbols_set_the_rows(self, monkeypatch):
        monkeypatch.setattr(sim, "_LOCKSTEP_SYMBOLS", 1 << 10)
        spec = fraction_spec(trace_length=20, methods=("lov", "sl_sbu"), n_users=55,
                             iterations=1)
        assert row_heights(monkeypatch, spec) == {"lov": [51, 3], "sl_sbu": [51, 3]}

    @pytest.mark.parametrize("methods", [("iid", "sl_sbu"), ("sbu", "manp")], ids="-".join)
    @pytest.mark.parametrize("m", (20, 1000))
    def test_other_methods_keep_32_row_blocks(self, monkeypatch, m, methods):
        spec = fraction_spec(trace_length=m, methods=methods, n_users=_ROW_BLOCK + 4,
                             iterations=1)
        assert row_heights(monkeypatch, spec) == {method: [32, 3] for method in methods}

    @pytest.mark.parametrize("workers", (1, 3))
    @pytest.mark.parametrize("methods", [("lov",), ("plov",), SPEC_METHODS], ids="-".join)
    def test_across_lockstep_and_key_block_edges(self, monkeypatch, methods, workers):
        # Blocks of 40 rows of 12 symbols: 42 samples an iteration cross one,
        # and 25 iterations give 1 050 samples, past the first key block.
        # Worker processes forked from this one read the patched count.
        monkeypatch.setattr(sim, "_LOCKSTEP_SYMBOLS", 40 * 12)
        spec = fraction_spec(trace_length=12, p_obf=0.4, gap=3, methods=methods, n_users=43,
                             iterations=25, master_seed=8)
        assert (spec.n_users - 1) * spec.iterations > _KEY_BLOCK
        assert row_heights(monkeypatch, replace(spec, iterations=1))[methods[0]] == [40, 2]
        assert_matches_reference(spec, workers)

    SWEEP = dict(alphabet_size=9, order=1, gap=3, trace_length=60, n_users=5, iterations=4,
                 methods=("plov", "lov", "sl_sbu"), master_seed=19)

    def test_only_a_blocks_last_base_reader_fills_the_base_traces(self, monkeypatch):
        def drawn(*args):
            bases.append(base_symbols(*args))
            return bases[-1]

        def spied(z, r, config, gens, settled=None):
            filled.append((config.method, config.p_obf, z is bases[-1]))
            return obfuscate_rows(z, r, config, gens, settled)

        bases, filled = [], []
        base_symbols, obfuscate_rows = sim._base_symbols, sim._obfuscate_rows
        monkeypatch.setattr(sim, "_base_symbols", drawn)
        monkeypatch.setattr(sim, "_obfuscate_rows", spied)
        sweep(fraction_spec(**self.SWEEP), (0.1, 0.4))
        assert len(bases) == 1
        assert filled == [("plov", 0.1, False), ("lov", 0.1, False), ("sl_sbu", 0.1, False),
                          ("plov", 0.4, False), ("lov", 0.4, True), ("sl_sbu", 0.4, False)]

    @pytest.mark.parametrize("workers", (1, 3))
    def test_a_sweep_that_fills_in_place_equals_its_cells(self, workers):
        spec = fraction_spec(**self.SWEEP)
        grid = (0.1, 0.4)
        cells = [replace(spec, p_obf=p) for p in grid]
        for cell in cells:
            assert_matches_reference(cell, workers)
        swept, one_by_one = io.StringIO(), io.StringIO()
        write_csv(sweep(spec, grid, workers=workers).records, swept)
        write_csv([rec for cell in cells for rec in run_fraction(cell, workers).records],
                  one_by_one)
        assert swept.getvalue() == one_by_one.getvalue()

    @pytest.mark.parametrize("method", ("lov", "plov"))
    def test_memory_does_not_grow_with_the_users(self, method):
        # 140 samples run as blocks of 131 and 9 rows, 1 100 as eight full
        # blocks and three short ones across two key blocks.
        peaks = [traced_peak(fraction_spec(alphabet_size=20, order=2, gap=10, trace_length=1000,
                                           p_obf=0.05, methods=(method,), n_users=n,
                                           iterations=1))
                 for n in (141, 1101)]
        assert peaks[1] < 1.1 * peaks[0]

    def test_memory_of_a_long_trace_is_that_of_a_32_row_block(self):
        # At 8 192 symbols a block holds 32 rows, so 64 samples peak as 32 do.
        peaks = [traced_peak(fraction_spec(alphabet_size=20, order=2, gap=10, trace_length=8192,
                                           p_obf=0.05, methods=("plov",), n_users=n,
                                           iterations=1))
                 for n in (33, 65)]
        assert peaks[1] < 1.1 * peaks[0]


# (l, gap, p) for the data-dependent methods against the one-user loop.
# manp needs a finite gap.  At p = 0.5 most rows hold the pattern long
# before their last replacement; at p = 0.05 and l = 3 most never do.
SETTLE_CASES = [(l, gap, p) for l in (1, 2, 3) for gap in (1, 3, None) for p in (0.05, 0.5)]


def settle_spec(l, gap, p):
    methods = ("lov", "plov", "manp") if gap is not None else ("lov", "plov")
    return fraction_spec(alphabet_size=l + 5, order=l, gap=gap, trace_length=200, p_obf=p,
                         methods=methods, n_users=4, iterations=3, master_seed=9000 + 10 * l)


class TestDataDependentRowsStopOnceSettled:
    """manp stops filling a row once its filled prefix holds the pattern;
    records and counters stay those of filling every row to its end."""

    @pytest.mark.parametrize("workers", (1, 3))
    @pytest.mark.parametrize("case", SETTLE_CASES, ids=lambda c: "l{}-gap{}-p{}".format(*c))
    def test_matches_the_one_user_reference(self, case, workers):
        assert_matches_reference(settle_spec(*case), workers)

    def test_the_cases_hold_rows_that_settle_and_rows_that_never_do(self):
        hit = missed = 0
        for case in SETTLE_CASES:
            counters = run_fraction(settle_spec(*case)).counters
            if case[1] is not None:
                hit += counters["hits.manp"]
                missed += counters["samples"] - counters["hits.manp"]
        assert hit > 0 and missed > 0

    def test_a_settled_row_makes_fewer_picks_than_it_draws(self, monkeypatch):
        spec = fraction_spec(alphabet_size=6, order=1, gap=3, trace_length=200, p_obf=0.5,
                             methods=("manp",), n_users=5, iterations=4, master_seed=31)
        picks = []

        def counted(*args):
            picks.append(None)
            return choose(*args)

        choose = engines.manp_choose
        monkeypatch.setattr(engines, "manp_choose", counted)
        counters = run_fraction(spec).counters
        assert counters["hits.manp"] == counters["samples"]
        assert 0 < len(picks) < counters["replacements.manp"] / 4
        # The public engine fills the same rows to their end, as the
        # per-position reference does.
        picks.clear()
        root = RandomSource(spec.master_seed)
        cfg = EngineConfig("manp", p_obf=spec.p_obf, gap=spec.gap)
        for it in range(spec.iterations):
            for u in range(1, spec.n_users):
                x = root.derive(it, u, 0).generator.integers(0, 5, size=spec.trace_length)
                z, mask = obfuscate(Trace(x, Alphabet(6)), cfg, root.derive(it, u, 1),
                                    return_mask=True)
                gen = root.derive(it, u, 1).generator
                want_mask = gen.random(x.size) < spec.p_obf
                want = x.copy()
                manp_policy_reference(want, want_mask, 6, cfg, gen)
                assert np.array_equal(mask, want_mask)
                assert np.array_equal(z.symbols, want)
        assert len(picks) == counters["replacements.manp"]


# (m, r, l, gap, p) of iid fraction cells: each pattern length with gaps 1, 3
# and None, and a longer trace at gap 10.
IID_EXACT_CELLS = [
    (30, 6, 1, 1, 0.2), (40, 6, 1, 3, 0.1), (25, 4, 1, None, 0.15),
    (60, 5, 2, 1, 0.4), (60, 6, 2, 3, 0.3), (40, 6, 2, None, 0.2),
    (100, 4, 3, 1, 0.8), (80, 5, 3, 3, 0.6), (50, 6, 3, None, 0.5),
    (200, 8, 2, 10, 0.2),
]


class TestIidFractionExact:
    """The fraction protocol's iid estimate against its exact value."""

    @pytest.mark.parametrize("m,r,l,gap", [
        (8, 2, 1, None), (8, 2, 1, 3), (7, 3, 2, 1), (7, 3, 2, 3), (6, 3, 2, None),
        (5, 3, 2, 2), (6, 4, 3, 1), (6, 4, 3, 3), (5, 4, 3, None),
    ])
    def test_the_exact_value_equals_enumeration(self, m, r, l, gap):
        for p in (Fraction(1, 3), Fraction(3, 4), Fraction(1)):
            want = brute_force_iid_fraction(m, r, l, gap, p)
            assert iid_fraction_exact(m, r, l, gap, float(p)) == pytest.approx(want, rel=1e-12)

    def test_the_exact_value_at_test_4s_cells(self):
        # m 1000, r 20, l 2 at (h, p) = (10, 0.1), (5, 0.1) and (10, 0.05).
        got = [iid_fraction_exact(1000, 20, 2, h, p) for h, p in ((10, 0.1), (5, 0.1), (10, 0.05))]
        assert [round(value, 4) for value in got] == [0.2119, 0.1150, 0.0590]

    @pytest.mark.parametrize("i", range(len(IID_EXACT_CELLS)))
    def test_the_estimate_is_within_4_5_standard_errors(self, i):
        m, r, l, gap, p = IID_EXACT_CELLS[i]
        spec = fraction_spec(alphabet_size=r, order=l, gap=gap, trace_length=m, p_obf=p,
                             methods=("iid",), n_users=41, iterations=100,
                             master_seed=2900 + i)
        rec = run_fraction(spec).records[0]
        exact = iid_fraction_exact(m, r, l, gap, p)
        assert 0.1 < exact < 0.9
        assert abs(rec["estimate"] - exact) <= 4.5 * rec["std_error"], (rec["estimate"], exact)


# (m, r, l, gap, p) of lov fraction cells, as IID_EXACT_CELLS: lov sees every
# base symbol early and then picks the missing reserved ones, so far lower
# noise levels reach the same estimates.
LOV_EXACT_CELLS = [
    (30, 6, 1, 1, 0.03), (40, 6, 1, 3, 0.02), (25, 4, 1, None, 0.04),
    (60, 5, 2, 1, 0.4), (60, 6, 2, 3, 0.15), (40, 6, 2, None, 0.05),
    (100, 4, 3, 1, 0.6), (80, 5, 3, 3, 0.5), (50, 6, 3, None, 0.15),
    (200, 8, 2, 10, 0.05),
]


class TestLovFractionExact:
    """The fraction protocol's lov estimate against its exact value."""

    @pytest.mark.parametrize("m,r,l,gap", [
        (6, 3, 1, 1), (6, 3, 1, None), (5, 4, 2, 1), (5, 4, 2, 2), (6, 4, 2, 3),
        (5, 3, 2, None), (4, 5, 3, 3), (5, 4, 3, 1), (5, 5, 3, None),
    ])
    def test_the_exact_value_equals_enumeration(self, m, r, l, gap):
        for p in (Fraction(1, 3), Fraction(3, 4), Fraction(1)):
            want = brute_force_lov_fraction(m, r, l, gap, p)
            assert lov_fraction_exact(m, r, l, gap, float(p)) == pytest.approx(want, rel=1e-12)

    def test_the_exact_value_at_the_canonical_cell(self):
        assert round(lov_fraction_exact(1000, 20, 2, 10, 0.1), 5) == 0.35645

    @pytest.mark.parametrize("i", range(len(LOV_EXACT_CELLS)))
    def test_the_estimate_is_within_4_5_standard_errors(self, i):
        m, r, l, gap, p = LOV_EXACT_CELLS[i]
        spec = fraction_spec(alphabet_size=r, order=l, gap=gap, trace_length=m, p_obf=p,
                             methods=("lov",), n_users=41, iterations=100,
                             master_seed=3100 + i)
        rec = run_fraction(spec).records[0]
        exact = lov_fraction_exact(m, r, l, gap, p)
        assert 0.1 < exact < 0.9
        assert abs(rec["estimate"] - exact) <= 4.5 * rec["std_error"], (rec["estimate"], exact)

    def test_the_lov_bound_holds_at_one_symbol(self):
        # At l = 1 the pattern is one reserved symbol, whose coverage
        # probability lov_bound bounds from below.
        for m, r, p in product((1, 3, 10, 40, 200), (2, 3, 5, 12, 20),
                               (0.0, 0.01, 0.1, 0.3, 0.7, 1.0)):
            assert lov_bound(m, r, p) <= lov_fraction_exact(m, r, 1, None, p) + 1e-12, (m, r, p)


class TestFractionCounters:
    def test_full_noise_replaces_every_position(self):
        spec = fraction_spec(p_obf=1.0, iterations=3, trace_length=50)
        counters = run_fraction(spec).counters
        assert counters["samples"] == 3 * 19
        for method in spec.methods:
            assert counters[f"replacements.{method}"] == 3 * 19 * 50

    def test_zero_noise_replaces_and_finds_nothing(self):
        counters = run_fraction(fraction_spec(p_obf=0.0, iterations=3)).counters
        assert counters["samples"] == 3 * 19
        for method in ("iid", "sl_sbu"):
            assert counters[f"replacements.{method}"] == 0
            assert counters[f"hits.{method}"] == 0

    def test_worker_count_does_not_change_counters(self):
        spec = fraction_spec(iterations=7, n_users=8)
        assert run_fraction(spec, workers=1).counters == run_fraction(spec, workers=3).counters

    def test_superstrings_match_a_hand_count(self):
        # A superstring holds l r^l = 18 symbols for sbu and r^l + l - 1 =
        # 10 for sl_sbu; a sample with k replacements draws ceil(k / L).
        spec = fraction_spec(alphabet_size=3, order=2, trace_length=25, p_obf=0.5,
                             methods=("iid", "sbu", "sl_sbu"), n_users=4, iterations=3)
        want = {"sbu": 0, "sl_sbu": 0}
        for it, u in product(range(3), range(1, 4)):
            for j, (method, size) in enumerate((("sbu", 18), ("sl_sbu", 10)), start=2):
                k = np.count_nonzero(RandomSource(77, (it, u, j)).generator.random(25) < 0.5)
                want[method] += -(-k // size)
        counters = run_fraction(spec).counters
        assert {name: n for name, n in counters.items() if name.startswith("superstrings.")} == {
            "superstrings.sbu": want["sbu"], "superstrings.sl_sbu": want["sl_sbu"]}
        # Some samples here take two sl_sbu superstrings but one sbu.
        assert want["sbu"] < want["sl_sbu"]
        full = run_fraction(replace(spec, p_obf=1.0)).counters
        assert (full["superstrings.sbu"], full["superstrings.sl_sbu"]) == (9 * 2, 9 * 3)

    def test_superstrings_are_equal_at_any_worker_count(self):
        spec = fraction_spec(methods=("sbu", "sl_sbu", "lov"), iterations=7, n_users=8)
        serial, parallel = (run_fraction(spec, workers=w).counters for w in (1, 3))
        assert serial == parallel
        assert serial["superstrings.sbu"] > 0 and "superstrings.lov" not in serial

    def test_sweep_sums_its_cells(self):
        spec = fraction_spec(iterations=2)
        cells = [run_fraction(fraction_spec(iterations=2, p_obf=p)).counters for p in (0.1, 0.3)]
        total = sweep(spec, [0.1, 0.3]).counters
        assert total == {k: cells[0][k] + cells[1][k] for k in cells[0]}


def test_memory_of_an_iteration_is_bounded_by_its_row_blocks():
    spec = fraction_spec(alphabet_size=20, order=2, gap=10, trace_length=1000,
                         p_obf=0.1, methods=("iid",), n_users=5000, iterations=1)
    tracemalloc.start()
    try:
        _fraction_iterations(spec, *_fraction_plan(spec), 0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    whole_iteration = (spec.n_users - 1) * spec.trace_length * 8
    assert peak < whole_iteration / 10


def test_an_alphabet_of_2_to_the_32_or_more_keeps_its_records():
    # Raw draws take bounds below 2**32, so iid fills these blocks row by row
    # with Generator.integers; the figures are those of that fill.
    result = run_fraction(fraction_spec(alphabet_size=2**32 + 5, methods=("iid",), iterations=3))
    assert result.records == ({
        "scenario": "fraction", "method": "iid", "m": 200, "r": 2**32 + 5, "l": 2, "h": 5,
        "p_obf": 0.2, "iterations": 3, "n_users": 20, "samples": 57, "estimate": 0.0,
        "std_error": 0.0,
    },)
    assert result.counters == {"samples": 57, "hits.iid": 0, "replacements.iid": 2289}


class TestRace:
    def test_chunked_scan_matches_whole_stream_scan(self):
        # Tiny chunks force occurrences to span rounds, and the rows finish
        # in different rounds; replaying each row's draws into one long
        # stream must give the same index and the same count of draws.
        from seqobf.sim import _scan_iid_rows
        from oracles import naive_first_occurrence

        rows, chunk, pattern = 300, 4, (0, 1, 0)
        gens = [RandomSource(seed).generator for seed in range(rows)]
        got, drawn = _scan_iid_rows(gens, np.tile(pattern, (rows, 1)), 2, chunk, np.full(rows, -1))
        lengths = []
        for seed in range(rows):
            replay = RandomSource(seed).generator
            stream: list[int] = []
            want = None
            while want is None:
                stream.extend(replay.integers(0, 2, size=chunk))
                want = naive_first_occurrence(stream, pattern)
            assert got[seed] == want
            lengths.append(len(stream))
        assert drawn == sum(lengths)
        assert len(set(lengths)) > 2

    @pytest.mark.parametrize("r,l,iterations", [(2, 1, 1100), (3, 2, 400), (10, 2, 300),
                                                (10, 3, 150)])
    def test_records_match_a_whole_stream_reference(self, r, l, iterations):
        # (2, 1) x 1 100 runs two blocks of 1 024 rows.
        from oracles import race_records_reference

        got = run_first_occurrence_race(r, l, iterations, master_seed=31).records
        assert got == race_records_reference(r, l, iterations, seed=31)

    def test_counters_match_a_recount_of_the_streams(self):
        from oracles import naive_first_occurrence

        # At (10, 3) a chunk holds 2 000 symbols, so about e^-2 of 150
        # iterations need more than one.
        r, l, iterations, seed = 10, 3, 150, 21
        chunk = max(2 * r**l, 64)
        drawn = used = 0
        for it in range(iterations):
            gen = RandomSource(seed, (it,)).generator
            q = [int(s) for s in gen.integers(0, r, size=l)]
            gen.integers(r**l)  # the superstring's offset
            stream: list[int] = []
            first = None
            while first is None:
                stream.extend(int(s) for s in gen.integers(0, r, size=chunk))
                first = naive_first_occurrence(stream, q)
            drawn += len(stream)
            used += first + l - 1
        assert drawn > iterations * chunk
        counters = run_first_occurrence_race(r, l, iterations, master_seed=seed).counters
        assert counters == {
            "samples": iterations, "iid_symbols_drawn": drawn, "iid_symbols_used": used,
        }

    @pytest.mark.parametrize("r", [2, 3, 10, 20, 2**16, 2**24])
    def test_a_draw_gives_the_same_symbols_however_it_is_split(self, r):
        # The race makes no integers calls, but race_records_reference in
        # tests/oracles.py draws the pattern in one sized call and the iid
        # stream in chunks of r^l, and it matches the race's records bit for
        # bit only because of this.
        l = 2 if r < 2**16 else 1
        splits = np.random.default_rng(r)
        for it in range(40):
            n = int(splits.integers(1, 5000))
            cuts = np.sort(splits.choice(np.arange(1, n + 1), size=min(n, 6), replace=False))
            patterns, streams = [], []
            for scalar, parts in product((False, True),
                                         ([n], np.diff(np.concatenate([[0], cuts, [n]])))):
                gen = RandomSource(it, (r,)).generator
                if scalar:
                    patterns.append([gen.integers(r) for _ in range(l)])
                else:
                    patterns.append(gen.integers(0, r, size=l))
                gen.integers(r**l)  # the superstring's offset
                streams.append(np.concatenate(
                    [gen.integers(0, r, size=int(k)) for k in parts if k]))
            for pattern, stream in zip(patterns[1:], streams[1:]):
                np.testing.assert_array_equal(pattern, patterns[0])
                np.testing.assert_array_equal(stream, streams[0])

    def test_memory_is_bounded_by_the_scan_budget(self):
        from seqobf.sim import _RACE_SCAN_SYMBOLS

        run_first_occurrence_race(10, 3, 2)  # builds the cycle table
        peaks = []
        for iterations in (200, 3000):
            tracemalloc.start()
            try:
                run_first_occurrence_race(10, 3, iterations, master_seed=4)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # Only the two per-iteration results grow, by 16 bytes an iteration.
        assert peaks[1] < 1.25 * peaks[0]
        assert peaks[1] < 8 * _RACE_SCAN_SYMBOLS + 3 * 2**19
        # Where r^l is over the budget, a chunk is the budget.  A row that
        # misses holds its first chunk, its last buffer, a new chunk and
        # their concatenation at most.
        run_first_occurrence_race(2, 20, 2)
        tracemalloc.start()
        try:
            run_first_occurrence_race(2, 20, 2, master_seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * _RACE_SCAN_SYMBOLS

    @pytest.mark.parametrize("iterations", [0, 1])
    def test_fewer_than_two_iterations_are_refused(self, iterations):
        # One iteration has no standard error and none has no mean.
        with pytest.raises(ValueError, match="iterations >= 2"):
            run_first_occurrence_race(3, 2, iterations)

    def test_a_draw_that_never_finds_its_pattern_fails(self, monkeypatch):
        # Every pattern is (1, 1) and every iid symbol 0.  At (3, 2) a round
        # scans 64 symbols, so the cap of 200 l r^l symbols falls in round
        # 57; the fake stops far past it, so a race without a cap fails
        # here instead of running forever.
        r, l = 3, 2
        cap_rounds = -(-200 * l * r**l // 64)
        rounds = 0

        def never(gens, spare, segments, out):
            nonlocal rounds
            if len(segments) == 1:
                rounds += 1
                if rounds > 4 * cap_rounds:
                    raise AssertionError("the race drew four times its cap")
            out[:] = 1 if len(segments) > 1 else 0
            return np.full(len(gens), -1)

        monkeypatch.setattr(sim, "_raw_values", never)
        with pytest.raises(RuntimeError, match="the draw is broken"):
            run_first_occurrence_race(r, l, 2)
        assert rounds == cap_rounds

    def test_the_exact_race_equals_enumeration(self):
        from oracles import (brute_force_first_occurrence_survival, first_occurrence_law,
                             pattern_borders, race_exact)

        for r, l in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3)):
            n, later = r**l, 0.0
            for pattern in product(range(r), repeat=l):
                survival, mean = first_occurrence_law(pattern, r, n)
                np.testing.assert_allclose(
                    survival, brute_force_first_occurrence_survival(pattern, r, n), rtol=1e-12)
                # E[T] is the sum of r^k over the pattern's borders and
                # itself, less l - 1.
                assert mean == pytest.approx(
                    sum(r**k for k in (*pattern_borders(pattern), l)) - l + 1, rel=1e-12)
                later += survival.sum() / n**2
            exact = race_exact(r, l)
            assert exact["prob_iid_later"] == pytest.approx(later, rel=1e-12)
            assert exact["mean_first_iid"] == pytest.approx(n, rel=1e-12)
            assert exact["mean_first_superstring"] == (n + 1) / 2

    @pytest.mark.parametrize("r, l", [(2, 1), (3, 2), (2, 3), (5, 2), (4, 3)])
    def test_the_race_matches_its_exact_statistics(self, r, l):
        from oracles import race_exact

        n = 20_000
        rec = run_first_occurrence_race(r, l, n, master_seed=26).records[0]
        exact = race_exact(r, l)
        p = rec["prob_iid_later"]
        se = {"mean_first_iid": rec["se_first_iid"],
              "mean_first_superstring": rec["se_first_superstring"],
              "prob_iid_later": np.sqrt(p * (1 - p) / n)}
        for name, want in exact.items():
            assert abs(rec[name] - want) <= 4.5 * se[name], (name, rec[name], want)

    def test_order_one_superstring_mean(self):
        res = run_first_occurrence_race(2, 1, 4000, master_seed=6)
        rec = res.records[0]
        assert (
            abs(rec["mean_first_superstring"] - 1.5)
            <= 3 * rec["se_first_superstring"] + 1e-9
        )

    def test_small_race_statistics(self):
        res = run_first_occurrence_race(4, 2, 5000, master_seed=7)
        rec = res.records[0]
        n = 4**2
        assert (
            abs(rec["mean_first_superstring"] - (n + 1) / 2)
            <= 3 * rec["se_first_superstring"]
        )
        assert rec["mean_first_iid"] >= n * 0.9
        assert 0.5 < rec["prob_iid_later"] < 0.75


def fresh_generators(seed, rows):
    return [RandomSource(seed, (i,)).generator for i in range(rows)]


class TestRawRule:
    """The race reads its pattern, offset and chunks in stream order, also
    where halves are rejected; core's TestRawRule checks the draw itself."""

    def test_the_race_reads_pattern_offset_and_chunk_in_stream_order(self, monkeypatch):
        # Each block's offsets and patterns, and its first scanned chunk.
        blocks = []
        first_index, matches = sim._shortest_first_index, sim._contiguous_matches

        def offsets(r, l, offsets, patterns):
            blocks.append([offsets.copy(), patterns.copy()])
            return first_index(r, l, offsets, patterns)

        def chunk(x, patterns):
            if len(blocks[-1]) == 2:
                blocks[-1].append(x.copy())
            return matches(x, patterns)

        monkeypatch.setattr(sim, "_shortest_first_index", offsets)
        monkeypatch.setattr(sim, "_contiguous_matches", chunk)
        # At (128, 2) a block holds 8 rows.
        for r, l in ((10, 1), (10, 2), (6, 3), (128, 2)):
            blocks.clear()
            run_first_occurrence_race(r, l, 40, master_seed=r + l)
            offset, pattern, first_chunk = (np.concatenate(part) for part in zip(*blocks))
            for it in range(40):
                gen = RandomSource(r + l, (it,)).generator
                assert pattern[it].tolist() == [gen.integers(r) for _ in range(l)]
                assert offset[it] == gen.integers(r**l)
                np.testing.assert_array_equal(
                    first_chunk[it], gen.integers(0, r, size=first_chunk.shape[1]))

    def test_a_scan_with_rejections_and_carried_halves(self):
        # At 3 * 2**30 a quarter of all halves are rejected, so in rounds
        # of 4 symbols the rows change between holding a spare half and
        # not.  Each pattern is read off its row's own stream, a few
        # rounds in, so the scan ends.
        from seqobf.sim import _scan_iid_rows
        from oracles import naive_first_occurrence

        r, l, chunk, rows = 3 * 2**30, 2, 4, 200
        places = np.random.default_rng(5).integers(0, 6 * chunk, size=rows)
        patterns = np.empty((rows, l), dtype=np.int64)
        for i, at in enumerate(places.tolist()):
            patterns[i] = RandomSource(9, (i,)).generator.integers(0, r, size=at + l)[at:]
        got, drawn = _scan_iid_rows(fresh_generators(9, rows), patterns, r, chunk,
                                    np.full(rows, -1))
        total = 0
        for i in range(rows):
            replay = RandomSource(9, (i,)).generator
            stream: list[int] = []
            want = None
            while want is None:
                stream.extend(replay.integers(0, r, size=chunk).tolist())
                want = naive_first_occurrence(stream, patterns[i].tolist())
            assert got[i] == want
            total += len(stream)
        assert drawn == total
        assert len(set(got.tolist())) > 10

    # (r, l) of synthetic base traces, drawn below r - l: a bound of 1, of
    # 2, the canonical cell's, and one that rejects about half of all halves.
    @pytest.mark.parametrize("r, l", [(3, 2), (4, 2), (20, 2), (2**31 + 3, 2)])
    def test_a_blocks_base_traces_equal_per_row_integers(self, r, l):
        # 40 rows of 1000 symbols take two slices of a raw draw.
        spec = fraction_spec(alphabet_size=r, order=l, methods=("lov",), trace_length=1000)
        gens = fresh_generators(r % 997, 40)
        x = sim._base_symbols(spec, gens, None)
        for i, (row, gen) in enumerate(zip(x, gens)):
            replay = RandomSource(r % 997, (i,)).generator
            np.testing.assert_array_equal(row, replay.integers(0, r - l, size=1000))
            if r - l == 1:
                # Nothing is drawn.
                assert gen.bit_generator.random_raw() == replay.bit_generator.random_raw()

    def test_a_base_alphabet_of_2_to_the_32_or_more_draws_row_by_row(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a raw draw was made")

        monkeypatch.setattr(sim, "_raw_values", refused)
        r = 2**40
        spec = fraction_spec(alphabet_size=r, order=1, methods=("lov",), trace_length=50)
        x = sim._base_symbols(spec, fresh_generators(6, 4), None)
        for i, row in enumerate(x):
            replay = RandomSource(6, (i,)).generator
            np.testing.assert_array_equal(row, replay.integers(0, r - 1, size=50))
        assert x.max() > 2**32

    def test_ingested_base_traces_are_windows_drawn_row_by_row(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a raw draw was made")

        monkeypatch.setattr(sim, "_raw_values", refused)
        pool = [np.random.default_rng(k).integers(0, 6, size=n) for k, n in enumerate((40, 55, 90))]
        spec = fraction_spec(trace_length=30, methods=("lov",))
        x = sim._base_symbols(spec, fresh_generators(4, 10), pool)
        for i, row in enumerate(x):
            replay = RandomSource(4, (i,)).generator
            symbols = pool[int(replay.integers(3))]
            start = int(replay.integers(symbols.size - 29))
            np.testing.assert_array_equal(row, symbols[start : start + 30])


class TestGeneratorPools:
    """The keyed generator pool lives per thread and across calls: a run
    draws the same whether its thread's pool is new or warm, or was last
    keyed by another protocol, and while another thread runs at the same
    time."""

    POOL_SPEC = dict(alphabet_size=6, trace_length=40, p_obf=0.3, gap=3,
                     methods=SPEC_METHODS, n_users=6, iterations=4, master_seed=12)

    @classmethod
    def runs(cls):
        race = run_first_occurrence_race(10, 2, 300, master_seed=3)
        fraction = run_fraction(fraction_spec(**cls.POOL_SPEC))
        runs = [(res.records, res.counters) for res in (race, fraction)]
        return runs, len(core._pool.generators)

    def in_threads(self, count):
        barrier = threading.Barrier(count)

        def start_together():
            barrier.wait()
            return self.runs()

        with ThreadPoolExecutor(max_workers=count) as executor:
            return [f.result() for f in [executor.submit(start_together)
                                         for _ in range(count)]]

    def test_cold_warm_and_concurrent_runs_are_equal(self):
        (cold, size), = self.in_threads(1)
        # The race runs one block of 300 rows, the fraction run one of 20
        # samples, so the fraction run draws from a pool the race keyed.
        assert size == 300
        # A 1 024-row race and a fraction run of other row blocks leave
        # this thread's pool larger than the runs above use.
        run_first_occurrence_race(2, 1, 1100, master_seed=8)
        run_fraction(fraction_spec(n_users=_ROW_BLOCK + 3, iterations=2, methods=SPEC_METHODS,
                                   trace_length=30))
        warm, size = self.runs()
        assert size == _KEY_BLOCK
        assert warm == cold
        # New threads start with a pool of their own, not this thread's.
        for runs, size in self.in_threads(2):
            assert runs == cold
            assert size == 300


class TestCrowdCount:
    def test_certain_match_gives_full_count(self):
        spec = ExperimentSpec(
            scenario="crowd_count", alphabet_size=4, order=2, gap=1,
            trace_length=10, p_obf=0.0, n_users=50, iterations=200,
            master_seed=8, match_probability=1.0, beta=0.5,
        )
        rec = run_crowd_count(spec).records[0]
        assert rec["mean_count"] == 50.0
        assert rec["frequency_above"] == 1.0

    def test_mean_and_tail_match_binomial(self):
        n, q, beta, iters = 400, 0.05, 0.5, 4000
        spec = ExperimentSpec(
            scenario="crowd_count", alphabet_size=4, order=2, gap=1,
            trace_length=10, p_obf=0.0, n_users=n, iterations=iters,
            master_seed=9, match_probability=q, beta=beta,
        )
        rec = run_crowd_count(spec).records[0]
        se_mean = np.sqrt(n * q * (1 - q) / iters)
        assert abs(rec["mean_count"] - n * q) < 3 * se_mean
        threshold = n**beta / 2
        exact_tail = float(sstats.binom.sf(np.ceil(threshold) - 1, n, q))
        se_tail = np.sqrt(exact_tail * (1 - exact_tail) / iters)
        assert abs(rec["frequency_above"] - exact_tail) < 3 * se_tail + 1e-9

    @pytest.mark.parametrize("iterations", [1, sim._CROWD_CHUNK - 1, sim._CROWD_CHUNK,
                                            sim._CROWD_CHUNK + 1, 3 * sim._CROWD_CHUNK + 5])
    def test_records_equal_one_call_across_chunk_edges(self, iterations):
        for n, q, beta in ((400, 0.05, 0.5), (30, 0.5, 0.9), (5, 0.01, 0.1), (1, 1.0, 0.3)):
            spec = ExperimentSpec(
                scenario="crowd_count", alphabet_size=4, order=2, gap=1, trace_length=10,
                p_obf=0.0, n_users=n, iterations=iterations, master_seed=iterations % 7,
                match_probability=q, beta=beta,
            )
            counts = RandomSource(spec.master_seed).generator.binomial(n, q, size=iterations)
            threshold = n**beta / 2.0
            freq = float((counts >= threshold).mean())
            rec = run_crowd_count(spec).records[0]
            assert rec["mean_count"] == float(counts.mean())
            assert rec["frequency_above"] == freq
            assert rec["std_error"] == float(np.sqrt(max(freq * (1 - freq), 0.0) / iterations))

    def test_memory_does_not_grow_with_the_iterations(self):
        spec = ExperimentSpec(
            scenario="crowd_count", alphabet_size=4, order=2, gap=1, trace_length=10,
            p_obf=0.0, n_users=10, iterations=10**7, master_seed=3,
            match_probability=0.1, beta=0.5,
        )
        tracemalloc.start()
        try:
            run_crowd_count(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One chunk of int64 counts and its bool test, with room to spare.
        assert peak < 4 * 8 * sim._CROWD_CHUNK


class TestSweepAndDispatch:
    def test_empty_method_grid_gives_empty_records(self):
        res = sweep(fraction_spec(methods=(), iterations=2), [0.1, 0.2])
        assert res.records == ()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_refused(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_fraction(fraction_spec(iterations=2), workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            sweep(fraction_spec(iterations=2), [0.1], workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run(fraction_spec(scenario="first_occurrence", iterations=2), workers=workers)

    @pytest.mark.parametrize("runner", [run_fraction, lambda spec: sweep(spec, [0.1])])
    def test_a_non_fraction_spec_is_refused(self, runner):
        with pytest.raises(ValueError, match="run_fraction got scenario 'first_occurrence'"):
            runner(fraction_spec(scenario="first_occurrence", iterations=2))

    def test_run_dispatches_a_race_spec_to_the_race(self):
        spec = fraction_spec(scenario="first_occurrence", alphabet_size=4, order=2,
                             iterations=50, master_seed=31)
        assert run(spec).records == run_first_occurrence_race(4, 2, 50, 31).records

    def test_crowd_count_refuses_another_scenario(self):
        with pytest.raises(ValueError, match="run_crowd_count got scenario 'fraction'"):
            run_crowd_count(fraction_spec(iterations=2))

    def test_a_sweep_builds_its_plan_once(self, monkeypatch):
        spec = fraction_spec(methods=("iid", "manp"), iterations=2)
        built = []

        def counted(cell):
            built.append(cell)
            return plan(cell)

        plan = _fraction_plan
        monkeypatch.setattr("seqobf.sim._fraction_plan", counted)
        res = sweep(spec, [0.1, 0.3, 0.6])
        assert len(built) == 1
        assert [rec["p_obf"] for rec in res.records] == [0.1, 0.1, 0.3, 0.3, 0.6, 0.6]

    @pytest.mark.parametrize("workers", (1, 3))
    def test_a_grid_value_outside_the_unit_interval_is_refused_before_any_run(
            self, monkeypatch, workers):
        def no_run(*args, **kwargs):
            raise AssertionError("a cell was run")

        monkeypatch.setattr("seqobf.sim.ProcessPoolExecutor", no_run)
        monkeypatch.setattr("seqobf.sim._fraction_iterations", no_run)
        for methods in (("iid",), ()):
            spec = fraction_spec(methods=methods, iterations=3)
            with pytest.raises(ValueError, match=r"p_obf must be in \[0, 1\], got 1.5"):
                sweep(spec, [0.1, 1.5], workers=workers)

    def test_an_empty_grid_runs_nothing(self, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a cell was run")

        monkeypatch.setattr("seqobf.sim._fraction_iterations", no_run)
        res = sweep(fraction_spec(iterations=2), [], workers=3)
        assert (res.records, res.counters) == ((), {})

    def test_a_sweep_derives_and_draws_each_stream_once(self, monkeypatch):
        spec = fraction_spec(methods=("iid", "lov"), n_users=6, iterations=3)
        calls = {"_derive_keys": 0, "_base_symbols": 0}

        def counted(name):
            fn = getattr(sim, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(sim, name, wrapper)

        for name in calls:
            counted(name)
        sweep(spec, [0.1])
        once = dict(calls)
        sweep(spec, [0.1, 0.3, 0.6])
        assert {name: n - once[name] for name, n in calls.items()} == once

    def test_data_independent_methods_draw_no_base_trace(self, tmp_path, monkeypatch):
        path = tmp_path / "pool.txt"
        write_trace_file(path, [Trace(np.random.default_rng(14).integers(0, 6, size=40),
                                      Alphabet(6))] * 3)
        base_draws, keyings = [], []
        base_symbols, keyed_generators = sim._base_symbols, sim._keyed_generators

        def counted_draw(*args):
            base_draws.append(args)
            return base_symbols(*args)

        def counted_keying(*args):
            keyings.append(args)
            return keyed_generators(*args)

        monkeypatch.setattr(sim, "_base_symbols", counted_draw)
        monkeypatch.setattr(sim, "_keyed_generators", counted_keying)
        for trace_file in (None, str(path)):
            spec = fraction_spec(methods=("iid", "sbu", "sl_sbu"), trace_length=30, n_users=4,
                                 iterations=3, trace_file=trace_file)
            assert sweep(spec, [0.1, 0.5]).counters["samples"] == 18
        # Each sweep keys one row block for each of its 6 cells, and would
        # key it once more for base traces.
        assert (len(base_draws), len(keyings)) == (0, 12)
        # The pool is still read and checked, though no row draws from it.
        spec = replace(spec, trace_length=41)
        with pytest.raises(ValueError, match="no ingested trace is at least 41 symbols long"):
            run_fraction(spec)

    def test_a_sweep_starts_one_process_pool(self, monkeypatch):
        pools = []

        class CountedPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", CountedPool)
        sweep(fraction_spec(iterations=3, n_users=4), [0.1, 0.3, 0.6], workers=3)
        assert len(pools) == 1

    @pytest.mark.parametrize("workers", (1, 3))
    def test_a_data_dependent_sweep_equals_its_cells(self, workers):
        spec = fraction_spec(alphabet_size=9, order=1, gap=3, trace_length=60,
                             methods=("lov", "plov", "manp", "sl_sbu", "iid"), n_users=5,
                             iterations=4, master_seed=18)
        grid = (0.05, 0.2, 0.5)
        cells = [run_fraction(replace(spec, p_obf=p), workers=workers) for p in grid]
        swept, one_by_one = io.StringIO(), io.StringIO()
        write_csv(sweep(spec, grid, workers=workers).records, swept)
        write_csv([rec for cell in cells for rec in cell.records], one_by_one)
        assert swept.getvalue() == one_by_one.getvalue()

    def test_sweep_produces_one_record_per_cell(self):
        res = sweep(fraction_spec(iterations=4), [0.1, 0.3])
        assert len(res.records) == 4
        assert {rec["p_obf"] for rec in res.records} == {0.1, 0.3}

    def test_dispatcher_routes_by_scenario(self):
        res = run(fraction_spec(iterations=2))
        assert res.records[0]["scenario"] == "fraction"
        spec = ExperimentSpec(
            scenario="bounds_table", alphabet_size=20, order=2, gap=10,
            trace_length=1000, p_obf=0.1,
        )
        rec = run(spec).records[0]
        assert rec["bound_slsbu"] == pytest.approx(0.1417, abs=1e-4)

    def test_csv_round_trip(self, tmp_path):
        res = run_fraction(fraction_spec(iterations=3))
        out = tmp_path / "records.csv"
        write_csv(res.records, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("scenario,method,")
        assert len(lines) == 1 + len(res.records)

    def test_csv_to_an_open_stream_matches_the_file(self, tmp_path):
        records = run_fraction(fraction_spec(iterations=3)).records
        out = tmp_path / "records.csv"
        write_csv(records, out)
        stream = io.StringIO(newline="")
        write_csv(records, stream)
        assert not stream.closed
        assert stream.getvalue() == out.read_bytes().decode()
