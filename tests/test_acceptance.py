"""Acceptance suite: one test per release criterion, at frozen tolerances.

Each test prints a single ``[acceptance N] name: PASS|FAIL`` line (visible
with ``pytest -s`` or on failure) and then asserts.  Every tolerance is
fixed here; nothing is calibrated at run time.
"""
import time
from itertools import product

import numpy as np
from scipy import stats as sstats

from seqobf.bounds import BoundParams, ScheduleParams, bound_sbu, bound_slsbu, schedule
from seqobf.core import Alphabet, RandomSource, Trace
from seqobf.engines import (
    METHODS,
    EngineConfig,
    obfuscate,
    plov_distribution,
)
from seqobf.detect import Pattern, has_pattern
from seqobf.sim import (
    ExperimentSpec,
    run_first_occurrence_race,
    run_fraction,
    run_crowd_count,
    sweep,
)
from seqobf.superstring import shortest_superstring, verify_superstring
from oracles import brute_force_has_pattern


def report(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {num}] {name}: {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(map(str, failures))


def test_1_minimal_superstring_construction():
    failures = []
    t0 = time.perf_counter()
    for r, l in product((2, 3, 4), (1, 2, 3)):
        for seed in range(5):
            ss = shortest_superstring(r, l, RandomSource(seed))
            if len(ss) != r**l + l - 1:
                failures.append(f"(r={r}, l={l}) length {len(ss)}")
            if not verify_superstring(ss.symbols, r, l):
                failures.append(f"(r={r}, l={l}) seed {seed} fails verification")
    # Exhaustive minimality: nothing one symbol shorter covers everything.
    for r, l in ((2, 2), (2, 3)):
        shorter = r**l + l - 2
        if any(verify_superstring(c, r, l) for c in product(range(r), repeat=shorter)):
            failures.append(f"a covering sequence of length {shorter} exists at ({r},{l})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    report(1, "minimal covering superstrings", failures)


# (m, r, l, h, p_obf) -> expected percentages for both constructions.
BOUND_TABLE = [
    (1000, 20, 3, 10, 0.10, 0.15, 0.45),
    (1000, 20, 3, 8, 0.10, 0.12, 0.35),
    (1000, 20, 3, 10, 0.15, 0.36, 1.06),
    (1000, 20, 3, 10, 0.30, 1.07, 3.22),
    (4000, 20, 3, 10, 0.10, 0.66, 1.98),
    (10000, 20, 3, 10, 0.10, 1.69, 5.08),
    (1000, 20, 2, 10, 0.10, 7.12, 14.17),
    (1000, 20, 2, 8, 0.10, 6.24, 12.41),
    (1000, 20, 2, 10, 0.15, 13.47, 26.84),
    (1000, 20, 2, 10, 0.30, 33.57, 67.02),
    (2000, 20, 2, 10, 0.10, 14.84, 29.60),
    (4000, 20, 2, 10, 0.10, 30.52, 60.97),
]


def test_2_bound_table_reproduction():
    failures = []
    t0 = time.perf_counter()
    for m, r, l, h, p, want_lo, want_hi in BOUND_TABLE:
        params = BoundParams(
            trace_length=m, alphabet_size=r, order=l, gap=h, p_obf=p
        )
        got_lo = 100 * bound_sbu(params)
        got_hi = 100 * bound_slsbu(params)
        if abs(got_lo - want_lo) > 0.01:
            failures.append(f"{(m, r, l, h, p)}: {got_lo:.4f}% vs {want_lo}%")
        if abs(got_hi - want_hi) > 0.01:
            failures.append(f"{(m, r, l, h, p)}: {got_hi:.4f}% vs {want_hi}%")
        if got_hi < got_lo:
            failures.append(f"{(m, r, l, h, p)}: shortest bound below baseline")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    report(2, "closed-form bound table", failures)


def test_3_first_occurrence_race():
    failures = []
    for r, l in ((10, 2), (20, 2), (10, 3)):
        rec = run_first_occurrence_race(r, l, 10**5, master_seed=1234).records[0]
        n = r**l
        if abs(rec["mean_first_iid"] - n) > 0.02 * n:
            failures.append(f"(r={r},l={l}) iid mean {rec['mean_first_iid']:.1f}")
        want = (n + 1) / 2
        if abs(rec["mean_first_superstring"] - want) > 0.02 * want:
            failures.append(
                f"(r={r},l={l}) superstring mean {rec['mean_first_superstring']:.1f}"
            )
        if not 0.61 <= rec["prob_iid_later"] <= 0.65:
            failures.append(f"(r={r},l={l}) P(iid later) {rec['prob_iid_later']:.4f}")
    report(3, "first-occurrence race", failures)


# (m, r, l, h, p_obf) -> expected fractions for iid and sl_sbu.
FRACTION_ROWS = [
    (1000, 20, 2, 10, 0.10, 0.2185, 0.7380),
    (1000, 20, 2, 5, 0.10, 0.1223, 0.3733),
    (1000, 20, 2, 10, 0.05, 0.0673, 0.2203),
]


def test_4_fraction_reproduction():
    failures = []
    for m, r, l, h, p, want_iid, want_sl in FRACTION_ROWS:
        spec = ExperimentSpec(
            scenario="fraction", alphabet_size=r, order=l, gap=h,
            trace_length=m, p_obf=p, methods=("iid", "sl_sbu"),
            n_users=100, iterations=1000, master_seed=20240915,
        )
        by_method = {rec["method"]: rec for rec in run_fraction(spec).records}
        got_iid = by_method["iid"]["estimate"]
        got_sl = by_method["sl_sbu"]["estimate"]
        if abs(got_iid - want_iid) > 0.03:
            failures.append(f"{(m, r, l, h, p)} iid {got_iid:.4f} vs {want_iid}")
        if abs(got_sl - want_sl) > 0.03:
            failures.append(f"{(m, r, l, h, p)} sl_sbu {got_sl:.4f} vs {want_sl}")
        if got_sl < got_iid:
            failures.append(f"{(m, r, l, h, p)} ordering violated")
    report(4, "unique-pattern fraction rows", failures)


def test_5_low_order_method_ordering():
    failures = []
    spec = ExperimentSpec(
        scenario="fraction", alphabet_size=21, order=1, gap=10,
        trace_length=1000, p_obf=0.02,
        methods=("lov", "plov", "manp", "sl_sbu", "iid"),
        n_users=100, iterations=15, master_seed=52,
    )
    grid = (0.02, 0.04, 0.06, 0.08, 0.10)
    result = sweep(spec, grid)
    by_cell = {(rec["p_obf"], rec["method"]): rec for rec in result.records}
    for p in grid:
        lov = by_cell[(p, "lov")]
        for other in ("plov", "manp", "sl_sbu", "iid"):
            rec = by_cell[(p, other)]
            margin = 3 * np.hypot(lov["std_error"], rec["std_error"])
            if lov["estimate"] + margin < rec["estimate"]:
                failures.append(
                    f"p={p}: {other} {rec['estimate']:.4f} beats "
                    f"lov {lov['estimate']:.4f}"
                )
        sl, iid = by_cell[(p, "sl_sbu")], by_cell[(p, "iid")]
        margin = 3 * np.hypot(sl["std_error"], iid["std_error"])
        if sl["estimate"] + margin < iid["estimate"]:
            failures.append(
                f"p={p}: iid {iid['estimate']:.4f} beats sl_sbu {sl['estimate']:.4f}"
            )
    report(5, "single-symbol method ordering", failures)


def _check_detection_oracle(failures):
    gen = np.random.default_rng(31337)
    for _ in range(10**4):
        m = int(gen.integers(3, 31))
        l = int(gen.integers(1, 4))
        gap = [1, 2, 5, None][int(gen.integers(4))]
        symbols = gen.integers(0, 3, size=m)
        pattern = tuple(int(s) for s in gen.integers(0, 3, size=l))
        trace = Trace(symbols, Alphabet(3))
        got = has_pattern(trace, Pattern(pattern, gap=gap))
        want = brute_force_has_pattern(symbols, pattern, gap)
        if got != want:
            failures.append(f"detection mismatch: {symbols}, {pattern}, gap={gap}")
            return


def _check_plov_properties(failures):
    gen = np.random.default_rng(90210)
    for _ in range(10**4):
        r = int(gen.integers(2, 12))
        counts = gen.integers(0, 100, size=r)
        p = plov_distribution(counts, float(gen.uniform(0.05, 1.5)))
        if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-9:
            failures.append(f"plov invalid for counts {counts}")
            return
        perm = gen.permutation(r)
        if not np.allclose(plov_distribution(counts[perm], 0.1),
                           plov_distribution(counts, 0.1)[perm]):
            failures.append(f"plov not equivariant for counts {counts}")
            return


def _check_mask_fidelity(failures):
    gen = np.random.default_rng(777)
    for method in METHODS:
        config = EngineConfig(
            method=method, p_obf=0.0 if method == "two_stage" else 0.5, order=2,
            gap=4 if method == "manp" else None,
            stage_noise=(0.3, 0.2) if method == "two_stage" else (0.0, 0.0),
        )
        for seed in range(5):
            trace = Trace(gen.integers(0, 5, size=120), Alphabet(5))
            z, mask = obfuscate(trace, config, RandomSource(seed), return_mask=True)
            if not np.array_equal(z.symbols[~mask], trace.symbols[~mask]):
                failures.append(f"mask broken for {method}")
                return


def _check_two_stage_touch_rate(failures):
    a, b, m = 0.1, 0.1, 10**6
    trace = Trace(np.zeros(m, dtype=np.int64), Alphabet(4))
    config = EngineConfig("two_stage", order=2, stage_noise=(a, b))
    _, mask = obfuscate(trace, config, RandomSource(99), return_mask=True)
    psi = a + b - a * b
    sigma = np.sqrt(psi * (1 - psi) / m)
    if abs(mask.mean() - psi) > 3 * sigma:
        failures.append(f"touch rate {mask.mean():.5f} vs {psi}")


def _check_rotation_uniformity(failures):
    r, l = 3, 2
    src = RandomSource(4242)
    counts = np.zeros(r**l, dtype=np.int64)
    for _ in range(20000):
        ss = shortest_superstring(r, l, src)
        counts[ss.symbols[0] * r + ss.symbols[1]] += 1
    p_value = sstats.chisquare(counts).pvalue
    if p_value <= 0.001:
        failures.append(f"start-window chi-square p={p_value:.5f}")


def _check_empirical_dominates_bounds(failures):
    gen = np.random.default_rng(1812)
    for _ in range(10):
        l = int(gen.integers(2, 4))
        h = int(gen.integers(2, 9))
        r = int(gen.integers(l + 2, 9))
        m = int(gen.integers(200, 601))
        p = float(gen.uniform(0.1, 0.4))
        params = BoundParams(
            trace_length=m, alphabet_size=r, order=l, gap=h, p_obf=p
        )
        spec = ExperimentSpec(
            scenario="fraction", alphabet_size=r, order=l, gap=h,
            trace_length=m, p_obf=p, methods=("sbu", "sl_sbu"),
            n_users=26, iterations=6, master_seed=int(gen.integers(2**31)),
        )
        by_method = {rec["method"]: rec for rec in run_fraction(spec).records}
        for method, bound in (("sbu", bound_sbu), ("sl_sbu", bound_slsbu)):
            rec = by_method[method]
            if rec["estimate"] + 3 * rec["std_error"] < bound(params):
                failures.append(
                    f"{method} at {(m, r, l, h, round(p, 3))}: "
                    f"{rec['estimate']:.4f} below bound {bound(params):.4f}"
                )


def test_6_property_suites():
    failures: list = []
    _check_detection_oracle(failures)
    _check_plov_properties(failures)
    _check_mask_fidelity(failures)
    _check_two_stage_touch_rate(failures)
    _check_rotation_uniformity(failures)
    _check_empirical_dominates_bounds(failures)
    report(6, "property suites", failures)


def test_7_schedule_and_crowd_counts():
    failures = []
    # Fixed-point arithmetic of the schedule.
    sched = schedule(
        ScheduleParams(n_users=10**4, order=2, beta=0.5, theta=0.25,
                       trace_length=10**4)
    )
    if not (abs(sched.noise_level - 0.1) < 1e-12 and abs(sched.scale - 100) < 1e-9):
        failures.append(f"schedule arithmetic: {sched}")
    if not (sched.noise_samples_ok and sched.crowd_threshold == 50.0):
        failures.append("schedule flags")
    if sched.alphabet_min > sched.alphabet_max:
        failures.append("alphabet range empty")
    try:
        ScheduleParams(n_users=100, order=2, beta=0.5, theta=0.5,
                       trace_length=100)
        failures.append("boundary theta accepted")
    except ValueError:
        pass
    # Crowd counts against the exact binomial tail.
    n, beta = 10**4, 0.5
    q = n**-0.5
    spec = ExperimentSpec(
        scenario="crowd_count", alphabet_size=4, order=2, gap=1,
        trace_length=10, p_obf=0.0, n_users=n, iterations=5000,
        master_seed=3141, match_probability=q, beta=beta,
    )
    rec = run_crowd_count(spec).records[0]
    threshold = n**beta / 2
    exact = float(sstats.binom.sf(np.ceil(threshold) - 1, n, q))
    sigma = np.sqrt(max(exact * (1 - exact), 1e-12) / 5000)
    if abs(rec["frequency_above"] - exact) > 3 * sigma + 1e-9:
        failures.append(
            f"tail frequency {rec['frequency_above']:.5f} vs exact {exact:.5f}"
        )
    if rec["frequency_above"] < 0.999:
        failures.append("crowd threshold should be met almost surely here")
    report(7, "schedule arithmetic and crowd counts", failures)
