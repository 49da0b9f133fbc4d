"""Closed-form bound evaluation and the parameter schedule."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqobf.core import Alphabet, Pattern, RandomSource, Trace
from seqobf.detect import has_pattern
from seqobf.engines import EngineConfig, obfuscate
from seqobf import bounds
from seqobf.bounds import (
    BoundParams,
    ScheduleParams,
    bound_sbu,
    bound_slsbu,
    expected_first_occurrence,
    schedule,
)

# Frozen reference grid: (m, r, l, h, p_obf) -> (bound, shortest-form bound),
# both in percent, truncated to two decimals.
REFERENCE_CELLS = [
    (1000, 20, 3, 10, 0.10, 0.15, 0.45),
    (1000, 20, 3, 10, 0.30, 1.07, 3.22),
    (1000, 20, 2, 10, 0.10, 7.12, 14.17),
    (4000, 20, 2, 10, 0.10, 30.52, 60.97),
]


def params(m, r, l, h, p):
    return BoundParams(
        trace_length=m, alphabet_size=r, order=l, gap=h, p_obf=p
    )


class TestBoundValues:
    @pytest.mark.parametrize("m,r,l,h,p,expect_sbu,expect_slsbu", REFERENCE_CELLS)
    def test_reference_cells(self, m, r, l, h, p, expect_sbu, expect_slsbu):
        assert abs(100 * bound_sbu(params(m, r, l, h, p)) - expect_sbu) <= 0.01
        assert abs(100 * bound_slsbu(params(m, r, l, h, p)) - expect_slsbu) <= 0.01

    def test_zero_noise_gives_zero(self):
        assert bound_sbu(params(1000, 20, 3, 10, 0.0)) == 0.0
        assert bound_slsbu(params(1000, 20, 3, 10, 0.0)) == 0.0

    def test_vanishing_noise_limit(self):
        assert bound_sbu(params(1000, 20, 3, 10, 1e-9)) < 1e-12

    def test_rejects_nonpositive_effective_trials(self):
        with pytest.raises(ValueError):
            params(20, 4, 3, 10, 0.1)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_rejects_noise_outside_the_unit_interval(self, p):
        with pytest.raises(ValueError, match=rf"^p_obf must be in \[0, 1\], got {p}$"):
            params(1000, 20, 2, 10, p)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            params(100, 4, 2, 3, 1.5)


class TestBoundProperties:
    @given(
        st.integers(50, 3000),
        st.integers(2, 25),
        st.integers(1, 3),
        st.integers(1, 12),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=300)
    def test_in_unit_interval_and_ordered(self, m, r, l, h, p):
        if m - h * (l - 1) <= 0:
            return
        bp = params(m, r, l, h, p)
        lo = bound_sbu(bp)
        hi = bound_slsbu(bp)
        assert 0.0 <= lo <= 1.0
        assert 0.0 <= hi <= 1.0
        assert hi >= lo - 1e-12

    def test_monotone_in_length_and_noise_on_reference_grid(self):
        for r, l, h in [(20, 2, 10), (20, 3, 10)]:
            by_m = [bound_sbu(params(m, r, l, h, 0.10)) for m in (1000, 2000, 4000)]
            assert by_m == sorted(by_m)
            by_p = [bound_slsbu(params(1000, r, l, h, p)) for p in (0.10, 0.15, 0.30)]
            assert by_p == sorted(by_p)


class TestBoundMemory:
    @pytest.mark.parametrize("bound", [bound_sbu, bound_slsbu])
    def test_peak_does_not_grow_with_the_trace_length(self, bound):
        # One float per placement would peak at 15 MiB at m = 10**6 here.
        for m in (250_000, 1_000_000):
            tracemalloc.start()
            try:
                bound(params(m, 1000, 3, 10, 0.5))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, (m, peak)

    @pytest.mark.parametrize("k_max,stride", [(0, 1), (65_535, 1), (65_536, 3), (200_001, 1)])
    def test_chunked_sum_equals_the_sum_of_all_terms_at_once(self, k_max, stride):
        gp = 250_000.5
        delta = 1.0 - np.arange(k_max + 1, dtype=np.float64) * stride / gp
        want = math.fsum(1.0 - np.exp(-0.5 * delta * delta * gp))
        assert bounds._placement_sum(gp, k_max, stride) == want


class TestSchedule:
    def test_known_arithmetic(self):
        sched = schedule(
            ScheduleParams(
                n_users=10**4, order=2, beta=0.5, theta=0.25,
                trace_length=10**4,
            )
        )
        assert sched.noise_level == pytest.approx(0.1)
        assert sched.scale == pytest.approx(100.0)
        assert sched.noise_samples == pytest.approx(1000.0)
        assert sched.noise_samples_ok
        assert sched.crowd_threshold == pytest.approx(50.0)

    def test_rejects_theta_at_boundary(self):
        with pytest.raises(ValueError):
            ScheduleParams(
                n_users=100, order=2, beta=0.5, theta=0.5, trace_length=100
            )
        with pytest.raises(ValueError):
            ScheduleParams(
                n_users=100, order=2, beta=0.5, theta=0.0, trace_length=100
            )

    def test_rejects_order_one(self):
        with pytest.raises(ValueError):
            ScheduleParams(
                n_users=100, order=1, beta=0.5, theta=0.1, trace_length=100
            )

    @given(
        st.integers(10, 10**6),
        st.integers(2, 4),
        st.floats(0.05, 0.95),
        st.floats(0.01, 0.99),
        st.integers(10, 10**6),
    )
    @settings(max_examples=200)
    def test_alphabet_range_is_nonempty(self, n, l, beta, theta_frac, m):
        theta = theta_frac * (1 - beta) / (l - 1)
        if not 0 < theta < (1 - beta) / (l - 1):
            return
        sched = schedule(
            ScheduleParams(
                n_users=n, order=l, beta=beta, theta=theta, trace_length=m
            )
        )
        assert sched.alphabet_min <= sched.alphabet_max + 1e-9
        assert sched.noise_level > 0


class TestExpectedFirstOccurrence:
    def test_values(self):
        e = expected_first_occurrence(10, 2)
        assert (e.superstring_stream, e.iid_stream_lower) == (50.5, 100.0)
        e = expected_first_occurrence(2, 1)
        assert (e.superstring_stream, e.iid_stream_lower) == (1.5, 2.0)
        e = expected_first_occurrence(30, 3)
        assert (e.superstring_stream, e.iid_stream_lower) == (13500.5, 27000.0)

    def test_respects_size_cap(self):
        with pytest.raises(ValueError):
            expected_first_occurrence(2, 40)


def test_two_stage_dominates_the_shortest_form_bound_at_its_second_stage_noise():
    # The second stage is an sl_sbu pass at b over the first stage's output,
    # so the shortest-form bound at p = b holds whatever the first stage
    # did.  Same rule as the empirical check of the one-stage engines: the
    # estimate plus 3 standard errors is at least the bound.
    gen = np.random.default_rng(2718)
    users = 150
    failures = []
    for _ in range(10):
        l = int(gen.integers(2, 4))
        h = int(gen.integers(2, 9))
        r = int(gen.integers(l + 2, 9))
        m = int(gen.integers(200, 601))
        a, b = (float(v) for v in gen.uniform(0.1, 0.4, size=2))
        root = RandomSource(int(gen.integers(2**31)))
        pattern = Pattern(tuple(range(r - l, r)), gap=h)
        config = EngineConfig("two_stage", order=l, stage_noise=(a, b))
        hits = 0
        for u in range(users):
            x = root.derive(u, 0).generator.integers(0, r - l, size=m)
            z = obfuscate(Trace(x, Alphabet(r)), config, root.derive(u, 1))
            hits += has_pattern(z, pattern)
        estimate = hits / users
        se = np.sqrt(estimate * (1 - estimate) / users)
        bound = bound_slsbu(params(m, r, l, h, b))
        if estimate + 3 * se < bound:
            failures.append(f"{(m, r, l, h, round(a, 3), round(b, 3))}: {estimate} < {bound}")
    assert not failures
