"""Closed-form privacy lower bounds and the asymptotic parameter schedule.

The bounds give, for each obfuscation construction, a guaranteed minimum
probability that an arbitrary identifying pattern of length l appears in
another user's obfuscated trace.  Both have the shape

    prefactor * sum over feasible pattern placements of a Chernoff term,

with prefactor (1 - (1-p)^gap)^(l-1) / r^l covering the inter-element
distance constraints and the placement uniformity of the noise stream.
The concatenation construction advances l stream symbols per placement,
the shortest construction one, which is where the two evaluations differ.
lov_bound is the single-symbol guarantee of the lov engine.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Alphabet, _check_at_least, _check_noise
from .superstring import _check_params


@dataclass(frozen=True)
class BoundParams:
    """Parameters of one bound evaluation.

    trace_length m, alphabet size r, pattern length l, gap h, and the
    per-position replacement probability.  The gap must be finite, and the
    effective trial count g = m - h*(l-1) must be positive for the bound to
    be meaningful.
    """

    trace_length: int
    alphabet_size: int
    order: int
    gap: int
    p_obf: float

    def __post_init__(self) -> None:
        _check_at_least(self.trace_length, 1, "trace_length")
        Alphabet(self.alphabet_size)
        _check_at_least(self.order, 1, "order")
        _check_at_least(self.gap, 1, "a finite gap h", "the bounds need")
        _check_noise(self.p_obf)
        if self.effective_trials <= 0:
            raise ValueError(
                f"m - h*(l-1) = {self.effective_trials} <= 0: "
                "trace too short for this gap and pattern length"
            )

    @property
    def effective_trials(self) -> int:
        return self.trace_length - self.gap * (self.order - 1)


# Placement terms that _placement_sum holds at once.
_TERM_CHUNK = 1 << 16


def _placement_sum(gp: float, k_max: int, stride: int) -> float:
    """Sum of 1 - exp(-(1 - alpha*stride/gp)^2 * gp / 2) for alpha=0..k_max.

    The terms are made _TERM_CHUNK at a time and fed to one math.fsum,
    which rounds the whole sum once, so the chunks change no bit of it.
    """

    def chunk(lo: int) -> list[float]:
        alphas = np.arange(lo, min(lo + _TERM_CHUNK, k_max + 1), dtype=np.float64)
        delta = 1.0 - alphas * stride / gp
        return (1.0 - np.exp(-0.5 * delta * delta * gp)).tolist()

    return math.fsum(t for lo in range(0, k_max + 1, _TERM_CHUNK) for t in chunk(lo))


def _bound(params: BoundParams, stride: int) -> float:
    p = params.p_obf
    if p == 0.0:
        return 0.0
    g = params.effective_trials
    gp = g * p
    r_pow_l = params.alphabet_size**params.order
    k_max = min(r_pow_l - 1, math.floor(gp / stride))
    prefactor = (1.0 - (1.0 - p) ** params.gap) ** (params.order - 1) / r_pow_l
    value = prefactor * _placement_sum(gp, k_max, stride)
    return min(max(value, 0.0), 1.0)


def bound_sbu(params: BoundParams) -> float:
    """Guarantee for the concatenation-superstring construction.

    Placements advance l stream symbols each, so at most floor(g*p/l) of
    them can be reached by g*p expected replacements.
    """
    return _bound(params, stride=params.order)


def bound_slsbu(params: BoundParams) -> float:
    """Guarantee for the shortest-superstring construction.

    Placements advance one stream symbol each; the bound dominates
    bound_sbu at equal parameters.
    """
    return _bound(params, stride=1)


def lov_bound(trace_length: int, alphabet_size: int, p_obf: float) -> float:
    """Lower bound on the single-symbol coverage probability under lov.

    With k replacements the prefix-unseen rule covers at least min(k, r)
    distinct symbols, so a target symbol is hit with probability at least
    k/r for k < r and surely for k >= r; averaging over the binomial
    replacement count gives the bound.
    """
    _check_at_least(trace_length, 1, "trace_length")
    Alphabet(alphabet_size)
    _check_noise(p_obf)
    m, r = trace_length, alphabet_size
    if p_obf in (0.0, 1.0):
        return float(p_obf * min(m, r) / r)
    # E[min(K, r)]/r for K ~ Binomial(m, p) is P(K >= 1) less (1 - k/r) P(K = k)
    # for each 0 < k < r; with P(K >= 1) from expm1, a small bound is not the
    # difference of two numbers near 1.  The pmf comes from its term ratios in
    # log space, so it neither overflows nor underflows before the final exp.
    log_q = math.log1p(-p_obf)
    ks = np.arange(1, min(r, m + 1))
    log_pmf = m * log_q + np.cumsum(np.log((m - ks + 1) / ks * (p_obf / (1 - p_obf))))
    return float(-math.expm1(m * log_q) - np.sum((1 - ks / r) * np.exp(log_pmf)))


@dataclass(frozen=True)
class ScheduleParams:
    """Inputs for the growing-population parameter schedule.

    With n users, pattern length l > 1, privacy exponent beta in (0, 1) and
    slack theta in (0, (1-beta)/(l-1)), the schedule prescribes a noise
    level decaying in n and an admissible alphabet-size range.
    """

    n_users: int
    order: int
    beta: float
    theta: float
    trace_length: int

    def __post_init__(self) -> None:
        _check_at_least(self.n_users, 1, "n_users")
        _check_at_least(self.order, 2, "order", "the schedule needs")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        limit = (1.0 - self.beta) / (self.order - 1)
        if not 0.0 < self.theta < limit:
            raise ValueError(
                f"theta must be in the open interval (0, {limit}), got {self.theta}"
            )
        _check_at_least(self.trace_length, 1, "trace_length")


@dataclass(frozen=True)
class Schedule:
    """Derived schedule quantities at one population size."""

    scale: float             # d = m * n^(-(1-beta)/(l-1))
    noise_level: float       # p_obf = n^(-(1-beta)/(l-1) + theta)
    alphabet_min: float      # [d * n^theta]^(1/l)
    alphabet_max: float      # [d * n^(theta*l)]^(1/l)
    noise_samples: float     # m * noise_level
    noise_samples_ok: bool   # noise_samples >= 9
    crowd_threshold: float   # n^beta / 2


def schedule(params: ScheduleParams) -> Schedule:
    """Evaluate the schedule arithmetic at the given n."""
    n = float(params.n_users)
    m = float(params.trace_length)
    decay = (1.0 - params.beta) / (params.order - 1)
    noise = n ** (-decay + params.theta)
    scale = m * n**-decay
    r_min = (scale * n**params.theta) ** (1.0 / params.order)
    r_max = (scale * n ** (params.theta * params.order)) ** (1.0 / params.order)
    samples = m * noise
    return Schedule(
        scale=scale,
        noise_level=noise,
        alphabet_min=r_min,
        alphabet_max=r_max,
        noise_samples=samples,
        noise_samples_ok=samples >= 9.0,
        crowd_threshold=n**params.beta / 2.0,
    )


@dataclass(frozen=True)
class FirstOccurrenceExpectation:
    """Expected index of a uniform random pattern's first contiguous
    occurrence in each pure noise stream.

    Averaged over patterns, the iid stream's mean is exactly r^l, not a
    lower bound: a fixed pattern's mean is the sum of r^k over the lengths
    k of its prefixes that are also suffixes, itself included, less l - 1.
    So a pattern with no self-overlap averages r^l - l + 1, and one symbol
    repeated l times the most."""

    superstring_stream: float  # exactly (r^l + 1) / 2
    iid_stream_lower: float    # exactly r^l, averaged over patterns


def expected_first_occurrence(
    alphabet_size: int, order: int
) -> FirstOccurrenceExpectation:
    """Closed-form expectations for the two pure noise streams."""
    _check_params(alphabet_size, order)
    n = alphabet_size**order
    return FirstOccurrenceExpectation(
        superstring_stream=(n + 1) / 2.0,
        iid_stream_lower=float(n),
    )
