"""Monte Carlo experiment harness.

Scenarios:

* fraction — the unique-pattern protocol: non-target users' traces are
  drawn over a reduced alphabet of size r-l, the target carries the
  reserved pattern [r-l, ..., r-1], everyone is obfuscated, and the
  estimate is the fraction of non-target users whose obfuscated trace
  contains the pattern.
* first_occurrence — the race between a pure iid noise stream and a pure
  shortest-superstring noise stream to the first contiguous occurrence of
  a random pattern.
* crowd_count — binomial sanity counts for the number of users sharing a
  pattern at a given per-user match probability.
* bounds_table — deterministic evaluation of both closed-form bounds at
  the spec's parameters.

Streams are keyed by (master seed, path), so results are identical for any
worker count and adding iterations, users or methods never perturbs
existing draws.  Fraction sample (iteration it, user u) draws its base
trace from path (it, u, 0), if some method of the run reads it, and method
j obfuscates it from path (it, u, 1 + j); the last index is the stream's
purpose.  Race iteration it draws its pattern, its superstring offset and
its iid stream, in that order, from path (it,).  Both protocols draw from
keyed generators (core._keyed_generators) and read raw words as
Generator.integers would, under the stream contract in seqobf.core's
docstring: the race for all its draws, and a fraction block for its
synthetic base traces (_base_symbols) and its iid, sl_sbu and lov
replacements (engines._obfuscate_rows).
"""
from __future__ import annotations

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from itertools import product
from typing import Iterable, Sequence

import numpy as np

from .core import (Pattern, RandomSource, _check_at_least, _check_gap, _check_noise,
                   _check_seed, _derive_keys, _keyed_generators, _raw_values)
from .detect import _contiguous_matches, _found_in_list, _pattern_found
from .engines import _INDEPENDENT, _READS, _SUPERSTRING_KIND, EngineConfig, _obfuscate_rows
from .superstring import _check_params, _shortest_first_index, _superstring_length
from . import bounds as bounds_mod
from . import ingest as ingest_mod

SCENARIOS = ("fraction", "first_occurrence", "bounds_table", "crowd_count")

# Samples (or race iterations) whose stream keys are derived at once, and
# users obfuscated and scanned together as the rows of one array.
_KEY_BLOCK = 1024
_ROW_BLOCK = 32
# Symbols a race scans at once, as the rows of one array: 2 MiB of int64,
# whatever the iteration count.
_RACE_SCAN_SYMBOLS = 1 << 18
# Binomial counts that crowd_count draws at once.
_CROWD_CHUNK = 1 << 16


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment run.  A fraction run draws
    its traces from the pool in trace_file if it is set, else synthetic ones."""

    scenario: str
    alphabet_size: int
    order: int
    gap: int | None
    trace_length: int
    p_obf: float
    methods: tuple[str, ...] = ("iid", "sl_sbu")
    n_users: int = 100
    iterations: int = 1000
    master_seed: int = 0
    trace_file: str | None = None
    gamma: float = 0.1
    match_probability: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        _check_at_least(self.iterations, 1, "iterations")
        _check_noise(self.p_obf)
        _check_seed(self.master_seed)
        _check_gap(self.gap)
        if self.trace_file is not None and self.scenario != "fraction":
            raise ValueError(f"only the fraction scenario reads a trace_file, not {self.scenario}")
        # Every other rule is the runner's own, checked by the code it runs,
        # but for crowd_count's, whose runner takes its fields as they are.
        if self.scenario == "fraction":
            _fraction_plan(self)
        elif self.scenario == "first_occurrence":
            _check_race(self.alphabet_size, self.order, self.iterations)
        elif self.scenario == "bounds_table":
            _bound_params(self)
        else:
            if self.beta is None:
                raise ValueError("crowd_count requires beta and a match_probability in [0, 1]")
            _check_noise(self.match_probability, "match_probability")
            _check_at_least(self.n_users, 1, "n_users")


@dataclass(frozen=True)
class ExperimentResult:
    """Per-cell records, total wall-clock seconds and work counters.

    For the fraction protocol the counters are "samples", and per method
    "replacements.<method>" (positions replaced, which are the stream
    symbols used) and "hits.<method>" (samples whose obfuscated trace holds
    the pattern); sbu and sl_sbu add "superstrings.<method>", the
    superstrings drawn: ceil(k / L) for a sample with k replacements, where
    L is the length of one superstring of the method's form
    (seqobf.superstring).  All are summed over workers and over a sweep's
    cells.  The race's counters are listed at run_first_occurrence_race.
    Other scenarios count nothing.
    """

    records: tuple[dict, ...]
    wall_clock: float
    counters: dict = field(default_factory=dict)


def _bound_params(spec: ExperimentSpec) -> bounds_mod.BoundParams:
    return bounds_mod.BoundParams(
        spec.trace_length, spec.alphabet_size, spec.order, spec.gap, spec.p_obf
    )


def _fraction_plan(spec: ExperimentSpec) -> tuple[Pattern, list[EngineConfig]]:
    """The reserved pattern and one engine config per method of a fraction
    run: the one builder of both, so a spec is refused when it is built for
    exactly what its run would refuse."""
    r, l = spec.alphabet_size, spec.order
    _check_at_least(spec.n_users, 2, "n_users", "the fraction scenario needs")
    _check_at_least(spec.trace_length, 1, "trace_length")
    if not 1 <= l < r:
        raise ValueError(f"unique-pattern protocol needs 1 <= l < r, got r={r}, l={l}")
    if len(set(spec.methods)) < len(spec.methods):
        raise ValueError(f"methods must be distinct, got {spec.methods}")
    if "two_stage" in spec.methods:
        raise ValueError(
            "two_stage takes per-stage noise levels, which a spec cannot set; "
            "use EngineConfig.stage_noise or obfuscate --stage-a/--stage-b"
        )
    if spec.trace_file == "":
        raise ValueError("trace_file is empty: name an ingested pool, or leave it out "
                         "for synthetic traces")
    if spec.trace_file is not None and r - l < 2:
        raise ValueError(f"an ingested pool is read over the reduced alphabet of r - l "
                         f"symbols, which needs r - l >= 2, got r={r}, l={l}")
    # Each method is given only the values that it reads (engines._READS).
    if any("order" in _READS.get(method, ()) for method in spec.methods):
        _check_params(r, l)
    values = {"p_obf": spec.p_obf, "order": l, "gamma": spec.gamma, "gap": spec.gap}
    configs = [EngineConfig(method, **{name: values[name] for name in _READS.get(method, ())})
               for method in spec.methods]
    return Pattern(tuple(range(r - l, r)), gap=spec.gap), configs


def _load_trace_pool(spec: ExperimentSpec) -> list[np.ndarray]:
    reduced = spec.alphabet_size - spec.order
    traces = ingest_mod.read_trace_file(spec.trace_file, reduced)
    pool = [t.symbols for t in traces if t.length >= spec.trace_length]
    if not pool:
        raise ValueError(f"no ingested trace is at least {spec.trace_length} symbols long")
    return pool


def _base_symbols(
    spec: ExperimentSpec, gens: Sequence[np.random.Generator], pool: list[np.ndarray] | None
) -> np.ndarray:
    """The base traces of a row block, row i drawn from gens[i]: a window of
    a pool trace, at a trace and a start drawn by two scalar calls, or else
    what integers(0, r - l, size=m) would draw.  A synthetic block reads raw
    words (core._raw_values) and leaves gens stale; a bound of 1 draws
    nothing and gives zeros, and one of 2**32 or more draws row by row."""
    m, bound = spec.trace_length, spec.alphabet_size - spec.order
    x = np.zeros((len(gens), m), dtype=np.int64)
    if pool is not None:
        for row, gen in zip(x, gens):
            symbols = pool[int(gen.integers(len(pool)))]
            start = int(gen.integers(symbols.size - m + 1))
            row[:] = symbols[start : start + m]
    elif 2 <= bound < 2**32:
        _raw_values(gens, np.full(len(gens), -1, dtype=np.int64), [(m, bound)], x)
    elif bound > 1:
        x[:] = [gen.integers(0, bound, size=m) for gen in gens]
    return x


def _fraction_iterations(
    spec: ExperimentSpec,
    pattern: Pattern,
    configs: Sequence[EngineConfig],
    start: int,
    stop: int,
    pool: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Pattern hits, replacements and superstrings drawn of each config over
    iterations [start, stop), as the rows of a (3, len(configs)) array.

    User 0 is the target.  The estimate counts only the other users, so
    the target's trace is never drawn; sample s is user 1 + s % (n - 1) of
    iteration s // (n - 1).  The users run as the rows of blocks of at most
    _ROW_BLOCK; the base traces that a block draws serve all its configs,
    and lie in the reduced alphabet by construction, so they are not
    checked as Traces.  configs are _fraction_plan's, one cell's after
    another, so config j draws from purpose 1 + j % len(spec.methods).
    pool holds an ingested spec's traces from _load_trace_pool, or None.

    A data-independent method (engines._INDEPENDENT) obfuscates a block of
    zeros instead, so a block draws base traces only for the other methods.
    Its records and counters are those it would give on the base traces:
    its fill never reads them; 0 is in the reduced alphabet, so a kept
    position never holds a reserved symbol; and stream (it, u, 0) serves
    only the base draw, so skipping it changes no other draw.

    A sample's outcome is fixed once its row's filled prefix, the positions
    before the row's next replacement, holds the pattern.  So manp stops
    filling a row once the test settled is true, and the row's later masked
    positions keep their base symbols; the other methods ignore the test.
    Records and counters stay those of a full fill: positions before the
    next replacement never change again, so a pattern found there is in the
    final trace; each stream belongs to one row and one method, so a draw
    that is never made changes no other draw; and the masks are drawn in
    full first.
    """
    r = spec.alphabet_size
    q, gap = pattern.symbols, pattern.gap

    def settled(prefix: np.ndarray) -> bool:
        # Reserved symbols come only from replacements, so a first occurrence
        # ends at the latest one, within (l - 1) * gap positions of it.  Only
        # manp calls this, and EngineConfig refuses manp without a finite gap.
        if prefix[-1] != q[-1]:
            return False
        return _found_in_list(prefix[-(len(q) - 1) * gap - 1:].tolist(), q, gap)

    counts = np.zeros((3, len(configs)), dtype=np.int64)
    sizes = {method: _superstring_length(kind, r, spec.order)
             for method, kind in _SUPERSTRING_KIND.items()}
    users = spec.n_users - 1
    purposes = np.arange(1 + len(spec.methods))
    reads_base = any(config.method not in _INDEPENDENT for config in configs)
    for first in range(start * users, stop * users, _KEY_BLOCK):
        s = np.arange(first, min(first + _KEY_BLOCK, stop * users))
        paths = np.empty((s.size, purposes.size, 3), dtype=np.int64)
        paths[..., 0] = (s // users)[:, None]
        paths[..., 1] = (1 + s % users)[:, None]
        paths[..., 2] = purposes
        keys = _derive_keys(spec.master_seed, paths.reshape(-1, 3)).reshape(paths.shape[:2] + (2,))
        for lo in range(0, s.size, _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            shape = (len(keys[rows]), spec.trace_length)
            # A block's generators are drawn from in full before the thread's
            # pool is re-keyed for the next: its base traces, then each config.
            # No generator is read again unkeyed, so a block fill may leave
            # them stale (engines._obfuscate_rows).
            if reads_base:
                x = _base_symbols(spec, _keyed_generators(keys[rows, 0]), pool)
            for j, config in enumerate(configs):
                purpose = 1 + j % len(spec.methods)
                gens = _keyed_generators(keys[rows, purpose])
                z = np.zeros(shape, np.int64) if config.method in _INDEPENDENT else x.copy()
                k = np.count_nonzero(_obfuscate_rows(z, r, config, gens, settled), axis=1)
                counts[0, j] += np.count_nonzero(_pattern_found(z, q, gap))
                counts[1, j] += k.sum()
                if config.method in sizes:
                    counts[2, j] += np.sum(-(-k // sizes[config.method]))
    return counts


def run_fraction(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """The unique-pattern fraction protocol: a sweep of the spec's own noise level."""
    return sweep(spec, [spec.p_obf], workers)


def _scan_iid_rows(
    gens: Sequence[np.random.Generator], patterns: np.ndarray, alphabet_size: int, chunk: int,
    spare: np.ndarray,
) -> tuple[np.ndarray, int]:
    """1-based index of each row pattern's first occurrence in the iid
    stream of the row's Generator, and the number of symbols drawn, in
    rounds of chunk symbols (see run_first_occurrence_race).  spare[i] is
    the half that row i's last draw left unread, or -1 (the stream contract
    in seqobf.core's docstring).

    A row that has scanned more than 200 l r^l symbols, the length of 200
    concatenation superstrings, raises RuntimeError, so a broken draw fails
    instead of running forever.  Those symbols hold 200 r^l disjoint
    l-blocks, each the pattern with probability r^-l, so a correct draw
    reaches the cap with probability below e^-200."""
    order = patterns.shape[1]
    cap = 200 * _superstring_length("concatenation", alphabet_size, order)
    first = np.empty(len(gens), dtype=np.int64)
    live = np.arange(len(gens))
    carry = np.empty((live.size, 0), dtype=np.int64)
    consumed = drawn = 0
    while live.size:
        if consumed > cap:
            raise RuntimeError(f"{live.size} iid streams hold no pattern in their first "
                               f"{consumed} symbols, over 200 l r^l = {cap}: the draw is broken")
        x = np.empty((live.size, carry.shape[1] + chunk), dtype=np.int64)
        x[:, : carry.shape[1]] = carry
        spare = _raw_values([gens[row] for row in live.tolist()], spare,
                            [(chunk, alphabet_size)], x[:, carry.shape[1]:])
        drawn += chunk * live.size
        hit = _contiguous_matches(x, patterns[live])
        at = hit.argmax(axis=1)
        found = hit[np.arange(live.size), at]
        first[live[found]] = consumed + at[found] + 1
        consumed += hit.shape[1]
        carry, live, spare = x[~found, hit.shape[1]:], live[~found], spare[~found]
    return first, drawn


def _check_race(alphabet_size: int, order: int, iterations: int) -> None:
    _check_params(alphabet_size, order)
    _check_at_least(iterations, 2, "iterations", "the race needs")


def run_first_occurrence_race(
    alphabet_size: int, order: int, iterations: int, master_seed: int = 0
) -> ExperimentResult:
    """Race the two pure noise streams to a random pattern's first occurrence.

    Records the mean first-occurrence indices and the probability that the
    iid stream is strictly slower.  The counters are "samples"
    (iterations), "iid_symbols_drawn" and "iid_symbols_used": an iid stream
    is used up to the last symbol of the pattern's first occurrence.  Fewer
    than 2 iterations are refused: they give no standard error.

    Iterations run as the rows of blocks of at most _RACE_SCAN_SYMBOLS
    symbols.  A row's stream is one run of values, read in draw order by
    _raw_values under the stream contract in seqobf.core's docstring: its l
    pattern symbols, its superstring offset, which alone gives the
    superstring's index, and then rounds of about 2 r^l iid symbols, each
    scanned after the last l-1 symbols of the one before, until its pattern
    is found or _scan_iid_rows' cap is passed.  These are the
    values that l calls of integers(r), one of integers(r^l) and then
    integers(0, r, size=chunk) per round would draw.  The rows still
    searching draw in lockstep, and one match per round scans each against
    its own pattern.  A draw gives the same symbols however it is split
    into calls, so the chunk size changes only the count of symbols drawn.
    The two float64 results per iteration grow in proportion to the work,
    about 2 r^l symbols drawn per iteration.
    """
    _check_race(alphabet_size, order, iterations)
    t0 = time.perf_counter()
    # The first occurrence comes at about r^l, so about e^-2 of the rows
    # need a second round.
    chunk = min(max(2 * alphabet_size**order, 64), _RACE_SCAN_SYMBOLS)
    rows = min(_KEY_BLOCK, _RACE_SCAN_SYMBOLS // chunk, iterations)
    first_iid = np.empty(iterations, dtype=np.float64)
    first_super = np.empty(iterations, dtype=np.float64)
    drawn = 0
    for first in range(0, iterations, rows):
        block = np.arange(first, min(first + rows, iterations))
        gens = _keyed_generators(_derive_keys(master_seed, block[:, None]))
        head = np.empty((block.size, order + 1), dtype=np.int64)
        segments = [(order, alphabet_size), (1, alphabet_size**order)]
        spare = _raw_values(gens, np.full(block.size, -1, dtype=np.int64), segments, head)
        patterns = head[:, :order]
        # The first superstring drawn holds every pattern, so its offset
        # settles the superstring side.
        first_super[block] = _shortest_first_index(alphabet_size, order, head[:, order], patterns)
        first_iid[block], n_drawn = _scan_iid_rows(gens, patterns, alphabet_size, chunk, spare)
        drawn += n_drawn
    record = {
        "scenario": "first_occurrence",
        "r": alphabet_size,
        "l": order,
        "iterations": iterations,
        "mean_first_iid": float(first_iid.mean()),
        "se_first_iid": float(first_iid.std(ddof=1) / np.sqrt(iterations)),
        "mean_first_superstring": float(first_super.mean()),
        "se_first_superstring": float(first_super.std(ddof=1) / np.sqrt(iterations)),
        "prob_iid_later": float((first_iid > first_super).mean()),
    }
    counters = {
        "samples": iterations,
        "iid_symbols_drawn": drawn,
        "iid_symbols_used": int(first_iid.sum()) + iterations * (order - 1),
    }
    return ExperimentResult((record,), time.perf_counter() - t0, counters)


def run_crowd_count(spec: ExperimentSpec) -> ExperimentResult:
    """Sample the count of pattern-sharing users and its tail frequency.

    Each of n_users users independently shares the pattern with the given
    match probability; the record holds the mean count and the frequency
    of counts at or above the n^beta / 2 threshold.  The counts are drawn
    _CROWD_CHUNK at a time, which draws what one call would, and summed as
    integers, so the record is that of one call in memory that does not
    grow with the iterations.
    """
    if spec.scenario != "crowd_count":
        raise ValueError(f"run_crowd_count got scenario {spec.scenario!r}")
    t0 = time.perf_counter()
    gen = RandomSource(spec.master_seed).generator
    threshold = spec.n_users**spec.beta / 2.0
    total = above = 0
    for start in range(0, spec.iterations, _CROWD_CHUNK):
        size = min(_CROWD_CHUNK, spec.iterations - start)
        counts = gen.binomial(spec.n_users, spec.match_probability, size=size)
        total += int(counts.sum())
        above += int(np.count_nonzero(counts >= threshold))
    freq = above / spec.iterations
    record = {
        "scenario": spec.scenario,
        "n_users": spec.n_users,
        "match_probability": spec.match_probability,
        "beta": spec.beta,
        "iterations": spec.iterations,
        "mean_count": total / spec.iterations,
        "threshold": threshold,
        "frequency_above": freq,
        "std_error": float(np.sqrt(max(freq * (1 - freq), 0.0) / spec.iterations)),
    }
    return ExperimentResult((record,), time.perf_counter() - t0)


def run_bounds_table(spec: ExperimentSpec) -> ExperimentResult:
    """Deterministic evaluation of both closed-form bounds at the spec."""
    t0 = time.perf_counter()
    params = _bound_params(spec)
    record = {
        "scenario": "bounds_table",
        "m": spec.trace_length,
        "r": spec.alphabet_size,
        "l": spec.order,
        "h": spec.gap,
        "p_obf": spec.p_obf,
        "bound_sbu": bounds_mod.bound_sbu(params),
        "bound_slsbu": bounds_mod.bound_slsbu(params),
    }
    return ExperimentResult((record,), time.perf_counter() - t0)


def sweep(
    spec: ExperimentSpec, p_values: Sequence[float], workers: int = 1
) -> ExperimentResult:
    """Run the fraction protocol over a grid of noise levels.

    The iterations are split into one contiguous span per worker, and each
    worker runs every cell of its span.  The cells share that span's
    streams, so the replacement masks are coupled monotonically across the
    grid and ordering comparisons between noise levels carry less Monte
    Carlo noise; each cell's records are those it gives alone.  An
    ingested file is read once, before any worker starts.
    """
    t0 = time.perf_counter()
    if spec.scenario != "fraction":
        raise ValueError(f"run_fraction got scenario {spec.scenario!r}")
    _check_at_least(workers, 1, "workers")
    grid = [float(p) for p in p_values]
    for p in grid:
        _check_noise(p)
    pattern, configs = _fraction_plan(spec)
    cells = [replace(config, p_obf=p) for p in grid for config in configs]
    pool = None if spec.trace_file is None else _load_trace_pool(spec)
    edges = [spec.iterations * k // workers for k in range(workers + 1)]
    runs = [(spec, pattern, cells, a, b, pool) for a, b in zip(edges[:-1], edges[1:]) if a < b]
    if not cells:
        parts = []
    elif len(runs) == 1:
        parts = [_fraction_iterations(*runs[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as executor:
            parts = list(executor.map(_fraction_iterations, *zip(*runs)))
    hits, replaced, drawn = sum(parts, np.zeros((3, len(cells)), dtype=np.int64))
    samples = spec.iterations * (spec.n_users - 1)
    records: list[dict] = []
    counters = {"samples": len(grid) * samples} if grid else {}
    for (p, method), h, k, d in zip(product(grid, spec.methods), hits, replaced, drawn):
        named = [(f"hits.{method}", h), (f"replacements.{method}", k)]
        if method in _SUPERSTRING_KIND:
            named.append((f"superstrings.{method}", d))
        for name, count in named:
            counters[name] = counters.get(name, 0) + int(count)
        estimate = h / samples
        records.append({
            "scenario": spec.scenario,
            "method": method,
            "m": spec.trace_length,
            "r": spec.alphabet_size,
            "l": spec.order,
            "h": spec.gap,
            "p_obf": p,
            "iterations": spec.iterations,
            "n_users": spec.n_users,
            "samples": samples,
            "estimate": float(estimate),
            "std_error": float(np.sqrt(max(estimate * (1 - estimate), 0.0) / samples)),
        })
    return ExperimentResult(tuple(records), time.perf_counter() - t0, counters)


def run(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Dispatch a spec to its scenario runner."""
    _check_at_least(workers, 1, "workers")
    if spec.scenario == "fraction":
        return run_fraction(spec, workers=workers)
    if spec.scenario == "first_occurrence":
        return run_first_occurrence_race(
            spec.alphabet_size, spec.order, spec.iterations, spec.master_seed
        )
    if spec.scenario == "crowd_count":
        return run_crowd_count(spec)
    return run_bounds_table(spec)


def write_csv(records: Iterable[dict], out) -> None:
    """Write records as CSV with a header row (union of keys, first-seen order).

    out is a path, or an open text stream that is left open.
    """
    records = list(records)
    fields: list[str] = []
    for rec in records:
        for key in rec:
            if key not in fields:
                fields.append(key)
    with nullcontext(out) if hasattr(out, "write") else open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for rec in records:
            writer.writerow(rec)
