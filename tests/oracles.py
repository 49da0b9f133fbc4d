"""Independent reference implementations used to validate the fast paths.

Everything here is deliberately naive: exhaustive enumeration, quadratic
scans, exact rational or high-precision arithmetic.  None of it shares code
with the library, except in three places.  The reference policies of the
data-dependent engines: the manp policy scores candidates with
``PatternStats``, which is checked against ``brute_force_pattern_counts``,
and the plov policy takes its distribution from ``plov_distribution``,
which is checked against the 50-digit ``plov_reference``.  The
reference fraction loop, which runs one user at a time through the
library's per-trace ``RandomSource``, ``Trace``, ``obfuscate`` and
``has_pattern``; each of those is checked on its own.  And the reference
race, which draws from the per-iteration ``RandomSource`` and rotates the
library's ``de_bruijn`` cycle, which is checked on its own.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb

import mpmath
import numpy as np

from seqobf.core import Alphabet, Pattern, RandomSource, Trace
from seqobf.detect import PatternStats, has_pattern
from seqobf.engines import EngineConfig, obfuscate, plov_distribution
from seqobf.ingest import read_trace_file
from seqobf.superstring import de_bruijn


def brute_force_has_pattern(symbols, pattern, gap) -> bool:
    """Exhaustive search over all index tuples (with early exit)."""
    m = len(symbols)
    l = len(pattern)

    def extend(j: int, last: int) -> bool:
        if j == l:
            return True
        lo = 0 if j == 0 else last + 1
        hi = m if (j == 0 or gap is None) else min(m, last + gap + 1)
        for i in range(lo, hi):
            if symbols[i] == pattern[j] and extend(j + 1, i):
                return True
        return False

    return extend(0, -1)


def naive_first_occurrence(symbols, pattern) -> int | None:
    """Quadratic contiguous scan; 1-based index."""
    m, l = len(symbols), len(pattern)
    for t in range(m - l + 1):
        if all(symbols[t + j] == pattern[j] for j in range(l)):
            return t + 1
    return None


def brute_force_pattern_counts(symbols, order, gap) -> dict:
    """Counts of realizing index tuples per pattern, by full enumeration."""
    counts: dict[tuple, int] = {}
    for tup in combinations(range(len(symbols)), order):
        if gap is not None and any(b - a > gap for a, b in zip(tup, tup[1:])):
            continue
        key = tuple(int(symbols[i]) for i in tup)
        counts[key] = counts.get(key, 0) + 1
    return counts


def window_set(symbols, order) -> set:
    """All contiguous length-`order` substrings as tuples."""
    return {
        tuple(int(s) for s in symbols[i : i + order])
        for i in range(len(symbols) - order + 1)
    }


def exact_lov_bound(m: int, r: int, p: Fraction) -> Fraction:
    """The lov coverage bound in exact rational arithmetic."""
    q = 1 - p
    total = Fraction(0)
    for k in range(0, min(r, m + 1)):
        total += comb(m, k) * p**k * q ** (m - k) * Fraction(k, r)
    for k in range(r, m + 1):
        total += comb(m, k) * p**k * q ** (m - k)
    return total


def plov_reference(counts, gamma: float, dps: int = 50) -> list[float]:
    """The plov replacement distribution at 50-digit precision."""
    with mpmath.workdps(dps):
        r = len(counts)
        k = mpmath.mpf(int(sum(counts)))
        if k == 0:
            return [1.0 / r] * r
        tilted = [(mpmath.mpf(int(c)) / k) ** mpmath.mpf(gamma) for c in counts]
        norm = mpmath.fsum(tilted)
        qs = [t / norm for t in tilted]
        q_max, q_min = max(qs), min(qs)
        if q_max - q_min < mpmath.mpf("1e-30"):
            return [1.0 / r] * r
        b = mpmath.mpf("0.99") * min(
            1 / (r * q_max - 1), (r - 1) / (1 - r * q_min)
        )
        return [float((1 + b) / r - b * q) for q in qs]


def greedy_thin(timestamps, min_interval):
    """Reference greedy resampling: indices of kept events."""
    kept = []
    i = 0
    while i < len(timestamps):
        if not kept or timestamps[i] - timestamps[kept[-1]] >= min_interval:
            kept.append(i)
        i += 1
    return kept


# Reference policies of the data-dependent engines.  Each steps through
# every position of the trace, updating the prefix state as it goes, and
# fills the masked positions in place with the same draws, in the same
# order, as the library's policy of the same method.


def lov_policy_reference(z, mask, alphabet_size, config, gen) -> None:
    observed = np.zeros(alphabet_size, dtype=bool)
    for t in range(z.size):
        if mask[t]:
            missing = np.flatnonzero(~observed)
            if missing.size == 0:
                z[t] = gen.integers(alphabet_size)
            else:
                z[t] = missing[gen.integers(missing.size)]
        observed[z[t]] = True


def plov_policy_reference(z, mask, alphabet_size, config, gen) -> None:
    counts = np.zeros(alphabet_size, dtype=np.int64)
    for t in range(z.size):
        if mask[t]:
            z[t] = gen.choice(alphabet_size, p=plov_distribution(counts, config.gamma))
        counts[z[t]] += 1


def manp_policy_reference(z, mask, alphabet_size, config, gen) -> None:
    stats = PatternStats(order=2, gap=config.gap)
    for t in range(z.size):
        if mask[t]:
            scores = np.zeros(alphabet_size, dtype=np.int64)
            for a in set(stats.recent_symbols()):
                for i in range(alphabet_size):
                    if stats.count((a, i)) == 0:
                        scores[i] += 1
            best = np.flatnonzero(scores == scores.max())
            z[t] = best[gen.integers(best.size)]
        stats.update(int(z[t]))


REFERENCE_POLICIES = {
    "lov": lov_policy_reference,
    "plov": plov_policy_reference,
    "manp": manp_policy_reference,
}


def fraction_counts_reference(spec, start: int, stop: int):
    """Hits, replacements and samples of the fraction protocol, per method.

    One user at a time over iterations [start, stop): user u of iteration
    it draws its base trace from RandomSource(seed, (it, u, 0)) and is
    obfuscated by method j with RandomSource(seed, (it, u, 1 + j)).
    """
    root = RandomSource(spec.master_seed)
    alphabet = Alphabet(spec.alphabet_size)
    reduced = spec.alphabet_size - spec.order
    pattern = Pattern(tuple(range(reduced, spec.alphabet_size)), gap=spec.gap)
    configs = [
        EngineConfig(method=m, p_obf=spec.p_obf, order=spec.order, gamma=spec.gamma,
                     gap=spec.gap if m == "manp" else None)
        for m in spec.methods
    ]
    pool = None
    if spec.trace_file is not None:
        pool = [t.symbols for t in read_trace_file(spec.trace_file, reduced)
                if t.length >= spec.trace_length]
    hits = np.zeros(len(configs), dtype=np.int64)
    replaced = np.zeros(len(configs), dtype=np.int64)
    samples = 0
    for it in range(start, stop):
        for u in range(1, spec.n_users):
            gen = root.derive(it, u, 0).generator
            if pool is None:
                x = gen.integers(0, reduced, size=spec.trace_length)
            else:
                symbols = pool[int(gen.integers(len(pool)))]
                first = int(gen.integers(symbols.size - spec.trace_length + 1))
                x = symbols[first : first + spec.trace_length]
            trace = Trace(x, alphabet)
            for j, config in enumerate(configs):
                z, mask = obfuscate(trace, config, root.derive(it, u, 1 + j), return_mask=True)
                hits[j] += has_pattern(z, pattern)
                replaced[j] += int(mask.sum())
            samples += 1
    return hits, replaced, samples


def race_records_reference(r: int, l: int, iterations: int, seed: int) -> tuple[dict]:
    """The race's record, one iteration at a time over whole streams.

    Iteration it draws from RandomSource(seed, (it,)) its pattern, the
    rotation offset of a de Bruijn cycle whose first l-1 symbols are
    repeated at the end, and then iid symbols until the pattern occurs.
    """
    cycle = de_bruijn(r, l)
    first_iid = np.empty(iterations, dtype=np.float64)
    first_super = np.empty(iterations, dtype=np.float64)
    for it in range(iterations):
        gen = RandomSource(seed, (it,)).generator
        pattern = gen.integers(0, r, size=l).tolist()
        offset = int(gen.integers(cycle.size))
        superstring = cycle[(offset + np.arange(cycle.size + l - 1)) % cycle.size]
        first_super[it] = naive_first_occurrence(superstring.tolist(), pattern)
        stream: list[int] = []
        first = None
        while first is None:
            stream.extend(gen.integers(0, r, size=r**l).tolist())
            first = naive_first_occurrence(stream, pattern)
        first_iid[it] = first
    n = iterations
    return ({
        "scenario": "first_occurrence",
        "r": r,
        "l": l,
        "iterations": n,
        "mean_first_iid": float(first_iid.mean()),
        "se_first_iid": float(first_iid.std(ddof=1) / np.sqrt(n)),
        "mean_first_superstring": float(first_super.mean()),
        "se_first_superstring": float(first_super.std(ddof=1) / np.sqrt(n)),
        "prob_iid_later": float((first_iid > first_super).mean()),
    },)


def pattern_borders(pattern) -> tuple[int, ...]:
    """The lengths k < l of the pattern's prefixes that are also suffixes:
    its autocorrelation, less the whole pattern."""
    l = len(pattern)
    return tuple(k for k in range(1, l) if tuple(pattern[:k]) == tuple(pattern[l - k :]))


def first_occurrence_law(pattern, r: int, steps: int) -> tuple[np.ndarray, float]:
    """P(T > u) for u = 1..steps, and E[T], where T is the 1-based index of
    the pattern's first contiguous occurrence in an iid uniform stream over
    r symbols.

    The stream drives the pattern's KMP automaton, whose state j < l is the
    longest suffix read so far that is a prefix of the pattern, and l the
    match.  T > u when the automaton has not matched after u + l - 1
    symbols, and E[T] is the automaton's expected time to match, less l - 1.
    """
    pattern = tuple(pattern)
    l = len(pattern)
    move = np.zeros((l + 1, l + 1))
    for j, c in product(range(l), range(r)):
        seen = pattern[:j] + (c,)
        k = next(k for k in range(j + 1, -1, -1) if seen[j + 1 - k :] == pattern[:k])
        move[j, k] += 1 / r
    move[l, l] = 1.0
    state = np.zeros(l + 1)
    state[0] = 1.0
    survival = np.empty(steps + l - 1)
    for n in range(survival.size):
        state = state @ move
        survival[n] = state[:l].sum()
    to_match = np.linalg.solve(np.eye(l) - move[:l, :l], np.ones(l))[0]
    return survival[l - 1 :], float(to_match) - (l - 1)


def brute_force_first_occurrence_survival(pattern, r: int, steps: int) -> np.ndarray:
    """P(T > u) for u = 1..steps, as first_occurrence_law defines it, by
    enumerating every stream of steps + l - 1 symbols."""
    l = len(pattern)
    streams = np.array(list(product(range(r), repeat=steps + l - 1)), dtype=np.int64)
    hit = np.ones((len(streams), steps), dtype=bool)
    for j, symbol in enumerate(pattern):
        hit &= streams[:, j : j + steps] == symbol
    first = np.where(hit.any(axis=1), hit.argmax(axis=1) + 1, steps + 1)
    return np.array([(first > u).mean() for u in range(1, steps + 1)])


def race_exact(r: int, l: int) -> dict:
    """The exact values of the race's mean_first_iid, mean_first_superstring
    and prob_iid_later, for a pattern drawn uniformly from the r^l.

    The superstring's index S is uniform on 1..r^l, whatever the pattern,
    with mean (r^l + 1) / 2, and independent of the iid index T, so
    P(T > S) = r^-l sum_{u=1..r^l} P(T > u).  Averaged over patterns,
    E[T] is exactly r^l.  T's law depends only on the pattern's borders
    (L. J. Guibas and A. M. Odlyzko, "String overlaps, pattern matching,
    and nontransitive games", JCTA 30(2), 1981), so each class of patterns
    with the same borders is solved once, on one of its members.
    """
    n = r**l
    classes: dict = {}
    for pattern in product(range(r), repeat=l):
        count, member = classes.get(pattern_borders(pattern), (0, pattern))
        classes[pattern_borders(pattern)] = (count + 1, member)
    mean_iid = later = 0.0
    for count, member in classes.values():
        survival, mean = first_occurrence_law(member, r, n)
        mean_iid += count / n * mean
        later += count / n * survival.sum() / n
    return {"mean_first_iid": mean_iid, "mean_first_superstring": (n + 1) / 2,
            "prob_iid_later": float(later)}


def iid_fraction_exact(m: int, r: int, l: int, gap: int | None, p: float) -> float:
    """The exact probability that the fraction protocol's iid method puts
    the reserved pattern q = (r-l, ..., r-1) into a non-target trace of
    length m, within the gap (None for none).

    A non-target trace holds no reserved symbol, and iid replaces each
    position with probability p by a uniform symbol, so each position
    holds q_j with probability p/r, for each j, independently of the rest.
    A dynamic program runs over the positions.  Its state holds, for each
    prefix length j < l, how far back the last position that completes
    q_0..q_{j-1} lies, capped at gap + 1, where it reaches no later
    position; the latest completion reaches furthest.  With no gap it holds
    only whether the prefix has been completed.
    """
    far = 2 if gap is None else gap + 1

    def older(ages, done=None) -> int:
        """The index of the state one position on, with prefix length
        done + 1 completed there if done is given."""
        aged = tuple(a if gap is None else min(a + 1, far) for a in ages)
        return index[aged if done is None else aged[:done] + (1,) + aged[done + 1:]]

    states = list(product(range(1, far + 1), repeat=l - 1))
    index = {state: i for i, state in enumerate(states)}
    found = len(states)
    move = np.zeros((found + 1, found + 1))
    move[found, found] = 1.0
    for i, state in enumerate(states):
        move[i, older(state)] += 1.0 - l * p / r
        for j in range(l):
            # q_j completes prefix j + 1 if prefix j is complete within reach.
            if j and state[j - 1] == far:
                move[i, older(state)] += p / r
            else:
                move[i, found if j == l - 1 else older(state, j)] += p / r
    start = np.zeros(found + 1)
    start[index[(far,) * (l - 1)]] = 1.0
    return float((start @ np.linalg.matrix_power(move, m))[found])


def brute_force_iid_fraction(m: int, r: int, l: int, gap: int | None, p: Fraction) -> Fraction:
    """iid_fraction_exact by enumeration: every mask over a trace of m
    zeros, a symbol outside the pattern, and every assignment of the r
    symbols to the masked positions, each checked by
    brute_force_has_pattern."""
    pattern = list(range(r - l, r))
    total = Fraction(0)
    for k in range(m + 1):
        hits = 0
        for masked in combinations(range(m), k):
            for values in product(range(r), repeat=k):
                z = [0] * m
                for t, v in zip(masked, values):
                    z[t] = v
                hits += brute_force_has_pattern(z, pattern, gap)
        total += hits * p**k * (1 - p) ** (m - k) / r**k
    return total


def lov_fraction_exact(m: int, r: int, l: int, gap: int | None, p: float) -> float:
    """The exact probability that the fraction protocol's lov method puts
    the reserved pattern q = (r-l, ..., r-1) into a non-target trace of
    length m, within the gap (None for none).

    A non-target trace holds no reserved symbol, and its symbols are
    uniform over the r - l base symbols, so lov's choice at a position
    depends on the prefix only through M, the number of base symbols not
    yet seen, and the set of reserved symbols seen.  A chain over the
    positions carries both and the detector's ages of iid_fraction_exact.
    A kept position shows a new base symbol with probability M / (r - l).
    A replaced position picks uniformly among the b = M + (l - |seen|)
    missing symbols, or among all r when b = 0.
    """
    far = 2 if gap is None else gap + 1
    base = r - l

    def older(ages, j=None):
        """The ages one position on, if the position holds q_j (None for a
        symbol outside q), or None if q_j completes the pattern there."""
        aged = tuple(a if gap is None else min(a + 1, far) for a in ages)
        if j is None or (j and ages[j - 1] == far):
            return aged
        return None if j == l - 1 else aged[:j] + (1,) + aged[j + 1:]

    states = list(product(product(range(1, far + 1), repeat=l - 1), range(base + 1),
                          range(1 << l)))
    index = {state: i for i, state in enumerate(states)}
    found = len(states)
    # The chain's moves as (from, to, probability) triples; each state has
    # at most l + 3 of them.
    moves = [(found, found, 1.0)]
    for i, (ages, missing, seen) in enumerate(states):
        def go(weight, j=None, new_base=False):
            if weight:
                aged = older(ages, j)
                to = found if aged is None else index[aged, missing - new_base,
                                                      seen | (0 if j is None else 1 << j)]
                moves.append((i, to, weight))

        go((1 - p) * missing / base, new_base=True)
        go((1 - p) * (base - missing) / base)
        unseen = [j for j in range(l) if not seen >> j & 1]
        b = missing + len(unseen)
        if b == 0:
            go(p * base / r)
            for j in range(l):
                go(p / r, j)
        else:
            go(p * missing / b, new_base=True)
            for j in unseen:
                go(p / b, j)
    source, target, weight = (np.array(column) for column in zip(*moves))
    state = np.zeros(found + 1)
    state[index[(far,) * (l - 1), base, 0]] = 1.0
    for _ in range(m):
        state = np.bincount(target, state[source] * weight, minlength=found + 1)
    return float(state[found])


def brute_force_lov_fraction(m: int, r: int, l: int, gap: int | None, p: Fraction) -> Fraction:
    """lov_fraction_exact by enumeration: every base symbol at a kept
    position, every mask, and every lov choice at a replaced position, the
    missing symbols or all r when none is missing, each trace checked by
    brute_force_has_pattern."""
    pattern = list(range(r - l, r))
    kept, replaced = (1 - p) / (r - l), p

    def walk(z: list, weight: Fraction) -> Fraction:
        if len(z) == m:
            return weight if brute_force_has_pattern(z, pattern, gap) else Fraction(0)
        total = sum((walk(z + [s], weight * kept) for s in range(r - l)), Fraction(0))
        choices = [s for s in range(r) if s not in z] or list(range(r))
        step = weight * replaced / len(choices)
        return total + sum((walk(z + [s], step) for s in choices), Fraction(0))

    return walk([], Fraction(1))
