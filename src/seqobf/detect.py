"""Gap-constrained pattern detection and per-prefix pattern statistics.

A pattern q1..ql is present in a trace when there are indices
i1 < i2 < ... < il with trace[ij] = qj and i(j+1) - ij <= gap for all j.
Detection runs a dynamic program over pattern positions along the last
axis of an array, on packed bits.  The positions matching qj become the
bits of one Python int: bit k*w + t is position t of the k-th trace, where
w is m + min(gap, m) rounded up to whole bytes, and the zero bits after
each trace keep every gap window inside it.  A level spreads the reached
bits over the next gap positions in about log2(min(gap, m)) shift-or steps
and masks them with the next matches, so a call makes O(l*log(min(gap, m)))
big-int steps over rows*w bits, and stops once nothing is reached.  Its
memory is one bool per bit, w bytes a trace, and a few ints of w/8 bytes:
about 1.7 bytes per symbol on a block of 1 000-symbol traces at gap 10,
and 3.3 at an unbounded gap.  One kernel decides a whole block of traces;
has_pattern is the one-trace case, and manp's settle test in seqobf.sim
asks it of one window.
"""
from __future__ import annotations

from collections import deque
from typing import Iterable

import numpy as np

from .core import Pattern, Trace, _check_at_least, _check_gap


def _pattern_found(symbols: np.ndarray, pattern_symbols, gap: int | None) -> np.ndarray:
    """Whether the pattern occurs along the last axis, for each leading index."""
    m = symbols.shape[-1]
    g = m if gap is None else min(gap, m)
    lead = symbols.shape[:-1]
    w = m + g + 7 & -8
    matches = np.zeros(lead + (w,), dtype=bool)

    def bits(q) -> int:
        np.equal(symbols, q, out=matches[..., :m])
        return int.from_bytes(np.packbits(matches, bitorder="little"), "little")

    reach = bits(pattern_symbols[0])
    for q in pattern_symbols[1:]:
        if not reach:
            break
        # Spread each reached position over itself and the g - 1 after it;
        # the shift then marks the g positions after it.
        span = 1
        while span < g:
            step = min(span, g - span)
            reach |= reach << step
            span += step
        reach = reach << 1 & bits(q)
    if not lead:
        return np.bool_(reach != 0)
    packed = reach.to_bytes(matches.size >> 3, "little")
    return np.frombuffer(packed, dtype=np.uint8).reshape(lead + (w >> 3,)).any(axis=-1)


def _check_alphabet(trace: Trace, pattern: Pattern) -> None:
    if max(pattern.symbols) >= trace.alphabet.size:
        raise ValueError(f"pattern symbols exceed alphabet 0..{trace.alphabet.size - 1}")


def has_pattern(trace: Trace, pattern: Pattern) -> bool:
    """True iff the pattern occurs in the trace under its gap constraint.

    A trace shorter than the pattern cannot contain it, so the answer is
    False, as first_occurrence gives None.
    """
    _check_alphabet(trace, pattern)
    return bool(_pattern_found(trace.symbols, pattern.symbols, pattern.gap))


def _contiguous_matches(symbols: np.ndarray, pattern_symbols) -> np.ndarray:
    """Boolean array over start offsets along the last axis: exact
    contiguous match at each.

    pattern_symbols is one pattern, or one per leading index of symbols
    (shape symbols.shape[:-1] + (l,)), as a race's block scans its rows.
    """
    q = np.asarray(pattern_symbols, dtype=np.int64)
    n = symbols.shape[-1] - q.shape[-1] + 1
    if n <= 0:
        return np.zeros(symbols.shape[:-1] + (0,), dtype=bool)
    hit = symbols[..., :n] == q[..., :1]
    for j in range(1, q.shape[-1]):
        hit &= symbols[..., j : j + n] == q[..., j : j + 1]
    return hit


def first_occurrence(trace: Trace, pattern: Pattern) -> int | None:
    """Smallest 1-based index where the pattern occurs contiguously, else None.

    Only defined for gap=1 (contiguous matching).
    """
    if pattern.gap != 1:
        raise ValueError("first_occurrence is defined for gap=1 patterns only")
    _check_alphabet(trace, pattern)
    hit = _contiguous_matches(trace.symbols, pattern.symbols)
    idx = int(np.argmax(hit)) if hit.any() else None
    return None if idx is None else idx + 1


class PatternStats:
    """Occurrence counts of every length-l pattern over a growing prefix.

    counts[Q] is the number of index tuples realizing Q under the gap
    constraint within the prefix seen so far; multiplicity counts all
    realizing tuples, including overlapping ones.  Appending one symbol
    updates the counts incrementally and is equivalent to recomputation
    from scratch.

    This is the documented statistic and the test oracle for manp, whose
    engine keeps its own pair-seen matrix; no engine uses PatternStats.
    """

    def __init__(self, order: int, gap: int | None):
        _check_at_least(order, 1, "order")
        _check_gap(gap)
        self.order = order
        self.gap = gap
        self.prefix_length = 0
        self._counts: dict[tuple[int, ...], int] = {}
        # Symbols that can still head a new tuple: the trailing (l-1)*gap
        # positions, or the whole prefix when the gap is unbounded.
        if gap is None:
            self._tail: deque[int] = deque()
        else:
            self._tail = deque(maxlen=gap * max(1, order - 1))

    @classmethod
    def from_symbols(
        cls, symbols: Iterable[int], order: int, gap: int | None
    ) -> "PatternStats":
        stats = cls(order, gap)
        for s in symbols:
            stats.update(int(s))
        return stats

    @property
    def counts(self) -> dict[tuple[int, ...], int]:
        """Snapshot of all patterns with a positive count."""
        return dict(self._counts)

    def count(self, pattern_symbols) -> int:
        return self._counts.get(tuple(int(s) for s in pattern_symbols), 0)

    @property
    def distinct_patterns(self) -> int:
        """Number of distinct patterns observed at least once."""
        return len(self._counts)

    def recent_symbols(self) -> tuple[int, ...]:
        """The trailing min(gap, prefix) symbols, oldest first.

        With an unbounded gap the whole retained prefix is returned.
        """
        tail = tuple(self._tail)
        return tail if self.gap is None else tail[max(0, len(tail) - self.gap):]

    def update(self, symbol: int) -> "PatternStats":
        """Append one symbol; counts then reflect the extended prefix."""
        symbol = int(symbol)
        if self.order == 1:
            self._counts[(symbol,)] = self._counts.get((symbol,), 0) + 1
        else:
            self._extend_chains(symbol)
        self._tail.append(symbol)
        self.prefix_length += 1
        return self

    def _extend_chains(self, symbol: int) -> None:
        # Each chain of order-1 prior positions, consecutive gaps within
        # bound and reaching the new position, realizes one new tuple.
        tail = self._tail
        n = len(tail)
        # tail[i] sits at distance n - i from the new symbol's position.
        def walk(hi: int, depth: int, suffix: tuple[int, ...]) -> None:
            lo = 0 if self.gap is None else max(0, hi - self.gap)
            for i in range(lo, hi):
                key = (tail[i],) + suffix
                if depth == 1:
                    self._counts[key] = self._counts.get(key, 0) + 1
                else:
                    walk(i, depth - 1, key)

        walk(n, self.order - 1, (symbol,))

