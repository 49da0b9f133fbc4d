"""Construction and verification of covering superstrings.

An (r, l)-superstring contains every length-l string over a size-r alphabet
as a contiguous (non-cyclic) substring.  Two constructions are provided:

* concatenation form: all r^l blocks laid end to end in random order,
  length l * r^l;
* shortest form: a rotated de Bruijn cycle of order l with its first l-1
  symbols repeated at the end, length r^l + l - 1, which is minimal.
"""
from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .core import Alphabet, RandomSource, _check_at_least

# Refuse to materialize cycles, or whole concatenation draws, longer than
# this many symbols.
SIZE_CAP = 2**24

KINDS = ("concatenation", "shortest")

# Bytes that the cached cycle and start tables may hold together; the least
# recently used table goes first.  Both tables of the largest r^l that
# SIZE_CAP admits (128 MiB each) fit, so a race at any admitted (r, l)
# builds its tables once.
_TABLE_CACHE_BYTES = 2**28
_tables: OrderedDict = OrderedDict()


def _superstring_length(kind: str, alphabet_size: int, order: int) -> int:
    """Symbols in one (r, l)-superstring of the kind: l r^l in concatenation
    form, r^l + l - 1 in shortest form."""
    n = alphabet_size**order
    return order * n if kind == "concatenation" else n + order - 1


def _check_params(alphabet_size: int, order: int) -> None:
    Alphabet(alphabet_size)
    _check_at_least(order, 1, "order")
    # Compare in log space so huge orders cannot overflow.
    if order * math.log(alphabet_size) > math.log(SIZE_CAP) + 1e-9:
        raise ValueError(
            f"{alphabet_size}^{order} exceeds the size cap of {SIZE_CAP} symbols"
        )


@dataclass(frozen=True, eq=False)
class Superstring:
    """A verified covering sequence plus its construction provenance."""

    symbols: np.ndarray
    alphabet_size: int
    order: int
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        arr = np.asarray(self.symbols, dtype=np.int64).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "symbols", arr)
        expected = _superstring_length(self.kind, self.alphabet_size, self.order)
        if arr.size != expected:
            raise ValueError(
                f"{self.kind} superstring for r={self.alphabet_size}, "
                f"l={self.order} must have length {expected}, got {arr.size}"
            )

    def __len__(self) -> int:
        return int(self.symbols.size)


def _cached_table(build):
    """Cache the read-only table build(r, l) within _TABLE_CACHE_BYTES."""

    def table(alphabet_size: int, order: int) -> np.ndarray:
        key = (build.__name__, alphabet_size, order)
        if key in _tables:
            _tables.move_to_end(key)
            return _tables[key]
        out = _tables[key] = build(alphabet_size, order)
        out.flags.writeable = False
        while sum(t.nbytes for t in _tables.values()) > _TABLE_CACHE_BYTES:
            _tables.popitem(last=False)
        return out

    return table


@_cached_table
def _canonical_cycle(alphabet_size: int, order: int) -> np.ndarray:
    """One fixed de Bruijn cycle per (r, l), via concatenated Lyndon words."""
    k, n = alphabet_size, order
    seq: list[int] = []
    a = [0] * (k * (n + 1))

    def extend(t: int, p: int) -> None:
        if t > n:
            if n % p == 0:
                seq.extend(a[1 : p + 1])
        else:
            a[t] = a[t - p]
            extend(t + 1, p)
            for j in range(a[t - p] + 1, k):
                a[t] = j
                extend(t + 1, t)

    extend(1, 1)
    return np.array(seq, dtype=np.int64)


@_cached_table
def _cycle_starts(alphabet_size: int, order: int) -> np.ndarray:
    """start[c]: where the string of code c begins in the canonical cycle."""
    cycle = _canonical_cycle(alphabet_size, order)
    wrapped = np.concatenate([cycle, cycle[: order - 1]])
    start = np.empty(cycle.size, dtype=np.int64)
    start[_window_codes(wrapped, alphabet_size, order)] = np.arange(cycle.size)
    return start


def de_bruijn(alphabet_size: int, order: int) -> np.ndarray:
    """A de Bruijn cycle: length r^l, every length-l string once cyclically."""
    _check_params(alphabet_size, order)
    return _canonical_cycle(alphabet_size, order).copy()


def _shortest_array(
    alphabet_size: int, order: int, gen: np.random.Generator, count: int | None = None
) -> np.ndarray:
    """Uniformly rotated de Bruijn cycle with the cyclic wrap made explicit.

    Symbol j is cycle[(offset + j) % r^l].  With count, only the first
    count symbols (at most r^l + l - 1) are gathered.
    """
    cycle = _canonical_cycle(alphabet_size, order)
    offset = int(gen.integers(cycle.size))
    length = _superstring_length("shortest", alphabet_size, order)
    if count is not None:
        length = min(length, count)
    return cycle[(offset + np.arange(length)) % cycle.size]


def _concat_array(
    alphabet_size: int, order: int, gen: np.random.Generator, count: int | None = None
) -> np.ndarray:
    """All r^l blocks laid end to end in a uniformly random order.

    Block slot i holds the string of code perm[i]: its base-r digits, most
    significant first, so no table of blocks is kept.  With count, only the
    blocks that hold the first count symbols are computed; the whole
    permutation is drawn either way.
    """
    perm = gen.permutation(alphabet_size**order)
    if count is not None:
        perm = perm[: -(-count // order)]
    powers = alphabet_size ** np.arange(order - 1, -1, -1)
    return (perm[:, None] // powers % alphabet_size).ravel()[:count]


def _shortest_first_index(
    alphabet_size: int, order: int, offsets: np.ndarray, patterns: np.ndarray
) -> np.ndarray:
    """1-based first index of the length-l string patterns[i] in the draw
    that ``_shortest_array`` makes with offset offsets[i], for a block.

    The string at cycle position s starts at symbol (s - offset) mod r^l of
    the draw, so one gather gives the whole block."""
    start = _cycle_starts(alphabet_size, order)
    codes = patterns @ alphabet_size ** np.arange(order - 1, -1, -1)
    return (start[codes] - offsets) % start.size + 1


def shortest_superstring(
    alphabet_size: int, order: int, source: RandomSource
) -> Superstring:
    """A minimum-length covering sequence, length r^l + l - 1.

    The underlying cycle is rotated by a uniform offset before the wrap
    symbols are appended, so the position of any fixed length-l string is
    uniform over 1..r^l across draws.
    """
    _check_params(alphabet_size, order)
    symbols = _shortest_array(alphabet_size, order, source.generator)
    return Superstring(symbols, alphabet_size, order, "shortest")


def concat_superstring(
    alphabet_size: int, order: int, source: RandomSource
) -> Superstring:
    """The concatenation-form covering sequence, length l * r^l.

    Block α occupies positions α*l+1 .. (α+1)*l for a uniformly random
    assignment of blocks to slots, so any fixed block is equally likely to
    sit in each of the r^l slots.  A draw longer than SIZE_CAP symbols is
    refused.
    """
    _check_params(alphabet_size, order)
    if _superstring_length("concatenation", alphabet_size, order) > SIZE_CAP:
        raise ValueError(
            f"{order}*{alphabet_size}^{order} exceeds the size cap of {SIZE_CAP} symbols"
        )
    symbols = _concat_array(alphabet_size, order, source.generator)
    return Superstring(symbols, alphabet_size, order, "concatenation")


def _window_codes(seq: np.ndarray, alphabet_size: int, order: int) -> np.ndarray:
    """Base-r codes of every in-range length-l window of seq."""
    n_windows = seq.size - order + 1
    if n_windows <= 0:
        return np.empty(0, dtype=np.int64)
    valid = (seq >= 0) & (seq < alphabet_size)
    codes = np.zeros(n_windows, dtype=np.int64)
    ok = np.ones(n_windows, dtype=bool)
    for j in range(order):
        codes = codes * alphabet_size + seq[j : j + n_windows]
        ok &= valid[j : j + n_windows]
    return codes[ok]


def verify_superstring(seq, alphabet_size: int, order: int) -> bool:
    """True iff every length-l string over the alphabet occurs as a
    contiguous linear substring of seq (no cyclic wrap allowed)."""
    _check_params(alphabet_size, order)
    arr = np.asarray(seq, dtype=np.int64)
    codes = _window_codes(arr, alphabet_size, order)
    return int(np.unique(codes).size) == alphabet_size**order
