"""Shared domain types: alphabets, symbol traces, patterns, seeded randomness.

Symbols are canonically the integers 0..size-1.  Every other module builds
on the types here; all of them are plain immutable values except
RandomSource, whose draw position advances as it is consumed.

The parameter rules are said here once, and every constructor and runner
calls them: ``_check_at_least`` for counts, lengths, orders and finite gaps
(None is refused), ``_check_gap`` for a gap that may be unbounded,
``_check_noise`` for a probability in [0, 1], and ``_check_seed`` for a
master seed.  Each raises ValueError.

Deriving a RandomSource hashes its identity with numpy's SeedSequence,
which costs tens of microseconds.  ``_derive_keys`` takes the seed's part
of that hash from SeedSequence and mixes in many paths at once, and a
Philox with such a key draws what RandomSource(master_seed, path).generator
draws; the engines and protocols below the public API take such bare
Generators.  Re-keying a built generator is cheaper than building one, so
each thread keeps a pool of them, and ``_keyed_generators`` re-keys its
thread's pool for each block of keys, growing it first if the block is
larger.  A pool grows to its thread's largest block and lives as long as
the thread, at about 800 bytes per generator.  It is not re-entrant:
re-keying it makes the generators of its last block stale, so a caller
holds one block at a time.

``_raw_values`` draws rows of bounded integers from keyed generators'
raw Philox words, as Generator.integers would; no code outside it and its
helpers reads those words.  Its stream contract:

* a keyed generator starts with no pending half;
* a double (Generator.random) reads a whole word and leaves a pending
  half pending;
* 32-bit draws read the halves of each word, the low half first;
* a value below a bound b in [2, 2**32) is (h * b) >> 32 for a half h,
  and a half whose product has its low 32 bits below (2**32 - b) % b is
  rejected and skipped: Lemire's multiply-shift ("Fast Random Integer
  Generation in an Interval", ACM TOMACS 29(1), 2019), which is how
  Generator.integers draws below bounds up to 2**32;
* a row carries at most one unread half from one draw to its next;
* a row that holds one draws an even count of values.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Alphabet:
    """A finite symbol set {0, 1, ..., size-1} with size >= 2."""

    size: int

    def __post_init__(self) -> None:
        _check_at_least(self.size, 2, "alphabet size")

    def validate(self, symbols: np.ndarray) -> None:
        """Raise ValueError if any symbol falls outside 0..size-1."""
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.size):
            raise ValueError(
                f"symbols outside alphabet 0..{self.size - 1}: "
                f"range [{symbols.min()}, {symbols.max()}]"
            )


def _check_at_least(value, least: int, name: str, owner: str = "") -> None:
    """The one rule for a count, length, order or finite gap: at least least,
    so None is refused too.  The message reads "name must be >= least", or
    "owner name >= least" when the owner, such as "the race needs", asks
    for more than the quantity's own bound."""
    if value is None or value < least:
        rule = f"{owner} {name} >= {least}" if owner else f"{name} must be >= {least}"
        raise ValueError(f"{rule}, got {value}")


def _check_gap(gap: int | None) -> None:
    """The one rule for an optional gap: None (unbounded) or at least 1."""
    if gap is not None:
        _check_at_least(gap, 1, "gap")


def _check_noise(p: float, name: str = "p_obf") -> None:
    """The one range rule for a probability, such as a replacement probability."""
    if p is None or not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {p}")


def _check_seed(master_seed: int) -> int:
    """The one rule for a master seed: a non-negative integer, returned as int."""
    master_seed = int(master_seed)
    if master_seed < 0:
        raise ValueError(f"master seed must be non-negative, got {master_seed}")
    return master_seed


def _as_symbol_array(symbols) -> np.ndarray:
    arr = np.asarray(symbols, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d symbol sequence, got shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class Trace:
    """A length-m sequence of symbols from one alphabet.

    Used for raw and obfuscated user data alike; the role is contextual,
    the representation identical.
    """

    symbols: np.ndarray
    alphabet: Alphabet

    def __post_init__(self) -> None:
        arr = _as_symbol_array(self.symbols)
        if arr.size == 0:
            raise ValueError("trace must contain at least one symbol")
        self.alphabet.validate(arr)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "symbols", arr)

    @property
    def length(self) -> int:
        return int(self.symbols.size)

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.alphabet == other.alphabet and np.array_equal(
            self.symbols, other.symbols
        )


@dataclass(frozen=True)
class Pattern:
    """An ordered symbol sequence matched as a gap-constrained subsequence.

    ``gap`` bounds the index distance between consecutive matched elements;
    ``None`` means unbounded (any distance allowed).  gap=1 is the
    contiguous-substring case.
    """

    symbols: tuple[int, ...]
    gap: int | None = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))
        if len(self.symbols) < 1:
            raise ValueError("pattern must contain at least one symbol")
        if any(s < 0 for s in self.symbols):
            raise ValueError("pattern symbols must be non-negative")
        _check_gap(self.gap)

    @property
    def order(self) -> int:
        return len(self.symbols)


class RandomSource:
    """A deterministic, addressable stream of randomness.

    A source is identified by (master_seed, path).  The same identity yields
    the same draw sequence on every run and platform; distinct paths yield
    statistically independent streams.  ``derive`` appends indices to the
    path.

    A source must only be drawn from by one owner at a time.
    """

    def __init__(self, master_seed: int, path: tuple[int, ...] = ()):
        self.master_seed = _check_seed(master_seed)
        self.path = tuple(int(i) for i in path)
        if min(self.path, default=0) < 0:
            raise ValueError(f"path indices must be non-negative, got path {self.path}")
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=self.path)
        self._generator = np.random.Generator(np.random.Philox(seq))

    def derive(self, *indices: int) -> "RandomSource":
        """A fresh independent child stream addressed by the given indices."""
        return RandomSource(self.master_seed, self.path + tuple(indices))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def __repr__(self) -> str:
        return f"RandomSource(master_seed={self.master_seed}, path={self.path})"


class _Pool(threading.local):
    def __init__(self) -> None:
        self.generators: list = []


_pool = _Pool()


def _keyed_generators(keys: np.ndarray) -> list:
    """The generators of the (n, 2) keys from _derive_keys, drawing as a fresh
    Philox of each key would.

    This thread's pool grows to at least n generators, and its first n are
    re-keyed to the state a fresh Philox holds (the key, counter 0, an
    empty buffer)."""
    pool = _pool.generators
    pool.extend(np.random.Generator(np.random.Philox(0)) for _ in range(len(keys) - len(pool)))
    state = {"bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": None},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for gen, key in zip(pool, keys.tolist()):
        state["state"]["key"] = key
        gen.bit_generator.state = state
    return pool[: len(keys)]


# Values that a raw draw makes at once: the words and the rejection test
# of one slice of rows stay a small part of a race block.
_RAW_SYMBOLS = 1 << 15


def _halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of raw Philox words along the last axis, the low
    half of each word first on any host."""
    return words.astype("<u8", copy=False).view("<u4")


def _passes(halves: np.ndarray, bound: int, least: int, out=None) -> np.ndarray:
    """Which halves Lemire's rule keeps for bound: those whose product with
    bound has low 32 bits of at least least = (2**32 - bound) % bound."""
    return np.greater_equal(np.multiply(halves, np.uint32(bound), dtype=np.uint32), least, out=out)


def _kept_halves(gen: np.random.Generator, halves: np.ndarray, segments) -> tuple[list, int]:
    """The halves that one row keeps for the segments (see _raw_values),
    read from halves and then from gen's words; and its unread half, or -1."""
    kept = []
    for count, bound, least in segments:
        while count:
            if not halves.size:
                halves = _halves(gen.bit_generator.random_raw(-(-count // 2)))
            at = np.flatnonzero(_passes(halves, bound, least))[:count]
            kept.append(halves[at])
            count -= at.size
            halves = halves[at[-1] + 1 if not count else halves.size :]
    return kept, int(halves[0]) if halves.size else -1


def _finish_row(gen: np.random.Generator, halves: np.ndarray, tail: np.ndarray,
                passed: np.ndarray, segments) -> int:
    """Mend one row of a _raw_values slice that read a rejected half, and
    return its unread half, or -1.  halves are the row's first k halves,
    tail the half after them if it holds one, and passed says which halves
    passed.  Up to the end of the first segment with a rejected half, the
    halves that passed stand, moved up; the rest are read from the halves
    after that segment and then from gen's words."""
    a = 0
    for s, (count, bound, least) in enumerate(segments):
        if not passed[a : a + count].all():
            break
        a += count
    kept = halves[a : a + count][passed[a : a + count]]
    more, left = _kept_halves(gen, np.concatenate([halves[a + count :], tail]),
                              [(count - kept.size, bound, least), *segments[s + 1 :]])
    halves[a : a + kept.size] = kept
    halves[a + kept.size :] = np.concatenate(more)
    return left


def _raw_values(
    gens: Sequence[np.random.Generator], spare: np.ndarray, segments, out: np.ndarray
) -> np.ndarray:
    """Draw row i of out as gens[i].integers would, from raw words, and
    return each row's unread half, or -1.

    segments is a list of (count, bound) pairs, with bound in [2, 2**32):
    out's k columns take count values below each bound in turn.  A row
    reads spare[i], the half its last draw left unread (-1 for none), and
    then the halves of its generator's words, under the stream contract in
    the module docstring.  Every row takes the ceil(k / 2) words that k
    values need when no half is rejected, so a row can hold a spare half
    only for an even k.  A draw of k = 0 reads no words and returns spare.
    Rows are drawn in slices of about _RAW_SYMBOLS values; a row that reads
    a rejected half is mended alone (_finish_row) and takes more words, and
    it too leaves at most one half unread.
    """
    n, k = out.shape
    if not k:
        return spare
    if k % 2 and (spare >= 0).any():
        raise ValueError(f"a row holding a spare half draws an even count of values, not {k}")
    segments = [(count, bound, (2**32 - bound) % bound) for count, bound in segments]
    words = -(-k // 2)
    products = out.view(np.uint64)
    left = np.empty(n, dtype=np.int64)
    step = max(1, _RAW_SYMBOLS // k)
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        # Each row's spare half, then the halves of its words.  A row reads
        # from column 0 if it holds a spare half, else from column 1; the
        # rows of a slice mostly agree.
        buffer = np.empty((hi - lo, words + 1), dtype="<u8")
        buffer[:, 1:] = [gen.bit_generator.random_raw(words) for gen in gens[lo:hi]]
        stream = buffer.view("<u4")[:, 1:]
        stream[:, 0] = spare[lo:hi]
        skip = spare[lo:hi] < 0
        if (skip == skip[0]).all():
            halves = stream[:, int(skip[0]) : int(skip[0]) + k]
        else:
            halves = np.where(skip[:, None], stream[:, 1 : k + 1], stream[:, :k])
        # A row leaves its last half unread unless it skipped column 0 and k is even.
        left[lo:hi] = np.where(skip & (k % 2 == 0), -1, stream[:, -1].astype(np.int64))
        passed = np.empty((hi - lo, k), dtype=bool)
        a = 0
        for count, bound, least in segments:
            _passes(halves[:, a : a + count], bound, least, out=passed[:, a : a + count])
            a += count
        for i in np.flatnonzero(~passed.all(axis=1)).tolist():
            left[lo + i] = _finish_row(gens[lo + i], halves[i], stream[i, int(skip[i]) + k :],
                                       passed[i], segments)
        product, a = products[lo:hi], 0
        for count, bound, _ in segments:
            np.multiply(halves[:, a : a + count], np.uint64(bound), dtype=np.uint64,
                        out=product[:, a : a + count])
            a += count
        product >>= 32
    return left


# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


def _hash_consts(init: int, multiplier: int, count: int) -> np.ndarray:
    """The successive hash constants that SeedSequence steps through, as a
    uint32 column."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * multiplier & _WORD)
    return np.array(consts, dtype=np.uint32)[:, None]


# SeedSequence's two hash steps, on uint32 arrays, whose arithmetic wraps at
# 32 bits as SeedSequence's does.


def _hashmix(value, xor, multiplier):
    value = (value ^ xor) * multiplier
    return value ^ value >> 16


def _mix(x, y):
    out = _MIX_MULT_L * x - _MIX_MULT_R * y
    return out ^ out >> 16


def _derive_keys(master_seed: int, paths) -> np.ndarray:
    """The Philox key of RandomSource(master_seed, path) for each row of paths.

    Row i of the (n, 2) uint64 result equals
    SeedSequence(master_seed, spawn_key=paths[i]).generate_state(2, uint64),
    which is the key Philox takes from that seed sequence.  paths is an
    (n, depth) array of indices; an index outside [0, 2**32) is refused,
    since SeedSequence would read it as more than one word.
    """
    paths = np.asarray(paths, dtype=np.int64)
    if paths.size and (paths.min() < 0 or paths.max() > _WORD):
        raise ValueError("path indices must lie in [0, 2**32) to be derived in bulk")
    master_seed = _check_seed(master_seed)
    # SeedSequence mixes the seed's 32-bit words into its pool before the
    # path's, stepping its hash constant four times for each of at least
    # four seed words.  Each path index is then one uint32 column, mixed
    # into the pool with the next four constants: one (4, n) step per index.
    pool = np.random.SeedSequence(master_seed).pool[:, None]
    k = _POOL_SIZE * max(_POOL_SIZE, -(-master_seed.bit_length() // 32))
    a = _hash_consts(_INIT_A, _MULT_A, k + _POOL_SIZE * paths.shape[1] + 1)
    for word in paths.T.astype(np.uint32):
        pool = _mix(pool, _hashmix(word, a[k : k + _POOL_SIZE], a[k + 1 : k + _POOL_SIZE + 1]))
        k += _POOL_SIZE
    b = _hash_consts(_INIT_B, _MULT_B, _POOL_SIZE + 1)
    state = _hashmix(pool, b[:-1], b[1:]).astype(np.uint64)
    keys = np.empty((paths.shape[0], 2), dtype=np.uint64)
    keys[:] = (state[0::2] | state[1::2] << np.uint64(32)).T
    return keys
