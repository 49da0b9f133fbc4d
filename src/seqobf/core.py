"""Shared domain types: alphabets, symbol traces, patterns, seeded randomness.

Symbols are canonically the integers 0..size-1.  Every other module builds
on the types here; all of them are plain immutable values except
RandomSource, whose draw position advances as it is consumed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Alphabet:
    """A finite symbol set {0, 1, ..., size-1} with size >= 2."""

    size: int

    def __post_init__(self) -> None:
        if self.size < 2:
            raise ValueError(f"alphabet size must be >= 2, got {self.size}")

    def validate(self, symbols: np.ndarray) -> None:
        """Raise ValueError if any symbol falls outside 0..size-1."""
        if symbols.size and (symbols.min() < 0 or symbols.max() >= self.size):
            raise ValueError(
                f"symbols outside alphabet 0..{self.size - 1}: "
                f"range [{symbols.min()}, {symbols.max()}]"
            )


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
        if self.gap is not None and self.gap < 1:
            raise ValueError(f"gap must be >= 1 or None, got {self.gap}")

    @property
    def order(self) -> int:
        return len(self.symbols)


class RandomSource:
    """A deterministic, addressable stream of randomness.

    A source is identified by (master_seed, path).  The same identity yields
    the same draw sequence on every run and platform; distinct paths yield
    statistically independent streams.  ``derive`` appends indices to the
    path, so e.g. one stream per (iteration, user) never perturbs any other
    stream when more users or iterations are added.

    A source must only be drawn from by one owner at a time.
    """

    def __init__(self, master_seed: int, path: tuple[int, ...] = ()):
        self.master_seed = int(master_seed)
        self.path = tuple(int(i) for i in path)
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
