"""Ingestion of timestamped categorical event logs into symbol traces.

Input CSV schema: header ``user_id,timestamp,category``, one event per row,
timestamps in seconds since the epoch.  Events are grouped per user,
thinned to a minimum sampling interval, and the most frequent categories
are mapped onto the canonical alphabet 0..r-1.

Encoded traces round-trip through a plain text format: one line per user,
whitespace-separated symbol integers.
"""
from __future__ import annotations

import csv
import operator
import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .core import Alphabet, Trace

REQUIRED_COLUMNS = ("user_id", "timestamp", "category")


def _in_order(events) -> bool:
    """Whether no event's timestamp is below its predecessor's."""
    ts = list(map(operator.itemgetter(0), events))
    return not any(map(operator.lt, islice(ts, 1, None), ts))


@dataclass(frozen=True)
class RawTrace:
    """One user's time-ordered (timestamp, category) events."""

    user_id: str
    events: tuple[tuple[float, str], ...]

    def __post_init__(self) -> None:
        if not _in_order(self.events):
            raise ValueError(f"events of user {self.user_id!r} are out of order")

    def __len__(self) -> int:
        return len(self.events)


def parse_csv(path) -> list[RawTrace]:
    """Load raw traces, grouping rows per user and sorting by timestamp.

    Raises ValueError with line numbers for malformed rows; emits a warning
    (and sorts stably) when a user's rows arrive out of order.
    """
    per_user: dict[str, list[tuple[float, str]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header "
                             f"{','.join(REQUIRED_COLUMNS)}") from None
        if tuple(c.strip() for c in header) != REQUIRED_COLUMNS:
            raise ValueError(
                f"{path}: expected header {','.join(REQUIRED_COLUMNS)}, "
                f"got {','.join(header)}"
            )
        bad: list[str] = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3 or not row[0] or not row[2]:
                bad.append(f"line {line_no}: malformed row {row!r}")
                continue
            try:
                ts = float(row[1])
            except ValueError:
                bad.append(f"line {line_no}: unparseable timestamp {row[1]!r}")
                continue
            per_user.setdefault(row[0], []).append((ts, row[2]))
        if bad:
            raise ValueError(f"{path}: " + "; ".join(bad[:20]))
    out: list[RawTrace] = []
    for user_id in per_user:
        events = per_user[user_id]
        if not _in_order(events):
            warnings.warn(
                f"events of user {user_id!r} arrived out of order; sorting",
                stacklevel=2,
            )
            events = sorted(events, key=lambda e: e[0])
        out.append(RawTrace(user_id, tuple(events)))
    return out


def _check_interval(min_interval: float) -> None:
    if min_interval <= 0:
        raise ValueError(f"min_interval must be > 0, got {min_interval}")


def resample(raw: RawTrace, min_interval: float) -> RawTrace:
    """Greedy left-to-right thinning to a minimum inter-event interval.

    The first event is always kept; each later event is kept iff it falls
    at least min_interval seconds after the last kept one.
    """
    _check_interval(min_interval)
    kept: list[tuple[float, str]] = []
    for event in raw.events:
        if not kept or event[0] - kept[-1][0] >= min_interval:
            kept.append(event)
    return RawTrace(raw.user_id, tuple(kept))


def encode(
    raws: list[RawTrace], alphabet_size: int, min_length: int | None = None
) -> tuple[list[Trace], dict[str, int]]:
    """Map the r most frequent categories to symbols 0..r-1 and drop the rest.

    Frequencies are counted over all users' events; ties break toward the
    lexicographically smaller category.  Users whose encoded trace ends up
    shorter than min_length (or empty) are dropped.
    """
    freq: dict[str, int] = {}
    for raw in raws:
        for _, cat in raw.events:
            freq[cat] = freq.get(cat, 0) + 1
    if len(freq) < alphabet_size:
        raise ValueError(
            f"need at least {alphabet_size} distinct categories, found {len(freq)}"
        )
    ranked = sorted(freq, key=lambda c: (-freq[c], c))
    mapping = {cat: sym for sym, cat in enumerate(ranked[:alphabet_size])}
    alphabet = Alphabet(alphabet_size)
    floor = max(1, min_length or 1)
    traces: list[Trace] = []
    for raw in raws:
        symbols = [mapping[cat] for _, cat in raw.events if cat in mapping]
        if len(symbols) < floor:
            continue
        traces.append(Trace(np.array(symbols, dtype=np.int64), alphabet))
    return traces, mapping


def write_trace_file(path, traces: list[Trace]) -> None:
    """One line per trace, whitespace-separated symbol integers."""
    with open(path, "w") as fh:
        for trace in traces:
            fh.write(" ".join(map(str, trace.symbols.tolist())))
            fh.write("\n")


def read_trace_file(path, alphabet_size: int) -> list[Trace]:
    """Parse the write_trace_file format back into Trace values."""
    alphabet = Alphabet(alphabet_size)
    traces: list[Trace] = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            try:
                symbols = np.array([int(f) for f in fields], dtype=np.int64)
            except ValueError:
                raise ValueError(f"{path}: line {line_no}: non-integer symbol") from None
            traces.append(Trace(symbols, alphabet))
    return traces
