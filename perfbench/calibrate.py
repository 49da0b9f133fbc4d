"""Host-speed reference for steady timings on a shared machine.

On a host shared with other tenants the same code can run at half speed
for many seconds at a time.  The workloads mix numpy stream
construction, small-array numpy operations and Python-level dict loops,
and a fixed kernel of that same mix slows down with them (correlation
about 0.9 per round).  Each timing is therefore scaled by REFERENCE_MS
over the kernel's time measured next to it, which reports it in
reference seconds: the time it would take on a host where ``kernel``
takes REFERENCE_MS.

The kernel does not use the library, so no change to the library moves
it.  Changing the kernel or REFERENCE_MS redefines every time metric.
"""
from __future__ import annotations

from time import perf_counter_ns

import numpy as np

REFERENCE_MS = 2.0


def kernel() -> int:
    acc = 0
    for k in range(20):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(k)))
        x = gen.integers(0, 18, size=1000)
        mask = gen.random(1000) < 0.1
        y = x.copy()
        y[mask] = gen.integers(0, 20, size=int(mask.sum()))
        hits = np.concatenate([[0], np.cumsum(y == 3)])
        acc += int((hits[10:] - hits[:-10] > 0).sum())
        counts: dict[int, int] = {}
        for v in y[:300].tolist():
            counts[v] = counts.get(v, 0) + 1
        acc += len(counts)
    return acc


def slowdown() -> float:
    """Kernel time over REFERENCE_MS: above 1 when the host runs slower."""
    start = perf_counter_ns()
    kernel()
    return (perf_counter_ns() - start) / 1e6 / REFERENCE_MS
