"""Seeded inputs that must exist on disk before a workload process starts.

Only ``publish`` reads files: raw event logs in the ingest CSV schema
(``user_id,timestamp,category``).  They are written by the parent process
so that generating them is not counted as the workload's set-up.  This
module uses numpy and the standard library only.
"""
from __future__ import annotations

import os

import numpy as np

TOWERS = 40
ZIPF_EXPONENT = 1.0
MEAN_GAP_S = 60.0
START_S = 1.6e9

PUBLISH_LOGS = 4
PUBLISH_USERS_PER_LOG = 250
PUBLISH_EVENTS_PER_USER = 270


def write_event_log(path: str, rng: np.random.Generator, users: int,
                    events_per_user: int, prefix: str) -> None:
    """Zipf-like tower popularity, exponential gaps, Poisson event counts."""
    weights = 1.0 / np.arange(1, TOWERS + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    with open(path, "w") as fh:
        fh.write("user_id,timestamp,category\n")
        for u in range(users):
            n = max(1, int(rng.poisson(events_per_user)))
            times = START_S + np.cumsum(rng.exponential(MEAN_GAP_S, size=n))
            towers = rng.choice(TOWERS, size=n, p=weights)
            fh.write("".join(
                f"{prefix}{u:05d},{t:.3f},t{c:02d}\n" for t, c in zip(times, towers)
            ))


def publish_log_paths(workdir: str) -> list[str]:
    return [os.path.join(workdir, f"events{i}.csv") for i in range(PUBLISH_LOGS)]


def warmup_log_path(workdir: str) -> str:
    return os.path.join(workdir, "warmup.csv")


def prepare(workload: str, seed: int, workdir: str) -> None:
    """Write the workload's input files into workdir."""
    if workload != "publish":
        return
    rng = np.random.default_rng([seed, 0x5EED])
    for i, path in enumerate(publish_log_paths(workdir)):
        write_event_log(path, rng, PUBLISH_USERS_PER_LOG,
                        PUBLISH_EVENTS_PER_USER, prefix=f"u{i}-")
    write_event_log(warmup_log_path(workdir), rng, 4, 200, prefix="w-")
