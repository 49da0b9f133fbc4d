"""The benchmark's workloads, their sizes and their output checks.

Each workload is a closed loop of rounds run by one process and one
thread.  A round makes a fixed set of calls into the library's public
entry points (``seqobf.sim``, ``seqobf.engines.obfuscate``,
``seqobf.ingest``, ``seqobf.detect.has_pattern``); each call is one
operation, and the calls a caller would wait on are the requests whose
latency is reported.  All inputs derive from the workload seed.

The checks hold for any correct implementation: they compare estimates
with frozen references or closed forms within sampling error, and never
compare exact draws, which a change of random streams may alter.
"""
from __future__ import annotations

import math
import os
import sys
import traceback
from time import perf_counter_ns

import numpy as np

from seqobf import bounds, core, detect, engines, ingest, sim

import inputs

WARMUP_KEY = 2**32 - 1

# The canonical fraction cell of the reproduction (test 4, first row).
CELL = dict(scenario="fraction", alphabet_size=20, order=2, gap=10,
            trace_length=1000, p_obf=0.1)
FROZEN_INDEP = {"iid": 0.2185, "sl_sbu": 0.7380}
FROZEN_TOLERANCE = 0.03

# Data-dependent estimates on the same cell, measured once with
# perfbench/reference.py (19 800 samples for lov and plov, 5 940 for manp).
DATADEP_REFERENCE = {
    "lov": (0.3515151515151515, 0.003393042865540536),
    "plov": (0.9468181818181818, 0.0015947121015097772),
    "manp": (0.9791245791245792, 0.0018549976938596784),
}
SIGMAS = 5.0

# (r, l, iterations per call): test 3's configurations, with iteration
# counts that give the three calls about equal cost.
RACE_PLAN = ((10, 2, 120), (20, 2, 100), (10, 3, 80))
RACE_PROB_IID_LATER = (0.61, 0.65)
RACE_MEAN_TOLERANCE = 0.02

PUBLISH_R = 20
PUBLISH_ORDER = 3
PUBLISH_GAP = 10
PUBLISH_P = 0.1
PUBLISH_MIN_INTERVAL_S = 30.0
PUBLISH_MIN_LENGTH = 1 + 2 * PUBLISH_GAP
PUBLISH_PATTERNS = 6
PUBLISH_SIGMAS = 4.0


def stream_seed(*key: int) -> int:
    """A 64-bit seed addressed by a tuple of non-negative integers."""
    return int(np.random.SeedSequence(list(key)).generate_state(1, np.uint64)[0])


class CallFailed(Exception):
    """A timed library call raised; the round it belongs to is abandoned."""


class Calls:
    """Times library calls and counts attempted and failed operations."""

    def __init__(self) -> None:
        self.ns = 0
        self.last_ns = 0
        self.attempted = 0
        self.failed = 0
        self.tracer = None

    def __call__(self, fn, *args, **kwargs):
        self.attempted += 1
        if self.tracer is not None:
            # Spans recorded during one call share its operation number.
            self.tracer.request = self.attempted
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise CallFailed from exc
        finally:
            self.last_ns = perf_counter_ns() - start
            self.ns += self.last_ns

    def reject(self, why: str) -> None:
        """Count the last call as failed: its output failed a check."""
        self.failed += 1
        print(f"check failed: {why}", file=sys.stderr)


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n) if n else math.inf


class Fraction:
    """Unique-pattern fraction protocol; one run_fraction call per request."""

    def __init__(self, seed: int, n_users: int, plan) -> None:
        self.seed = seed
        self.n_users = n_users
        self.plan = plan  # ((methods, iterations), ...) per round
        self.methods = tuple(m for methods, _ in plan for m in methods)
        self.hits = dict.fromkeys(self.methods, 0)
        self.samples = dict.fromkeys(self.methods, 0)

    def _spec(self, methods, n_users, iterations, master_seed):
        return sim.ExperimentSpec(**CELL, methods=methods, n_users=n_users,
                                  iterations=iterations, master_seed=master_seed)

    def warm_up(self) -> None:
        for methods, _ in self.plan:
            sim.run_fraction(self._spec(methods, 2, 1, stream_seed(self.seed, WARMUP_KEY)))

    def run_round(self, index: int, calls: Calls):
        samples, requests = 0, []
        for j, (methods, iterations) in enumerate(self.plan):
            spec = self._spec(methods, self.n_users, iterations,
                              stream_seed(self.seed, index, j))
            result = calls(sim.run_fraction, spec, workers=1)
            requests.append(calls.last_ns)
            expected = iterations * (self.n_users - 1)
            got = tuple(rec["method"] for rec in result.records)
            if got != methods or any(rec["samples"] != expected for rec in result.records):
                calls.reject(f"run_fraction records {got} for {methods}")
                continue
            for rec in result.records:
                if not 0.0 <= rec["estimate"] <= 1.0:
                    calls.reject(f"{rec['method']} estimate {rec['estimate']}")
                    continue
                self.hits[rec["method"]] += round(rec["estimate"] * expected)
                self.samples[rec["method"]] += expected
                samples += expected
        return samples, requests

    def estimates(self) -> dict[str, tuple[float, float]]:
        out = {}
        for m in self.methods:
            n = self.samples[m]
            est = self.hits[m] / n if n else math.nan
            out[m] = (est, _binomial_se(est, n))
        return out


class FractionIndep(Fraction):
    """iid + sl_sbu on the canonical cell: derive, Trace, engines, detect, sim."""

    name = "fraction_indep"
    nominal_round_s = 0.035

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, 100, ((("iid", "sl_sbu"), 1),))

    def verdict(self) -> list[str]:
        est = self.estimates()
        problems = []
        for m, want in FROZEN_INDEP.items():
            if not abs(est[m][0] - want) <= FROZEN_TOLERANCE:
                problems.append(f"{m} estimate {est[m][0]:.4f} vs frozen {want}")
        if not est["sl_sbu"][0] >= est["iid"][0]:
            problems.append("sl_sbu estimate below iid")
        params = bounds.BoundParams(
            trace_length=CELL["trace_length"], alphabet_size=CELL["alphabet_size"],
            order=CELL["order"], gap=CELL["gap"], p_obf=CELL["p_obf"])
        floor = bounds.bound_slsbu(params)
        sl, se = est["sl_sbu"]
        if not sl + SIGMAS * se >= floor:
            problems.append(f"sl_sbu estimate {sl:.4f} below its bound {floor:.4f}")
        return problems


class FractionDatadep(Fraction):
    """lov, plov, manp on the canonical cell, one spec per method.

    Four users per iteration (three non-target), so a manp request stays
    near 0.12 s; the estimate per sample does not depend on the user
    count.  Iterations per method give each method about a third of the
    time at the commit that defined the benchmark.
    """

    name = "fraction_datadep"
    nominal_round_s = 0.33

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, 4, ((("lov",), 26), (("plov",), 7), (("manp",), 1)))

    def verdict(self) -> list[str]:
        problems = []
        for m, (est, _) in self.estimates().items():
            ref, ref_se = DATADEP_REFERENCE[m]
            # Sampling error under the reference value: an estimate's own
            # error vanishes when it reads 0 or 1, which manp often does.
            se = _binomial_se(ref, self.samples[m])
            if not abs(est - ref) <= SIGMAS * math.hypot(se, ref_se):
                problems.append(f"{m} estimate {est:.4f} vs reference {ref:.4f}")
        return problems


class _Pooled:
    """Mean and standard error pooled over calls of one race configuration."""

    def __init__(self) -> None:
        self.n = 0
        self.total = 0.0
        self.squares = 0.0

    def add(self, n: int, mean: float, se: float) -> None:
        sd = se * math.sqrt(n)
        self.n += n
        self.total += n * mean
        self.squares += (n - 1) * sd * sd + n * mean * mean

    def mean(self) -> float:
        return self.total / self.n

    def se(self) -> float:
        var = (self.squares - self.n * self.mean() ** 2) / (self.n - 1)
        return math.sqrt(max(var, 0.0) / self.n)


class Race:
    """First-occurrence race at test 3's (r, l) configurations."""

    name = "race"
    nominal_round_s = 0.045

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.iid = [_Pooled() for _ in RACE_PLAN]
        self.superstring = [_Pooled() for _ in RACE_PLAN]
        self.later = [0.0 for _ in RACE_PLAN]

    def warm_up(self) -> None:
        for r, l, _ in RACE_PLAN:
            sim.run_first_occurrence_race(r, l, 2, master_seed=stream_seed(self.seed, WARMUP_KEY))

    def run_round(self, index: int, calls: Calls):
        samples, requests = 0, []
        for j, (r, l, iterations) in enumerate(RACE_PLAN):
            result = calls(sim.run_first_occurrence_race, r, l, iterations,
                           master_seed=stream_seed(self.seed, index, j))
            requests.append(calls.last_ns)
            rec = result.records[0]
            if rec["iterations"] != iterations or not (
                1.0 <= rec["mean_first_superstring"] <= r**l
                and rec["mean_first_iid"] >= 1.0
                and 0.0 <= rec["prob_iid_later"] <= 1.0
            ):
                calls.reject(f"race record {rec}")
                continue
            self.iid[j].add(iterations, rec["mean_first_iid"], rec["se_first_iid"])
            self.superstring[j].add(iterations, rec["mean_first_superstring"],
                                    rec["se_first_superstring"])
            self.later[j] += iterations * rec["prob_iid_later"]
            samples += iterations
        return samples, requests

    def verdict(self) -> list[str]:
        problems = []
        lo, hi = RACE_PROB_IID_LATER
        for j, (r, l, _) in enumerate(RACE_PLAN):
            iid, sup = self.iid[j], self.superstring[j]
            if iid.n < 2:
                problems.append(f"(r={r}, l={l}) ran {iid.n} iterations")
                continue
            want = bounds.expected_first_occurrence(r, l)
            n = r**l
            if not abs(sup.mean() - want.superstring_stream) <= SIGMAS * sup.se():
                problems.append(f"(r={r}, l={l}) superstring mean {sup.mean():.2f} "
                                f"vs {want.superstring_stream}")
            if not iid.mean() >= want.iid_stream_lower - SIGMAS * iid.se():
                problems.append(f"(r={r}, l={l}) iid mean {iid.mean():.2f} below "
                                f"{want.iid_stream_lower}")
            if not abs(iid.mean() - n) <= RACE_MEAN_TOLERANCE * n + SIGMAS * iid.se():
                problems.append(f"(r={r}, l={l}) iid mean {iid.mean():.2f} vs {n}")
            prob = self.later[j] / iid.n
            if not lo <= prob <= hi:
                problems.append(f"(r={r}, l={l}) P(iid later) {prob:.4f}")
        return problems


class Publish:
    """A data publisher: ingest event logs, release twice, scan the releases.

    A request is one user's release: the two obfuscate calls (with their
    stream derivation) that produce the user's sbu and sl_sbu traces.
    """

    name = "publish"
    nominal_round_s = 0.45
    configs = (
        engines.EngineConfig("sbu", p_obf=PUBLISH_P, order=PUBLISH_ORDER),
        engines.EngineConfig("sl_sbu", p_obf=PUBLISH_P, order=PUBLISH_ORDER),
    )

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        self.logs = inputs.publish_log_paths(workdir)
        self.touched = 0
        self.positions = 0

    @staticmethod
    def _release(trace, config, root, user, j):
        return engines.obfuscate(trace, config, root.derive(user, j), return_mask=True)

    def _ingest(self, path, calls):
        raws = calls(ingest.parse_csv, path)
        raws = [calls(ingest.resample, raw, PUBLISH_MIN_INTERVAL_S) for raw in raws]
        traces, _ = calls(ingest.encode, raws, PUBLISH_R, min_length=PUBLISH_MIN_LENGTH)
        return traces

    def warm_up(self) -> None:
        traces = self._ingest(inputs.warmup_log_path(self.workdir), Calls())
        root = core.RandomSource(stream_seed(self.seed, WARMUP_KEY))
        outs = [self._release(traces[0], c, root, 0, j)[0]
                for j, c in enumerate(self.configs)]
        ingest.write_trace_file(os.path.join(self.workdir, "warmup.txt"), outs)
        pattern = core.Pattern(tuple(traces[0].symbols[:PUBLISH_ORDER]), gap=PUBLISH_GAP)
        detect.has_pattern(outs[0], pattern)

    def _patterns(self, traces, seed):
        """Gap-constrained length-3 patterns read off random users' traces."""
        rng = np.random.default_rng(seed)
        patterns = []
        for u in rng.choice(len(traces), size=PUBLISH_PATTERNS, replace=False):
            x = traces[u].symbols
            g1, g2 = (int(g) for g in rng.integers(1, PUBLISH_GAP + 1, size=2))
            s = int(rng.integers(x.size - g1 - g2))
            pattern = core.Pattern((x[s], x[s + g1], x[s + g1 + g2]), gap=PUBLISH_GAP)
            patterns.append((int(u), pattern))
        return patterns

    def run_round(self, index: int, calls: Calls):
        seed = stream_seed(self.seed, index)
        traces = self._ingest(self.logs[index % len(self.logs)], calls)
        patterns = self._patterns(traces, seed)
        for u, pattern in patterns:
            if not detect.has_pattern(traces[u], pattern):
                calls.reject(f"pattern {pattern.symbols} not found in its source trace")
        root = core.RandomSource(seed)
        releases: list[list] = [[] for _ in self.configs]
        requests = []
        for u, trace in enumerate(traces):
            ns = 0
            for j, config in enumerate(self.configs):
                out, mask = calls(self._release, trace, config, root, u, j)
                ns += calls.last_ns
                if out.length != trace.length or not np.array_equal(
                        out.symbols[~mask], trace.symbols[~mask]):
                    calls.reject(f"{config.method} changed symbols outside its mask")
                self.touched += int(np.count_nonzero(mask))
                self.positions += mask.size
                releases[j].append(out)
            requests.append(ns)
        for j, release in enumerate(releases):
            path = os.path.join(self.workdir, f"release{j}.txt")
            calls(ingest.write_trace_file, path, release)
            if ingest.read_trace_file(path, PUBLISH_R) != release:
                calls.reject(f"{path} does not read back as written")
        for release in releases:
            for z in release:
                for _, pattern in patterns:
                    calls(detect.has_pattern, z, pattern)
        return len(traces), requests

    def verdict(self) -> list[str]:
        if not self.positions:
            return ["no release completed"]
        share = self.touched / self.positions
        sigma = math.sqrt(PUBLISH_P * (1 - PUBLISH_P) / self.positions)
        if not abs(share - PUBLISH_P) <= PUBLISH_SIGMAS * sigma:
            return [f"touched share {share:.5f} vs p={PUBLISH_P}"]
        return []


WORKLOADS = {w.name: w for w in (FractionIndep, FractionDatadep, Race, Publish)}
