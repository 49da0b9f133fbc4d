"""One workload process: set up, run rounds, check outputs, report.

Started by run.py in a fresh interpreter per run, so set-up time and peak
memory belong to one workload.  Prints one JSON object on stdout.

Modes:
  setup    import the library and warm up, then report the set-up time;
  measure  run rounds for --seconds with tracing off;
  trace    run a fixed number of rounds twice, once traced and once not,
           alternating, and report the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

import calibrate
import workloads
from workloads import CallFailed


def _percentile_ms(values_ns: list[float], q: float) -> float:
    """Nearest-rank percentile, so the value is one of the samples."""
    ordered = sorted(values_ns)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] / 1e6


def measure(workload, seconds: float, calls: workloads.Calls) -> dict:
    """Rounds for `seconds`; times are in reference seconds (see calibrate)."""
    rates, requests, raw_rates, slowdowns = [], [], [], []
    index = 0
    start = time.monotonic()
    while time.monotonic() - start < seconds:
        slow_before = calibrate.slowdown()
        before = calls.ns
        try:
            samples, latencies = workload.run_round(index, calls)
        except CallFailed:
            continue
        finally:
            index += 1
        rate = samples / ((calls.ns - before) / 1e9)
        slow = (slow_before + calibrate.slowdown()) / 2
        raw_rates.append(rate)
        slowdowns.append(slow)
        rates.append(rate * slow)
        requests.extend(ns / slow for ns in latencies)
    problems = workload.verdict()
    if not rates:
        problems.append("no round completed")
        return {"problems": problems, "metrics": {}}
    return {
        "problems": problems,
        "rounds": index,
        "requests": len(requests),
        "raw_samples_per_s": statistics.median(raw_rates),
        "slowdown": statistics.median(slowdowns),
        "metrics": {
            "samples_per_s": statistics.median(rates),
            "request_p50_ms": _percentile_ms(requests, 0.50),
            "request_p90_ms": _percentile_ms(requests, 0.90),
        },
    }


def trace(make, seconds: float, calls: workloads.Calls, spans_path: str, meta: dict) -> dict:
    import tracing

    tracer = tracing.Tracer()
    calls.tracer = tracer
    # Twin workloads see the same rounds, so each one's check counts every
    # sample once.
    twins = {False: make(), True: make()}
    rounds = max(1, round(seconds / 2 / twins[False].nominal_round_s))
    elapsed = {False: 0, True: 0}
    for index in range(rounds):
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if traced:
                tracer.install()
            before = calls.ns
            try:
                twins[traced].run_round(index, calls)
            except CallFailed:
                pass
            finally:
                tracer.uninstall()
            elapsed[traced] += calls.ns - before
    problems = twins[False].verdict()
    tracer.install()
    try:
        problems += twins[True].verdict()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace_overhead_frac"] = elapsed[True] / elapsed[False] - 1.0
    layers = tracer.layer_self_ns()
    total = sum(layers.values())
    shares = {layer: ns / total for layer, ns in sorted(layers.items())}
    tracer.save(spans_path, dict(meta, rounds=rounds, shares=shares))
    return {"problems": problems, "rounds": rounds, "metrics": metrics,
            "shares": shares, "computed": list(tracing.COMPUTED)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--started", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default="")
    args = ap.parse_args()

    cls = workloads.WORKLOADS[args.workload]
    workload = cls(args.seed, args.workdir)
    workload.warm_up()
    out = {"setup_s": time.monotonic() - args.started}
    if args.mode != "setup":
        calls = workloads.Calls()
        if args.mode == "measure":
            out.update(measure(workload, args.seconds, calls))
        else:
            meta = {"workload": args.workload, "seed": args.seed}
            out.update(trace(lambda: cls(args.seed, args.workdir), args.seconds,
                             calls, args.spans, meta))
        out["attempted"] = calls.attempted
        out["failed"] = calls.failed
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
