"""Benchmark entry point.

From the repository root:

    python3 perfbench/run.py --workload publish --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: set-up time is the
median over several fresh processes, everything else comes from one
process that runs the workload's rounds for ``--seconds``.  With
``--trace 1`` it reports the per-layer metrics of one process that runs a
fixed number of rounds traced and the same rounds untraced.  The metric
names and units are the ones listed in BENCHMARK.json.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join("src", "seqobf")
OUT_DIR = ".perfbench_out"
WORKLOADS = ("fraction_indep", "fraction_datadep", "race", "publish")
# Fresh processes whose set-up time is measured; the measuring one is last.
SETUP_RUNS = 5
TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    pass


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git_revision() -> str | None:
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SOURCE)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(SOURCE, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }


def spawn(mode: str, args, workdir: str, deadline: float) -> dict:
    """Run one worker process to completion and return its report."""
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath("src")] + [p for p in [env.get("PYTHONPATH")] if p])
    spans = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir, "--spans", spans, "--started"]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + [repr(started)], env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no report")
    return json.loads(lines[-1])


def run(args) -> tuple[dict, list[float]]:
    """Report of the measuring (or traced) process, plus set-up times."""
    deadline = time.monotonic() + TIMEOUT_S
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        inputs.prepare(args.workload, args.seed, workdir)
        if args.trace:
            return spawn("trace", args, workdir, deadline), []
        setups = [spawn("setup", args, workdir, deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        report = spawn("measure", args, workdir, deadline)
        return report, setups + [report["setup_s"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SOURCE, "__init__.py")):
        print(f"perfbench: no {SOURCE} here; run from the repository root",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    prov = provenance(args)
    try:
        report, setup = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not report["metrics"]:
        print(f"perfbench: nothing measured; problems: {report['problems']}", file=sys.stderr)
        return 1
    measured = dict(report["metrics"], peak_rss_mb=report["peak_rss_mb"])
    if setup:
        # Scaled like every other time; a probe process is too short to
        # time the calibration kernel reliably itself.
        measured["setup_s"] = statistics.median(setup) / report["slowdown"]
    missing = sorted(set(units) - set(measured))
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    attempted, failed = report["attempted"], report["failed"]
    correct = not report["problems"] and failed == 0 and attempted > 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={report['rounds']}")
    print("provenance " + json.dumps(prov))
    if setup:
        print("unscaled setup_s samples " + " ".join(f"{s:.4f}" for s in setup))
        print(f"requests {report['requests']}; unscaled samples_per_s "
              f"{report['raw_samples_per_s']:.6g}; host slowdown {report['slowdown']:.4f}")
    for name, unit in units.items():
        print(f"  {name:<30} {measured[name]:>16.6g} {unit}")
    print(f"  {'failed_frac':<30} {failed / max(attempted, 1):>16.6g} ratio "
          f"({failed} of {attempted} calls)")
    if args.trace:
        print("layer self-time shares " + json.dumps(
            {k: round(v, 4) for k, v in report["shares"].items()}))
        print("computed, not counted: " + ", ".join(report["computed"]))
    for problem in report["problems"]:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": measured[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
