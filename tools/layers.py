"""Time the library's layers in CPU time, in fresh processes.

Usage: python tools/layers.py [--m M] [--against REV]

Cases run at the canonical fraction cell (r 20, l 2, gap 10, p 0.1, m
symbols, 1 000 by default).  A process calls a case once, then times CALLS
calls in CPU time on inputs built untimed; a case reads the median over
PROCESSES processes, in microseconds.  --against REV alternates them with
processes on a git worktree of REV, REV first in odd pairs, and adds each
case's median ratio of this checkout's time to REV's and the pairs in which
it took less.  A failed case reads null; its traceback goes to stderr.
"""
import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
R, L, GAP, P, SEED = 20, 2, 10, 0.1, 12345
SINGLE_PASS = ("iid", "sbu", "sl_sbu", "lov", "plov", "manp")
PROCESSES, CALLS = 10, 20


def cases(m: int, workdir: str) -> dict:
    """Case name -> make(), which builds a call's inputs and returns the call."""
    import numpy as np
    from seqobf import bounds, core, detect, engines, ingest
    gen = np.random.default_rng(SEED)
    symbols, scanned = gen.integers(0, R, m), gen.integers(0, R, (32, m))
    base = gen.integers(0, R - L, (131, m))
    paths = np.stack([np.arange(198) // 2, 1 + np.arange(198) // 2, np.arange(198) % 2], axis=1)
    log, events = Path(workdir) / "events.csv", f"{20 * m:,}".replace(",", " ")
    log.write_text("user_id,timestamp,category\n" + "".join(
        f"u{u},{t}.0,c{c}\n" for u in range(m // 5)
        for t, c in enumerate(gen.integers(0, 40, 100).tolist())))
    q = tuple(range(R - L, R))
    configs = {method: engines.EngineConfig(method, p_obf=P, gap=GAP if method == "manp" else None)
               for method in SINGLE_PASS}
    configs["two_stage"] = engines.EngineConfig("two_stage", stage_noise=(P, P))

    def gens(n):
        return core._keyed_generators(core._derive_keys(SEED, paths[:n]))

    def trace():
        return core.Trace(symbols, core.Alphabet(R))

    def one_trace(method):
        return lambda: (lambda t, c, s: lambda: engines.obfuscate(t, c, s))(
            trace(), configs[method], core.RandomSource(SEED, (7,)))

    def rows(method, n):
        return lambda: (lambda z, c, g: lambda: engines._obfuscate_rows(z, R, c, g))(
            base[:n].copy(), configs[method], gens(n))

    params = bounds.BoundParams(m, R, L, GAP, P)
    return {
        "core._derive_keys[198 paths]": lambda: lambda: core._derive_keys(SEED, paths),
        "core.RandomSource": lambda: lambda: core.RandomSource(SEED, (1, 2, 3)),
        "core.Trace": lambda: trace,
        "core._raw_values[32x130]": lambda: (lambda g, s, out: lambda: core._raw_values(
            g, s, [(130, R)], out))(gens(32), np.full(32, -1), np.empty((32, 130), np.int64)),
        **{f"engines.obfuscate.{method}": one_trace(method) for method in configs},
        **{f"engines._obfuscate_rows[32].{method}": rows(method, 32) for method in SINGLE_PASS},
        **{f"engines._obfuscate_rows[131].{method}": rows(method, 131)
           for method in ("lov", "plov")},
        "detect.has_pattern": lambda: (lambda t, pattern: lambda: detect.has_pattern(
            t, pattern))(trace(), core.Pattern(q, gap=GAP)),
        "detect._pattern_found[32 rows]": lambda: lambda: detect._pattern_found(scanned, q, GAP),
        "bounds.bound_sbu": lambda: lambda: bounds.bound_sbu(params),
        "bounds.bound_slsbu": lambda: lambda: bounds.bound_slsbu(params),
        f"ingest.parse_csv[{events} rows]": lambda: lambda: ingest.parse_csv(log),
    }


def seconds(call) -> float:
    t0 = time.process_time()
    call()
    return time.process_time() - t0


def child(src: str, m: int) -> dict:
    """Median CPU microseconds of one call of each case, on the package at src."""
    sys.path.insert(0, src)
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, make in cases(m, workdir).items():
            try:
                make()()
                times = [seconds(make()) for _ in range(CALLS)]
                out[name] = round(statistics.median(times) * 1e6, 2)
            except Exception:  # the case reads null, and its traceback goes to stderr
                print(f"{name} failed on {src}:\n{traceback.format_exc()}", file=sys.stderr)
                out[name] = None
    return out


def process(src: Path, m: int) -> dict:
    command = [sys.executable, __file__, "--child", str(src), "--m", str(m)]
    return json.loads(subprocess.run(command, stdout=subprocess.PIPE, check=True).stdout)


def median(values):
    values = [v for v in values if v is not None]
    return round(statistics.median(values), 3) if values else None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Time the library's layers in CPU time.")
    parser.add_argument("--m", type=int, default=1000, help="trace length")
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv[1:])
    here, report = ROOT / "src", {"m": args.m, "processes": PROCESSES, "calls": CALLS}
    if args.child:
        report = child(args.child, args.m)
    elif args.against is None:
        runs = [process(here, args.m) for _ in range(PROCESSES)]
        report["us"] = {name: median(run[name] for run in runs) for name in runs[0]}
    else:
        git = ["git", "-C", ROOT, "worktree"]
        with tempfile.TemporaryDirectory() as tmp:
            tree, pairs = Path(tmp) / "tree", []
            subprocess.run(git + ["add", "--quiet", "--detach", tree, args.against], check=True)
            try:
                for i in range(PROCESSES):
                    sides = ((tree / "src", here), (here, tree / "src"))[i % 2]
                    got = dict(zip(sides, (process(src, args.m) for src in sides)))
                    pairs.append((got[tree / "src"], got[here]))
            finally:
                subprocess.run(git + ["remove", "--force", tree], check=True)
        report["against"], report["cases"] = args.against, {}
        for name in pairs[0][1]:
            timed = [(old[name], new[name]) for old, new in pairs
                     if old.get(name) is not None and new[name] is not None]
            report["cases"][name] = {
                "against_us": median(old.get(name) for old, _ in pairs),
                "us": median(new[name] for _, new in pairs),
                "ratio": median(new / old for old, new in timed),
                "better": sum(new < old for old, new in timed), "pairs": len(timed)}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
