"""Command-line entry point: one binary, one subcommand per operation.

Every run prints its fully-resolved configuration as a leading ``#``
comment line, so any output can be reproduced from the output alone.  A
command builds and runs first, then prints that line, then writes its
output, so a usage error leaves stdout empty and writes no file.
Tabular results are CSV with a header row.  Exit codes: 0 on success, 2 on
usage errors (including contradictory parameters), 1 on runtime errors.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import ingest as ingest_mod
from . import sim as sim_mod
from .core import Pattern, RandomSource
from .detect import first_occurrence, has_pattern
from .engines import _READS, METHODS, EngineConfig, obfuscate
from .superstring import concat_superstring, shortest_superstring

_KIND_ALIASES = {"shortest": "shortest", "concat": "concatenation",
                 "concatenation": "concatenation"}


def _default_seed() -> int:
    return int(os.environ.get("SEQOBF_SEED", "0"))


def _parse_gap(text: str) -> int | None:
    if text.lower() in ("inf", "unbounded", "none"):
        return None
    return int(text)


def _print_config(command: str, **kv) -> None:
    """Print one ``# command k=v ...`` line; tuple values join with commas."""
    pairs = " ".join(
        f"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
        for k, v in kv.items()
    )
    print(f"# {command} {pairs}")


def _cmd_gen_superstring(args) -> int:
    kind = _KIND_ALIASES[args.kind]
    draw = shortest_superstring if kind == "shortest" else concat_superstring
    ss = draw(args.r, args.l, RandomSource(args.seed))
    _print_config("gen-superstring", r=args.r, l=args.l, kind=kind, seed=args.seed)
    print(" ".join(str(int(s)) for s in ss.symbols))
    return 0


def _read_traces(path, r: int) -> list:
    """The traces of a trace file; a file with none is a usage error."""
    traces = ingest_mod.read_trace_file(path, r)
    if not traces:
        raise ValueError(f"{path}: no traces found")
    return traces


def _refuse_unread(args, who: str, flags, reads) -> None:
    """Refuse a set flag of flags that who does not read, naming the flag."""
    for flag in flags:
        if flag not in reads and getattr(args, flag.replace("-", "_")) is not None:
            raise ValueError(f"{who} does not read --{flag}")


# The obfuscate flag of each EngineConfig value.  A method reads the flags
# of the values that it reads (engines._READS) and refuses the others.
_ENGINE_FLAGS = {"p-obf": "p_obf", "l": "order", "gamma": "gamma", "h": "gap",
                 "stage-a": "stage_noise", "stage-b": "stage_noise"}


def _cmd_obfuscate(args) -> int:
    reads = _READS[args.method]
    _refuse_unread(args, f"the {args.method} method", _ENGINE_FLAGS,
                   [flag for flag, name in _ENGINE_FLAGS.items() if name in reads])
    if "stage_noise" in reads and args.stage_a is None and args.stage_b is None:
        raise ValueError("two_stage takes its noise from --stage-a and --stage-b: set one")
    given = {"p_obf": 0.1 if args.p_obf is None else args.p_obf, "order": args.l,
             "gamma": args.gamma, "gap": args.h,
             "stage_noise": (args.stage_a or 0.0, args.stage_b or 0.0)}
    config = EngineConfig(args.method, **{name: given[name] for name in reads
                                          if given[name] is not None})
    traces = _read_traces(args.infile, args.r)
    source = RandomSource(args.seed)
    out = [obfuscate(trace, config, source.derive(u)) for u, trace in enumerate(traces)]
    _print_config(
        "obfuscate", method=args.method, **{name: getattr(config, name) for name in reads},
        r=args.r, seed=args.seed, infile=args.infile, outfile=args.outfile,
    )
    ingest_mod.write_trace_file(args.outfile, out)
    print(f"wrote {len(out)} obfuscated traces to {args.outfile}")
    return 0


def _cmd_detect(args) -> int:
    symbols = tuple(int(s) for s in args.pattern.replace(",", " ").split())
    pattern = Pattern(symbols, gap=args.gap)
    if max(symbols) >= args.r:
        raise ValueError(f"pattern symbols must be below r={args.r}")
    traces = _read_traces(args.trace_file, args.r)
    records = []
    for idx, trace in enumerate(traces):
        # At gap 1 one contiguous scan answers both columns.
        first = first_occurrence(trace, pattern) if args.gap == 1 else None
        found = first is not None if args.gap == 1 else has_pattern(trace, pattern)
        records.append({"trace": idx, "contains": found,
                        "first_index": "" if first is None else first})
    _print_config("detect", trace_file=args.trace_file,
                  pattern=",".join(map(str, symbols)), h=args.gap, r=args.r)
    sim_mod.write_csv(records, sys.stdout)
    return 0


# The flags that each bound reads besides --m, and the defaults of those
# that have one.  A bound refuses a set flag that it does not read.
_BOUND_FLAGS = {"sbu": ("r", "l", "h", "p"), "slsbu": ("r", "l", "h", "p"),
                "lov": ("r", "p"), "schedule": ("n", "l", "beta", "theta")}
_BOUND_DEFAULTS = {"r": 2, "l": 2, "h": 1, "p": 0.0}


def _cmd_bounds(args) -> int:
    reads = _BOUND_FLAGS[args.which]
    _refuse_unread(args, f"the {args.which} bound", ("r", "l", "h", "p", "n", "beta", "theta"),
                   reads)
    kv = {flag: _BOUND_DEFAULTS.get(flag) if getattr(args, flag) is None else getattr(args, flag)
          for flag in reads}
    if args.which == "schedule":
        if None in kv.values():
            raise ValueError("schedule requires --n, --beta and --theta")
        sched = bounds_mod.schedule(bounds_mod.ScheduleParams(
            n_users=kv["n"], order=kv["l"], beta=kv["beta"], theta=kv["theta"],
            trace_length=args.m))
        record = {**kv, "m": args.m, **dataclasses.asdict(sched)}
    else:
        if args.which == "lov":
            value = bounds_mod.lov_bound(args.m, kv["r"], kv["p"])
        else:
            params = bounds_mod.BoundParams(
                trace_length=args.m, alphabet_size=kv["r"], order=kv["l"],
                gap=kv["h"], p_obf=kv["p"],
            )
            fn = bounds_mod.bound_sbu if args.which == "sbu" else bounds_mod.bound_slsbu
            value = fn(params)
        record = {"which": args.which, "m": args.m, **kv, "value": value}
    _print_config("bounds", which=args.which, m=args.m, **kv)
    sim_mod.write_csv([record], sys.stdout)
    return 0


def _parse_p_grid(text: str) -> list[float]:
    text = text.strip()
    if ":" in text:
        start, step, stop = (float(x) for x in text.split(":"))
        if step <= 0 or start > stop:
            raise ValueError(f"bad noise grid {text!r}: need step > 0 and start <= stop")
        values = np.arange(start, stop + step / 2, step)
        return [float(round(v, 12)) for v in values]
    return [float(x) for x in text.split(",")]


# The keys that a spec file may set, by section.
_SPEC_KEYS = {
    "experiment": ("scenario", "methods", "iterations", "seed", "workers"),
    "parameters": ("m", "r", "l", "h", "p_obf", "n_users", "gamma"),
    "source": ("trace_file",),
    "crowd": ("match_probability", "beta"),
}


def load_spec(path) -> tuple[sim_mod.ExperimentSpec, list[float], int]:
    """Parse an INI experiment spec; returns (spec, p grid, workers).

    A section or key that no spec reads is refused, so that no setting is
    silently ignored.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    if not parser.read(path):
        raise OSError(f"cannot read spec file {path}")
    if "experiment" not in parser or "parameters" not in parser:
        raise ValueError(f"{path}: spec needs [experiment] and [parameters] sections")
    unknown = [f"[{name}]" for name in parser.sections() if name not in _SPEC_KEYS]
    unknown += [f"[{name}] {key}" for name, keys in _SPEC_KEYS.items() if name in parser
                for key in parser[name] if key not in keys]
    if unknown:
        hint = ("; trace_file alone picks the source: set it to read an ingested "
                "pool, leave it out for synthetic traces" if "[source] kind" in unknown else "")
        raise ValueError(f"{path}: unknown spec sections or keys: {', '.join(unknown)}{hint}")
    exp = parser["experiment"]
    par = parser["parameters"]
    methods = tuple(
        m.strip() for m in exp.get("methods", "iid, sl_sbu").split(",") if m.strip()
    )
    p_grid = _parse_p_grid(par.get("p_obf", "0.1"))
    spec = sim_mod.ExperimentSpec(
        scenario=exp.get("scenario", "fraction"),
        alphabet_size=int(par.get("r", "20")),
        order=int(par.get("l", "2")),
        gap=_parse_gap(par.get("h", "10")),
        trace_length=int(par.get("m", "1000")),
        p_obf=p_grid[0],
        methods=methods,
        n_users=int(par.get("n_users", "100")),
        iterations=int(exp.get("iterations", "100")),
        master_seed=int(exp.get("seed", str(_default_seed()))),
        trace_file=parser.get("source", "trace_file", fallback=None),
        gamma=float(par.get("gamma", "0.1")),
        match_probability=parser.getfloat("crowd", "match_probability", fallback=None),
        beta=parser.getfloat("crowd", "beta", fallback=None),
    )
    if len(p_grid) > 1 and spec.scenario != "fraction":
        raise ValueError(f"a p_obf grid sweeps only the fraction scenario, not {spec.scenario}")
    workers = int(exp.get("workers", "1"))
    return spec, p_grid, workers


def _cmd_simulate(args) -> int:
    spec, p_grid, workers = load_spec(args.spec)
    if args.workers is not None:
        workers = args.workers
    if len(p_grid) > 1:
        result = sim_mod.sweep(spec, p_grid, workers=workers)
    else:
        result = sim_mod.run(spec, workers=workers)
    fields = {**dataclasses.asdict(spec), "p_obf": tuple(p_grid)}
    _print_config("simulate", spec_file=args.spec, **fields,
                  workers=workers, out=args.out)
    sim_mod.write_csv(result.records, args.out)
    print(f"wrote {len(result.records)} records to {args.out} "
          f"in {result.wall_clock:.2f}s")
    return 0


def _cmd_ingest(args) -> int:
    # resample runs once per user, so a file with no rows would never check it.
    ingest_mod._check_interval(args.min_interval)
    raws = ingest_mod.parse_csv(args.infile)
    raws = [ingest_mod.resample(raw, args.min_interval) for raw in raws]
    traces, mapping = ingest_mod.encode(raws, args.r, min_length=args.min_length)
    _print_config("ingest", infile=args.infile, min_interval=args.min_interval,
                  r=args.r, min_length=args.min_length, outfile=args.outfile)
    ingest_mod.write_trace_file(args.outfile, traces)
    print(f"encoded {len(traces)} traces over {len(mapping)} categories "
          f"to {args.outfile}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqobf",
        description="Sequence obfuscation against pattern-matching "
                    "de-anonymization: noise streams, privacy bounds, and "
                    "experiment reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-superstring", help="emit a covering superstring")
    p.add_argument("--r", type=int, required=True, help="alphabet size")
    p.add_argument("--l", type=int, required=True, help="covering order")
    p.add_argument("--kind", choices=sorted(_KIND_ALIASES), default="shortest")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.set_defaults(fn=_cmd_gen_superstring)

    p = sub.add_parser("obfuscate", help="obfuscate a trace file", description=(
        "Obfuscate a trace file. A method refuses a flag that it does not read."))
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--p-obf", type=float, help="noise level of all but two_stage, or 0.1")
    p.add_argument("--gamma", type=float, help="plov's tilt, or 0.1")
    p.add_argument("--h", type=_parse_gap, help="manp's window width")
    p.add_argument("--l", type=int, help="order of sbu, sl_sbu and two_stage, or 2")
    p.add_argument("--r", type=int, required=True,
                   help="alphabet size: noise is drawn from 0..r-1, and every "
                        "input symbol must be below r")
    p.add_argument("--stage-a", type=float, help="two_stage's iid level, or 0")
    p.add_argument("--stage-b", type=float, help="two_stage's sl_sbu level, or 0")
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(fn=_cmd_obfuscate)

    p = sub.add_parser("detect", help="search traces for a pattern")
    p.add_argument("--trace-file", required=True)
    p.add_argument("--pattern", required=True,
                   help="comma- or space-separated symbols")
    p.add_argument("--h", dest="gap", type=_parse_gap, default=1)
    p.add_argument("--r", type=int, required=True,
                   help="alphabet size: every pattern and trace symbol must "
                        "be below r")
    p.set_defaults(fn=_cmd_detect)

    p = sub.add_parser("bounds", help="evaluate closed-form guarantees")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--h", type=int, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--which", choices=("sbu", "slsbu", "lov", "schedule"),
                   required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("simulate", help="run an experiment spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("ingest", help="encode a raw event CSV into traces")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--min-interval", type=float, default=600.0)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--min-length", type=int, default=None)
    p.add_argument("--out", dest="outfile", required=True)
    p.set_defaults(fn=_cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"seqobf: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"seqobf: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
