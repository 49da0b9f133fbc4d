"""Spans and counters for the traced benchmark run.

Nothing in the library is edited.  ``Tracer.install`` rebinds, from the
outside, the names through which one layer calls the layer below (for
example ``seqobf.sim.obfuscate`` or ``RandomSource.__init__``) to wrappers
that record a span per call; ``uninstall`` puts the originals back, so
traced and untraced rounds can alternate in one process.

A span is (name, start, end, parent span, request id).  Spans live in
memory until ``save`` writes them out at the end of the run.  Self time
is a span's duration minus the time its child spans cover; the tracer's
own bookkeeping for a child is charged to neither the child nor its
parent.
"""
from __future__ import annotations

import json
import os
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

from seqobf import bounds, core, detect, engines, ingest, sim

# Methods with their own metrics; no workload runs two_stage.
ENGINE_METHODS = ("iid", "sbu", "sl_sbu", "lov", "plov", "manp")
SUPERSTRING_METHODS = ("sbu", "sl_sbu")
INGEST_STEPS = ("parse", "resample", "encode", "write")
SPAN_FIELDS = ("span", "name", "start_ns", "end_ns", "parent", "request")
FLUSH_SPANS = 1 << 16

# Metrics derived from array sizes or result records rather than counted
# at a call boundary.
COMPUTED = (
    "superstring.symbols_drawn",
    "superstring.use_ratio",
    "detect.scan.symbols",
    "sim.race.iid_symbols_drawn",
    "sim.race.iid_use_ratio",
)


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # Finished spans as SPAN_FIELDS tuples, moved to int64 blocks in bulk.
        self._spans: list[tuple] = []
        self._blocks: list[np.ndarray] = []
        self.request = 0
        self._next_span = 0
        self._stack: list[list[int]] = []  # [span index, child ns] per open span
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._last_superstring = None
        self._first_iid_buffer = False
        self._patches = self._build_patches()

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_ns.append(0)
            self.calls.append(0)
        return nid

    def _wrap(self, name, fn, after=None):
        """fn wrapped so that each call records a span named name.

        after(result, args) updates counters once the span has ended.
        """
        nid = self.name_id(name)
        stack, spans, self_ns, calls = self._stack, self._spans, self.self_ns, self.calls
        clock = perf_counter_ns

        def wrapper(*args, **kwargs):
            entered = clock()
            idx = self._next_span
            self._next_span = idx + 1
            parent = stack[-1][0] if stack else -1
            frame = [idx, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((idx, nid, start, end, parent, self.request))
                self_ns[nid] += end - start - frame[1]
                calls[nid] += 1
                if len(spans) == FLUSH_SPANS:
                    self._flush()
            if after is not None:
                after(result, args)
            if stack:
                # Charge the child's whole wrapper, bookkeeping included, to
                # the child side so that the parent's self time excludes it.
                stack[-1][1] += clock() - entered
            return result

        return wrapper

    def _flush(self) -> None:
        if self._spans:
            self._blocks.append(np.array(self._spans, dtype=np.int64))
            self._spans.clear()

    def _wrap_obfuscate(self, fn):
        counts = self.counts

        def replaced(result, args) -> None:
            k = int(np.count_nonzero(result[1]))
            counts["engines.replacements"] += k
            if args[1].method in SUPERSTRING_METHODS:
                counts["superstring.consumed"] += k

        traced = {m: self._wrap(f"engines.{m}", fn, replaced) for m in engines.METHODS}

        # The mask is computed either way; asking for it lets the wrapper
        # count replacements without redoing the engine's work.
        def wrapper(trace, config, source, *, return_mask=False):
            out, mask = traced[config.method](trace, config, source, return_mask=True)
            return (out, mask) if return_mask else out

        return wrapper

    def _drew_superstring(self, result, args) -> None:
        self.counts["superstring.symbols_drawn"] += int(result.size)
        self._last_superstring = result

    def _scanned(self, result, args) -> None:
        buffer, pattern_symbols = args
        self.counts["detect.scan.symbols"] += int(buffer.size)
        if buffer is self._last_superstring:
            self._first_iid_buffer = True
            return
        # Every iid buffer after the first of an iteration starts with the
        # l-1 symbols carried over from the previous one.
        carried = 0 if self._first_iid_buffer else len(pattern_symbols) - 1
        self.counts["sim.race.iid_symbols_drawn"] += int(buffer.size) - carried
        self._first_iid_buffer = False

    def _detected(self, result, args) -> None:
        self.counts["detect.hits"] += bool(result)

    def _ran_fraction(self, result, args) -> None:
        self.counts["sim.samples"] += sum(rec["samples"] for rec in result.records)

    def _ran_race(self, result, args) -> None:
        rec = result.records[0]
        n, tail = rec["iterations"], rec["l"] - 1
        self.counts["sim.samples"] += n
        # A stream is used up to the last symbol of the first occurrence.
        self.counts["superstring.consumed"] += round(n * (rec["mean_first_superstring"] + tail))
        self.counts["sim.race.iid_used"] += round(n * (rec["mean_first_iid"] + tail))

    def _parsed(self, result, args) -> None:
        self.counts["ingest.parse.rows"] += sum(len(raw) for raw in result)

    def _wrote(self, result, args) -> None:
        self.counts["ingest.write.bytes"] += os.path.getsize(args[0])

    def _build_patches(self):
        """(owner, attribute, wrapper) for every traced call boundary."""
        patches = []

        def add(owners, attr, name, after=None):
            fn = getattr(owners[0], attr)
            wrapper = self._wrap(name, fn, after)
            patches.extend((owner, attr, fn, wrapper) for owner in owners)

        add([core.RandomSource], "__init__", "core.derive")
        add([core.Trace], "__init__", "core.trace")
        for attr in ("_shortest_array", "_concat_array"):
            add([engines] + ([sim] if hasattr(sim, attr) else []), attr,
                "superstring.draw", self._drew_superstring)
        obfuscate = self._wrap_obfuscate(engines.obfuscate)
        patches.extend((owner, "obfuscate", engines.obfuscate, obfuscate)
                       for owner in (engines, sim))
        for attr in ("lov_choose", "plov_distribution", "manp_choose"):
            add([engines], attr, "engines.choose")
        add([detect.PatternStats], "update", "detect.stats")
        add([detect, sim], "has_pattern", "detect.has_pattern", self._detected)
        add([sim], "_contiguous_matches", "detect.scan", self._scanned)
        add([sim], "run_fraction", "sim.fraction", self._ran_fraction)
        add([sim], "run_first_occurrence_race", "sim.race", self._ran_race)
        add([ingest], "parse_csv", "ingest.parse", self._parsed)
        add([ingest], "resample", "ingest.resample")
        add([ingest], "encode", "ingest.encode")
        add([ingest], "write_trace_file", "ingest.write", self._wrote)
        for attr in ("bound_sbu", "bound_slsbu", "expected_first_occurrence"):
            add([bounds], attr, "bounds")
        return patches

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def _self(self, name: str) -> int:
        return self.self_ns[self._ids[name]]

    def _calls(self, name: str) -> int:
        return self.calls[self._ids[name]]

    def layer_self_ns(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, ns in zip(self.names, self.self_ns):
            out[name.split(".")[0]] += ns
        return dict(out)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; every name is present on every workload."""
        c = self.counts
        drawn = c["superstring.symbols_drawn"]
        iid_drawn = c["sim.race.iid_symbols_drawn"]
        sim_ns = self._self("sim.fraction") + self._self("sim.race")
        out = {
            "core.derive.calls": self._calls("core.derive"),
            "core.derive.self_us": self._self("core.derive") / 1e3,
            "core.trace.calls": self._calls("core.trace"),
            "core.trace.self_us": self._self("core.trace") / 1e3,
            "superstring.draws": self._calls("superstring.draw"),
            "superstring.self_us": self._self("superstring.draw") / 1e3,
            "superstring.symbols_drawn": drawn,
            "superstring.use_ratio": c["superstring.consumed"] / drawn if drawn else 0.0,
        }
        for m in ENGINE_METHODS:
            out[f"engines.{m}.calls"] = self._calls(f"engines.{m}")
            out[f"engines.{m}.self_us"] = self._self(f"engines.{m}") / 1e3
        out.update({
            "engines.replacements": c["engines.replacements"],
            "engines.choose_calls": self._calls("engines.choose"),
            "engines.choose.self_us": self._self("engines.choose") / 1e3,
            "detect.has_pattern.calls": self._calls("detect.has_pattern"),
            "detect.has_pattern.self_us": self._self("detect.has_pattern") / 1e3,
            "detect.hits": c["detect.hits"],
            "detect.stats.updates": self._calls("detect.stats"),
            "detect.stats.self_us": self._self("detect.stats") / 1e3,
            "detect.scan.symbols": c["detect.scan.symbols"],
            "detect.scan.self_us": self._self("detect.scan") / 1e3,
            "sim.self_s": sim_ns / 1e9,
            "sim.samples": c["sim.samples"],
            "sim.race.iid_symbols_drawn": iid_drawn,
            "sim.race.iid_use_ratio": c["sim.race.iid_used"] / iid_drawn if iid_drawn else 0.0,
            "ingest.parse.rows": c["ingest.parse.rows"],
        })
        for step in INGEST_STEPS:
            out[f"ingest.{step}.self_s"] = self._self(f"ingest.{step}") / 1e9
        out["ingest.write.bytes"] = c["ingest.write.bytes"]
        out["bounds.calls"] = self._calls("bounds")
        out["bounds.self_us"] = self._self("bounds") / 1e3
        return out

    def save(self, path: str, meta: dict) -> None:
        """Write every span and the name table to a compressed .npz file."""
        self._flush()
        if self._blocks:
            table = np.concatenate(self._blocks)
            table = table[np.argsort(table[:, 0])]
        else:
            table = np.empty((0, len(SPAN_FIELDS)), dtype=np.int64)
        np.savez_compressed(
            path,
            **{field: table[:, i] for i, field in enumerate(SPAN_FIELDS)},
            names=np.array(json.dumps(self.names)),
            meta=np.array(json.dumps(meta)),
        )
