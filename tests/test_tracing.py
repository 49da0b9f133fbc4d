"""The benchmark's tracer still binds the library's call boundaries.

perfbench/tracing.py rebinds library names from the outside.  A rename
in the library would make a traced run fail, or read 0 for a layer,
without any other test noticing; this runs a tiny traced workload.
"""
import importlib.util
from pathlib import Path

import numpy as np

from seqobf import detect, engines, sim
from seqobf.core import Alphabet, Pattern, RandomSource, Trace

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_traced_run_counts_every_layer_and_uninstall_restores_the_library():
    tracer = load_tracing().Tracer()
    before = [getattr(owner, attr, None) for owner, attr, _, _ in tracer._patches]
    tracer.install()
    try:
        spec = sim.ExperimentSpec(
            scenario="fraction", alphabet_size=6, order=2, gap=3, trace_length=40,
            p_obf=0.3, methods=("iid", "sbu", "sl_sbu", "lov", "plov", "manp"),
            n_users=5, iterations=2, master_seed=3,
        )
        sim.run_fraction(spec)
        sim.run_first_occurrence_race(3, 2, 4, master_seed=3)
        trace = Trace(np.arange(40) % 4, Alphabet(6))
        out = engines.obfuscate(trace, engines.EngineConfig("iid", p_obf=0.5), RandomSource(3))
        detect.has_pattern(out, Pattern((4, 5), gap=3))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    for name in ("engines.choose_calls", "superstring.draws", "detect.scan.symbols",
                 "engines.replacements", "detect.has_pattern.calls"):
        assert metrics[name] > 0, name
    for (owner, attr, original, _), was in zip(tracer._patches, before):
        now = getattr(owner, attr)
        if was is None:
            # The tracer also binds names on modules that call the library
            # function without importing it; uninstall leaves it there.
            delattr(owner, attr)
            was = original
        assert now is was, (owner, attr)
