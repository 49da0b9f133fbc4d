"""Records, counters and engine outputs against checked-in hashes.

golden_hashes.json holds sha256 digests of the fraction protocol on
fifteen specs (at 1 worker, and some at 3), of a 3-level sweep over an
ingested pool, of a 3-level sweep of five methods with lov, plov and manp
(at 1 and 3 workers), of 32 first-occurrence races and of ``obfuscate``
for all seven methods.  Any change to a draw, its order or its stream changes
them.  The file changes only together with a stated change of the stream
contract, and it names the numpy version it was taken under: numpy does
not promise equal streams across versions.
"""
import hashlib
import io
import json
import re
from pathlib import Path

import numpy as np

from seqobf.core import Alphabet, RandomSource, Trace
from seqobf.engines import METHODS, EngineConfig, obfuscate
from seqobf.ingest import write_trace_file
from seqobf.sim import ExperimentSpec, run_first_occurrence_race, run_fraction, sweep, write_csv

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_hashes.json").read_text())
NUMPY = f"hashes taken under numpy {GOLDEN['numpy']}, running {np.__version__}"


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def hashed_counters(counters) -> dict:
    """The counters that the hashes cover: the superstring counts came later,
    and TestFractionCounters in test_sim.py checks them by hand count."""
    return {name: n for name, n in counters.items() if not name.startswith("superstrings.")}


def result_digest(result) -> str:
    return digest([list(result.records), hashed_counters(result.counters)])


def golden_spec(name, tmp_path) -> ExperimentSpec:
    """A spec of the file by name; an ingested one reads its pool from tmp_path."""
    fields = dict(GOLDEN["fraction_specs"][name])
    if "trace_file" in fields:
        path = tmp_path / fields["trace_file"]
        if not path.exists():
            gen = np.random.default_rng(12)
            write_trace_file(path, [Trace(gen.integers(0, 6, size=int(n)), Alphabet(6))
                                    for n in gen.integers(20, 90, size=7)])
        fields["trace_file"] = str(path)
    return ExperimentSpec(scenario="fraction", **fields)


def test_fraction_records_and_counters(tmp_path):
    expected = GOLDEN["fraction_sha256"]
    got = {}
    for key in expected:
        name, workers = re.fullmatch(r"(.+) w(\d+)", key).groups()
        got[key] = result_digest(run_fraction(golden_spec(name, tmp_path), int(workers)))
    assert got == expected, NUMPY


def sweep_digests(label, plan, workers, tmp_path) -> dict:
    """The counters and CSV digests of a sweep of the file, keyed as in it."""
    result = sweep(golden_spec(plan["spec"], tmp_path), plan["p_values"], workers)
    text = io.StringIO()
    write_csv(result.records, text)
    return {f"{label} counters w{workers}": digest(hashed_counters(result.counters)),
            f"{label} csv w{workers}": hashlib.sha256(text.getvalue().encode()).hexdigest()}


def test_ingested_sweep(tmp_path):
    assert sweep_digests("sweep", GOLDEN["sweep"], 1, tmp_path) == GOLDEN["sweep_sha256"], NUMPY


def test_data_dependent_sweep(tmp_path):
    got = {}
    for workers in (1, 3):
        got.update(sweep_digests("datadep sweep", GOLDEN["datadep_sweep"], workers, tmp_path))
    assert got == GOLDEN["datadep_sweep_sha256"], NUMPY


def test_first_occurrence_races():
    expected = GOLDEN["race_sha256"]
    got = {}
    for key in expected:
        r, l, iterations, seed = map(int, re.fullmatch(r"race (\d+),(\d+)x(\d+) s(\d+)", key)
                                     .groups())
        got[key] = result_digest(run_first_occurrence_race(r, l, iterations, seed))
    assert got == expected, NUMPY


def test_obfuscate_outputs_and_masks():
    corpus = GOLDEN["obfuscate"]
    r = corpus["alphabet_size"]
    root = RandomSource(corpus["master_seed"])
    traces = [Trace(root.derive(0, i).generator.integers(0, r, size=m), Alphabet(r))
              for i, m in enumerate(corpus["trace_lengths"])]
    got = {}
    for method in METHODS:
        config = EngineConfig(method, **corpus["configs"][method])
        outputs = []
        for i, trace in enumerate(traces):
            out, mask = obfuscate(trace, config, root.derive(1, i), return_mask=True)
            outputs.append([out.symbols.tolist(), mask.tolist()])
        got[method] = digest(outputs)
    assert got == corpus["sha256"], NUMPY
