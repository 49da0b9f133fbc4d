"""Sequence obfuscation against pattern-matching de-anonymization.

Noise is injected into symbol traces so that any potentially identifying
pattern is likely to appear in many users' obfuscated sequences.  The
package provides covering-superstring constructions, data-independent and
data-dependent obfuscation engines, gap-constrained pattern detection,
closed-form privacy lower bounds, dataset ingestion, and a reproducible
Monte Carlo experiment harness.
"""

from .core import Alphabet, Pattern, RandomSource, Trace
from .superstring import (
    Superstring,
    concat_superstring,
    de_bruijn,
    shortest_superstring,
    verify_superstring,
)
from .detect import first_occurrence, has_pattern
from .engines import EngineConfig, obfuscate
from .bounds import (
    BoundParams,
    Schedule,
    ScheduleParams,
    bound_sbu,
    bound_slsbu,
    expected_first_occurrence,
    lov_bound,
    schedule,
)
from .sim import (
    ExperimentResult,
    ExperimentSpec,
    run_first_occurrence_race,
    run_fraction,
    run_crowd_count,
    sweep,
)
from .ingest import RawTrace, encode, parse_csv, resample

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "Pattern", "RandomSource", "Trace",
    "Superstring", "concat_superstring", "de_bruijn",
    "shortest_superstring", "verify_superstring",
    "first_occurrence", "has_pattern",
    "EngineConfig", "lov_bound", "obfuscate",
    "BoundParams", "Schedule", "ScheduleParams", "bound_sbu", "bound_slsbu",
    "expected_first_occurrence", "schedule",
    "ExperimentResult", "ExperimentSpec",
    "run_first_occurrence_race", "run_fraction", "run_crowd_count", "sweep",
    "RawTrace", "encode", "parse_csv", "resample",
]
