"""Reference estimates for the fraction_datadep output check.

Runs the data-dependent methods on the canonical fraction cell (m=1000,
r=20, l=2, h=10, p=0.1, 100 users) with many iterations and prints one
JSON object per method: estimate, standard error and sample count.  The
figures recorded in perfbench/workloads.py (DATADEP_REFERENCE) came from
this script; rerun it from the repository root with

    python3 perfbench/reference.py

It takes several minutes on one core.
"""
import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from seqobf.sim import ExperimentSpec, run_fraction  # noqa: E402

# Iterations per method (each iteration is 99 non-target users), and a
# master seed that no benchmark run derives.
ITERATIONS = {"lov": 200, "plov": 200, "manp": 60}
SEED = 987654321


def main() -> None:
    for method, iterations in ITERATIONS.items():
        spec = ExperimentSpec(
            scenario="fraction", alphabet_size=20, order=2, gap=10,
            trace_length=1000, p_obf=0.1, methods=(method,), n_users=100,
            iterations=iterations, master_seed=SEED,
        )
        result = run_fraction(spec)
        rec = result.records[0]
        print(json.dumps({
            "method": method, "estimate": rec["estimate"],
            "std_error": rec["std_error"], "samples": rec["samples"],
            "wall_s": round(result.wall_clock, 1),
        }), flush=True)


if __name__ == "__main__":
    main()
