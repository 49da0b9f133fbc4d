"""The README's examples run against the library as documented."""
import re
import shlex
from pathlib import Path

import numpy as np

from seqobf.cli import load_spec, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(language, after=""):
    """The first ```language block following the heading text `after`."""
    start = README.index(after)
    match = re.search(rf"```{language}\n(.*?)```", README[start:], re.S)
    assert match, f"no {language} block after {after!r}"
    return match.group(1)


def test_spec_example_loads(tmp_path):
    path = tmp_path / "experiment.ini"
    path.write_text(fenced_block("ini", "### Experiment spec files"))
    spec, p_grid, workers = load_spec(path)
    assert spec.scenario == "fraction"
    assert spec.methods == ("iid", "sl_sbu")
    assert (spec.iterations, spec.master_seed, workers) == (1000, 7, 1)
    assert (spec.trace_length, spec.alphabet_size, spec.order) == (1000, 20, 2)
    assert (spec.gap, spec.n_users, spec.gamma) == (10, 100, 0.1)
    assert p_grid == [0.1]
    assert spec.trace_file is None
    assert (spec.match_probability, spec.beta) == (0.01, 0.5)


def test_library_quick_start_runs(capsys):
    exec(fenced_block("python", "## Library quick start"), {})
    printed = capsys.readouterr().out.split()
    assert printed[0] in ("True", "False")
    assert 0.0 < float(printed[1]) <= 1.0


def readme_commands():
    """The argv of each seqobf line of the "Command line" block, in order."""
    text = fenced_block("sh", "## Command line").replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("seqobf ")]


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    gen = np.random.default_rng(3)
    Path("traces.txt").write_text(
        "".join(" ".join(map(str, gen.integers(0, 20, size=60))) + "\n" for _ in range(3)))
    Path("raw.csv").write_text("user_id,timestamp,category\n" + "".join(
        f"u{u},{700 * t},cat{(t + u) % 25}\n" for u in range(2) for t in range(50)))
    Path("experiment.ini").write_text(
        fenced_block("ini", "### Experiment spec files").replace("iterations = 1000",
                                                                "iterations = 4"))
    commands = readme_commands()
    assert [argv[0] for argv in commands] == [
        "gen-superstring", "bounds", "bounds", "obfuscate", "obfuscate", "obfuscate",
        "detect", "ingest", "simulate"]
    for argv in commands:
        assert main(argv) == 0, argv
    assert Path("results.csv").exists()

    # The refusals that the block's comments state, each made from one of
    # its lines: --h on the lov bound, a stage level off two_stage, --h off
    # manp, and --p-obf on two_stage.
    slsbu, two_stage, manp = commands[1], commands[4], commands[5]
    lov = [arg.replace("slsbu", "lov") for arg in slsbu]
    del lov[lov.index("--l"):lov.index("--l") + 2]
    refused = [
        (lov, "--h"),
        ([arg.replace("two_stage", "sl_sbu") for arg in two_stage], "--stage-a"),
        ([arg.replace("manp", "iid") for arg in manp], "--h"),
        (two_stage + ["--p-obf", "0.1"], "--p-obf"),
    ]
    capsys.readouterr()
    for argv, flag in refused:
        assert main(argv) == 2, argv
        assert f"does not read {flag}" in capsys.readouterr().err
