"""The README's examples run against the library as documented."""
import re
from pathlib import Path

from seqobf.cli import load_spec

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
