"""The repository's tools."""
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

SRC_LINES = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"


def test_src_lines_gives_code_line_deltas_against_a_base(tmp_path):
    for name, files in {"base": {"a.py": "x = 1\n", "gone.py": "y = 2\n"},
                        "head": {"a.py": '"""Doc."""\nx = 1\n# note\n\ny = 2\n',
                                 "new.py": "z = 3\n"}}.items():
        (tmp_path / name).mkdir()
        for file, text in files.items():
            (tmp_path / name / file).write_text(text)
    out = subprocess.run([sys.executable, str(SRC_LINES), str(tmp_path / "head"),
                          "--base", str(tmp_path / "base")],
                         capture_output=True, text=True, check=True).stdout
    rows = {line.split()[0]: line.split()[1:] for line in out.splitlines()}
    assert rows["module"] == ["total", "code", "docstring", "comment", "blank", "delta"]
    assert rows["a.py"] == ["5", "2", "1", "1", "1", "1"]
    assert rows["gone.py"] == ["0", "0", "0", "0", "0", "-1"]
    assert rows["new.py"] == ["1", "1", "0", "0", "0", "1"]
    assert rows["all"] == ["6", "3", "1", "1", "1", "1"]


def test_layers_times_every_case_on_this_tree_and_against_a_revision(tmp_path, monkeypatch,
                                                                     capsys):
    # A one-commit copy of the package and the tool, so that --against HEAD
    # makes its worktree there; one or two processes a tree keep it short.
    root = Path(__file__).resolve().parents[1]
    shutil.copytree(root / "src" / "seqobf", tmp_path / "src" / "seqobf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "tools").mkdir()
    shutil.copy(root / "tools" / "layers.py", tmp_path / "tools")
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    for words in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "tree"]):
        subprocess.run(git + words, check=True, capture_output=True)
    spec = importlib.util.spec_from_file_location("layers", tmp_path / "tools" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)

    def report(processes, *words):
        monkeypatch.setattr(layers, "PROCESSES", processes)
        assert layers.main(["layers.py", "--m", "40", *words]) == 0
        return json.loads(capsys.readouterr().out)

    alone = report(1)
    assert {"engines._obfuscate_rows[131].lov", "engines._obfuscate_rows[131].plov",
            "engines.obfuscate.two_stage", "ingest.parse_csv[800 rows]"} <= set(alone["us"])
    assert all(us > 0 for us in alone["us"].values())
    paired = report(2, "--against", "HEAD")
    assert set(paired["cases"]) == set(alone["us"])
    for case in paired["cases"].values():
        assert case["pairs"] == 2 and 0 <= case["better"] <= 2 and case["ratio"] > 0
    worktrees = subprocess.run(git + ["worktree", "list"], capture_output=True, text=True,
                               check=True).stdout
    assert len(worktrees.splitlines()) == 1
