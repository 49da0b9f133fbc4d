"""The repository's tools."""
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
