"""Count the lines of each module of src/seqobf by kind.

Usage: python tools/src_lines.py [package directory]

Docstring lines are the whole lines of module, class and function
docstrings.  Outside them, a line holding only a comment is a comment
line, an empty or whitespace-only line is a blank line, and every other
line is a code line.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("total", "code", "docstring", "comment", "blank")


def docstring_lines(tree: ast.Module) -> set[int]:
    """1-based numbers of the lines that docstrings span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> dict[str, int]:
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            kind = "docstring"
        elif not stripped:
            kind = "blank"
        elif stripped.startswith("#"):
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
        counts["total"] += 1
    return counts


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "seqobf"
    rows = {path.name: count(path) for path in sorted(root.glob("*.py"))}
    rows["all"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    width = max(map(len, rows))
    print(f"{'module':<{width}}" + "".join(f"{kind:>11}" for kind in KINDS))
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{row[kind]:>11}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
