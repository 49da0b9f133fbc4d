"""Count the lines of each module of src/seqobf by kind.

Usage: python tools/src_lines.py [--base DIR] [package directory]

Docstring lines are the whole lines of module, class and function
docstrings.  Outside them, a line holding only a comment is a comment
line, an empty or whitespace-only line is a blank line, and every other
line is a code line.  With --base, a last column gives each module's code
lines less those of the same module in the base package DIR, and a module
found in only one of the two counts 0 lines in the other.
"""
from __future__ import annotations

import argparse
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


def table(root: Path) -> dict[str, dict[str, int]]:
    """Counts per module of the package at root, and their sum as "all"."""
    rows = {path.name: count(path) for path in sorted(root.glob("*.py"))}
    rows["all"] = {kind: sum(row[kind] for row in rows.values()) for kind in KINDS}
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count the lines of a package by kind.")
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src" / "seqobf")
    parser.add_argument("--base", type=Path, help="base package to take code-line deltas against")
    args = parser.parse_args(argv[1:])
    rows = table(args.root)
    columns = list(KINDS)
    if args.base is not None:
        base = table(args.base)
        zero = dict.fromkeys(KINDS, 0)
        names = sorted((set(rows) | set(base)) - {"all"}) + ["all"]
        rows = {name: {**rows.get(name, zero),
                       "delta": rows.get(name, zero)["code"] - base.get(name, zero)["code"]}
                for name in names}
        columns.append("delta")
    width = max(map(len, rows))
    print(f"{'module':<{width}}" + "".join(f"{kind:>11}" for kind in columns))
    for name, row in rows.items():
        print(f"{name:<{width}}" + "".join(f"{row[kind]:>11}" for kind in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
