#!/usr/bin/env python3
"""Line counts of the fso-secrecy modules, split into code, docstring, comment and blank.

Usage: python scripts/line_counts.py [PACKAGE_DIR]

PACKAGE_DIR defaults to this checkout's ``src/fso_secrecy``.  For each
``*.py`` module in it, in name order, the script prints the module's total
line count and that total split four ways, then one line of the sums:

- docstring: every line that a module, class or function docstring spans,
  as the AST gives its first and last line;
- blank: any other line that is empty or whitespace only;
- comment: any other line whose first non-blank character is ``#``;
- code: every other line.

So a claim that ``src/`` shrank can quote its code lines, which moving text
into docstrings or comments does not change.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fso_secrecy"


def split(source: str) -> dict[str, int]:
    """The count of each kind of line in the module text ``source``."""
    docstring_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstring_lines.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in docstring_lines:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def _row(name: str, counts: dict[str, int]) -> str:
    total = sum(counts.values())
    return f"{name:16s} {total:6d}" + "".join(f" {counts[k]:10d}" for k in KINDS)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package_dir", type=Path, nargs="?", default=PACKAGE)
    args = parser.parse_args()
    modules = sorted(args.package_dir.glob("*.py"))
    if not modules:
        parser.error(f"{args.package_dir} holds no Python modules")
    print(f"{'module':16s} {'total':>6s}" + "".join(f" {k:>10s}" for k in KINDS))
    totals = dict.fromkeys(KINDS, 0)
    for path in modules:
        counts = split(path.read_text(encoding="utf-8"))
        print(_row(path.name, counts))
        for kind in KINDS:
            totals[kind] += counts[kind]
    print(_row("total", totals))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
