"""Count the code lines of Python modules.

    python3 tools/code_lines.py [-h] [PATH ...]

A code line is a line that holds a token other than a comment, a line
break or an indent, and that is not part of the docstring of the
module, a class or a function.  PATH is a file or a directory, searched
for ``*.py``; the default is ``src``.  It prints each module's code
lines, then the total.  A PATH that does not exist ends it with exit
code 2, naming the path.
"""

from __future__ import annotations

import argparse
import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    """The code lines of the module text ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(iter(source.splitlines(keepends=True)).__next__):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="code_lines.py", description="Count the code lines of Python modules.")
    parser.add_argument("paths", nargs="*", type=Path, default=[Path("src")], metavar="PATH",
                        help="a file, or a directory searched for *.py (default: src)")
    paths = parser.parse_args(argv).paths
    for p in paths:
        if not p.exists():
            parser.error(f"no such file or directory: {p}")
    files = sorted(f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = 0
    for f in files:
        count = code_lines(f.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
