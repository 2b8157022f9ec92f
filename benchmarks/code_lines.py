"""Count code lines: no comments, no blank lines, no docstrings.

    python3 benchmarks/code_lines.py [paths ...]      (default: src/)

The size measure every simplification in this repository reports
(ROADMAP ground rules).  A line counts when a ``tokenize`` token other
than a comment, a newline or an indent change touches it, unless ``ast``
places it inside a module, class or function docstring.  Prints one
``count  path`` line per ``.py`` file, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize
from typing import Iterator, List, Set

#: Tokens that are not code: everything a blank or comment-only line has.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> Set[int]:
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Code lines in one module's ``source``."""
    code: Set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def python_files(paths: List[str]) -> Iterator[str]:
    """Every ``.py`` file named or under a named directory, sorted per root."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for directory, subdirs, files in os.walk(path):
            subdirs.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(directory, name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", default=["src"])
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        with open(path, encoding="utf-8") as fh:
            count = count_code_lines(fh.read())
        total += count
        print(f"{count:7d}  {path}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
