"""Count the code lines of Python source files.

A code line is a line that holds at least one token other than a comment,
a newline or an indent, and that is not part of a docstring (module,
class or function) or of an ``import`` statement.  Blank lines, comments,
docstrings and imports therefore never count, and a multi-line expression
counts once per physical line it spans.  The count is what a
simplification is measured by: two versions of a module that differ only
in comments, docstrings or import layout count the same.

Usage::

    python benchmarks/code_lines.py FILE [FILE ...]

prints one ``count  path`` line per file, then the total.  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from typing import List, Set

#: Token types that never make a line a code line.
_LAYOUT = frozenset((
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
))


def _span(node: ast.AST) -> range:
    return range(node.lineno, node.end_lineno + 1)


def _excluded_lines(tree: ast.Module) -> Set[int]:
    """Lines of docstrings and import statements."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            lines.update(_span(node))
        elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(_span(body[0]))
    return lines


def count_code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    lines: Set[int] = set()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    for tok in tokens:
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _excluded_lines(ast.parse(source)))


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)
    total = 0
    for path in args.paths:
        with open(path, encoding="utf-8") as handle:
            count = count_code_lines(handle.read())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
