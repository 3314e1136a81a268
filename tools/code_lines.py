"""Count the code lines of Python source files.

A line counts when a token other than a comment, NL, NEWLINE, INDENT or
DEDENT lies on it (a multi-line string counts on every line it spans) and
the line is not part of a module, class or function docstring. Blank
lines, comments and docstrings therefore never count.

Usage::

    python tools/code_lines.py [--defs] PATH...

A directory stands for the ``*.py`` files below it. Prints each file's
count, a total when there is more than one file, and with ``--defs`` the
count of each top-level definition under its file.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import sys
import tokenize

_SILENT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> set:
    """The numbers of the code lines of ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SILENT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines - _docstring_lines(ast.parse(source))


def definition_lines(source: str) -> dict:
    """Each top-level function or class (decorators included) mapped to
    its number of code lines."""
    counted = code_lines(source)
    out = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            span = range(first, node.end_lineno + 1)
            out[node.name] = len(counted.intersection(span))
    return out


def _files(paths):
    for path in map(pathlib.Path, paths):
        yield from sorted(path.rglob("*.py")) if path.is_dir() else [path]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+")
    parser.add_argument("--defs", action="store_true",
                        help="also count each top-level definition")
    args = parser.parse_args(argv)
    files = list(_files(args.paths))
    total = 0
    for path in files:
        source = path.read_text(encoding="utf-8")
        count = len(code_lines(source))
        total += count
        print(f"{count:6d}  {path}")
        if args.defs:
            for name, n in definition_lines(source).items():
                print(f"{n:6d}    {name}")
    if len(files) > 1:
        print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
