#!/usr/bin/env python3
"""Raw and code lines of Python files, optionally against a git revision.

Size targets in ROADMAP.md are *raw* lines where they say so and *code*
lines otherwise: a code line holds a token that is not a comment and not
part of a module, class or function docstring (tokenize + ast).  A string
that is not a docstring is code, every line of it.  Usage::

    python tools/count_lines.py src tests
    python tools/count_lines.py --rev HEAD~1 src/repro/classifier/backend.py

Directories are searched for ``*.py``.  With ``--rev`` each file is also
read as it was at that revision through ``git show`` (nothing is checked
out), and the delta columns show the change since then; a file that did
not exist on one side counts as empty there.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_spans(tree: ast.AST) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """Lines holding at least one token that is neither comment nor docstring."""
    spans = _docstring_spans(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        if token.type == tokenize.STRING and any(
            start <= token.start and token.end <= end for start, end in spans
        ):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def count(source: str) -> tuple[int, int]:
    """(raw lines, code lines) of one file's text."""
    return len(source.splitlines()), code_lines(source)


def _git(top: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(top), *args], capture_output=True, text=True)


def _files(paths: list[str], top: Path, rev: str | None) -> list[str]:
    """Repo-relative ``*.py`` paths under ``paths``: the tree's, plus REV's."""
    found: set[str] = set()
    for name in paths:
        path = Path(name).resolve()
        candidates = [path] if path.is_file() else sorted(path.rglob("*.py"))
        found.update(str(p.relative_to(top)) for p in candidates if p.suffix == ".py")
        if rev is not None:
            listed = _git(top, "ls-tree", "-r", "--name-only", rev, "--", str(path.relative_to(top)))
            found.update(line for line in listed.stdout.splitlines() if line.endswith(".py"))
    return sorted(found)


def _at_rev(top: Path, rev: str, relpath: str) -> str:
    shown = _git(top, "show", f"{rev}:{relpath}")
    return shown.stdout if shown.returncode == 0 else ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument("--rev", help="git revision to diff against (read with git show)")
    args = parser.parse_args(argv)
    top = Path(_git(Path.cwd(), "rev-parse", "--show-toplevel").stdout.strip() or Path.cwd()).resolve()
    rows = []
    for relpath in _files(args.paths, top, args.rev):
        path = top / relpath
        now = count(path.read_text()) if path.is_file() else (0, 0)
        before = count(_at_rev(top, args.rev, relpath)) if args.rev else None
        rows.append((relpath, now, before))
    header = f"{'raw':>7} {'code':>7}" + (f" {'Δraw':>7} {'Δcode':>7}" if args.rev else "")
    print(f"{header}  path")
    totals = [0, 0, 0, 0]
    for relpath, (raw, code), before in rows:
        line = f"{raw:>7} {code:>7}"
        totals[0] += raw
        totals[1] += code
        if before is not None:
            line += f" {raw - before[0]:>+7} {code - before[1]:>+7}"
            totals[2] += raw - before[0]
            totals[3] += code - before[1]
        print(f"{line}  {relpath}")
    total = f"{totals[0]:>7} {totals[1]:>7}" + (f" {totals[2]:>+7} {totals[3]:>+7}" if args.rev else "")
    print(f"{total}  total ({len(rows)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
