"""Print the code lines of each ``src/mapgroups`` module.

A code line holds at least one token that is neither a comment nor part of
a docstring, so blank lines, comment lines and docstring lines do not
count.  A statement spread over several lines counts each of them.

Usage::

    python3 tools/code_lines.py              # this checkout
    python3 tools/code_lines.py --base REV   # git revision REV, this checkout, difference

``--base`` reads the modules of REV with ``git show``; the working tree
side is the files as they are on disk.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/mapgroups"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(text: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout


def modules_at(rev: str) -> dict[str, int]:
    paths = git("ls-tree", "--name-only", rev, f"{PACKAGE}/").split()
    return {
        Path(p).name: code_lines(git("show", f"{rev}:{p}")) for p in paths if p.endswith(".py")
    }


def modules_here() -> dict[str, int]:
    return {p.name: code_lines(p.read_text()) for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV", help="git revision to compare against")
    args = parser.parse_args()
    head = modules_here()
    if args.base is None:
        for name, count in head.items():
            print(f"{name:16} {count:6}")
        print(f"{'total':16} {sum(head.values()):6}")
        return
    base = modules_at(args.base)
    print(f"{'module':16} {'base':>6} {'head':>6} {'delta':>6}")
    for name in sorted(base.keys() | head.keys()):
        b, h = base.get(name, 0), head.get(name, 0)
        print(f"{name:16} {b:6} {h:6} {h - b:+6}")
    b, h = sum(base.values()), sum(head.values())
    print(f"{'total':16} {b:6} {h:6} {h - b:+6}")


if __name__ == "__main__":
    main()
