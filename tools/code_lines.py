"""Print the code lines of each ``src/mapgroups`` module, and the package's
defaulted public parameters.

A code line holds at least one token that is neither a comment nor part of
a docstring, so blank lines, comment lines and docstring lines do not
count.  A statement spread over several lines counts each of them.

The ``defaults`` row counts the parameters with a default value of public
top-level functions and of public methods of public classes, plus the
annotated class-body assignments with a value (dataclass fields) of public
classes.  A name is public unless it starts with an underscore.

Usage::

    python3 tools/code_lines.py              # this checkout
    python3 tools/code_lines.py --base REV   # git revision REV, this checkout, difference

``--base`` reads the modules of REV with ``git show``; the working tree
side is the files as they are on disk.  Each module row then gives the
code lines and, after them, the defaulted parameters at REV, here, and
their difference.
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _public(name: str) -> bool:
    return not name.startswith("_")


def _defaults(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)


def defaulted_parameters(text: str) -> int:
    count = 0
    for node in ast.parse(text).body:
        if isinstance(node, FUNCTIONS) and _public(node.name):
            count += _defaults(node)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and _public(item.name):
                    count += _defaults(item)
                elif isinstance(item, ast.AnnAssign) and item.value is not None:
                    count += 1
    return count


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout


def sources_at(rev: str) -> dict[str, str]:
    paths = git("ls-tree", "--name-only", rev, f"{PACKAGE}/").split()
    return {Path(p).name: git("show", f"{rev}:{p}") for p in paths if p.endswith(".py")}


def sources_here() -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", metavar="REV", help="git revision to compare against")
    args = parser.parse_args()
    sources = sources_here()
    head = {name: code_lines(text) for name, text in sources.items()}
    head_defaults = {name: defaulted_parameters(text) for name, text in sources.items()}
    if args.base is None:
        for name, count in head.items():
            print(f"{name:16} {count:6}")
        print(f"{'total':16} {sum(head.values()):6}")
        print(f"{'defaults':16} {sum(head_defaults.values()):6}")
        return
    base_sources = sources_at(args.base)
    base = {name: code_lines(text) for name, text in base_sources.items()}
    base_defaults = {name: defaulted_parameters(text) for name, text in base_sources.items()}
    print(f"{'module':16} {'base':>6} {'head':>6} {'delta':>6}"
          f" {'d-base':>6} {'d-head':>6} {'d-delta':>7}")
    for name in sorted(base.keys() | head.keys()):
        b, h = base.get(name, 0), head.get(name, 0)
        db, dh = base_defaults.get(name, 0), head_defaults.get(name, 0)
        print(f"{name:16} {b:6} {h:6} {h - b:+6} {db:6} {dh:6} {dh - db:+7}")
    for label, b, h in (
        ("total", sum(base.values()), sum(head.values())),
        ("defaults", sum(base_defaults.values()), sum(head_defaults.values())),
    ):
        print(f"{label:16} {b:6} {h:6} {h - b:+6}")


if __name__ == "__main__":
    main()
