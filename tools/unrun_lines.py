"""Print every ``src/mapgroups`` statement that the program matrix never runs.

Usage::

    python3 tools/unrun_lines.py > unrun.txt

The matrix is a list of named stages (``stages``): the CLI runs and the
library rows of ``tools/same_answers.py`` at each of its seeds, and the
benchmark's torus-sections pipeline (``perfbench/workloads.py``, every op
executed and checked once, at seed 0).  The acceptance criteria, ``pytest
tests/test_acceptance.py``, follow; all of it runs in this process under
``sys.settrace``.  Each statement whose first line carries bytecode and
never ran is printed once, sorted by module and line, as
``module.py:LINE: source``.  Only frames of those modules are traced; a
run takes about 15 s on a 2-core machine, against about 6 s untraced.  The
list is for reading, not a pass/fail check: most unrun statements are
``raise`` paths for bad input.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import sys
import tempfile
import types
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mapgroups"


def statement_lines(path: Path) -> dict[int, str]:
    """First line -> source text of each statement of a module whose first
    line carries bytecode (docstrings, ``else:`` and the like carry none)."""
    text = path.read_text()
    starts = {n.lineno for n in ast.walk(ast.parse(text, str(path))) if isinstance(n, ast.stmt)}
    lines, codes = set(), [compile(text, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    source = text.splitlines()
    return {n: source[n - 1].strip() for n in sorted(starts & lines)}


def trace_lines(paths, run) -> dict[Path, set[int]]:
    """Call ``run()`` under ``sys.settrace`` and return the lines it ran in
    each of ``paths``.  Only frames of those files get a line tracer."""
    keys = {Path(p).resolve(): set() for p in paths}
    seen: dict[str, set[int] | None] = {}  # co_filename -> its hit set, if wanted

    def hits_of(filename: str):
        if filename not in seen:
            seen[filename] = keys.get(Path(filename).resolve())
        return seen[filename]

    def local(frame, event, arg):
        if event == "line":
            hits_of(frame.f_code.co_filename).add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if hits_of(frame.f_code.co_filename) is not None else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return keys


def unrun(paths, ran: dict[Path, set[int]]) -> list[str]:
    """``name:LINE: source`` of each statement of ``paths`` not in ``ran``."""
    rows = []
    for path in sorted(Path(p).resolve() for p in paths):
        hit = ran.get(path, set())
        rows += [
            f"{path.name}:{n}: {text}"
            for n, text in statement_lines(path).items() if n not in hit
        ]
    return rows


def _import_from(directory: Path, name: str):
    sys.path.insert(0, str(directory))
    return importlib.import_module(name)


def run_plan(plan, work: Path) -> None:
    """Execute and check each op of a benchmark plan once, as one pass does."""
    ctx: dict = {"attempt": 0}
    for op in plan.ops:
        ctx["dir"] = work / op.name
        ctx["dir"].mkdir(parents=True, exist_ok=True)
        op.check(ctx, op.execute(ctx))


def stages(work: Path) -> list[tuple[str, tuple[int, ...], Callable[[int], object]]]:
    """The matrix as ``(name, seeds, run)``: ``run(seed)`` runs the stage at
    one seed, writing into ``work``; the matrix runs it at each of ``seeds``."""
    same_answers = _import_from(ROOT / "tools", "same_answers")  # imports mapgroups
    workloads = _import_from(ROOT / "perfbench", "workloads")
    return [
        ("same-answers-cli", same_answers.SEEDS,
         lambda seed: list(same_answers.cli_rows(seed, work))),
        ("same-answers-library", same_answers.SEEDS,
         lambda seed: list(same_answers.library_rows(seed))),
        ("torus-sections", (0,),
         lambda seed: run_plan(workloads.torus_sections(work, seed), work / f"sections-{seed}")),
    ]


def run_matrix() -> None:
    """Every stage at each of its seeds, then the acceptance criteria."""
    with tempfile.TemporaryDirectory(prefix="unrun-lines-") as tmp:
        for _, seeds, run in stages(Path(tmp)):
            for seed in seeds:
                run(seed)
    import pytest

    # pytest's report goes to stderr, so stdout holds only the rows.
    with contextlib.redirect_stdout(sys.stderr):
        code = pytest.main(
            ["-q", "-p", "no:cacheprovider", str(ROOT / "tests" / "test_acceptance.py")]
        )
    if code != 0:
        raise SystemExit(f"error: the acceptance criteria failed (pytest exit {code})")


def main() -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    ran = trace_lines(paths, run_matrix)
    for row in unrun(paths, ran):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
