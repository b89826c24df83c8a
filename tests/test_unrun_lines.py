"""``tools/unrun_lines.py``: which lines count as statements, and which of
them a traced call leaves unrun."""

import ast
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "unrun_lines.py"
_spec = importlib.util.spec_from_file_location("unrun_lines", TOOL)
unrun_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unrun_lines)

PROBE = '''"""Module docstring."""
LIMIT = 3


def pick(x):
    """Function docstring."""
    if x > LIMIT:
        return "big"
    elif x < 0:
        raise ValueError(x)
    else:
        y = [
            x,
        ]
    try:
        z = y
    except KeyError:
        z = None
    return z


class Box:
    size: int = 0

    def grow(self):
        self.size += 1
'''


def _import(path: Path):
    spec = importlib.util.spec_from_file_location("unrun_probe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_statements_are_first_lines_with_bytecode(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(PROBE)
    lines = unrun_lines.statement_lines(probe)
    # No function docstring, ``else:`` or ``except`` clause; a statement
    # over several lines counts once, at its first line.
    assert sorted(lines) == [1, 2, 5, 7, 8, 9, 10, 12, 15, 16, 18, 19, 22, 23, 25, 26]
    assert lines[12] == "y = ["


def test_a_traced_run_leaves_the_untaken_branches(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(PROBE)
    other = tmp_path / "other.py"
    other.write_text("def f():\n    return 1\n")

    def run():
        _import(probe).pick(1)
        _import(other).f()

    ran = unrun_lines.trace_lines([probe], run)
    assert list(ran) == [probe.resolve()]
    assert unrun_lines.unrun([probe], ran) == [
        'probe.py:8: return "big"',
        "probe.py:10: raise ValueError(x)",
        "probe.py:18: z = None",
        "probe.py:26: self.size += 1",
    ]
    # Lines not traced at all are all unrun.
    assert len(unrun_lines.unrun([other], ran)) == 2


def _body_lines(path: Path, qualname: str) -> set[int]:
    """Statement lines inside the body of the function ``qualname`` of a module."""
    scope = ast.parse(path.read_text())
    for part in qualname.split("."):
        scope = next(n for n in scope.body if getattr(n, "name", None) == part)
    inside = {n.lineno for stmt in scope.body for n in ast.walk(stmt) if isinstance(n, ast.stmt)}
    return inside & set(unrun_lines.statement_lines(path))


def test_the_torus_sections_stage_runs_the_pipeline_field_and_file_ops(tmp_path):
    """The benchmark's section pipeline adds and scales band-limited fields
    and loads a section file; the matrix runs it, so these are not unrun."""
    package = TOOL.parents[1] / "src" / "mapgroups"
    fields, serialize = package / "fields.py", package / "serialize.py"
    wanted = {
        fields: _body_lines(fields, "BandlimitedField.__add__")
        | _body_lines(fields, "BandlimitedField.scaled"),
        serialize: _body_lines(serialize, "load_section"),
    }
    assert all(wanted.values())
    run = {name: run for name, _, run in unrun_lines.stages(tmp_path)}["torus-sections"]
    ran = unrun_lines.trace_lines(list(wanted), lambda: run(0))
    for path, lines in wanted.items():
        assert lines <= ran[path.resolve()], (path.name, sorted(lines - ran[path.resolve()]))
