"""``tools/unrun_lines.py``: which lines count as statements, and which of
them a traced call leaves unrun."""

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
