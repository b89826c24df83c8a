"""``tools/code_lines.py``: what counts as a code line and as a defaulted
public parameter, and the per-module table with and without ``--base``
(which also gives each module's defaulted parameters)."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_blanks_comments_and_docstrings_are_not_code():
    text = (
        '"""Module docstring,\nover two lines."""\n'
        "\n"
        "# a comment\n"
        "class A:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Method\n        docstring."""\n'
        "        return 1  # trailing comment\n"
        "\n"
        "async def g():\n"
        "    '''Coroutine docstring.'''\n"
        "    pass\n"
    )
    # class A, def f, return 1, async def g, pass
    assert code_lines.code_lines(text) == 5


def test_strings_that_are_not_docstrings_and_split_statements_count_each_line():
    text = (
        "x = 1\n"
        '"""A string after the first statement is not a docstring."""\n'
        "y = (\n"
        "    2,\n"
        "    3,\n"
        ")\n"
        'z = """two\nlines"""\n'
    )
    assert code_lines.code_lines(text) == 8
    assert code_lines.code_lines('"""Only a docstring."""\n') == 0


def test_defaults_count_public_functions_methods_and_fields():
    text = (
        "def f(a, b=1, *, c, d=2): pass\n"        # 2
        "async def g(a=1): pass\n"               # 1
        "def _private(a=1): pass\n"
        "h = lambda a=1: a\n"
        "@dataclass\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"                        # 1
        "    _z: int = 0\n"                       # 1
        "    w = 0\n"
        "    def m(self, a=1): pass\n"            # 1
        "    def _n(self, a=1): pass\n"
        "    def __init__(self, a=1): pass\n"
        "    class Inner:\n"
        "        v: int = 0\n"
        "class _B:\n"
        "    y: int = 0\n"
        "    def m(self, a=1): pass\n"
        "def outer():\n"
        "    def inner(a=1): pass\n"
    )
    assert code_lines.defaulted_parameters(text) == 6


def _run(monkeypatch, capsys, *argv):
    monkeypatch.setattr(sys, "argv", ["code_lines.py", *argv])
    code_lines.main()
    return capsys.readouterr().out.splitlines()


def test_the_table_lists_every_module_and_their_total(monkeypatch, capsys, tmp_path):
    package = tmp_path / "src" / "mapgroups"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text('"""Doc."""\n\ndef f(z=3): pass\n')
    monkeypatch.setattr(code_lines, "ROOT", tmp_path)
    rows = [line.split() for line in _run(monkeypatch, capsys)]
    assert rows == [["a.py", "2"], ["b.py", "1"], ["total", "3"], ["defaults", "1"]]


def test_base_mode_reads_the_revision_and_prints_the_difference(monkeypatch, capsys, tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    package = tmp_path / "src" / "mapgroups"
    package.mkdir(parents=True)
    (package / "kept.py").write_text("a = 1\nb = 2\ndef c(x=3, y=4): pass\n")
    (package / "gone.py").write_text("def d(w=4): pass\n")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "base")
    (package / "kept.py").write_text("def a(x=1): pass\n")
    (package / "gone.py").unlink()
    (package / "new.py").write_text("e = 5\ndef f(q=6): pass\n")
    monkeypatch.setattr(code_lines, "ROOT", tmp_path)
    rows = [line.split() for line in _run(monkeypatch, capsys, "--base", "HEAD")]
    assert rows == [
        ["module", "base", "head", "delta", "d-base", "d-head", "d-delta"],
        ["gone.py", "1", "0", "-1", "1", "0", "-1"],
        ["kept.py", "3", "1", "-2", "2", "1", "-1"],
        ["new.py", "0", "2", "+2", "0", "1", "+1"],
        ["total", "4", "3", "-1"],
        ["defaults", "3", "2", "-1"],
    ]


def test_base_mode_fails_on_an_unknown_revision(monkeypatch, capsys):
    with pytest.raises(subprocess.CalledProcessError):
        _run(monkeypatch, capsys, "--base", "no-such-revision-anywhere")
