"""``tools/code_lines.py``: what counts as a code line, and the per-module
table with and without ``--base``."""

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


def _run(monkeypatch, capsys, *argv):
    monkeypatch.setattr(sys, "argv", ["code_lines.py", *argv])
    code_lines.main()
    return capsys.readouterr().out.splitlines()


def test_the_table_lists_every_module_and_their_total(monkeypatch, capsys, tmp_path):
    package = tmp_path / "src" / "mapgroups"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\ny = 2\n")
    (package / "b.py").write_text('"""Doc."""\n\nz = 3\n')
    monkeypatch.setattr(code_lines, "ROOT", tmp_path)
    rows = [line.split() for line in _run(monkeypatch, capsys)]
    assert rows == [["a.py", "2"], ["b.py", "1"], ["total", "3"]]


def test_base_mode_reads_the_revision_and_prints_the_difference(monkeypatch, capsys, tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    package = tmp_path / "src" / "mapgroups"
    package.mkdir(parents=True)
    (package / "kept.py").write_text("a = 1\nb = 2\nc = 3\n")
    (package / "gone.py").write_text("d = 4\n")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "base")
    (package / "kept.py").write_text("a = 1\n")
    (package / "gone.py").unlink()
    (package / "new.py").write_text("e = 5\nf = 6\n")
    monkeypatch.setattr(code_lines, "ROOT", tmp_path)
    rows = [line.split() for line in _run(monkeypatch, capsys, "--base", "HEAD")]
    assert rows == [
        ["module", "base", "head", "delta"],
        ["gone.py", "1", "0", "-1"],
        ["kept.py", "3", "1", "-2"],
        ["new.py", "0", "2", "+2"],
        ["total", "4", "3", "-1"],
    ]


def test_base_mode_fails_on_an_unknown_revision(monkeypatch, capsys):
    with pytest.raises(subprocess.CalledProcessError):
        _run(monkeypatch, capsys, "--base", "no-such-revision-anywhere")
