"""Module boundaries: no package module imports a private name of another,
the Sobolev weight lattice has one home, and only the atlas module builds
the builtin atlases."""

import ast
from pathlib import Path

import mapgroups

PACKAGE = Path(mapgroups.__file__).parent


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        sibling = node.level > 0 or (node.module or "").startswith("mapgroups")
        if not sibling:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    return found


def test_no_module_imports_a_private_name_of_a_sibling():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    found = [hit for path in modules for hit in _private_imports(path)]
    assert not found, "\n".join(found)


def test_the_check_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .sections import _window_pieces, glue\n")
    assert _private_imports(probe) == ["probe.py:1 imports _window_pieces"]


def _calls(path: Path, *names: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in names:
            found.append(f"{path.name}:{node.lineno} calls {name}")
    return found


def _wavenumber_square_calls(path: Path) -> list[str]:
    return _calls(path, "wavenumber_squares")


def test_only_fields_computes_the_wavenumber_lattice():
    """Weights (1 + |k|^2)^e come from fields.sobolev_weights alone."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "fields.py")
    found = [hit for path in modules for hit in _wavenumber_square_calls(path)]
    assert not found, "\n".join(found)


def test_the_check_sees_a_wavenumber_lattice_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import fields\nw = 1 + fields.wavenumber_squares(1, 4)\n")
    assert _wavenumber_square_calls(probe) == ["probe.py:2 calls wavenumber_squares"]


BUILDERS = ("circle_two_charts", "torus_four_charts")


def test_only_the_atlas_module_builds_the_builtin_atlases():
    """Every builtin atlas the package uses is the shared builtin_atlas one."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "atlas.py")
    found = [hit for path in modules for hit in _calls(path, *BUILDERS)]
    assert not found, "\n".join(found)


def test_the_check_sees_a_builder_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .atlas import torus_four_charts\nfrom . import atlas\n"
        "a = torus_four_charts()\nb = atlas.circle_two_charts(resolution=65)\n"
    )
    assert _calls(probe, *BUILDERS) == [
        "probe.py:3 calls torus_four_charts", "probe.py:4 calls circle_two_charts",
    ]
