"""Module boundaries: no package module imports a private name of another,
the Sobolev weight lattice has one home, only the atlas module builds the
builtin atlases, only the errors module words an unknown-name error, and
every public name and dataclass field has a reader or a reason to stay."""

import ast
import re
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


def _unknown_name_raises(path: Path) -> list[str]:
    """Raise statements whose message (first argument) starts with
    ``unknown ``, as a string or as the first part of an f-string."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
            continue
        first = node.exc.args[0] if node.exc.args else None
        if isinstance(first, ast.JoinedStr) and first.values:
            first = first.values[0]
        if isinstance(first, ast.Constant) and str(first.value).startswith("unknown "):
            found.append(f"{path.name}:{node.lineno} words an unknown name")
    return found


def test_only_the_errors_module_words_an_unknown_name():
    """Every unknown-name error is errors.check_name's one message."""
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py")
    found = [hit for path in modules for hit in _unknown_name_raises(path)]
    assert not found, "\n".join(found)


def test_the_check_sees_an_unknown_name_message(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def pick(name, table):\n"
        "    if name not in table:\n"
        "        raise InputError(f\"unknown group {name!r}\")\n"
        "    if not name:\n"
        "        raise KeyError('unknown key')\n"
        "    raise ValueError('an unknown value', name)\n"
    )
    assert _unknown_name_raises(probe) == [
        "probe.py:3 words an unknown name", "probe.py:5 words an unknown name",
    ]
    # The one message the guard allows is errors.check_name's.
    (hit,) = _unknown_name_raises(PACKAGE / "errors.py")
    assert hit.startswith("errors.py:")


REPO = Path(__file__).resolve().parents[1]

# Public names and dataclass fields (``Class.field``) that no program reads
# and no acceptance criterion uses, each kept for the reason given.
_ATLAS_REPORT = ("a validate_atlas result; tools/same_answers.py compares whole "
                 "reports through repr")
KEEP = {
    "AtlasReport.cover_margin": _ATLAS_REPORT,
    "AtlasReport.inverse_residual": _ATLAS_REPORT,
    "AtlasReport.cocycle_residual": _ATLAS_REPORT,
    "AtlasReport.partition_residual": _ATLAS_REPORT,
    "AtlasReport.enlarged_window_ok": _ATLAS_REPORT,
    "MatrixGroup.q_radius": "states the chart ball of log; each group's "
                            "log_valid_fn tests the same radius",
}


def _kept(fields: bool) -> list[str]:
    return sorted(k for k in KEEP if ("." in k) == fields)


def _readers() -> list[Path]:
    """The programs (src/, perfbench/, tools/) and the acceptance criteria."""
    programs = [p for d in ("src", "perfbench", "tools") for p in sorted((REPO / d).rglob("*.py"))]
    return programs + [REPO / "tests" / "test_acceptance.py"]

# A string spelling a dotted identifier counts as a use: the benchmark
# tracer names the calls it wraps that way.
_DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def _public_names(path: Path) -> list[str]:
    """Public top-level functions, classes and assigned names of a module."""
    names = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def _used_names(path: Path) -> set[str]:
    """Names a file reads, attributes it reads, and dotted-string parts.

    An import is not a use, so a re-export alone does not count."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                used.update(node.value.split("."))
    return used


def _uncalled(modules, users) -> list[str]:
    used = set().union(*map(_used_names, users))
    return [
        f"{path.name}: {name}"
        for path in modules for name in _public_names(path) if name not in used
    ]


def test_every_public_name_has_a_caller_or_a_reason_to_stay():
    """Callers are the programs (src/, perfbench/, tools/) and the
    acceptance criteria; KEEP holds exactly the names with neither."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    found = _uncalled(modules, _readers())
    assert sorted(hit.split(": ")[1] for hit in found) == _kept(False), "\n".join(found)


def test_the_check_sees_an_uncalled_name(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "LIMIT = 3\n\ndef used():\n    return LIMIT\n\ndef unused():\n    pass\n\n"
        "class Orphan:\n    pass\n\ndef _private():\n    pass\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("from probe import Orphan, unused, used\nused()\n")
    assert _uncalled([probe], [probe, caller]) == ["probe.py: unused", "probe.py: Orphan"]


def test_the_check_counts_traced_strings_and_attribute_reads(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def traced():\n    pass\n\ndef read():\n    pass\n\n"
                     "def named_in_prose():\n    pass\n")
    caller = tmp_path / "caller.py"
    caller.write_text(
        'import probe\n\nTRACED = ("probe.traced",)\nNOTE = "named_in_prose is not called"\n'
        "probe.read()\n"
    )
    assert _uncalled([probe], [caller]) == ["probe.py: named_in_prose"]


def _is_dataclass(decorator) -> bool:
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(func, "id", getattr(func, "attr", None)) == "dataclass"


def _dataclass_fields(path: Path) -> list[str]:
    """``Class.field`` for each public field of a module's public dataclasses."""
    fields = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if (isinstance(node, ast.ClassDef) and not node.name.startswith("_")
                and any(map(_is_dataclass, node.decorator_list))):
            fields += [
                f"{node.name}.{b.target.id}" for b in node.body
                if isinstance(b, ast.AnnAssign) and isinstance(b.target, ast.Name)
                and not b.target.id.startswith("_")
            ]
    return fields


def _attribute_reads(path: Path) -> set[str]:
    return {
        node.attr for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _unread_fields(modules, users) -> list[str]:
    """Fields whose name no user reads as an attribute (of any object)."""
    read = set().union(*map(_attribute_reads, users))
    return [
        f"{path.name}: {field}"
        for path in modules for field in _dataclass_fields(path)
        if field.split(".")[1] not in read
    ]


def test_every_public_dataclass_field_is_read_or_has_a_reason_to_stay():
    """Readers are the programs and the acceptance criteria, as above."""
    found = _unread_fields(sorted(PACKAGE.glob("*.py")), _readers())
    assert sorted(hit.split(": ")[1] for hit in found) == _kept(True), "\n".join(found)


def test_the_check_sees_an_unread_field(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from dataclasses import dataclass, field\nimport dataclasses\n\n"
        "@dataclass(frozen=True)\nclass Report:\n    read: int\n    written: int\n"
        "    stored: float = field(default=0.0)\n    _private: int = 0\n\n"
        "@dataclasses.dataclass\nclass Other:\n    unread: str\n\n"
        "class Plain:\n    annotated: int = 0\n\n"
        "@dataclass\nclass _Hidden:\n    gone: int\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("r = make()\nprint(r.read)\nr.written = 1\n")
    assert _unread_fields([probe], [caller]) == [
        "probe.py: Report.written", "probe.py: Report.stored", "probe.py: Other.unread",
    ]
