"""``tools/answer_moves.py``: the size of each moved ``same_answers`` row."""

import importlib.util
import json
from pathlib import Path

import numpy as np

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


answer_moves = _load("answer_moves")


def keep(values: Path, rows: dict) -> None:
    """A ``same_answers.py --values`` directory holding ``rows``: name ->
    list of texts, an array, or a document for a kept JSON file."""
    lines = []
    for name, value in rows.items():
        path = values / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(value, list):
            lines += [f"{name} {text}" for text in value]
            continue
        if isinstance(value, np.ndarray):
            np.save(path.with_name(path.name + ".npy"), value)
            data = repr(value.shape).encode() + value.tobytes()
        else:
            data = json.dumps(value).encode()
            path.write_bytes(data)
        lines.append(f"{name} {hash(data)}")
    values.mkdir(parents=True, exist_ok=True)
    (values / "answers.txt").write_text("\n".join(lines) + "\n")


def test_each_moved_row_reports_its_largest_changes(tmp_path):
    piece = np.linspace(1.0, 4.0, 12).reshape(3, 4)
    moved = piece.copy()
    moved[1, 2] += 3e-15
    encoded = answer_moves.base64.b64encode(piece.tobytes()).decode()
    encoded_moved = answer_moves.base64.b64encode(moved.tobytes()).decode()
    report = {"defect": 2e-16, "steps": 8, "name": "SU2",
              "pieces": [{"b64": encoded, "dtype": "<f8", "shape": [3, 4]}]}
    report_moved = {"defect": 3e-16, "steps": 8, "name": "SU2", "added": 1,
                    "pieces": [{"b64": encoded_moved, "dtype": "<f8", "shape": [3, 4]}]}
    keep(tmp_path / "base", {
        "s0/cli": ["exit 0", "stdout wrote", "stderr "],
        "s0/cli/report.json": report,
        "s0/piece": piece,
        "s0/shape": piece,
        "s0/inner": ["(1.25, [{'chart': 0, 'term': 0.5}])"],
        "s0/same": ["exit 0"],
        "s0/gone": ["exit 0"],
    })
    keep(tmp_path / "head", {
        "s0/cli": ["exit 2", "stderr error: overlap defect 1.1e-09"],
        "s0/cli/report.json": report_moved,
        "s0/piece": moved,
        "s0/shape": piece.ravel(),
        "s0/inner": ["(1.25, [{'chart': 0, 'term': 0.5000000000000001}])"],
        "s0/same": ["exit 0"],
        "s0/new": ["exit 0"],
    })
    lines = answer_moves.report(tmp_path / "base", tmp_path / "head")
    text = "\n".join(lines)
    assert "s0/same" not in text
    assert lines[lines.index("s0/cli") + 1:lines.index("s0/cli/report.json")] == [
        "    - exit 0", "    - stdout wrote", "    - stderr ",
        "    + exit 2", "    + stderr error: overlap defect 1.1e-09",
    ]
    gap = float(np.abs(moved - piece).max())
    at = lines.index("s0/cli/report.json")
    assert lines[at + 1] == (
        f"    largest abs {gap:.3e} at /pieces[0]; largest rel 5.000e-01 at /defect"
    )
    assert lines[at + 2] == "    /added: key added"
    at = lines.index("s0/piece")
    assert lines[at + 1] == f"    largest abs {gap:.3e} at .; largest rel {gap / 4.0:.3e} at ."
    assert lines[lines.index("s0/shape") + 1] == "    : shape (3, 4) -> (12,)"
    # The numbers of the text are 1.25, 0 and the term, #2.
    assert lines[lines.index("s0/inner") + 1] == (
        "    largest abs 1.110e-16 at #2; largest rel 2.220e-16 at #2"
    )
    assert lines[lines.index("s0/new") + 1] == "    row added"
    assert lines[lines.index("s0/gone") + 1] == "    row gone"
    assert lines[-1] == "7 of 8 rows moved"


def test_same_answers_keeps_what_it_digests(tmp_path):
    same_answers = _load("same_answers")
    values = tmp_path / "values"
    array = np.arange(6.0).reshape(2, 3)
    assert same_answers.row_text("s0/a", array, values) == same_answers.array_digest(array)
    assert np.array_equal(np.load(values / "s0" / "a.npy"), array)
    data = b'{"x":1}\n'
    assert same_answers.row_text("s0/cli/x.json", data, values) == same_answers.digest(data)
    assert (values / "s0" / "cli" / "x.json").read_bytes() == data
    assert same_answers.row_text("s0/cli", "exit 0", values) == "exit 0"
    assert same_answers.row_text("s0/b", array, None) == same_answers.array_digest(array)
