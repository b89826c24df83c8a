"""Say by how much each moved row of ``tools/same_answers.py`` moved.

Usage::

    python3 tools/same_answers.py --values BASE    # in the base checkout
    python3 tools/same_answers.py --values HEAD    # in the changed checkout
    python3 tools/answer_moves.py BASE HEAD

A row moved when its values in ``BASE/answers.txt`` and ``HEAD/answers.txt``
differ.  For each moved row the script prints the row name, then the
largest absolute and the largest relative change over the row's numeric
leaves, each with the leaf where it lies, then one line for each other
change: a shape or dtype, a key or row present on one side only, an exit
code, a stdout or stderr line, or a text.

The numeric leaves of a row are read from the values ``same_answers.py``
kept: a kept array is one leaf; in a kept JSON file each number, each list
of numbers and each encoded array is one; in a text row (the repr of a
number or of a structure holding numbers) or a kept file that is not JSON,
each number in the text is one, when the text around the numbers is
unchanged.  The relative change of a leaf is its largest absolute change
over the largest magnitude of its base value.
"""

from __future__ import annotations

import argparse
import base64
import json
import re
import sys
from pathlib import Path

import numpy as np

NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")
STREAMS = ("exit ", "stdout ", "stderr ")
ENCODED_KEYS = {"b64", "dtype", "shape"}


def read_rows(values: Path) -> dict[str, list[str]]:
    """Each row name of ``values/answers.txt`` with its values in order."""
    rows: dict[str, list[str]] = {}
    for line in (values / "answers.txt").read_text().splitlines():
        name, _, value = line.partition(" ")
        rows.setdefault(name, []).append(value)
    return rows


class Moves:
    """The largest changes over a row's numeric leaves, and its other changes."""

    def __init__(self):
        self.abs = (0.0, "")
        self.rel = (0.0, "")
        self.notes: list[str] = []

    def leaf(self, where: str, base, head) -> None:
        base, head = np.asarray(base), np.asarray(head)
        if base.shape != head.shape:
            self.notes.append(f"{where}: shape {base.shape} -> {head.shape}")
            return
        if base.dtype != head.dtype:
            self.notes.append(f"{where}: dtype {base.dtype} -> {head.dtype}")
        base, head = base.astype(complex), head.astype(complex)
        if not np.array_equal(np.isnan(base), np.isnan(head)):
            self.notes.append(f"{where}: NaN entries moved")
        keep = ~(np.isnan(base) | np.isnan(head))
        if not keep.any():
            return
        base, head = base[keep], head[keep]
        same_inf = (base == head) & np.isinf(base)
        gap = np.where(same_inf, 0.0, np.abs(head - base))
        change = float(gap.max())
        scale = float(np.abs(np.where(np.isinf(base), 0.0, base)).max())
        rel = change / scale if scale > 0.0 else (np.inf if change > 0.0 else 0.0)
        if change > self.abs[0]:
            self.abs = (change, where)
        if rel > self.rel[0]:
            self.rel = (rel, where)

    def text(self, where: str, base: str, head: str) -> None:
        """Numbers of two texts as leaves when the rest of the texts agree."""
        if base == head:
            return
        base_nums, head_nums = NUMBER.findall(base), NUMBER.findall(head)
        if NUMBER.split(base) != NUMBER.split(head):
            self.notes.append(f"{where}: text {shorten(base)} -> {shorten(head)}")
            return
        for k, (b, h) in enumerate(zip(base_nums, head_nums)):
            if b != h:
                self.leaf(f"{where}#{k}", float(b), float(h))

    def lines(self, name: str) -> list[str]:
        out = [name]
        if self.abs[0] > 0.0 or self.rel[0] > 0.0:
            out.append(
                f"    largest abs {self.abs[0]:.3e} at {self.abs[1] or '.'}; "
                f"largest rel {self.rel[0]:.3e} at {self.rel[1] or '.'}"
            )
        out += [f"    {note}" for note in self.notes]
        return out


def shorten(text: str, width: int = 60) -> str:
    return repr(text if len(text) <= width else text[: width - 3] + "...")


def decoded(doc):
    """An encoded-array object as its array; any other value as it is."""
    if isinstance(doc, dict) and set(doc) == ENCODED_KEYS:
        data = base64.b64decode(doc["b64"])
        return np.frombuffer(data, dtype=doc["dtype"]).reshape(doc["shape"])
    return doc


def numeric(value) -> bool:
    """A number, or a (nested) list of numbers; true and false are not."""
    if isinstance(value, list):
        return all(map(numeric, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare_json(moves: Moves, where: str, base, head) -> None:
    base, head = decoded(base), decoded(head)
    if isinstance(base, np.ndarray) or isinstance(head, np.ndarray):
        moves.leaf(where, base, head)
    elif isinstance(base, dict) and isinstance(head, dict):
        for key in sorted(base.keys() | head.keys()):
            if key not in head:
                moves.notes.append(f"{where}/{key}: key gone")
            elif key not in base:
                moves.notes.append(f"{where}/{key}: key added")
            else:
                compare_json(moves, f"{where}/{key}", base[key], head[key])
    elif numeric(base) and numeric(head):
        moves.leaf(where, base, head)
    elif isinstance(base, list) and isinstance(head, list) and len(base) == len(head):
        for k, (b, h) in enumerate(zip(base, head)):
            compare_json(moves, f"{where}[{k}]", b, h)
    elif base != head:
        moves.notes.append(f"{where}: {shorten(json.dumps(base))} -> {shorten(json.dumps(head))}")


def compare_file(moves: Moves, base: Path, head: Path) -> None:
    if base.suffix == ".npy":
        moves.leaf("", np.load(base), np.load(head))
        return
    base_text, head_text = base.read_text(), head.read_text()
    try:
        base_doc, head_doc = json.loads(base_text), json.loads(head_text)
    except json.JSONDecodeError:
        moves.text("", base_text, head_text)
        return
    compare_json(moves, "", base_doc, head_doc)


def kept_file(values: Path, name: str) -> Path | None:
    for path in (values / f"{name}.npy", values / name):
        if path.is_file():
            return path
    return None


def row_moves(base_dir: Path, head_dir: Path, name: str, base: list[str], head: list[str]):
    moves = Moves()
    if any(v.startswith(STREAMS) for v in base + head):
        for line in base:
            if line not in head:
                moves.notes.append(f"- {line}")
        for line in head:
            if line not in base:
                moves.notes.append(f"+ {line}")
        return moves
    base_file, head_file = kept_file(base_dir, name), kept_file(head_dir, name)
    if base_file is not None and head_file is not None:
        compare_file(moves, base_file, head_file)
    elif base_file is None and head_file is None:
        moves.text("", " ".join(base), " ".join(head))
    else:
        moves.notes.append("value kept on one side only")
    return moves


def report(base_dir: Path, head_dir: Path) -> list[str]:
    base, head = read_rows(base_dir), read_rows(head_dir)
    names = list(head) + [n for n in base if n not in head]
    out, moved = [], 0
    for name in names:
        if base.get(name) == head.get(name):
            continue
        moved += 1
        if name not in base:
            out += [name, "    row added"]
        elif name not in head:
            out += [name, "    row gone"]
        else:
            out += row_moves(base_dir, head_dir, name, base[name], head[name]).lines(name)
    out.append(f"{moved} of {len(names)} rows moved")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("base", type=Path, help="same_answers.py --values directory of the base")
    parser.add_argument("head", type=Path, help="same_answers.py --values directory of the change")
    args = parser.parse_args(argv)
    print("\n".join(report(args.base, args.head)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
