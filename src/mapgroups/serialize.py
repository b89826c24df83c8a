"""JSON and CSV interchange for sections, group sections, curves, and spectra.

Every file carries a ``weight_exponent_convention`` tag naming which
Sobolev weight exponent the stored quantities assume ("paper-s/2" or
"standard-s").  JSON is written with sorted keys and fixed separators so
identical data produces identical bytes.

A section or group-section document names a builtin atlas, whose charts
fix each piece's window, so a piece holds node values only: piece ``j`` is
the ``(K_j, n)`` values (``(K_j, d*d)`` for a group section) at chart
``j``'s window nodes in C order.  Pieces are written as encoded-array
objects ``{"dtype": "<f8", "shape": [...], "b64": "..."}``: the C-order
little-endian float64 bytes of the array in RFC 4648 base64.  Loaders
also read the same arrays as nested JSON lists.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np

from .atlas import Atlas, atlas_descriptor, builtin_atlas
from .errors import InputError, ShapeMismatchError, check_name
from .fields import INTERP_POINTS, SampledField, check_node_values
from .groups import AlgebraSection, GroupSection, group_by_name
from .limits import TimeSampledCurve
from .sections import OVERLAP_TOLERANCE, Section
from .sobolev import CONVENTION_TAGS

# Between-node scheme of section pieces, recorded in section files.
SECTION_INTERPOLATION = f"local-poly-{INTERP_POINTS}"


def convention_tag(convention: str) -> str:
    return CONVENTION_TAGS[check_name(convention, CONVENTION_TAGS, "weight convention")]


class _Base64Text(str):
    """Base64 text that ``encode_array`` made: no character of it needs a
    JSON escape, so ``canonical_json`` splices it in as it is."""


# Stands in for each base64 text while the rest of a document is encoded;
# _SPLICE_TOKEN is its JSON form.
_SPLICE = "\x00b64\x00"
_SPLICE_TOKEN = json.dumps(_SPLICE)


def _without_base64(obj, texts: list):
    """A copy of the JSON document ``obj`` with each ``_Base64Text`` replaced
    by ``_SPLICE``, the texts appended to ``texts`` in the order the sorted
    encoding writes them."""
    if isinstance(obj, dict):
        return {k: _without_base64(v, texts) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_without_base64(v, texts) for v in obj]
    if isinstance(obj, _Base64Text):
        texts.append(obj)
        return _SPLICE
    return obj


def canonical_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\\n"``.

    The JSON encoder scans every character of a string for escapes, and
    base64 text needs none, so the document is encoded with each array's
    text replaced by a placeholder and the texts are spliced back in.  A
    document string that holds the placeholder's encoding shows as an extra
    occurrence, and then the whole document is encoded directly.
    """
    texts = []
    parts = json.dumps(
        _without_base64(obj, texts), sort_keys=True, separators=(",", ":")
    ).split(_SPLICE_TOKEN)
    if len(parts) != len(texts) + 1:
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    spliced = [parts[0]]
    for text, part in zip(texts, parts[1:]):
        spliced += ('"', text, '"', part)
    spliced.append("\n")
    return "".join(spliced)


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj))


def read_json(path):
    """Parse a JSON file; InputError naming the file unless its bytes are
    UTF-8 JSON nested shallowly enough for the parser."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc


def json_is(value, kind) -> bool:
    """Type test on a loaded JSON value; true/false are not numbers."""
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


@contextmanager
def _errors_start(prefix: str):
    """Re-raise an InputError from the block with ``prefix`` before its message."""
    try:
        yield
    except InputError as exc:
        if not prefix:
            raise
        raise type(exc)(f"{prefix}{exc}") from None


def _expect_kind(doc, kind: str, what: str) -> None:
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise InputError(f"not a {what} document")


# Names of the JSON types ``_require`` tests as tuples; an array is a
# nested list or an encoded-array object.
_KIND_NAMES = {(int, float): "number", (list, dict): "array"}


def _require(doc: dict, key: str, kind):
    """``doc[key]``, or InputError naming the key when absent or not a ``kind``."""
    what = doc["kind"]
    if key not in doc:
        raise InputError(f"{what} document has no key {key!r}")
    if not json_is(doc[key], kind):
        name = kind.__name__ if isinstance(kind, type) else _KIND_NAMES[kind]
        raise InputError(
            f"{what} key {key!r} must be {name}, got {type(doc[key]).__name__}"
        )
    return doc[key]


def _check_stated(doc: dict, key: str, value, kind) -> None:
    """A document may state ``key``, but only as the loaded ``value``."""
    if key in doc:
        stated = _require(doc, key, kind)
        if stated != value:  # NaN differs too
            raise InputError(f"{doc['kind']} key {key!r} must be {value!r}, got {stated!r}")


# The one encoded-array dtype: little-endian float64.
ENCODED_DTYPE = "<f8"
_ENCODED_KEYS = ("b64", "dtype", "shape")


def encode_array(arr) -> dict:
    """Encoded-array object holding the C-order bytes of ``arr`` as ``ENCODED_DTYPE``."""
    arr = np.ascontiguousarray(arr, dtype=ENCODED_DTYPE)
    return {
        "dtype": ENCODED_DTYPE,
        "shape": list(arr.shape),
        "b64": _Base64Text(base64.b64encode(arr.tobytes()), "ascii"),
    }


def decode_array(raw: dict, what: str) -> np.ndarray:
    """The writable C-contiguous array an encoded-array object holds.

    Raises InputError, prefixed by ``what``, on missing or extra keys, an
    unknown dtype, a shape that is not a list of integer sizes >= 0,
    invalid base64, or a byte count that does not match the shape.
    """
    if sorted(raw) != list(_ENCODED_KEYS):
        raise InputError(
            f"{what} must have exactly the keys {list(_ENCODED_KEYS)}, "
            f"got {sorted(raw)}"
        )
    dtype, shape, text = raw["dtype"], raw["shape"], raw["b64"]
    if dtype != ENCODED_DTYPE:
        raise InputError(f"{what} has dtype {dtype!r}, expected {ENCODED_DTYPE!r}")
    if not json_is(shape, list) or not all(json_is(n, int) and n >= 0 for n in shape):
        raise InputError(f"{what} shape must be a list of sizes >= 0, got {shape!r}")
    if not json_is(text, str):
        raise InputError(f"{what} b64 must be str, got {type(text).__name__}")
    try:
        data = base64.b64decode(text, validate=True)
    except ValueError:  # binascii.Error, or text that is not ASCII
        raise InputError(f"{what} b64 is not valid base64") from None
    needed = math.prod(shape) * np.dtype(ENCODED_DTYPE).itemsize
    if len(data) != needed:
        raise InputError(
            f"{what} holds {len(data)} bytes, shape {shape} needs {needed}"
        )
    try:
        return np.frombuffer(bytearray(data), dtype=ENCODED_DTYPE).reshape(shape)
    except ValueError as exc:  # more dimensions or elements than numpy allows
        raise InputError(f"{what} shape {shape} is not usable: {exc}") from None


def _numeric_array(raw, what: str) -> np.ndarray:
    """``raw`` -- a nested list or an encoded-array object of numbers -- as a
    rectangular float array."""
    if json_is(raw, dict):
        arr = decode_array(raw, what)
    else:
        try:
            arr = np.asarray(raw)
        except ValueError:  # ragged nesting
            arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise InputError(f"{what} must be a rectangular array of numbers")
    return arr.astype(float, copy=False)


# Atlases hash by identity; the builtin ones are shared, four at most.
@lru_cache(maxsize=4)
def atlas_hash(a: Atlas) -> str:
    digest = hashlib.sha256(canonical_json(atlas_descriptor(a)).encode())
    return digest.hexdigest()[:12]


# Largest lattice resolution a document or a run config may name.  The atlas
# a document names is built before its hash can be checked, so this bounds
# what a file can allocate.
MAX_LATTICE_RESOLUTION = 4097


def _resolve_atlas(doc: dict) -> Atlas:
    """The builtin atlas a document names, checked against its hash."""
    resolution = _require(doc, "lattice_resolution", int)
    if resolution > MAX_LATTICE_RESOLUTION:
        raise InputError(
            f"{doc['kind']} key 'lattice_resolution' must be at most "
            f"{MAX_LATTICE_RESOLUTION}, got {resolution}"
        )
    a = builtin_atlas(_require(doc, "atlas", str), resolution=resolution)
    if doc.get("atlas_hash") not in (None, atlas_hash(a)):
        raise InputError(
            f"atlas hash mismatch: file has {doc['atlas_hash']}, "
            f"built {atlas_hash(a)}"
        )
    return a


def _atlas_header(a: Atlas, convention: str) -> dict:
    """Keys naming a document's atlas and weight convention."""
    return {
        "atlas": a.name,
        "atlas_hash": atlas_hash(a),
        "lattice_resolution": a.lattice_resolution,
        "weight_exponent_convention": convention_tag(convention),
    }


def dump_section(sec: Section, convention: str = "paper") -> dict:
    return {
        "kind": "section",
        **_atlas_header(sec.atlas, convention),
        "components": sec.components,
        "tolerance": OVERLAP_TOLERANCE,
        "interpolation": SECTION_INTERPOLATION,
        # Files keep piece j as the (K_j, n) values of chart j's window nodes.
        "pieces": [encode_array(p.values) for p in sec.pieces],
    }


def load_section(doc: dict) -> Section:
    return _load_section(doc)


def _load_section(doc: dict, where: str = "") -> Section:
    """Section document that errors name ``where`` (say ``curve section k``).

    Errors in piece ``j`` start ``{where}, piece {j}: `` and the others
    ``{where}: ``; with ``where`` empty they start ``section piece {j}: ``
    and nothing.
    """
    head = f"{where}: " if where else ""
    with _errors_start(head):
        _expect_kind(doc, "section", "section")
        a = _resolve_atlas(doc)
        piece_docs = _require(doc, "pieces", list)
        if len(piece_docs) != a.chart_count:
            raise ShapeMismatchError("one piece per chart required")
    pieces = []
    for j, (c, p) in enumerate(zip(a.charts, piece_docs)):
        with _errors_start(f"{where}, piece {j}: " if where else f"section piece {j}: "):
            pieces.append(SampledField(c.window, _numeric_array(p, "values")))
    with _errors_start(head):
        _check_stated(doc, "tolerance", OVERLAP_TOLERANCE, (int, float))
        _check_stated(doc, "interpolation", SECTION_INTERPOLATION, str)
        sec = Section(a, tuple(pieces))
        _check_stated(doc, "components", sec.components, int)
        return sec


def dump_group_section(gs: GroupSection, convention: str = "paper") -> dict:
    return {
        "kind": "group_section",
        "group": gs.group.name,
        **_atlas_header(gs.atlas, convention),
        "tolerance": OVERLAP_TOLERANCE,
        # Files keep one row of d * d entries per node.
        "pieces": [encode_array(p.reshape(-1, p.shape[-1]).T) for p in gs.pieces],
    }


def load_group_section(doc: dict) -> GroupSection:
    """Group section document.  An SU2 piece whose two copies of X or of Y
    differ at any node is refused, not repaired: ``GroupSection`` raises
    InputError naming its chart and first such node.  Files written before
    SU2 products were exact can hold such pieces."""
    _expect_kind(doc, "group_section", "group section")
    a = _resolve_atlas(doc)
    group = group_by_name(_require(doc, "group", str))
    d = group.dim
    pieces = []
    for j, p in enumerate(_require(doc, "pieces", list)):
        arr = _numeric_array(p, f"group_section piece {j}")
        if arr.ndim != 2 or arr.shape[1] != d * d:
            raise InputError(
                f"group_section piece {j} must hold rows of {d * d} entries, "
                f"got shape {arr.shape}"
            )
        with _errors_start(f"group_section piece {j}: "):
            check_node_values(arr)
        pieces.append(arr.T.reshape(d, d, -1))
    _check_stated(doc, "tolerance", OVERLAP_TOLERANCE, (int, float))
    return GroupSection(a, group, tuple(pieces))


def dump_curve(curve: TimeSampledCurve, convention: str = "paper") -> dict:
    return {
        "kind": "curve",
        "group": curve.group.name,
        **_atlas_header(curve.atlas, convention),
        "times": [float(t) for t in curve.times],
        "sections": [dump_section(s.section, convention) for s in curve.sections],
    }


def load_curve(doc: dict) -> TimeSampledCurve:
    """Curve document; its ``atlas``, ``lattice_resolution`` and
    ``atlas_hash`` keys are each absent or equal to what its sections load."""
    _expect_kind(doc, "curve", "curve")
    group = group_by_name(_require(doc, "group", str))
    sections = []
    for k, s in enumerate(_require(doc, "sections", list)):
        section = _load_section(s, f"curve section {k}")
        with _errors_start(f"curve section {k}: "):
            sections.append(AlgebraSection(group, section))
    times = _numeric_array(_require(doc, "times", (list, dict)), "curve key 'times'")
    curve = TimeSampledCurve(times, tuple(sections))
    _check_stated(doc, "atlas", curve.atlas.name, str)
    _check_stated(doc, "lattice_resolution", curve.atlas.lattice_resolution, int)
    _check_stated(doc, "atlas_hash", atlas_hash(curve.atlas), str)
    return curve


def write_weighted_csv(path, columns, rows, convention: str) -> None:
    """CSV of ``(key, value)`` rows, values as float reprs, under a convention tag."""
    lines = [f"# weight_exponent_convention={convention_tag(convention)}"]
    lines.append(",".join(columns))
    lines.extend(f"{k},{float(v)!r}" for k, v in rows)
    Path(path).write_text("\n".join(lines) + "\n")
