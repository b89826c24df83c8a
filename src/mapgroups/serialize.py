"""JSON and CSV interchange for fields, sections, curves, and spectra.

Every file carries a ``weight_exponent_convention`` tag naming which
Sobolev weight exponent the stored quantities assume ("paper-s/2" or
"standard-s").  JSON is written with sorted keys and fixed separators so
identical data produces identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .atlas import Atlas, builtin_atlas
from .errors import InputError
from .fields import BandlimitedField, GridDomain, SampledField
from .groups import AlgebraSection, GroupSection, group_by_name
from .limits import TimeSampledCurve
from .sections import Section
from .sobolev import CONVENTION_TAGS

TAG_TO_CONVENTION = {v: k for k, v in CONVENTION_TAGS.items()}


def convention_tag(convention: str) -> str:
    if convention not in CONVENTION_TAGS:
        raise InputError(f"unknown weight convention {convention!r}")
    return CONVENTION_TAGS[convention]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(canonical_json(obj))


def read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: not valid JSON ({exc})") from exc


def json_is(value, kind) -> bool:
    """Type test on a loaded JSON value; true/false are not numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _require(doc: dict, key: str, kind: type):
    """``doc[key]``, or InputError naming the key when absent or not a ``kind``."""
    if key not in doc:
        raise InputError(f"{doc['kind']} document has no key {key!r}")
    if not json_is(doc[key], kind):
        raise InputError(
            f"{doc['kind']} key {key!r} must be {kind.__name__}, "
            f"got {type(doc[key]).__name__}"
        )
    return doc[key]


def _complex_pairs(arr: np.ndarray) -> list:
    flat = arr.reshape(arr.shape[0], -1)
    return [[[float(z.real), float(z.imag)] for z in row] for row in flat]


def dump_bandlimited(field: BandlimitedField, convention: str = "paper") -> dict:
    return {
        "kind": "bandlimited",
        "m": field.m,
        "modes": field.modes,
        "components": field.components,
        "reality": bool(field.real),
        "coeffs": _complex_pairs(field.coeffs),
        "weight_exponent_convention": convention_tag(convention),
    }


def load_bandlimited(doc: dict) -> BandlimitedField:
    if doc.get("kind") != "bandlimited":
        raise InputError("not a band-limited field document")
    m, modes, n = int(doc["m"]), int(doc["modes"]), int(doc["components"])
    width = 2 * modes + 1
    pairs = np.asarray(doc["coeffs"], dtype=float)
    if pairs.shape != (n, width**m, 2):
        raise InputError(f"coefficient table has shape {pairs.shape}")
    coeffs = (pairs[..., 0] + 1j * pairs[..., 1]).reshape((n,) + (width,) * m)
    return BandlimitedField(m, modes, coeffs, real=bool(doc["reality"]))


def dump_grid(grid: GridDomain) -> dict:
    return {
        "m": grid.m,
        "grid": list(grid.resolution),
        "window": [[lo, hi] for lo, hi in grid.window],
        "mask": [bool(b) for b in grid.mask_lattice().ravel()],
    }


def load_grid(doc: dict) -> GridDomain:
    m = int(doc["m"])
    res = tuple(int(r) for r in doc["grid"])
    window = tuple((float(lo), float(hi)) for lo, hi in doc["window"])
    mask = np.asarray(doc["mask"], dtype=bool).reshape(res)
    axis_idx = []
    for d in range(m):
        other = tuple(i for i in range(m) if i != d)
        hit = mask.any(axis=other) if other else mask
        axis_idx.append(np.nonzero(hit)[0].astype(np.int64))
    grid = GridDomain(m, res, window, tuple(axis_idx))
    if not np.array_equal(grid.mask_lattice(), mask):
        raise InputError("mask is not an axis-aligned box of lattice nodes")
    return grid


def dump_sampled(v: SampledField, convention: str = "paper") -> dict:
    doc = dump_grid(v.domain)
    doc.update(
        {
            "kind": "sampled",
            "components": v.components,
            "values": [[float(x) for x in row] for row in v.values],
            "parent_modes": v.parent_modes,
            "weight_exponent_convention": convention_tag(convention),
        }
    )
    return doc


def load_sampled(doc: dict) -> SampledField:
    if doc.get("kind") != "sampled":
        raise InputError("not a sampled field document")
    grid = load_grid(doc)
    values = np.asarray(doc["values"], dtype=float)
    parent = doc.get("parent_modes")
    return SampledField(grid, values, None if parent is None else int(parent))


def dump_field(field, convention: str = "paper") -> dict:
    if isinstance(field, BandlimitedField):
        return dump_bandlimited(field, convention)
    if isinstance(field, SampledField):
        return dump_sampled(field, convention)
    raise InputError(f"cannot serialize {type(field).__name__}")


def load_field(doc: dict):
    kind = doc.get("kind")
    if kind == "bandlimited":
        return load_bandlimited(doc)
    if kind == "sampled":
        return load_sampled(doc)
    raise InputError(f"unknown field kind {kind!r}")


def atlas_descriptor(a: Atlas) -> dict:
    return {
        "name": a.name,
        "m": a.m,
        "lattice_resolution": a.lattice_resolution,
        "transition_kind": "translation",
        "bump": {"plateau": a.plateau},
        "charts": [
            {
                "index": c.index,
                "offset": [float(x) for x in c.offset],
                "half_width": c.half_width,
                "window_half": c.window_half,
                "codomain": [[lo, hi] for lo, hi in c.codomain()],
                "window": [[lo, hi] for lo, hi in c.window.window],
            }
            for c in a.charts
        ],
    }


def atlas_hash(a: Atlas) -> str:
    digest = hashlib.sha256(canonical_json(atlas_descriptor(a)).encode())
    return digest.hexdigest()[:12]


def _resolve_atlas(doc: dict) -> Atlas:
    resolution = _require(doc, "lattice_resolution", int)
    a = builtin_atlas(_require(doc, "atlas", str), resolution=resolution)
    if doc.get("atlas_hash") not in (None, atlas_hash(a)):
        raise InputError(
            f"atlas hash mismatch: file has {doc['atlas_hash']}, "
            f"built {atlas_hash(a)}"
        )
    return a


def dump_section(sec: Section, convention: str = "paper") -> dict:
    return {
        "kind": "section",
        "atlas": sec.atlas.name,
        "atlas_hash": atlas_hash(sec.atlas),
        "lattice_resolution": sec.atlas.lattice_resolution,
        "components": sec.components,
        "tolerance": sec.tolerance,
        "interpolation": sec.interpolation,
        "pieces": [dump_sampled(p, convention) for p in sec.pieces],
        "weight_exponent_convention": convention_tag(convention),
    }


def load_section(doc: dict) -> Section:
    if not isinstance(doc, dict) or doc.get("kind") != "section":
        raise InputError("not a section document")
    a = _resolve_atlas(doc)
    pieces = tuple(load_sampled(p) for p in _require(doc, "pieces", list))
    return Section(a, pieces, float(doc.get("tolerance", 1e-9)))


def dump_group_section(gs: GroupSection, convention: str = "paper") -> dict:
    return {
        "kind": "group_section",
        "group": gs.group.name,
        "atlas": gs.atlas.name,
        "atlas_hash": atlas_hash(gs.atlas),
        "lattice_resolution": gs.atlas.lattice_resolution,
        "tolerance": gs.tolerance,
        "pieces": [
            [[float(x) for x in mat.ravel()] for mat in p] for p in gs.pieces
        ],
        "weight_exponent_convention": convention_tag(convention),
    }


def load_group_section(doc: dict) -> GroupSection:
    if doc.get("kind") != "group_section":
        raise InputError("not a group section document")
    a = _resolve_atlas(doc)
    group = group_by_name(doc["group"])
    d = group.dim
    pieces = tuple(
        np.asarray(p, dtype=float).reshape(len(p), d, d) for p in doc["pieces"]
    )
    return GroupSection(a, group, pieces, float(doc.get("tolerance", 1e-9)))


def dump_curve(curve: TimeSampledCurve, convention: str = "paper") -> dict:
    return {
        "kind": "curve",
        "group": curve.group.name,
        "atlas": curve.atlas.name,
        "atlas_hash": atlas_hash(curve.atlas),
        "lattice_resolution": curve.atlas.lattice_resolution,
        "times": [float(t) for t in curve.times],
        "sections": [dump_section(s.section, convention) for s in curve.sections],
        "weight_exponent_convention": convention_tag(convention),
    }


def load_curve(doc: dict) -> TimeSampledCurve:
    if not isinstance(doc, dict) or doc.get("kind") != "curve":
        raise InputError("not a curve document")
    group = group_by_name(_require(doc, "group", str))
    sections = tuple(
        AlgebraSection(group, load_section(s)) for s in _require(doc, "sections", list)
    )
    times = _require(doc, "times", list)
    return TimeSampledCurve(np.asarray(times, dtype=float), sections)


def write_spectrum_csv(path, sigmas: np.ndarray, convention: str = "paper") -> None:
    lines = [f"# weight_exponent_convention={convention_tag(convention)}"]
    lines.append("k_index,sigma")
    lines.extend(f"{i},{float(s)!r}" for i, s in enumerate(np.asarray(sigmas)))
    Path(path).write_text("\n".join(lines) + "\n")


def read_spectrum_csv(path) -> np.ndarray:
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#") or line.startswith("k_index"):
            continue
        _, sigma = line.split(",")
        rows.append(float(sigma))
    return np.asarray(rows)
