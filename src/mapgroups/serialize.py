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
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _expect_kind(doc, kind: str, what: str) -> None:
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise InputError(f"not a {what} document")


def _require(doc: dict, key: str, kind):
    """``doc[key]``, or InputError naming the key when absent or not a ``kind``."""
    what = doc.get("kind", "grid")  # grid documents are the only ones without a kind
    if key not in doc:
        raise InputError(f"{what} document has no key {key!r}")
    if not json_is(doc[key], kind):
        name = kind.__name__ if isinstance(kind, type) else "number"
        raise InputError(
            f"{what} key {key!r} must be {name}, got {type(doc[key]).__name__}"
        )
    return doc[key]


def _tolerance(doc: dict) -> float:
    if "tolerance" not in doc:
        return 1e-9
    return float(_require(doc, "tolerance", (int, float)))


def _numeric_array(raw, what: str, kinds: str = "iuf") -> np.ndarray:
    """``raw`` as a rectangular array whose dtype kind is one of ``kinds``."""
    try:
        arr = np.asarray(raw)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in kinds:
        entries = "booleans" if kinds == "b" else "numbers"
        raise InputError(f"{what} must be a rectangular array of {entries}")
    return arr


def _require_array(doc: dict, key: str, kinds: str = "iuf") -> np.ndarray:
    what = f"{doc.get('kind', 'grid')} key {key!r}"
    return _numeric_array(_require(doc, key, list), what, kinds)


def _complex_pairs(arr: np.ndarray) -> list:
    flat = np.asarray(arr, dtype=complex).reshape(arr.shape[0], -1)
    return np.stack([flat.real, flat.imag], axis=-1).tolist()


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
    _expect_kind(doc, "bandlimited", "band-limited field")
    m = _require(doc, "m", int)
    if m not in (1, 2):
        raise InputError(f"dimension m must be 1 or 2, got {m}")
    modes, n = _require(doc, "modes", int), _require(doc, "components", int)
    width = 2 * modes + 1
    pairs = _require_array(doc, "coeffs").astype(float, copy=False)
    if pairs.shape != (n, width**m, 2):
        raise InputError(f"coefficient table has shape {pairs.shape}")
    coeffs = (pairs[..., 0] + 1j * pairs[..., 1]).reshape((n,) + (width,) * m)
    return BandlimitedField(m, modes, coeffs, real=_require(doc, "reality", bool))


def dump_grid(grid: GridDomain) -> dict:
    return {
        "m": grid.m,
        "grid": list(grid.resolution),
        "window": [[lo, hi] for lo, hi in grid.window],
        "mask": [bool(b) for b in grid.mask_lattice().ravel()],
    }


def load_grid(doc: dict) -> GridDomain:
    m = _require(doc, "m", int)
    res = _require_array(doc, "grid", "iu")
    window = _require_array(doc, "window").astype(float, copy=False)
    mask = _require_array(doc, "mask", "b")
    if res.shape != (m,) or window.shape != (m, 2):
        raise InputError(f"grid {res.tolist()} and window do not match dimension {m}")
    res = tuple(int(r) for r in res)
    if any(r < 1 for r in res) or mask.shape != (int(np.prod(res)),):
        raise InputError(f"mask of shape {mask.shape} does not fit grid {list(res)}")
    mask = mask.reshape(res)
    window = tuple((float(lo), float(hi)) for lo, hi in window)
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
            "values": np.asarray(v.values, dtype=float).tolist(),
            "parent_modes": v.parent_modes,
            "weight_exponent_convention": convention_tag(convention),
        }
    )
    return doc


def load_sampled(doc: dict) -> SampledField:
    _expect_kind(doc, "sampled", "sampled field")
    grid = load_grid(doc)
    values = _require_array(doc, "values").astype(float, copy=False)
    parent = doc.get("parent_modes")
    if parent is not None:
        parent = _require(doc, "parent_modes", int)
    return SampledField(grid, values, parent)


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


def _resolve_atlas(doc: dict, built: dict) -> Atlas:
    """The builtin atlas a document names, checked against its hash.

    ``built`` maps (name, lattice resolution) to atlases already built by
    the caller, so documents loaded together share one instance and its
    cached operators.
    """
    resolution = _require(doc, "lattice_resolution", int)
    key = (_require(doc, "atlas", str), resolution)
    if key not in built:
        built[key] = builtin_atlas(key[0], resolution=resolution)
    a = built[key]
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
    return _load_section(doc, {})


def _load_section(doc: dict, atlases: dict) -> Section:
    _expect_kind(doc, "section", "section")
    a = _resolve_atlas(doc, atlases)
    pieces = tuple(load_sampled(p) for p in _require(doc, "pieces", list))
    return Section(a, pieces, _tolerance(doc))


def dump_group_section(gs: GroupSection, convention: str = "paper") -> dict:
    return {
        "kind": "group_section",
        "group": gs.group.name,
        "atlas": gs.atlas.name,
        "atlas_hash": atlas_hash(gs.atlas),
        "lattice_resolution": gs.atlas.lattice_resolution,
        "tolerance": gs.tolerance,
        "pieces": [
            np.asarray(p, dtype=float).reshape(len(p), -1).tolist() for p in gs.pieces
        ],
        "weight_exponent_convention": convention_tag(convention),
    }


def load_group_section(doc: dict) -> GroupSection:
    _expect_kind(doc, "group_section", "group section")
    a = _resolve_atlas(doc, {})
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
        pieces.append(arr.astype(float, copy=False).reshape(-1, d, d))
    return GroupSection(a, group, tuple(pieces), _tolerance(doc))


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
    _expect_kind(doc, "curve", "curve")
    group = group_by_name(_require(doc, "group", str))
    atlases = {}  # one atlas per (name, resolution) for all the curve's sections
    sections = tuple(
        AlgebraSection(group, _load_section(s, atlases))
        for s in _require(doc, "sections", list)
    )
    times = _require_array(doc, "times").astype(float, copy=False)
    return TimeSampledCurve(times, sections)


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
