"""Round trips through the JSON and CSV on-disk formats."""

import base64
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapgroups import serialize
from mapgroups.atlas import atlas_descriptor, builtin_atlas, circle_two_charts, torus_four_charts
from mapgroups.errors import InputError
from mapgroups.fields import GridDomain, SampledField, random_field, same_grid, sample
from mapgroups.groups import exp_section, group_by_name, random_algebra_section, so3
from mapgroups.limits import TimeSampledCurve
from mapgroups.sections import random_section
from mapgroups.serialize import (
    atlas_hash,
    canonical_json,
    decode_array,
    dump_curve,
    dump_grid,
    dump_group_section,
    dump_sampled,
    dump_section,
    encode_array,
    load_curve,
    load_grid,
    load_group_section,
    load_sampled,
    load_section,
    write_weighted_csv,
)
from mapgroups.sobolev import rellich_spectrum


def test_canonical_json_is_key_sorted_with_newline():
    s = canonical_json({"b": 1, "a": [2, 3]})
    assert s == '{"a":[2,3],"b":1}\n'


# Strings that look like the splice placeholder, its JSON form, an encoded
# array's key, or need escapes: control, quote, backslash, non-ASCII.
ODD_TEXT = st.sampled_from([
    "", "b64", "\x00", "\x00b64\x00", '"\x00b64\x00', "\x00b64\x00\"", "\\u0000b64\\u0000",
    '"\\u0000b64\\u0000"', 'a"b', "back\\slash", "\n\t\x1f\x7f", "é", " ", "😀",
])
TEXT = st.one_of(ODD_TEXT, st.text(max_size=8))
ARRAYS = st.builds(
    lambda shape, seed, dtype: encode_array(np.random.default_rng(seed).random(shape) < 0.5
                                            if dtype == "|b1" else
                                            np.random.default_rng(seed).standard_normal(shape),
                                            dtype),
    st.lists(st.integers(0, 4), max_size=2), st.integers(0, 2**32 - 1),
    st.sampled_from(["<f8", "|b1"]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.floats(allow_nan=True), TEXT
)
DOCUMENTS = st.recursive(
    st.one_of(SCALARS, ARRAYS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(TEXT, inner, max_size=4),
        # An object that has an encoded array's keys, but values of its own.
        st.fixed_dictionaries({"b64": TEXT, "dtype": inner, "shape": inner}),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(doc=DOCUMENTS)
def test_canonical_json_is_the_sorted_compact_dump_bitwise_property(doc):
    want = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert canonical_json(doc) == want


def test_canonical_json_splices_each_array_in_document_order():
    arrays = [encode_array(np.arange(k, dtype=float)) for k in range(1, 5)]
    doc = {"z": arrays[0], "a": [arrays[1], {"b64": "\x00b64\x00"}], "m": {"k": arrays[2:]}}
    want = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert canonical_json(doc) == want
    assert canonical_json({"x": arrays[3]}) == (
        '{"x":{"b64":"' + arrays[3]["b64"] + '","dtype":"<f8","shape":[4]}}\n'
    )


def test_sampled_round_trip_keeps_parent_modes():
    rng = np.random.default_rng(5)
    f = random_field(1, 6, 2, rng)
    v = sample(f, GridDomain.box(((0.5, 3.0),), 65))
    doc = dump_sampled(v, convention="standard")
    assert doc["weight_exponent_convention"] == "standard-s"
    back = load_sampled(doc)
    assert np.array_equal(back.values, v.values)
    assert back.parent_modes == 6
    assert back.domain.window == v.domain.window


def test_atlas_hashes_are_stable():
    assert atlas_hash(circle_two_charts()) == "6eb0321ad086"
    assert atlas_hash(torus_four_charts()) == "98595f68aa76"
    # different parameters give a different fingerprint
    assert atlas_hash(circle_two_charts(resolution=129)) != "6eb0321ad086"


def test_an_atlas_is_hashed_once(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a)
        return atlas_descriptor(a)

    monkeypatch.setattr(serialize, "atlas_descriptor", counted)
    a, b = circle_two_charts(resolution=65), circle_two_charts(resolution=65)
    assert atlas_hash(a) == atlas_hash(a) == atlas_hash(b)
    assert calls == [a, b]


def test_section_round_trip():
    rng = np.random.default_rng(9)
    a = circle_two_charts()
    sec = random_section(a, 2, rng)
    doc = dump_section(sec)
    assert doc["atlas"] == "circle2"
    assert doc["atlas_hash"] == atlas_hash(a)
    assert doc["interpolation"] == "local-poly-10"
    assert doc["tolerance"] == 1e-9  # the one overlap tolerance, still written
    back = load_section(doc)
    for p, q in zip(back.pieces, sec.pieces):
        assert np.array_equal(p.values, q.values)


def test_section_load_rejects_stale_hash():
    rng = np.random.default_rng(11)
    doc = dump_section(random_section(circle_two_charts(), 1, rng))
    doc["atlas_hash"] = "000000000000"
    with pytest.raises(InputError):
        load_section(doc)


def test_group_section_round_trip():
    rng = np.random.default_rng(13)
    a = circle_two_charts()
    gs = exp_section(random_algebra_section(a, so3(), rng))
    back = load_group_section(dump_group_section(gs))
    assert back.group.name == "SO3"
    for p, q in zip(back.pieces, gs.pieces):
        assert np.array_equal(p, q)


def test_curve_round_trip():
    rng = np.random.default_rng(17)
    a = circle_two_charts()
    xi = random_algebra_section(a, so3(), rng)
    times = np.linspace(0.0, 1.0, 3)
    curve = TimeSampledCurve(times, tuple(xi.scaled(float(t)) for t in times))
    back = load_curve(dump_curve(curve))
    assert np.array_equal(back.times, curve.times)
    assert back.group.name == "SO3"
    for s, t in zip(back.sections, curve.sections):
        assert (s - t).section.sup_norm() == 0.0


def test_curve_sections_share_one_atlas():
    rng = np.random.default_rng(23)
    xi = random_algebra_section(circle_two_charts(), so3(), rng)
    times = np.linspace(0.0, 1.0, 4)
    doc = dump_curve(TimeSampledCurve(times, tuple(xi.scaled(float(t)) for t in times)))
    back = load_curve(doc)
    assert all(s.atlas is back.atlas for s in back.sections)
    doc["sections"][1]["atlas_hash"] = "000000000000"
    with pytest.raises(InputError, match="000000000000"):
        load_curve(doc)


@pytest.mark.parametrize(
    "header, fault",
    [
        ({"atlas": "torus4", "atlas_hash": "000000000000", "lattice_resolution": 7},
         "'atlas' must be 'circle2', got 'torus4'"),
        ({"lattice_resolution": 7}, "'lattice_resolution' must be 257, got 7"),
        ({"lattice_resolution": 257.0}, "'lattice_resolution' must be int, got float"),
        ({"atlas_hash": "000000000000"},
         "'atlas_hash' must be '6eb0321ad086', got '000000000000'"),
    ],
    ids=["all-three", "lattice", "lattice-float", "hash"],
)
def test_curve_header_states_its_atlas_only_as_its_sections_load(header, fault):
    xi = random_algebra_section(circle_two_charts(), so3(), np.random.default_rng(29))
    doc = dump_curve(TimeSampledCurve(np.array([0.0, 1.0]), (xi, xi)))
    with pytest.raises(InputError, match=f"^curve key {re.escape(fault)}$"):
        load_curve({**doc, **header})
    for key in ("atlas", "atlas_hash", "lattice_resolution"):
        del doc[key]
    assert load_curve(doc).atlas is builtin_atlas("circle2")


@pytest.mark.parametrize(
    "tol", [float("nan"), float("inf"), 0.0, -1.0, 1e-6],
    ids=["NaN", "Infinity", "0", "-1", "looser"],
)
def test_files_with_a_bad_tolerance_are_rejected(tol):
    """A file may state the overlap tolerance only as the fixed 1e-9."""
    xi = random_algebra_section(circle_two_charts(), so3(), np.random.default_rng(29))
    curve = dump_curve(TimeSampledCurve(np.array([0.0, 1.0]), (xi, xi)))
    curve["sections"][1]["tolerance"] = tol
    cases = [
        (load_section, {**dump_section(xi.section), "tolerance": tol}, "section"),
        (
            load_group_section,
            {**dump_group_section(exp_section(xi)), "tolerance": tol},
            "group_section",
        ),
        (load_curve, curve, "curve section 1: section"),
    ]
    for load, doc, where in cases:
        # Through JSON text: Python's json writes and reads NaN and Infinity.
        with pytest.raises(InputError, match=f"^{where} key 'tolerance' must be 1e-09, got"):
            load(json.loads(canonical_json(doc)))


@pytest.mark.parametrize(
    "edit, in_piece, fault",
    [
        (lambda doc: doc.update(components=7), False,
         "section key 'components' must be {c}, got 7"),
        (lambda doc: doc["pieces"][1].update(components=5), True,
         "sampled key 'components' must be {c}, got 5"),
        (lambda doc: doc.update(interpolation="spline"), False,
         "section key 'interpolation' must be 'local-poly-10', got 'spline'"),
        (lambda doc: doc.update(components="2"), False,
         "section key 'components' must be int, got str"),
    ],
    ids=["section-components", "piece-components", "interpolation", "mistyped"],
)
def test_section_files_state_their_facts_only_as_loaded(edit, in_piece, fault):
    section = dump_section(random_section(circle_two_charts(), 2, np.random.default_rng(31)))
    xi = random_algebra_section(circle_two_charts(), so3(), np.random.default_rng(29))
    curve = dump_curve(TimeSampledCurve(np.array([0.0, 1.0]), (xi, xi)))
    # (loader, document, section document to edit, its components, error prefix)
    cases = (
        (load_section, section, section, 2, "section piece 1: " if in_piece else ""),
        (load_curve, curve, curve["sections"][1], 3,
         "curve section 1, piece 1: " if in_piece else "curve section 1: "),
    )
    for load, doc, target, components, prefix in cases:
        edit(target)
        with pytest.raises(InputError, match=f"^{prefix}{fault.format(c=components)}$"):
            load(doc)


def test_section_files_may_omit_the_facts_they_state():
    sec = random_section(circle_two_charts(), 2, np.random.default_rng(31))
    doc = dump_section(sec)
    for key in ("components", "interpolation", "tolerance"):
        del doc[key]
    for piece in doc["pieces"]:
        del piece["components"]
    loaded = load_section(doc)
    assert all(np.array_equal(p.values, q.values) for p, q in zip(loaded.pieces, sec.pieces))


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("atlas_hash", "000000000000", "atlas hash mismatch: file has 000000000000"),
        ("kind", "sampled", "not a section document"),
        ("pieces", None, "section document has no key 'pieces'"),
    ],
    ids=["stale-hash", "wrong-kind", "missing-key"],
)
def test_curve_loader_names_the_section_of_a_section_level_error(key, value, message):
    xi = random_algebra_section(circle_two_charts(), so3(), np.random.default_rng(29))
    doc = dump_curve(TimeSampledCurve(np.array([0.0, 0.5, 1.0]), (xi, xi, xi)))
    if value is None:
        del doc["sections"][2][key]
    else:
        doc["sections"][2][key] = value
    with pytest.raises(InputError, match=f"^curve section 2: {message}"):
        load_curve(doc)


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


GROUP_NAMES = st.sampled_from(["SO3", "SU2", "UT2"])
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@settings(max_examples=15)
@given(name=GROUP_NAMES, seed=SEEDS, fraction=st.floats(min_value=0.0, max_value=1.0))
def test_group_section_round_trip_is_bitwise(name, seed, fraction):
    group = group_by_name(name)
    xi = random_algebra_section(
        circle_two_charts(), group, np.random.default_rng(seed),
        amplitude=fraction * group.v_radius,
    )
    gs = exp_section(xi)
    back = load_group_section(dump_group_section(gs))
    assert back.group.name == name
    assert all(same_bytes(p, q) for p, q in zip(back.pieces, gs.pieces))


@settings(max_examples=15)
@given(name=GROUP_NAMES, seed=SEEDS, samples=st.integers(min_value=2, max_value=5))
def test_curve_round_trip_is_bitwise(name, seed, samples):
    group = group_by_name(name)
    atlas = circle_two_charts()
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, samples)
    curve = TimeSampledCurve(
        times, tuple(random_algebra_section(atlas, group, rng) for _ in times)
    )
    back = load_curve(dump_curve(curve))
    assert back.group.name == name and same_bytes(back.times, curve.times)
    for s, t in zip(back.sections, curve.sections):
        assert all(
            same_bytes(p.values, q.values) and p.parent_modes == q.parent_modes
            for p, q in zip(s.section.pieces, t.section.pieces)
        )


def through_json(doc):
    return json.loads(canonical_json(doc))


def test_loaded_documents_share_the_builtin_atlas():
    torus = builtin_atlas("torus4")
    doc = through_json(dump_section(random_section(torus, 1, np.random.default_rng(5))))
    assert load_section(doc).atlas is torus and load_section(doc).atlas is torus
    gs = exp_section(random_algebra_section(torus, so3(), np.random.default_rng(7)))
    assert load_group_section(through_json(dump_group_section(gs))).atlas is torus


def test_array_dumps_write_the_bytes_of_per_entry_floats():
    tricky = [1e300, -1e-300, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
              2.0**53, 2.0**53 + 2.0, 1e16, -1e16, 0.1, 1.0 / 3.0]
    grid = GridDomain.box(((0.5, 3.0),), 65)
    values = np.resize(np.array(tricky), (grid.node_count, 2))
    v = SampledField(grid, values)
    gs = exp_section(random_algebra_section(circle_two_charts(), so3(),
                                            np.random.default_rng(19)))
    encoded = [
        (dump_sampled(v)["values"], values),
        *zip(dump_group_section(gs)["pieces"], (p.reshape(9, -1).T for p in gs.pieces)),
    ]
    for doc, arr in encoded:
        assert doc["dtype"] == "<f8" and doc["shape"] == list(arr.shape)
        assert base64.b64decode(doc["b64"]) == arr.astype("<f8").tobytes()
    # List documents of the same floats load to the same bytes.
    listed = dict(dump_sampled(v), values=[[float(x) for x in row] for row in values])
    assert same_bytes(load_sampled(through_json(listed)).values, values)
    listed = dict(dump_group_section(gs), pieces=[
        [[float(x) for x in row] for row in p.reshape(9, -1).T] for p in gs.pieces
    ])
    back = load_group_section(through_json(listed))
    assert all(same_bytes(p, q) for p, q in zip(back.pieces, gs.pieces))


def _sampled_doc():
    f = random_field(1, 6, 1, np.random.default_rng(31))
    return dump_sampled(sample(f, GridDomain.box(((0.5, 3.0),), 65)))


def test_load_grid_names_the_missing_or_malformed_key():
    grid = GridDomain.box(((0.5, 3.0),), 65)
    mask = grid.mask_lattice().ravel()
    doc = dump_grid(grid)
    assert doc["mask"]["dtype"] == "|b1" and doc["mask"]["shape"] == [mask.size]
    assert base64.b64decode(doc["mask"]["b64"]) == mask.tobytes()
    listed = dict(doc, mask=[bool(b) for b in mask])
    for d in (doc, listed):
        assert np.array_equal(load_grid(through_json(d)).mask_lattice(), grid.mask_lattice())
    with pytest.raises(InputError, match="'mask'"):
        load_grid({k: v for k, v in doc.items() if k != "mask"})
    for short in (encode_array(mask[:-1], "|b1"), listed["mask"][:-1]):
        with pytest.raises(InputError, match="does not fit grid"):
            load_grid(dict(doc, mask=short))
    for floats in (encode_array(mask), [float(b) for b in mask]):
        with pytest.raises(InputError, match="'mask' must be a rectangular array of booleans"):
            load_grid(dict(doc, mask=floats))
    with pytest.raises(InputError, match="'window'"):
        load_grid(dict(doc, window=[[0.5, "x"]]))
    with pytest.raises(InputError, match="do not match dimension"):
        load_grid(dict(doc, grid=[[65]]))


def test_equal_grid_documents_share_one_read_only_grid():
    doc = dump_grid(GridDomain.box(((0.5, 3.0), (1.0, 2.0)), 33))
    first = load_grid(through_json(doc))
    assert load_grid(through_json(doc)) is first
    for idx in first.axis_indices:
        assert not idx.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            idx[0] = 0


def test_the_grid_memo_never_exceeds_its_bound():
    for k in range(serialize.GRID_MEMO_SIZE + 5):
        load_grid(dump_grid(GridDomain.box(((0.1 + 0.05 * k, 3.0),), 65)))
        assert len(serialize._GRID_MEMO) <= serialize.GRID_MEMO_SIZE
    assert len(serialize._GRID_MEMO) == serialize.GRID_MEMO_SIZE


def _respelled(text):
    """Another base64 spelling of the same bytes: the character before the
    padding with its lowest bit flipped, a bit that decoding drops."""
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    body = text.rstrip("=")
    assert len(body) < len(text), "the bytes need padding to leave bits unused"
    last = alphabet[alphabet.index(body[-1]) ^ 1]
    return body[:-1] + last + text[len(body):]


def test_grid_documents_that_differ_in_type_or_spelling_load_as_they_always_did():
    grid = GridDomain.box(((0.5, 3.0),), 65)
    doc = through_json(dump_grid(grid))
    assert same_grid(load_grid(doc), grid)
    # A bool is no integer, even after the same document with "m": 1 loaded.
    for _ in range(2):
        with pytest.raises(InputError, match=r"^grid key 'm' must be int, got bool$"):
            load_grid(dict(doc, m=True))
    # Integer and signed-zero windows load as the floats they are.
    floats = load_grid(dict(doc, window=[[0.0, 3.0]]))
    ints = load_grid(dict(doc, window=[[0, 3]]))
    assert same_grid(ints, floats) and all(type(x) is float for x in ints.window[0])
    negative_zero = load_grid(dict(doc, window=[[-0.0, 3.0]])).window[0][0]
    assert math.copysign(1.0, negative_zero) == -1.0
    # Base64 text spelled another way holds the same mask.
    text = _respelled(doc["mask"]["b64"])
    assert text != doc["mask"]["b64"]
    assert base64.b64decode(text, validate=True) == base64.b64decode(doc["mask"]["b64"])
    assert same_grid(load_grid(dict(doc, mask=dict(doc["mask"], b64=text))), grid)


def test_a_grid_mask_corrupted_after_a_good_load_fails_as_it_always_did():
    doc = through_json(dump_grid(GridDomain.box(((0.5, 3.0),), 65)))
    load_grid(doc)
    good = doc["mask"]["b64"]
    doc["mask"]["b64"] = "*" + good[1:]
    with pytest.raises(InputError, match=r"^grid key 'mask' b64 is not valid base64$"):
        load_grid(doc)
    mask = np.frombuffer(base64.b64decode(good), dtype=bool).copy()
    mask[0] = True  # the node at 0, outside the window
    doc["mask"]["b64"] = base64.b64encode(mask.tobytes()).decode()
    with pytest.raises(InputError, match="^axis 0 node outside the open window$"):
        load_grid(doc)


def test_a_curve_mask_corrupted_after_a_good_load_names_the_section_and_piece():
    xi = random_algebra_section(circle_two_charts(), so3(), np.random.default_rng(43))
    doc = through_json(dump_curve(TimeSampledCurve(np.array([0.0, 1.0]), (xi, xi))))
    load_curve(doc)
    mask = doc["sections"][1]["pieces"][0]["mask"]
    mask["b64"] = mask["b64"][:10] + "!" + mask["b64"][11:]
    with pytest.raises(
        InputError, match="^curve section 1, piece 0: sampled key 'mask' b64 is not valid base64$"
    ):
        load_curve(doc)


def test_load_sampled_names_the_missing_or_malformed_key():
    with pytest.raises(InputError, match="'m'"):
        load_sampled({"kind": "sampled"})
    with pytest.raises(InputError, match="'values'"):
        load_sampled(dict(_sampled_doc(), values=[[1.0], [2.0, 3.0]]))
    with pytest.raises(InputError, match="'parent_modes'"):
        load_sampled(dict(_sampled_doc(), parent_modes="6"))
    with pytest.raises(InputError, match="not a sampled field document"):
        load_sampled(["sampled"])


def test_load_group_section_names_the_missing_or_malformed_key():
    gs = exp_section(random_algebra_section(circle_two_charts(), so3(),
                                            np.random.default_rng(41)))
    doc = dump_group_section(gs)
    with pytest.raises(InputError, match="'group'"):
        load_group_section({k: v for k, v in doc.items() if k != "group"})
    with pytest.raises(InputError, match="piece 0 must hold rows of 9 entries"):
        load_group_section(dict(doc, pieces=[[[1.0, 0.0]]] + doc["pieces"][1:]))
    with pytest.raises(InputError, match="'tolerance'"):
        load_group_section(dict(doc, tolerance="tight"))


def test_section_and_curve_loaders_name_the_bad_piece():
    xi = random_algebra_section(circle_two_charts(), so3(), np.random.default_rng(43))
    curve = dump_curve(TimeSampledCurve(np.array([0.0, 1.0]), (xi, xi)))
    section = dump_section(xi.section)
    b64 = section["pieces"][1]["values"]
    corrupt = dict(b64, b64=b64["b64"][:10] + "!" + b64["b64"][11:])
    ragged = [[1.0], [2.0, 3.0]]
    for values, fault in (
        (corrupt, "b64 is not valid base64"),
        (ragged, "must be a rectangular array of numbers"),
    ):
        doc = json.loads(canonical_json(section))
        doc["pieces"][1]["values"] = values
        with pytest.raises(InputError, match=f"^section piece 1: sampled key 'values' {fault}"):
            load_section(doc)
        doc = json.loads(canonical_json(curve))
        doc["sections"][1]["pieces"][0]["values"] = values
        with pytest.raises(
            InputError, match=f"^curve section 1, piece 0: sampled key 'values' {fault}"
        ):
            load_curve(doc)


def test_spectrum_csv_round_trip(tmp_path):
    sig = rellich_spectrum(2.0, 1.0, 16)
    path = tmp_path / "spec.csv"
    write_weighted_csv(path, ("k_index", "sigma"), enumerate(sig), convention="paper")
    text = path.read_text()
    assert text.startswith("# weight_exponent_convention=paper-s/2\n")
    assert text.splitlines()[1] == "k_index,sigma"
    back = [float(line.split(",")[1]) for line in text.splitlines()[2:]]
    assert np.array_equal(back, sig)


# --- encoded arrays --------------------------------------------------------

def as_lists(obj):
    """``obj`` with every encoded array written as nested JSON lists."""
    if isinstance(obj, dict):
        if sorted(obj) == ["b64", "dtype", "shape"]:
            return decode_array(obj, "array").tolist()
        return {k: as_lists(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [as_lists(v) for v in obj]
    return obj


def loaded_array_ok(arr):
    return arr.flags.writeable and arr.flags.c_contiguous


@pytest.mark.parametrize("encoding", ["b64", "lists"])
@pytest.mark.parametrize("atlas_name", ["circle2", "torus4"])
@settings(max_examples=3)
@given(name=GROUP_NAMES, seed=SEEDS)
def test_documents_round_trip_bitwise_in_both_encodings(atlas_name, encoding, name, seed):
    atlas, group = builtin_atlas(atlas_name), group_by_name(name)
    rng = np.random.default_rng(seed)

    def again(doc):
        doc = through_json(doc)
        return as_lists(doc) if encoding == "lists" else doc

    f = random_field(atlas.m, 3, 2, rng)
    grid = atlas.charts[-1].window
    back = load_grid(again(dump_grid(grid)))
    assert back.window == grid.window and back.resolution == grid.resolution
    assert all(same_bytes(a, b) for a, b in zip(back.axis_indices, grid.axis_indices))

    v = sample(f, grid)
    back = load_sampled(again(dump_sampled(v)))
    assert same_bytes(back.values, v.values) and loaded_array_ok(back.values)
    assert back.parent_modes == v.parent_modes

    sec = random_section(atlas, 2, rng)
    back = load_section(again(dump_section(sec)))
    assert all(same_bytes(p.values, q.values) for p, q in zip(back.pieces, sec.pieces))

    xi, eta = (random_algebra_section(atlas, group, rng) for _ in range(2))
    gs = exp_section(xi)
    back = load_group_section(again(dump_group_section(gs)))
    assert all(same_bytes(p, q) and loaded_array_ok(p) for p, q in zip(back.pieces, gs.pieces))

    curve = TimeSampledCurve(np.array([0.0, 1.0]), (xi, eta))
    back = load_curve(again(dump_curve(curve)))
    for s, t in zip(back.sections, curve.sections):
        assert all(same_bytes(p.values, q.values)
                   for p, q in zip(s.section.pieces, t.section.pieces))


def _values():
    return encode_array(np.arange(6.0).reshape(3, 2))


BAD_ENCODINGS = {
    "unknown-dtype": (dict(_values(), dtype="<f4"), "dtype '<f4'"),
    "big-endian-dtype": (dict(_values(), dtype=">f8"), "dtype '>f8'"),
    "missing-key": ({k: v for k, v in _values().items() if k != "shape"}, "exactly the keys"),
    "extra-key": (dict(_values(), order="C"), "exactly the keys"),
    "shape-not-a-list": (dict(_values(), shape=6), "shape must be a list"),
    "negative-size": (dict(_values(), shape=[-3, -2]), "shape must be a list"),
    "float-size": (dict(_values(), shape=[3.0, 2]), "shape must be a list"),
    "boolean-size": (dict(_values(), shape=[3, True]), "shape must be a list"),
    # Only validate=True rejects these: a lax decoder drops the stray byte.
    "invalid-base64": (dict(_values(), b64="*" + _values()["b64"]), "not valid base64"),
    "embedded-newline": (dict(_values(), b64="\n" + _values()["b64"]), "not valid base64"),
    "bad-padding": (dict(_values(), b64=_values()["b64"][:-1]), "not valid base64"),
    "b64-not-a-string": (dict(_values(), b64=[0, 1]), "b64 must be str"),
    "byte-count": (dict(_values(), shape=[3, 3]), "48 bytes, shape [3, 3] needs 72"),
    "too-many-dimensions": (dict(_values(), shape=[0] * 70, b64=""), "not usable"),
}


@pytest.mark.parametrize("case", list(BAD_ENCODINGS))
def test_malformed_encoded_arrays_name_the_document_and_key(case):
    bad, message = BAD_ENCODINGS[case]
    grid = GridDomain.box(((0.5, 3.0),), 65)
    gs = exp_section(random_algebra_section(circle_two_charts(), so3(),
                                            np.random.default_rng(43)))
    docs = [
        (load_sampled, dict(_sampled_doc(), values=bad), "sampled key 'values'"),
        (load_grid, dict(dump_grid(grid), mask=bad), "grid key 'mask'"),
        (load_group_section, dict(dump_group_section(gs), pieces=[bad, bad]),
         "group_section piece 0"),
    ]
    for load, doc, where in docs:
        with pytest.raises(InputError) as err:
            load(through_json(doc))
        assert str(err.value).startswith(where) and message in str(err.value)


DATA = Path(__file__).parent / "data"

# Circle2 files in the list form, written by the serializer of commit
# 56f7f43 before bulk arrays were encoded.
LEGACY = {
    "curve_so3_3.json": load_curve,
    "evolve_eta1_so3.json": load_group_section,
    "section.json": load_section,
}


@pytest.mark.parametrize("name", list(LEGACY))
def test_list_form_files_load_and_equal_their_encoded_redump(name):
    text = (DATA / name).read_text()
    doc = json.loads(text)
    redump = {
        load_curve: dump_curve,
        load_group_section: dump_group_section,
        load_section: dump_section,
    }[LEGACY[name]](LEGACY[name](doc))
    assert "b64" in canonical_json(redump) and "b64" not in text
    # Floats are written with repr, so equal text is equal bits.
    assert canonical_json(as_lists(through_json(redump))) == text
