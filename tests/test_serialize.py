"""Round trips through the JSON and CSV on-disk formats."""

import base64
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapgroups import serialize
from mapgroups.atlas import atlas_descriptor, builtin_atlas, circle_two_charts, torus_four_charts
from mapgroups.errors import InputError
from mapgroups.fields import SampledField
from mapgroups.groups import exp_section, group_by_name, random_algebra_section, so3
from mapgroups.limits import TimeSampledCurve
from mapgroups.sections import Section, random_section
from mapgroups.serialize import (
    atlas_hash,
    canonical_json,
    decode_array,
    dump_curve,
    dump_group_section,
    dump_section,
    encode_array,
    load_curve,
    load_group_section,
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
    lambda shape, seed: encode_array(np.random.default_rng(seed).standard_normal(shape)),
    st.lists(st.integers(0, 4), max_size=2), st.integers(0, 2**32 - 1),
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
    "edit, fault",
    [
        (lambda doc: doc.update(components=7),
         "section key 'components' must be {c}, got 7"),
        (lambda doc: doc.update(interpolation="spline"),
         "section key 'interpolation' must be 'local-poly-10', got 'spline'"),
        (lambda doc: doc.update(components="2"),
         "section key 'components' must be int, got str"),
    ],
    ids=["section-components", "interpolation", "mistyped"],
)
def test_section_files_state_their_facts_only_as_loaded(edit, fault):
    section = dump_section(random_section(circle_two_charts(), 2, np.random.default_rng(31)))
    xi = random_algebra_section(circle_two_charts(), so3(), np.random.default_rng(29))
    curve = dump_curve(TimeSampledCurve(np.array([0.0, 1.0]), (xi, xi)))
    # (loader, document, section document to edit, its components, error prefix)
    cases = (
        (load_section, section, section, 2, ""),
        (load_curve, curve, curve["sections"][1], 3, "curve section 1: "),
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
    values = np.resize(np.array(tricky), (139, 2))
    # Values below 1e-9 in magnitude make a section whatever their pattern.
    atlas = circle_two_charts()
    tiny = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-300, 1e-310]
    sec = Section(atlas, tuple(
        SampledField(c.window, np.resize(np.array(tiny), (c.window.node_count, 2)))
        for c in atlas.charts
    ))
    gs = exp_section(random_algebra_section(circle_two_charts(), so3(),
                                            np.random.default_rng(19)))
    encoded = [
        (encode_array(values), values),
        *zip(dump_section(sec)["pieces"], (p.values for p in sec.pieces)),
        *zip(dump_group_section(gs)["pieces"], (p.reshape(9, -1).T for p in gs.pieces)),
    ]
    for doc, arr in encoded:
        assert doc["dtype"] == "<f8" and doc["shape"] == list(arr.shape)
        assert base64.b64decode(doc["b64"]) == arr.astype("<f8").tobytes()
    # List documents of the same floats load to the same bytes.
    listed = dict(dump_section(sec), pieces=[
        [[float(x) for x in row] for row in p.values] for p in sec.pieces
    ])
    back = load_section(through_json(listed))
    assert all(same_bytes(p.values, q.values) for p, q in zip(back.pieces, sec.pieces))
    listed = dict(dump_group_section(gs), pieces=[
        [[float(x) for x in row] for row in p.reshape(9, -1).T] for p in gs.pieces
    ])
    back = load_group_section(through_json(listed))
    assert all(same_bytes(p, q) for p, q in zip(back.pieces, gs.pieces))


@pytest.mark.parametrize("atlas_name", ["circle2", "torus4"])
def test_a_section_piece_is_its_charts_node_values(atlas_name):
    """A file keeps piece j as the (K_j, n) values at chart j's window
    nodes, and the loaded piece lies on that very window."""
    atlas = builtin_atlas(atlas_name)
    sec = random_section(atlas, 3, np.random.default_rng(37))
    doc = through_json(dump_section(sec))
    for c, piece, p in zip(atlas.charts, doc["pieces"], sec.pieces, strict=True):
        assert piece["shape"] == [c.window.node_count, 3]
        assert base64.b64decode(piece["b64"]) == p.values.tobytes()
    for c, p in zip(atlas.charts, load_section(doc).pieces, strict=True):
        assert p.domain is c.window


def _respelled(text):
    """Another base64 spelling of the same bytes: the character before the
    padding with its lowest bit flipped, a bit that decoding drops."""
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    body = text.rstrip("=")
    assert len(body) < len(text), "the bytes need padding to leave bits unused"
    last = alphabet[alphabet.index(body[-1]) ^ 1]
    return body[:-1] + last + text[len(body):]


def test_a_piece_spelled_another_way_in_base64_loads_the_same_values():
    sec = random_section(circle_two_charts(), 1, np.random.default_rng(41))
    doc = through_json(dump_section(sec))
    text = _respelled(doc["pieces"][0]["b64"])
    assert text != doc["pieces"][0]["b64"]
    assert base64.b64decode(text, validate=True) == base64.b64decode(doc["pieces"][0]["b64"])
    doc["pieces"][0]["b64"] = text
    assert same_bytes(load_section(doc).pieces[0].values, sec.pieces[0].values)


def _boolean_bytes(arr):
    """An encoded-array object of one-byte booleans, a dtype files no
    longer hold."""
    arr = np.ascontiguousarray(arr, dtype=bool)
    return {"dtype": "|b1", "shape": list(arr.shape),
            "b64": base64.b64encode(arr.tobytes()).decode("ascii")}


def _old_form(piece, chart):
    """A section piece as files held it before pieces were bare node
    values: a sampled-field document restating the chart's grid."""
    w = chart.window
    mask = np.zeros(w.resolution, dtype=bool)
    mask[np.ix_(*w.axis_indices)] = True
    return {
        "kind": "sampled", "m": w.m, "grid": list(w.resolution),
        "window": [list(pair) for pair in w.window],
        "mask": _boolean_bytes(mask.ravel()), "components": 2,
        "parent_modes": None, "values": piece, "weight_exponent_convention": "paper-s/2",
    }


def test_pieces_not_of_their_charts_nodes_are_refused():
    atlas = circle_two_charts()
    sec = random_section(atlas, 2, np.random.default_rng(47))
    xi = random_algebra_section(atlas, so3(), np.random.default_rng(43))
    curve = dump_curve(TimeSampledCurve(np.array([0.0, 1.0]), (xi, xi)))
    short = encode_array(np.zeros((atlas.charts[1].window.node_count - 1, 2)))
    old = "values must have exactly the keys ['b64', 'dtype', 'shape'], got ['components', "
    for j, piece, fault in (
        (0, lambda doc: _old_form(doc["pieces"][0], atlas.charts[0]), old),
        (1, lambda doc: short, "values must have shape (140, n), got (139, 2)"),
    ):
        doc = dump_section(sec)
        doc["pieces"][j] = piece(doc)
        with pytest.raises(InputError, match=f"^section piece {j}: {re.escape(fault)}"):
            load_section(doc)
        doc = through_json(curve)
        doc["sections"][1]["pieces"][j] = piece(doc["sections"][1])
        with pytest.raises(InputError, match=f"^curve section 1, piece {j}: {re.escape(fault)}"):
            load_curve(doc)
    for pieces in ([], dump_section(sec)["pieces"] * 2):
        with pytest.raises(InputError, match="^one piece per chart required$"):
            load_section(dict(dump_section(sec), pieces=pieces))


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


@pytest.mark.parametrize("j, node, component, value", [(0, 0, 0, np.nan), (1, 5, 2, -np.inf)])
def test_load_group_section_names_the_piece_of_a_nonfinite_entry(j, node, component, value):
    gs = exp_section(random_algebra_section(circle_two_charts(), so3(),
                                            np.random.default_rng(41)))
    doc = through_json(dump_group_section(gs))
    rows = decode_array(doc["pieces"][j], "piece").copy()
    rows[node:, component] = value
    doc["pieces"][j] = encode_array(rows)
    fault = f"group_section piece {j}: nonfinite value at node {node}, component {component}"
    with pytest.raises(InputError, match=f"^{re.escape(fault)}$"):
        load_group_section(doc)


def test_section_and_curve_loaders_name_the_bad_piece():
    xi = random_algebra_section(circle_two_charts(), so3(), np.random.default_rng(43))
    curve = dump_curve(TimeSampledCurve(np.array([0.0, 1.0]), (xi, xi)))
    section = dump_section(xi.section)
    b64 = section["pieces"][1]
    corrupt = dict(b64, b64=b64["b64"][:10] + "!" + b64["b64"][11:])
    ragged = [[1.0], [2.0, 3.0]]
    for values, fault in (
        (corrupt, "b64 is not valid base64"),
        (ragged, "must be a rectangular array of numbers"),
    ):
        doc = json.loads(canonical_json(section))
        doc["pieces"][1] = values
        with pytest.raises(InputError, match=f"^section piece 1: values {fault}"):
            load_section(doc)
        doc = json.loads(canonical_json(curve))
        doc["sections"][1]["pieces"][0] = values
        with pytest.raises(InputError, match=f"^curve section 1, piece 0: values {fault}"):
            load_curve(doc)


def _with_node_3(value):
    """Piece 0 of a 2-component circle2 section with node 3 set to ``value``."""
    values = np.zeros((circle_two_charts().charts[0].window.node_count, 2))
    values[3] = value
    return encode_array(values)


# A section file's piece 0, with its count of chart 0's nodes K, refused
# with this message after the piece's prefix.
BAD_PIECES = {
    "nan": (lambda k: _with_node_3(np.nan), "nonfinite value at node 3, component 0"),
    "inf": (lambda k: _with_node_3(np.inf), "nonfinite value at node 3, component 0"),
    "minus-inf": (lambda k: _with_node_3(-np.inf), "nonfinite value at node 3, component 0"),
    "one-axis": (lambda k: encode_array(np.zeros(k)),
                 "values must have shape (140, n), got (140,)"),
    "three-axes": (lambda k: encode_array(np.zeros((k, 2, 1))),
                   "values must have shape (140, n), got (140, 2, 1)"),
    "scalar": (lambda k: 3.0, "values must have shape (140, n), got ()"),
    "empty-list": (lambda k: [], "values must have shape (140, n), got (0,)"),
    "extra-row": (lambda k: encode_array(np.zeros((k + 1, 2))),
                  "values must have shape (140, n), got (141, 2)"),
    "boolean-bytes": (lambda k: _boolean_bytes(np.ones((k, 2))),
                      "values has dtype '|b1', expected '<f8'"),
    "boolean-lists": (lambda k: [[True, False]] * k,
                      "values must be a rectangular array of numbers"),
    "string-lists": (lambda k: [["0", "1"]] * k,
                     "values must be a rectangular array of numbers"),
    "null-entries": (lambda k: [[None, 1.0]] * k,
                     "values must be a rectangular array of numbers"),
    "null": (lambda k: None, "values must be a rectangular array of numbers"),
    "text": (lambda k: "0.0", "values must be a rectangular array of numbers"),
}


@pytest.mark.parametrize("case", list(BAD_PIECES))
def test_a_malformed_piece_is_refused_naming_its_section_and_piece(case):
    make, fault = BAD_PIECES[case]
    atlas = circle_two_charts()
    piece = make(atlas.charts[0].window.node_count)
    xi = random_algebra_section(atlas, so3(), np.random.default_rng(43))
    sec = random_section(atlas, 2, np.random.default_rng(47))
    doc = through_json(dump_section(sec))
    doc["pieces"][0] = piece
    with pytest.raises(InputError, match=f"^section piece 0: {re.escape(fault)}$"):
        load_section(doc)
    doc = through_json(dump_curve(TimeSampledCurve(np.array([0.0, 1.0]), (xi, xi))))
    doc["sections"][1]["pieces"][0] = piece
    with pytest.raises(InputError, match=f"^curve section 1, piece 0: {re.escape(fault)}$"):
        load_curve(doc)


@pytest.mark.parametrize("columns", [0, 4])
def test_pieces_must_agree_on_their_component_count(columns):
    """Each piece reads well alone; the section refuses them together."""
    atlas = circle_two_charts()
    piece = encode_array(np.zeros((atlas.charts[1].window.node_count, columns)))
    sec = random_section(atlas, 2, np.random.default_rng(47))
    doc = through_json(dump_section(sec))
    doc["pieces"][1] = piece
    with pytest.raises(InputError, match="^pieces disagree on component count$"):
        load_section(doc)
    xi = random_algebra_section(atlas, so3(), np.random.default_rng(43))
    doc = through_json(dump_curve(TimeSampledCurve(np.array([0.0, 1.0]), (xi, xi))))
    doc["sections"][0]["pieces"][1] = piece
    with pytest.raises(InputError, match="^curve section 0: pieces disagree on component count$"):
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

    sec = random_section(atlas, 2, rng)
    back = load_section(again(dump_section(sec)))
    assert all(same_bytes(p.values, q.values) and loaded_array_ok(p.values)
               for p, q in zip(back.pieces, sec.pieces))

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
    sec = random_section(circle_two_charts(), 2, np.random.default_rng(43))
    gs = exp_section(random_algebra_section(circle_two_charts(), so3(),
                                            np.random.default_rng(43)))
    docs = [
        (load_section, dict(dump_section(sec), pieces=[bad, bad]), "section piece 0: values"),
        (load_group_section, dict(dump_group_section(gs), pieces=[bad, bad]),
         "group_section piece 0"),
    ]
    for load, doc, where in docs:
        with pytest.raises(InputError) as err:
            load(through_json(doc))
        assert str(err.value).startswith(where) and message in str(err.value)


DATA = Path(__file__).parent / "data"

# Circle2 files in the list form: bulk arrays as nested JSON lists, each
# section piece the (K_j, n) node values of chart j's window.
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
