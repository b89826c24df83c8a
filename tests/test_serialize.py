"""Round trips through the JSON and CSV on-disk formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapgroups.atlas import circle_two_charts, torus_four_charts
from mapgroups.errors import InputError
from mapgroups.fields import GridDomain, SampledField, random_field, sample
from mapgroups.groups import exp_section, group_by_name, random_algebra_section, so3
from mapgroups.limits import TimeSampledCurve
from mapgroups.sections import random_section
from mapgroups.serialize import (
    atlas_hash,
    canonical_json,
    dump_bandlimited,
    dump_curve,
    dump_field,
    dump_grid,
    dump_group_section,
    dump_sampled,
    dump_section,
    load_bandlimited,
    load_curve,
    load_field,
    load_grid,
    load_group_section,
    load_sampled,
    load_section,
    read_spectrum_csv,
    write_spectrum_csv,
)
from mapgroups.sobolev import rellich_spectrum


def test_canonical_json_is_key_sorted_with_newline():
    s = canonical_json({"b": 1, "a": [2, 3]})
    assert s == '{"a":[2,3],"b":1}\n'


def test_bandlimited_round_trip_bitwise():
    rng = np.random.default_rng(3)
    for m in (1, 2):
        f = random_field(m, 4, 2, rng)
        doc = dump_bandlimited(f)
        assert doc["weight_exponent_convention"] == "paper-s/2"
        back = load_bandlimited(doc)
        assert np.array_equal(back.coeffs, f.coeffs)
        assert back.modes == f.modes and back.m == f.m


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


def test_dump_field_dispatches_on_type():
    rng = np.random.default_rng(7)
    f = random_field(1, 3, 1, rng)
    v = sample(f, GridDomain.full_torus(1, 33))
    assert dump_field(f)["kind"] == "bandlimited"
    assert dump_field(v)["kind"] == "sampled"
    assert np.array_equal(load_field(dump_field(f)).coeffs, f.coeffs)
    with pytest.raises(InputError):
        load_field({"kind": "mystery"})


def test_atlas_hashes_are_stable():
    assert atlas_hash(circle_two_charts()) == "6eb0321ad086"
    assert atlas_hash(torus_four_charts()) == "98595f68aa76"
    # different parameters give a different fingerprint
    assert atlas_hash(circle_two_charts(resolution=129)) != "6eb0321ad086"


def test_section_round_trip():
    rng = np.random.default_rng(9)
    a = circle_two_charts()
    sec = random_section(a, 2, rng)
    doc = dump_section(sec)
    assert doc["atlas"] == "circle2"
    assert doc["atlas_hash"] == atlas_hash(a)
    assert doc["interpolation"] == "local-poly-10"
    back = load_section(doc)
    for p, q in zip(back.pieces, sec.pieces):
        assert np.array_equal(p.values, q.values)
    assert back.tolerance == sec.tolerance


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
        assert (s - t).sup_coord_norm() == 0.0


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
    assert back.group.name == name and back.tolerance == gs.tolerance
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
        assert s.section.tolerance == t.section.tolerance
        assert all(
            same_bytes(p.values, q.values) and p.parent_modes == q.parent_modes
            for p, q in zip(s.section.pieces, t.section.pieces)
        )


def test_array_dumps_write_the_bytes_of_per_entry_floats():
    tricky = [1e300, -1e-300, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
              2.0**53, 2.0**53 + 2.0, 1e16, -1e16, 0.1, 1.0 / 3.0]
    grid = GridDomain.box(((0.5, 3.0),), 65)
    values = np.resize(np.array(tricky), (grid.node_count, 2))
    doc = dump_sampled(SampledField(grid, values))
    assert canonical_json(doc["values"]) == canonical_json(
        [[float(x) for x in row] for row in values]
    )
    gs = exp_section(random_algebra_section(circle_two_charts(), so3(),
                                            np.random.default_rng(19)))
    assert canonical_json(dump_group_section(gs)["pieces"]) == canonical_json(
        [[[float(x) for x in mat.ravel()] for mat in p] for p in gs.pieces]
    )
    f = random_field(2, 3, 2, np.random.default_rng(29))
    flat = f.coeffs.reshape(2, -1)
    assert canonical_json(dump_bandlimited(f)["coeffs"]) == canonical_json(
        [[[float(z.real), float(z.imag)] for z in row] for row in flat]
    )


def _sampled_doc():
    f = random_field(1, 6, 1, np.random.default_rng(31))
    return dump_sampled(sample(f, GridDomain.box(((0.5, 3.0),), 65)))


def test_load_grid_names_the_missing_or_malformed_key():
    doc = dump_grid(GridDomain.box(((0.5, 3.0),), 65))
    with pytest.raises(InputError, match="'mask'"):
        load_grid({k: v for k, v in doc.items() if k != "mask"})
    with pytest.raises(InputError, match="does not fit grid"):
        load_grid(dict(doc, mask=doc["mask"][:-1]))
    with pytest.raises(InputError, match="'window'"):
        load_grid(dict(doc, window=[[0.5, "x"]]))
    with pytest.raises(InputError, match="do not match dimension"):
        load_grid(dict(doc, grid=[[65]]))


def test_load_sampled_names_the_missing_or_malformed_key():
    with pytest.raises(InputError, match="'m'"):
        load_sampled({"kind": "sampled"})
    with pytest.raises(InputError, match="'values'"):
        load_sampled(dict(_sampled_doc(), values=[[1.0], [2.0, 3.0]]))
    with pytest.raises(InputError, match="'parent_modes'"):
        load_sampled(dict(_sampled_doc(), parent_modes="6"))
    with pytest.raises(InputError, match="not a sampled field document"):
        load_sampled(["sampled"])


def test_load_bandlimited_names_the_missing_or_malformed_key():
    doc = dump_bandlimited(random_field(1, 4, 1, np.random.default_rng(37)))
    with pytest.raises(InputError, match="'reality'"):
        load_bandlimited({k: v for k, v in doc.items() if k != "reality"})
    with pytest.raises(InputError, match="'modes'"):
        load_bandlimited(dict(doc, modes=4.0))
    with pytest.raises(InputError, match="'coeffs'"):
        load_bandlimited(dict(doc, coeffs="none"))


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


def test_spectrum_csv_round_trip(tmp_path):
    sig = rellich_spectrum(2.0, 1.0, 16)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, sig, convention="paper")
    text = path.read_text()
    assert text.startswith("# weight_exponent_convention=paper-s/2\n")
    assert text.splitlines()[1] == "k_index,sigma"
    back = read_spectrum_csv(path)
    assert np.array_equal(back, sig)
