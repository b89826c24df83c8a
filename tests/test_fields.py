import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapgroups.atlas import torus_four_charts
from mapgroups.errors import (
    AliasingError,
    EmptyMaskError,
    InputError,
    ShapeMismatchError,
)
from mapgroups.fields import (
    TWO_PI,
    BandlimitedField,
    GridDomain,
    SampledField,
    extend_by_zero,
    hermitian_part,
    phase_matrix,
    random_field,
    restrict,
    restrict_sampled,
    same_grid,
    sample,
    synthesize,
    wavenumber_squares,
)
from mapgroups.sections import random_section


def cos_field(m=1, modes=4):
    """cos(x_0) as a band-limited field: c_{+-1} = 1/2 on the first axis."""
    width = 2 * modes + 1
    c = np.zeros((1,) + (width,) * m, dtype=complex)
    if m == 1:
        c[0, modes - 1] = 0.5
        c[0, modes + 1] = 0.5
    else:
        c[0, modes - 1, modes] = 0.5
        c[0, modes + 1, modes] = 0.5
    return BandlimitedField(m, modes, c)


def test_constant_field_evaluates_to_constant():
    c = np.zeros((1, 9), dtype=complex)
    c[0, 4] = 3.25
    f = BandlimitedField(1, 4, c)
    pts = np.linspace(0.0, TWO_PI, 17)[:, None]
    assert np.allclose(f.evaluate(pts), 3.25)


def test_cos_field_matches_closed_form():
    f = cos_field()
    pts = np.linspace(0.0, TWO_PI, 50, endpoint=False)[:, None]
    got = f.evaluate(pts)[:, 0]
    assert np.abs(got - np.cos(pts[:, 0])).max() < 1e-14


def test_reality_flag_rejects_asymmetric_coefficients():
    c = np.zeros((1, 9), dtype=complex)
    c[0, 5] = 1.0  # k=+1 only, mirror missing
    with pytest.raises(InputError):
        BandlimitedField(1, 4, c)


def test_hermitian_part_is_bitwise_symmetric():
    rng = np.random.default_rng(7)
    for m in (1, 2):
        shape = (3,) + (9,) * m
        raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        h = hermitian_part(raw)
        assert is_mirror_symmetric(h)
        # projection is idempotent, bitwise
        assert np.array_equal(hermitian_part(h), h)


def is_mirror_symmetric(coeffs):
    """c_{-k} == conj(c_k) exactly, for every component."""
    rev = coeffs[(slice(None),) + (slice(None, None, -1),) * (coeffs.ndim - 1)]
    return np.array_equal(coeffs, np.conj(rev))


@settings(max_examples=25)
@given(
    m=st.integers(1, 2),
    modes=st.integers(0, 6),
    components=st.integers(1, 4),
    factor=st.floats(-1e3, 1e3, allow_nan=False),
    extra=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_fields_stay_hermitian(m, modes, components, factor, extra, seed):
    rng = np.random.default_rng(seed)
    f = random_field(m, modes, components, rng)
    g = random_field(m, modes, components, rng)
    grid = GridDomain.full_torus(m, max(2 * modes + 1, 3) + extra)  # lattices need 3 nodes
    back = synthesize(sample(f, grid), modes)
    for h in (f + g, f - g, f.scaled(factor), back):
        assert h.real and is_mirror_symmetric(h.coeffs)


def test_random_field_evaluates_real():
    rng = np.random.default_rng(3)
    f = random_field(2, 5, 2, rng)
    pts = rng.uniform(0.0, TWO_PI, size=(40, 2))
    vals = f.evaluate(pts)
    assert vals.dtype == np.float64
    assert np.all(np.isfinite(vals))


def test_field_arithmetic_shapes():
    rng = np.random.default_rng(0)
    a = random_field(1, 4, 2, rng)
    b = random_field(1, 4, 2, rng)
    c = random_field(1, 5, 2, rng)
    assert (a + b).coeffs.shape == a.coeffs.shape
    with pytest.raises(ShapeMismatchError):
        a + c


# ---------------------------------------------------------------------------
# grids


def test_full_torus_grid_counts():
    g = GridDomain.full_torus(1, 9)
    assert g.node_count == 9
    assert g.is_full_torus
    g2 = GridDomain.full_torus(2, (9, 11))
    assert g2.node_count == 99


def test_box_grid_nodes_inside_open_window():
    g = GridDomain.box(((0.5, 2.5),), 65)
    x = g.nodes()[:, 0]
    assert np.all((x > 0.5) & (x < 2.5))
    assert not g.is_full_torus


def test_empty_window_rejected():
    with pytest.raises(EmptyMaskError):
        GridDomain.box(((1.0, 1.01),), 17)


def box_reference(window, resolution):
    """Per-lattice node selection of a box window, axis by axis."""
    idx = []
    for lo, hi in window:
        ar = np.arange(resolution, dtype=np.int64)
        x = TWO_PI * ar / resolution
        keep = ar[(x > lo) & (x < hi)]
        if keep.size == 0:
            raise EmptyMaskError(f"window ({lo}, {hi}) holds no lattice nodes")
        idx.append(keep)
    return GridDomain(len(window), (resolution,) * len(window), window, tuple(idx))


def grid_outcome(build):
    try:
        grid = build()
    except InputError as exc:
        return type(exc), str(exc)
    return grid.window, [idx.tolist() for idx in grid.axis_indices]


ARC = st.tuples(
    st.floats(min_value=0.0, max_value=TWO_PI), st.floats(min_value=0.0, max_value=TWO_PI)
).filter(lambda w: w[0] < w[1])


@settings(max_examples=30)
@given(window=st.lists(ARC, min_size=1, max_size=2), resolution=st.integers(3, 300))
def test_box_selects_the_reference_nodes(window, resolution):
    window = tuple(window)
    got = grid_outcome(lambda: GridDomain.box(window, resolution))
    assert got == grid_outcome(lambda: box_reference(window, resolution))


def test_subwindow_is_exact_node_subset():
    g = GridDomain.box(((0.5, 3.0),), 65)
    sub = g.subwindow(((1.0, 2.0),))
    assert set(sub.axis_indices[0]) <= set(g.axis_indices[0])
    with pytest.raises(InputError):
        g.subwindow(((0.0, 2.0),))


def test_same_grid_detects_window_change():
    a = GridDomain.box(((0.5, 2.5),), 65)
    b = GridDomain.box(((0.5, 2.5),), 65)
    c = GridDomain.box(((0.5, 2.6),), 65)
    assert same_grid(a, b)
    assert not same_grid(a, c)


# ---------------------------------------------------------------------------
# sample / synthesize / restrict


def test_sample_constant_gives_ones():
    c = np.zeros((1, 9), dtype=complex)
    c[0, 4] = 1.0
    f = BandlimitedField(1, 4, c)
    v = sample(f, GridDomain.box(((0.3, 4.0),), 33))
    assert np.allclose(v.values, 1.0)


def test_sample_cos_at_zero_node():
    f = cos_field()
    g = GridDomain.full_torus(1, 33)
    v = sample(f, g)
    assert v.values[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_synthesize_inverts_full_grid_sampling():
    rng = np.random.default_rng(11)
    for m in (1, 2):
        f = random_field(m, 8, 2, rng)
        g = GridDomain.full_torus(m, 17)  # exactly 2N+1
        back = synthesize(sample(f, g), 8)
        assert np.abs(back.coeffs - f.coeffs).max() < 1e-12


def test_synthesize_rejects_aliased_grid():
    g = GridDomain.full_torus(1, 15)
    v = SampledField(g, np.zeros((15, 1)))
    with pytest.raises(AliasingError):
        synthesize(v, 8)
    with pytest.raises(InputError):
        v2 = SampledField(GridDomain.box(((0.5, 2.5),), 33), np.zeros((10, 1)))
        synthesize(v2, 2)


def test_restrict_matches_direct_evaluation():
    f = cos_field()
    g = GridDomain.box(((0.0 + 1e-9, np.pi),), 129)
    v = restrict(f, g)
    want = np.cos(g.nodes()[:, 0])[:, None]
    assert np.array_equal(v.values, f.evaluate(g.nodes()))
    assert np.abs(v.values - want).max() < 1e-14


@pytest.mark.parametrize(
    "grid",
    [GridDomain.full_torus(1, 65), GridDomain.box(((0.4, 4.1),), 129)],
    ids=["full", "window"],
)
def test_curve_sample_is_bitwise_evaluate(grid):
    f = random_field(1, 12, 3, np.random.default_rng(21))
    assert np.array_equal(sample(f, grid).values, f.evaluate(grid.nodes()))


@pytest.mark.parametrize(
    "grid",
    [
        GridDomain.full_torus(2, 65),
        GridDomain.box(((0.4, 4.1), (2.0, 5.9)), 129),
        GridDomain.box(((0.4, 4.1), (2.0, 5.9)), (97, 129)),
    ],
    ids=["full", "window", "anisotropic-window"],
)
def test_surface_sample_matches_evaluate_at_nodes(grid):
    # The separable products sum in another order than evaluate's contraction.
    f = random_field(2, 16, 2, np.random.default_rng(22), decay=0.5, amplitude=3.0)
    got = sample(f, grid).values
    want = f.evaluate(grid.nodes())
    scale = float(np.abs(want).max())
    assert scale > 1.0
    assert np.abs(got - want).max() <= 1e-13 * scale


def per_point_evaluate(field, points):
    """Reference for m = 2 evaluate: phases and both contractions per point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    p0 = phase_matrix(pts[:, 0], field.modes)
    p1 = phase_matrix(pts[:, 1], field.modes)
    tmp = np.einsum("qa,nab->qnb", p0, field.coeffs)
    vals = np.einsum("qb,qnb->qn", p1, tmp)
    return vals.real if field.real else vals


@pytest.fixture(scope="module")
def torus4():
    return torus_four_charts()


@settings(max_examples=25)
@given(
    components=st.integers(1, 9),
    modes=st.integers(0, 6),
    real=st.booleans(),
    chart=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_surface_evaluate_is_bitwise_per_point(torus4, components, modes, real, chart, seed):
    rng = np.random.default_rng(seed)
    shape = (components,) + (2 * modes + 1,) * 2
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = BandlimitedField(2, modes, hermitian_part(coeffs) if real else coeffs, real)
    c = torus4.charts[chart]
    nodes = c.from_chart(c.window.nodes())
    q = int(rng.integers(1, 200))
    point_sets = {
        "chart window": nodes,
        "shuffled window": rng.permutation(nodes),
        "uniform": rng.uniform(0.0, TWO_PI, (q, 2)),
        "five values": rng.choice(rng.uniform(0.0, TWO_PI, 5), (q, 2)),
        "single point": rng.uniform(0.0, TWO_PI, (1, 2)),
        "signed zeros": rng.choice([0.0, -0.0, 1.5], (q, 2)),
    }
    for name, pts in point_sets.items():
        assert f.evaluate(pts).tobytes() == per_point_evaluate(f, pts).tobytes(), name


def test_random_torus_section_is_bitwise_per_point(torus4, monkeypatch):
    got = random_section(torus4, 3, np.random.default_rng(31))
    monkeypatch.setattr(BandlimitedField, "evaluate", per_point_evaluate)
    want = random_section(torus4, 3, np.random.default_rng(31))
    for g, w in zip(got.pieces, want.pieces):
        assert g.values.tobytes() == w.values.tobytes()


def test_phase_and_wavenumber_helpers():
    x = np.array([0.0, 0.5, 2.0])
    p = phase_matrix(x, 2)
    assert p.shape == (3, 5)
    assert np.array_equal(p[0], np.ones(5))
    assert np.allclose(p, np.exp(1j * x[:, None] * np.arange(-2, 3)[None, :]))
    assert np.array_equal(wavenumber_squares(1, 2), [4.0, 1.0, 0.0, 1.0, 4.0])
    k2 = wavenumber_squares(2, 1)
    assert k2.shape == (3, 3) and k2[1, 1] == 0.0 and k2[0, 2] == 2.0
    with pytest.raises(InputError):
        wavenumber_squares(3, 1)


def test_restrict_zero_field():
    f = BandlimitedField(1, 3, np.zeros((2, 7), dtype=complex))
    v = restrict(f, GridDomain.box(((0.4, 1.9),), 65))
    assert not v.values.any()


def test_extend_by_zero_round_trip_exact():
    rng = np.random.default_rng(5)
    big = GridDomain.box(((0.3, 5.0),), 129)
    small = big.subwindow(((1.0, 3.0),))
    vals = rng.standard_normal((small.node_count, 2))
    v = SampledField(small, vals)
    ext = extend_by_zero(v, big)
    back = restrict_sampled(ext, ((1.0, 3.0),))
    assert np.array_equal(back.values, vals)
    # nodes outside the source window are exactly zero
    x = big.nodes()[:, 0]
    off = (x <= 1.0) | (x >= 3.0)
    assert not ext.values[off].any()


def test_extend_by_zero_needs_containing_window():
    lat = 65
    a = GridDomain.box(((0.5, 2.0),), lat)
    b = GridDomain.box(((1.0, 3.0),), lat)
    v = SampledField(a, np.ones((a.node_count, 1)))
    with pytest.raises(InputError):
        extend_by_zero(v, b)


def test_restrict_then_extend_with_cover_reproduces_samples():
    rng = np.random.default_rng(2)
    f = random_field(1, 6, 1, rng)
    big = GridDomain.box(((0.2, 5.9),), 129)
    v = sample(f, big)
    left = restrict_sampled(v, ((0.2, 3.0),))
    right = restrict_sampled(v, ((3.0, 5.9),))
    rebuilt = extend_by_zero(left, big).values + extend_by_zero(right, big).values
    assert np.array_equal(rebuilt, v.values)


# ---------------------------------------------------------------------------
# interpolation


def test_full_grid_interpolation_is_trigonometric():
    rng = np.random.default_rng(13)
    f = random_field(1, 6, 2, rng)
    v = sample(f, GridDomain.full_torus(1, 33))
    pts = rng.uniform(0.0, TWO_PI, size=(25, 1))
    assert np.abs(v.interpolate(pts) - f.evaluate(pts)).max() < 1e-12


def test_window_interpolation_exact_at_nodes():
    rng = np.random.default_rng(17)
    g = GridDomain.box(((0.5, 4.5),), 129)
    f = random_field(1, 4, 2, rng)
    v = sample(f, g)
    got = v.interpolate(g.nodes())
    assert np.abs(got - v.values).max() < 1e-13


def test_window_interpolation_accuracy_between_nodes():
    rng = np.random.default_rng(19)
    g = GridDomain.box(((0.5, 4.5),), 129)
    f = random_field(1, 3, 1, rng)
    v = sample(f, g)
    pts = rng.uniform(0.7, 4.3, size=(60, 1))
    err = np.abs(v.interpolate(pts) - f.evaluate(pts)).max()
    assert err < 1e-10, f"local interpolation error {err:.3e}"


def test_window_interpolation_rejects_outside_points():
    g = GridDomain.box(((0.5, 4.5),), 65)
    v = SampledField(g, np.zeros((g.node_count, 1)))
    with pytest.raises(InputError):
        v.interpolate(np.array([[5.3]]))


def test_sampled_field_validation():
    g = GridDomain.box(((0.5, 2.5),), 65)
    with pytest.raises(ShapeMismatchError):
        SampledField(g, np.zeros((g.node_count + 1, 1)))
    bad = np.zeros((g.node_count, 1))
    bad[3, 0] = np.nan
    with pytest.raises(InputError):
        SampledField(g, bad)
