import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapgroups.atlas import builtin_atlas, torus_four_charts
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
    axis_phases,
    extend_by_zero,
    grid_values,
    hermitian_part,
    lattice_phases,
    phase_matrix,
    random_field,
    restrict_sampled,
    same_grid,
    sample,
    sobolev_weights,
    synthesize,
    tensor_points,
    tensor_transfer,
    wavenumber_squares,
)
from mapgroups.sections import point_eval, random_section


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
    with pytest.raises(
        InputError,
        match=r"^coefficients break c_\{-k\} = conj\(c_k\); build them with hermitian_part\(\)$",
    ):
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
    for h in (f + g, f + g.scaled(-1), f.scaled(factor), back):
        assert is_mirror_symmetric(h.coeffs)


def test_random_field_rejects_negative_modes():
    with pytest.raises(InputError, match=r"^modes must be >= 0, got -1$"):
        random_field(1, -1, 1, np.random.default_rng(0))


def test_wavenumber_lattices_take_only_integer_modes():
    """2.5 modes once gave 6 coefficients with no k = 0 centre, and a
    4-value Rellich spectrum."""
    from mapgroups.sobolev import rellich_spectrum

    for modes in (2.5, np.float64(2.0)):
        with pytest.raises(InputError, match=r"^modes must be an integer, got "):
            random_field(1, modes, 1, np.random.default_rng(0))
        with pytest.raises(InputError, match=r"^modes must be an integer, got "):
            rellich_spectrum(2.0, 1.0, modes)
    assert random_field(1, np.int64(2), 1, np.random.default_rng(0)).coeffs.shape == (1, 5)
    assert rellich_spectrum(2.0, 1.0, np.int32(2)).shape == (5,)


@settings(max_examples=60)
@given(
    dims=st.tuples(*[st.integers(1, 12)] * 4),
    n=st.integers(1, 3),
    tie=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_surface_tensor_transfer_matches_the_fixed_order(dims, n, tie, seed):
    """Either contraction order gives W0 @ S @ W1.T to within 1e-13 of the
    value scale; where ``(W0 @ S) @ W1.T`` costs no more (ties included),
    it is the order taken, bit for bit."""
    q0, g0, q1, g1 = dims
    if tie:
        q1, g1 = q0, g0
    rng = np.random.default_rng(seed)
    w0, w1 = rng.standard_normal((q0, g0)), rng.standard_normal((q1, g1))
    stack = rng.standard_normal((n, g0, g1))
    got = tensor_transfer((w0, w1), stack)
    want = w0 @ stack @ w1.T
    assert got.shape == (n, q0, q1)
    if q0 * g1 * (g0 + q1) <= g0 * q1 * (g1 + q0):
        assert got.tobytes() == want.tobytes()
    else:
        scale = float((np.abs(w0) @ np.abs(stack) @ np.abs(w1).T).max())
        assert np.abs(got - want).max() <= 1e-13 * scale


def test_surface_tensor_transfer_contracts_the_wide_axis_first():
    """torus4's 0/1 and 2/3 overlap transfers: S @ W1.T first costs 0.91M
    multiply-adds for 16 components, against 2.37M the other way."""
    rng = np.random.default_rng(7)
    w0, w1 = rng.standard_normal((48, 20)), rng.standard_normal((24, 70))
    stack = rng.standard_normal((16, 20, 70))
    assert tensor_transfer((w0, w1), stack).tobytes() == (w0 @ (stack @ w1.T)).tobytes()


def test_random_field_evaluates_real():
    rng = np.random.default_rng(3)
    f = random_field(2, 5, 2, rng)
    pts = rng.uniform(0.0, TWO_PI, size=(40, 2))
    vals = f.evaluate(pts)
    assert vals.dtype == np.float64
    assert np.all(np.isfinite(vals))


def test_value_types_store_list_inputs_as_arrays():
    grid = GridDomain(1, (9,), ((0.0, TWO_PI),), ([0, 1, 2, 3, 4],))
    assert grid.axis_counts == (5,) and isinstance(grid.axis_indices[0], np.ndarray)
    v = SampledField(grid, [[float(k)] for k in range(5)])
    assert v.components == 1 and v.lattice_values().shape == (5, 1)
    f = BandlimitedField(1, np.int64(1), [[0.5 + 0j, 1.0 + 0j, 0.5 + 0j]])
    assert f.components == 1 and type(f.modes) is int
    assert f.evaluate(np.zeros((1, 1)))[0, 0] == 2.0
    # Arrays are kept as they are.
    lattice = np.arange(5)
    values = np.ones((5, 1))
    assert GridDomain(1, (9,), ((0.0, TWO_PI),), (lattice,)).axis_indices[0] is lattice
    assert SampledField(grid, values).values is values
    # A list resolution is stored as a tuple, so the grid equals its builder's.
    listed = GridDomain(1, [9], ((0.0, TWO_PI),), (np.arange(9),))
    assert listed.resolution == (9,)
    ones = SampledField(GridDomain.full_torus(1, 9), np.ones((9, 1)))
    assert np.array_equal((SampledField(listed, np.ones((9, 1))) + ones).values, 2 * ones.values)


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
    v = sample(f, g)
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


def per_point_values(coeffs, points):
    """Complex values of a surface polynomial, the reference for m = 2
    evaluate: phases and both contractions per point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    modes = (coeffs.shape[1] - 1) // 2
    p0 = phase_matrix(pts[:, 0], modes)
    p1 = phase_matrix(pts[:, 1], modes)
    tmp = np.einsum("qa,nab->qnb", p0, coeffs)
    return np.einsum("qb,qnb->qn", p1, tmp)


@pytest.fixture(scope="module")
def torus4():
    return torus_four_charts()


@settings(max_examples=25)
@given(
    components=st.integers(1, 9),
    modes=st.integers(0, 6),
    chart=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_surface_evaluate_is_bitwise_per_point(torus4, components, modes, chart, seed):
    rng = np.random.default_rng(seed)
    shape = (components,) + (2 * modes + 1,) * 2
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    f = BandlimitedField(2, modes, hermitian_part(coeffs))
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
        assert f.evaluate(pts).tobytes() == per_point_values(f.coeffs, pts).real.tobytes(), name


def l1_scale(coeffs):
    """Largest coefficient l1 norm of a component, a bound on its values."""
    return float(np.abs(coeffs).reshape(coeffs.shape[0], -1).sum(axis=1).max())


def test_random_torus_section_is_bitwise_per_point(torus4):
    # grid_values sums a surface in another order than the per-point
    # contraction, so the two agree to rounding.
    got = random_section(torus4, 3, np.random.default_rng(31))
    rng = np.random.default_rng(31)
    shape = (3, 7, 7)  # order 3, random_section's default
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coef *= sobolev_weights(2, 3, -1.0)
    for c, g in zip(torus4.charts, got.pieces):
        want = per_point_values(coef, c.from_chart(c.window.nodes())).real
        assert g.values.shape == want.shape
        assert np.abs(g.values - want).max() <= 1e-14 * l1_scale(coef)


def wrapped_axis(start, count, step):
    """An arithmetic run of angles taken mod 2*pi, so it may wrap past 0."""
    return np.mod(start + step * np.arange(count), TWO_PI)


ANGLES = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def grid_axes(draw, m):
    """Per-axis coordinates: wrapped runs, or unsorted draws with repeats."""
    axes = []
    for _ in range(m):
        if draw(st.booleans()):
            count = draw(st.integers(1, 40))
            step = draw(st.floats(min_value=1e-3, max_value=1.0))
            axes.append(wrapped_axis(draw(ANGLES), count, step))
        else:
            axes.append(np.array(draw(st.lists(ANGLES, min_size=1, max_size=25))))
    return axes


def layout(a):
    """Strides of the axes longer than 1, which fix the order of the elements."""
    return [step for step, n in zip(a.strides, a.shape) if n > 1]


@settings(max_examples=40)
@given(
    data=st.data(),
    m=st.integers(1, 2),
    components=st.integers(1, 4),
    modes=st.integers(0, 6),
    real=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_values_is_bitwise_evaluate_at_the_tensor_points(
    data, m, components, modes, real, seed
):
    rng = np.random.default_rng(seed)
    shape = (components,) + (2 * modes + 1,) * m
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coeffs = hermitian_part(coeffs) if real else coeffs
    axes = data.draw(grid_axes(m))
    points = tensor_points(axes)
    got = grid_values(coeffs, [phase_matrix(x, modes) for x in axes])
    if m == 1:
        want = phase_matrix(points[:, 0], modes) @ coeffs.T
    else:
        want = per_point_values(coeffs, points)
    assert got.shape == want.shape == (int(np.prod([a.size for a in axes])), components)
    # One layout too: reductions over a value row may group their sums by it.
    assert got.dtype == want.dtype and layout(got) == layout(want)

    def agree(a, b):
        # Bitwise on curves; on surfaces the separable product sums in
        # another order than the per-point contraction.
        if m == 1:
            return a.tobytes() == b.tobytes()
        return np.abs(a - b).max() <= 1e-14 * l1_scale(coeffs)

    assert agree(got, want)
    if real:
        field = BandlimitedField(m, modes, coeffs).evaluate(points)
        assert layout(got.real) == layout(field)
        assert agree(got.real, field)


@st.composite
def tensor_grids(draw, m, modes):
    """Per-axis coordinates of a tensor grid and their phase matrices: a
    chart window of the builtin atlas of dimension m, a lattice subgrid
    read from the lattice tables, or wrapped runs."""
    kind = draw(st.sampled_from(["chart window", "lattice subgrid", "wrapped"]))
    if kind == "chart window":
        atlas = builtin_atlas("circle2" if m == 1 else "torus4")
        axes = atlas.charts[draw(st.integers(0, atlas.chart_count - 1))].window_angles()
    elif kind == "lattice subgrid":
        res = draw(st.integers(3, 130))
        idx = [
            np.array(sorted(draw(st.sets(st.integers(0, res - 1), min_size=1, max_size=40))))
            for _ in range(m)
        ]
        grid = GridDomain(m, res, ((0.0, TWO_PI),) * m, tuple(idx))
        axes = [grid.axis_nodes(d) for d in range(m)]
        return axes, axis_phases(grid, modes)
    else:
        axes = [
            wrapped_axis(draw(ANGLES), draw(st.integers(1, 40)),
                         draw(st.floats(min_value=1e-3, max_value=1.0)))
            for _ in range(m)
        ]
    return axes, [phase_matrix(x, modes) for x in axes]


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 2),
    components=st.integers(1, 3),
    modes=st.integers(0, 12),
    hermitian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_values_is_evaluate_at_the_tensor_points_to_rounding(
    data, m, components, modes, hermitian, seed
):
    rng = np.random.default_rng(seed)
    shape = (components,) + (2 * modes + 1,) * m
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes, phases = data.draw(tensor_grids(m, modes))
    points = tensor_points(axes)
    if hermitian:
        coeffs = hermitian_part(coeffs)
        got = grid_values(coeffs, phases).real
        want = BandlimitedField(m, modes, coeffs).evaluate(points)
    elif m == 1:
        got = grid_values(coeffs, phases)
        want = phase_matrix(points[:, 0], modes) @ coeffs.T
    else:
        got = grid_values(coeffs, phases)
        want = per_point_values(coeffs, points)
    assert got.shape == want.shape == (points.shape[0], components)
    assert np.abs(got - want).max() <= 1e-14 * l1_scale(coeffs)


def test_grid_values_needs_one_axis_per_dimension():
    with pytest.raises(ShapeMismatchError, match="axes"):
        grid_values(random_field(2, 2, 1, np.random.default_rng(0)).coeffs, [np.zeros(3)])


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


def reference_sample(field, grid):
    """Node values from phases computed at the grid's own node coordinates."""
    phases = [phase_matrix(grid.axis_nodes(d), field.modes) for d in range(grid.m)]
    vals = np.moveaxis(tensor_transfer(phases, field.coeffs), 0, -1)
    return vals.reshape(grid.node_count, field.components).real


@pytest.mark.parametrize(
    "grid",
    [
        GridDomain.full_torus(1, 129),
        GridDomain.box(((0.4, 4.1),), 98),
        GridDomain.full_torus(2, 33),
        GridDomain.box(((0.4, 4.1), (2.0, 5.9)), (97, 129)),
    ],
    ids=["curve-full", "curve-window", "surface-full", "surface-window"],
)
def test_sample_is_bitwise_the_node_phase_reference(grid):
    rng = np.random.default_rng(41)
    for modes in (0, 5, 12):
        f = random_field(grid.m, modes, 2, rng, decay=0.5)
        assert sample(f, grid).values.tobytes() == reference_sample(f, grid).tobytes()


def test_lattice_phase_tables_are_shared_and_read_only():
    table = lattice_phases(98, 12)
    assert lattice_phases(98, 12) is table
    assert table.shape == (98, 25) and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 0.0
    nodes = TWO_PI * np.arange(98) / 98
    assert table.tobytes() == phase_matrix(nodes, 12).tobytes()


def test_restrict_zero_field():
    f = BandlimitedField(1, 3, np.zeros((2, 7), dtype=complex))
    v = sample(f, GridDomain.box(((0.4, 1.9),), 65))
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


@settings(max_examples=30)
@given(
    m=st.sampled_from([1, 2]),
    resolution=st.integers(16, 160),
    window=st.lists(
        st.tuples(st.floats(0.01, 3.0), st.floats(0.6, 3.2)), min_size=2, max_size=2
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_window_interpolation_exact_at_nodes(m, resolution, window, seed):
    """At its own nodes a window field interpolates to its values, bitwise."""
    box = tuple((lo, lo + width) for lo, width in window[:m])
    g = GridDomain.box(box, resolution if m == 1 else min(resolution, 64))
    v = sample(random_field(m, 4, 2, np.random.default_rng(seed)), g)
    assert np.array_equal(v.interpolate(g.nodes()), v.values)


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


@pytest.fixture(scope="module")
def point_sites():
    """Each call that takes a point array, with the dimension it expects."""
    f1, f2 = (random_field(m, 4, 2, np.random.default_rng(m)) for m in (1, 2))
    sections = {
        name: random_section(builtin_atlas(name), 2, np.random.default_rng(3))
        for name in ("circle2", "torus4")
    }
    return {
        "evaluate-m1": (1, f1.evaluate),
        "evaluate-m2": (2, f2.evaluate),
        "interpolate-window": (1, sample(f1, GridDomain.box(((0.5, 4.5),), 65)).interpolate),
        "interpolate-full-m1": (1, sample(f1, GridDomain.full_torus(1, 33)).interpolate),
        "interpolate-full-m2": (2, sample(f2, GridDomain.full_torus(2, 33)).interpolate),
        "point_eval-circle2": (1, lambda p: point_eval(sections["circle2"], p)),
        "point_eval-torus4": (2, lambda p: point_eval(sections["torus4"], p)),
    }


POINT_SITES = [
    "evaluate-m1", "evaluate-m2", "interpolate-window", "interpolate-full-m1",
    "interpolate-full-m2", "point_eval-circle2", "point_eval-torus4",
]


@pytest.mark.parametrize("site", POINT_SITES)
@pytest.mark.parametrize("shape", [lambda m: (2, m, 3), lambda m: (2, 1, m)],
                         ids=["2-m-3", "2-1-m"])
def test_a_point_array_of_three_dimensions_is_refused(point_sites, site, shape):
    m, call = point_sites[site]
    points = np.ones(shape(m))
    with pytest.raises(ShapeMismatchError, match="^points do not match field dimension$"):
        call(points)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("site", POINT_SITES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_nonfinite_point_is_named_as_given(point_sites, site, bad):
    m, call = point_sites[site]
    points = np.ones((3, m))
    points[1, -1] = bad
    message = "^" + re.escape(f"point {points[1]} is not finite") + "$"
    with pytest.raises(InputError, match=message):
        call(points)


def test_sampled_field_validation():
    g = GridDomain.box(((0.5, 2.5),), 65)
    with pytest.raises(ShapeMismatchError):
        SampledField(g, np.zeros((g.node_count + 1, 1)))
    bad = np.zeros((g.node_count, 1))
    bad[3, 0] = np.nan
    with pytest.raises(InputError):
        SampledField(g, bad)


@pytest.mark.parametrize("dtype", [complex, int])
def test_sampled_field_refuses_values_that_are_not_real_floats(dtype):
    g = GridDomain.box(((0.5, 2.5),), 65)
    with pytest.raises(InputError, match="^sampled values must be real floats$"):
        SampledField(g, np.ones((g.node_count, 1), dtype=dtype))
