"""Chart covers of the circle and torus: transitions, bumps, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapgroups.atlas import (
    MIN_OVERLAP,
    Atlas,
    Chart,
    atlas_descriptor,
    builtin_atlas,
    circle_two_charts,
    require_same_atlas,
    torus_four_charts,
    validate_atlas,
    wrap_angle,
)
from mapgroups.cutoffs import bump_profile
from mapgroups.errors import ChartDomainError, CoverageError, InputError
from mapgroups.fields import tensor_points

PI = np.pi


def test_wrap_angle_principal_value():
    th = np.array([0.0, PI, -PI, 3 * PI, -0.1, 2 * PI])
    w = wrap_angle(th)
    assert np.all(w > -PI) and np.all(w <= PI)
    assert w[0] == 0.0
    assert w[1] == PI
    assert abs(w[3] - PI) < 1e-15


def test_chart_coordinates_center_the_offset():
    a = circle_two_charts()
    # the chart offset lands at the window center pi
    for c in a.charts:
        x = c.to_chart(np.array([[c.offset[0]]]))
        assert x[0, 0] == pytest.approx(PI, abs=1e-15)
        back = c.from_chart(x)
        assert abs(wrap_angle(back[0, 0] - c.offset[0])) < 1e-15


@pytest.mark.parametrize("name", ["circle2", "torus4"])
def test_window_angles_are_the_window_nodes_mapped_bitwise(name):
    for c in builtin_atlas(name).charts:
        got = tensor_points(c.window_angles())
        assert got.tobytes() == c.from_chart(c.window.nodes()).tobytes()


def test_circle_transition_is_shift_by_pi():
    a = circle_two_charts()
    x = a.charts[0].to_chart(a.overlap_samples(1, 0, 11))
    y = a.transition_point(1, 0, x)
    # both charts describe the same manifold point
    p0 = a.charts[0].from_chart(x)
    p1 = a.charts[1].from_chart(y)
    assert np.abs(wrap_angle(p0 - p1)).max() < 1e-14
    # and the transition in coordinates is x -> x +- pi
    shift = np.abs(wrap_angle(y - x))
    assert np.abs(shift - PI).max() < 1e-14


def test_self_transition_is_identity():
    a = torus_four_charts()
    x = np.column_stack([np.linspace(2.0, 4.0, 7), np.linspace(2.5, 3.5, 7)])
    assert np.abs(a.transition_point(2, 2, x) - x).max() < 1e-14


def test_transition_round_trip():
    a = torus_four_charts()
    for i in range(4):
        for j in range(4):
            if i == j:
                continue
            ov = a.overlap_samples(i, j, 9)
            assert ov.size > 0, f"charts {i},{j} should overlap"
            x = a.charts[j].to_chart(ov)
            y = a.transition_point(i, j, x)
            back = a.transition_point(j, i, y)
            assert np.abs(back - x).max() < 1e-10


def test_transition_rejects_points_outside_overlap():
    a = circle_two_charts()
    # x = pi + 0.5 is the point theta = 0.5, outside chart 1's codomain
    with pytest.raises(ChartDomainError):
        a.transition_point(1, 0, np.array([[PI + 0.5]]))
    # and x = pi + 2.5 is outside chart 0's own codomain
    with pytest.raises(ChartDomainError):
        a.transition_point(1, 0, np.array([[PI + 2.5]]))


def test_transition_points_round_trip_on_the_overlap():
    a = circle_two_charts()
    x = a.charts[0].to_chart(a.overlap_samples(1, 0, 17))
    back = a.transition_point(0, 1, a.transition_point(1, 0, x))
    assert np.abs(back - x).max() <= 1e-10


def test_overlap_samples_lie_in_both_windows():
    for a in (circle_two_charts(), torus_four_charts()):
        for i in range(a.chart_count):
            for j in range(a.chart_count):
                if i == j:
                    continue
                ov = a.overlap_samples(i, j, 7)
                assert ov.size > 0
                di = a.charts[i].window_depth(ov)
                dj = a.charts[j].window_depth(ov)
                assert di.min() > 0.0 and dj.min() > 0.0


def test_partition_weights_sum_to_one():
    for a in (circle_two_charts(), torus_four_charts()):
        pts = a.manifold_grid(501 if a.m == 1 else 41)
        w = a.partition_weights(pts)
        assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-10
        assert w.min() >= 0.0


def test_bumps_vanish_outside_their_window():
    a = circle_two_charts()
    b = a.bump_values(np.array([[0.0], [PI]]))
    # theta = 0 is the center of chart 0 and antipodal to chart 1
    assert b[0, 0] == 1.0 and b[0, 1] == 0.0
    assert b[1, 0] == 0.0 and b[1, 1] == 1.0


def per_axis_bumps(a, theta):
    """The chart bumps as a per-axis product of profiles in chart coordinates."""
    cols = []
    for c in a.charts:
        r = np.abs(c.to_chart(theta) - PI) / c.window_half
        vals = np.ones(theta.shape[0])
        for d in range(a.m):
            vals *= bump_profile(r[:, d], a.plateau)
        cols.append(vals)
    return np.column_stack(cols)


@pytest.mark.parametrize("name", ["circle2", "torus4"])
def test_bumps_equal_the_per_axis_product_bitwise(name):
    a = builtin_atlas(name)
    rng = np.random.default_rng(8)
    for theta in (a.manifold_grid(64), rng.uniform(0.0, 2.0 * PI, size=(200, a.m))):
        assert np.array_equal(a.bump_values(theta), per_axis_bumps(a, theta))


def test_builtin_lookup():
    assert builtin_atlas("circle2").chart_count == 2
    assert builtin_atlas("torus4").chart_count == 4
    with pytest.raises(InputError):
        builtin_atlas("moebius")


def test_builtin_atlas_is_one_instance_per_name_and_resolution():
    torus = builtin_atlas("torus4")
    assert torus is builtin_atlas("torus4", resolution=129)
    assert builtin_atlas("circle2") is builtin_atlas("circle2", resolution=257)
    assert builtin_atlas("circle2", resolution=129) is builtin_atlas("circle2", resolution=129)
    assert builtin_atlas("torus4", resolution=65).lattice_resolution == 65
    assert builtin_atlas("torus4", resolution=65) is not torus
    with pytest.raises(TypeError):
        builtin_atlas("circle2", half_width=1.9)


def test_charts_on_two_lattices_make_no_atlas():
    charts = (Chart(0, [0.0], 2.0, 1.7, 257), Chart(1, [PI], 2.0, 1.7, 129))
    with pytest.raises(InputError, match="different lattices"):
        Atlas("circle2", charts)


def test_charts_of_two_dimensions_make_no_atlas():
    charts = (Chart(0, [0.0], 2.0, 1.7, 129), Chart(1, [PI, PI], 2.0, 1.7, 129))
    with pytest.raises(InputError, match="different lattices"):
        Atlas("mixed", charts)


def test_an_atlas_reads_dimension_and_lattice_from_its_charts():
    torus = builtin_atlas("torus4")
    rebuilt = Atlas("torus4", torus.charts)
    assert rebuilt.m == 2
    assert rebuilt.lattice_resolution == 129
    assert [c.window.resolution for c in rebuilt.charts] == [(129, 129)] * 4
    require_same_atlas(rebuilt, torus, "atlases")
    assert atlas_descriptor(rebuilt) == atlas_descriptor(torus)


@pytest.mark.parametrize("other", [
    circle_two_charts(plateau=0.3),
    circle_two_charts(window_half=1.8),
    Atlas("circle3", builtin_atlas("circle2").charts),
], ids=["plateau", "window_half", "name"])
def test_atlases_with_different_descriptors_are_not_the_same(other):
    with pytest.raises(InputError, match="sections live on different atlases"):
        require_same_atlas(other, builtin_atlas("circle2"), "sections")


def test_unknown_builtin_atlas_is_never_cached():
    for _ in range(2):
        with pytest.raises(InputError, match="unknown atlas 'moebius'"):
            builtin_atlas("moebius", resolution=129)


@pytest.mark.parametrize("name", ["circle2", "torus4"])
def test_transfer_tables_are_built_once(name):
    a = builtin_atlas(name)
    assert a.overlap_transfers is a.overlap_transfers
    assert a.partition_transfers is a.partition_transfers
    assert len(a.partition_transfers) == a.chart_count


@pytest.mark.parametrize("name", ["circle2", "torus4"])
def test_shared_transfer_arrays_are_read_only(name):
    a = builtin_atlas(name)
    ops = [*a.overlap_transfers, *a.partition_transfers[0]]
    arrays = [
        arr
        for op in ops
        for value in vars(op).values()
        for arr in (value if isinstance(value, tuple) else (value,))
        if isinstance(arr, np.ndarray)
    ]
    assert len(arrays) >= 4 * len(ops)
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 1


@pytest.mark.parametrize("name", ["circle2", "torus4"])
def test_shared_chart_offsets_and_window_indices_are_read_only(name):
    for c in builtin_atlas(name).charts:
        for arr in (c.offset, *c.window.axis_indices):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


def test_narrow_windows_rejected():
    with pytest.raises(InputError):
        circle_two_charts(window_half=1.5)
    with pytest.raises(InputError):
        torus_four_charts(window_half=PI / 2)


@pytest.mark.parametrize("build", [circle_two_charts, torus_four_charts])
def test_overlaps_thinner_than_rounding_are_rejected(build):
    # window_half 3 ulp above pi/2 and half_width 1 ulp above it: the
    # overlap samples at 3*pi/2 land a rounding error outside the chart 1
    # codomain, so validate_atlas could not report on such an atlas.
    with pytest.raises(InputError, match="exceed pi/2"):
        build(resolution=65, window_half=1.5707963267948972,
              half_width=1.5707963267948974)


@pytest.mark.parametrize("build", [circle_two_charts, torus_four_charts])
def test_the_thinnest_accepted_overlap_validates(build):
    window_half = PI / 2 + 2.0 * MIN_OVERLAP
    a = build(resolution=65, window_half=window_half,
              half_width=np.nextafter(window_half, PI))
    assert validate_atlas(a, overlap_per_axis=17).passed


def test_validation_passes_for_builtins():
    rep1 = validate_atlas(circle_two_charts())
    assert rep1.passed, rep1
    assert rep1.cover_margin == pytest.approx(0.132271634780875, abs=1e-12)
    rep2 = validate_atlas(torus_four_charts(), overlap_per_axis=17)
    assert rep2.passed, rep2
    assert rep2.cover_margin == pytest.approx(0.15374736581127357, abs=1e-12)


@st.composite
def atlas_parameters(draw, resolutions):
    """Builtin-atlas keywords across their valid ranges, with at most one
    of window_half, half_width or plateau pushed out of its range."""
    broken = draw(st.sampled_from([None, None, "window_half", "half_width", "plateau"]))
    if broken == "window_half":
        window_half = draw(st.floats(min_value=1.0, max_value=PI / 2))
    else:
        window_half = draw(
            st.floats(min_value=PI / 2, max_value=3.0, exclude_min=True)
        )
    if broken == "half_width":
        half_width = draw(
            st.floats(min_value=window_half - 0.5, max_value=window_half)
            | st.floats(min_value=PI, max_value=PI + 0.5)
        )
    else:
        half_width = draw(st.floats(
            min_value=window_half, max_value=PI, exclude_min=True, exclude_max=True
        ))
    if broken == "plateau":
        plateau = draw(st.sampled_from([-0.2, 0.0, 1.0, 1.5]))
    else:
        plateau = draw(st.floats(min_value=0.2, max_value=0.9))
    return {
        "resolution": draw(st.sampled_from(resolutions)),
        "half_width": half_width,
        "window_half": window_half,
        "plateau": plateau,
    }


def assert_validation_verdict(build, params, **validate_kwargs):
    """A valid parameter set passes validation; any other raises InputError."""
    valid = (
        params["window_half"] - PI / 2 > MIN_OVERLAP
        and params["window_half"] < params["half_width"] < PI
        and 0.0 < params["plateau"] < 1.0
    )
    if valid:
        rep = validate_atlas(build(**params), **validate_kwargs)
        assert rep.passed, (params, rep)
    else:
        with pytest.raises(InputError):
            validate_atlas(build(**params), **validate_kwargs)


@settings(max_examples=40)
@given(params=atlas_parameters([65, 129, 257]))
def test_circle_validation_across_parameter_ranges_property(params):
    assert_validation_verdict(circle_two_charts, params)


@settings(max_examples=6)
@given(params=atlas_parameters([65, 129]))
def test_torus_validation_across_parameter_ranges_property(params):
    assert_validation_verdict(torus_four_charts, params, overlap_per_axis=17)


def test_validation_catches_corrupted_transition():
    """Biasing one transition by 0.01 must show up as a cocycle defect."""

    class Corrupted(Atlas):
        def transition_point(self, i, j, x):
            out = super().transition_point(i, j, x)
            if (i, j) == (1, 0):
                out = out + 0.01
            return out

    base = torus_four_charts()
    bad = Corrupted(base.name, base.charts, base.plateau)
    rep = validate_atlas(bad, overlap_per_axis=9)
    assert not rep.passed
    assert rep.cocycle_residual == pytest.approx(0.01, abs=1e-12)


def test_uncovered_point_raises():
    # arcs of half-width 1 around 0 and pi leave theta = pi/2 uncovered
    charts = tuple(Chart(k, [off], 2.0, 1.0, 257) for k, off in enumerate((0.0, PI)))
    gappy = Atlas("gappy", charts)
    with pytest.raises(CoverageError):
        gappy.partition_weights(np.array([[PI / 2]]))
