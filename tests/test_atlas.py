"""Chart covers of the circle and torus: transitions, bumps, validation."""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapgroups.atlas import (
    HALF_WIDTH,
    VALIDATION_SAMPLES,
    WINDOW_HALF,
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
from mapgroups.axioms import MU_TRIALS
from mapgroups.cutoffs import PLATEAU, bump_profile
from mapgroups.errors import ChartDomainError, CoverageError, InputError
from mapgroups.fields import tensor_points

PI = np.pi

# Least half-width WINDOW_HALF - pi/2 of a chart overlap that the atlas code
# is shown to handle: the rounding of thinner overlaps' sample angles
# (~1e-15 rad) can put them outside a codomain.
MIN_OVERLAP = 1e-12


def broken_invariants(half_width, window_half, plateau, mu_trials, validation_samples):
    """The invariants of the geometry and sample-count constants that the
    given values break, as a set of keys."""
    broken = set()
    if not all(isinstance(x, float) and math.isfinite(x)
               for x in (half_width, window_half, plateau)):
        broken.add("finite")
    else:
        # The 2^m corner charts cover the manifold, with overlaps wider than rounding.
        if not window_half - PI / 2 > MIN_OVERLAP:
            broken.add("cover")
        # Each witness window lies strictly inside its codomain, a proper chart.
        if not 0.0 < window_half < half_width < PI:
            broken.add("nested")
        # Each bump has a plateau and a transition.
        if not 0.0 < plateau < 1.0:
            broken.add("plateau")
    if not all(type(n) is int and n >= 1 for n in (mu_trials, validation_samples)):
        broken.add("count")
    return broken


CONSTANTS = dict(half_width=HALF_WIDTH, window_half=WINDOW_HALF, plateau=PLATEAU,
                 mu_trials=MU_TRIALS, validation_samples=VALIDATION_SAMPLES)


def test_the_geometry_constants_keep_the_invariants_the_code_relies_on():
    assert broken_invariants(**CONSTANTS) == set()


NOT_FINITE = [(bad, "finite") for bad in (math.nan, math.inf, -math.inf, "abc", None)]
NOT_A_COUNT = [(bad, "count") for bad in (0, 1.5, math.nan, math.inf)]
BAD_CONSTANTS = {
    "half_width": NOT_FINITE + [(WINDOW_HALF, "nested"), (PI, "nested")],
    "window_half": NOT_FINITE + [(PI / 2, "cover"), (PI / 2 + MIN_OVERLAP / 2, "cover"),
                                 (HALF_WIDTH, "nested")],
    "plateau": NOT_FINITE + [(0.0, "plateau"), (1.0, "plateau")],
    "mu_trials": NOT_A_COUNT,
    "validation_samples": NOT_A_COUNT,
}


@pytest.mark.parametrize("name, bad, invariant", [
    pytest.param(name, bad, invariant, id=f"{name.upper()}-{bad!r}")
    for name, rows in BAD_CONSTANTS.items()
    for bad, invariant in rows
])
def test_the_invariants_check_sees_a_bad_constant(name, bad, invariant):
    assert broken_invariants(**dict(CONSTANTS, **{name: bad})) == {invariant}


@contextmanager
def geometry(half_width, window_half, plateau=PLATEAU):
    """Run a block with other chart half-widths and bump plateau: the atlas
    and cutoff code read these constants at each call."""
    with mock.patch.multiple("mapgroups.atlas", HALF_WIDTH=half_width, WINDOW_HALF=window_half), \
            mock.patch("mapgroups.cutoffs.PLATEAU", plateau):
        yield


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
        r = np.abs(c.to_chart(theta) - PI) / WINDOW_HALF
        vals = np.ones(theta.shape[0])
        for d in range(a.m):
            vals *= bump_profile(r[:, d])
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
    charts = (Chart(0, [0.0], 257), Chart(1, [PI], 129))
    with pytest.raises(InputError, match="different lattices"):
        Atlas("circle2", charts)


def test_charts_of_two_dimensions_make_no_atlas():
    charts = (Chart(0, [0.0], 129), Chart(1, [PI, PI], 129))
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
    circle_two_charts(129),
    Atlas("circle2", (Chart(0, [0.0], 257), Chart(1, [3.0], 257))),
    Atlas("circle3", builtin_atlas("circle2").charts),
], ids=["lattice", "offset", "name"])
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


@pytest.mark.parametrize("build", [circle_two_charts, torus_four_charts])
def test_the_thinnest_overlap_the_invariants_allow_validates(build):
    window_half = PI / 2 + 2.0 * MIN_OVERLAP
    with geometry(np.nextafter(window_half, PI), window_half):
        assert validate_atlas(build(resolution=65)).passed


@pytest.mark.parametrize("build", [circle_two_charts, torus_four_charts])
@pytest.mark.parametrize("half_width, window_half, error", [
    # windows narrower than a quarter turn leave points of the manifold uncovered
    pytest.param(HALF_WIDTH, 1.5, CoverageError, id="gap"),
    # window_half 3 ulp above pi/2 and half_width 1 ulp above it: the overlap
    # samples at 3*pi/2 land a rounding error outside the chart 1 codomain
    pytest.param(1.5707963267948974, 1.5707963267948972, ChartDomainError,
                 id="thinner-than-rounding"),
])
def test_a_geometry_outside_the_cover_invariant_cannot_be_validated(
        build, half_width, window_half, error):
    assert "cover" in broken_invariants(**dict(CONSTANTS, half_width=half_width,
                                               window_half=window_half))
    with geometry(half_width, window_half), pytest.raises(error):
        validate_atlas(build(resolution=65))


def test_validation_passes_for_builtins():
    rep1 = validate_atlas(circle_two_charts())
    assert rep1.passed, rep1
    assert rep1.cover_margin == pytest.approx(0.132271634780875, abs=1e-12)
    rep2 = validate_atlas(torus_four_charts())
    assert rep2.passed, rep2
    assert rep2.cover_margin == pytest.approx(0.15374736581127357, abs=1e-12)


@st.composite
def geometries(draw):
    """Chart half-widths and a bump plateau across the ranges the geometry
    invariants allow."""
    window_half = draw(st.floats(min_value=PI / 2 + MIN_OVERLAP, max_value=3.0))
    half_width = draw(st.floats(
        min_value=window_half, max_value=PI, exclude_min=True, exclude_max=True
    ))
    return half_width, window_half, draw(st.floats(min_value=0.2, max_value=0.9))


@settings(max_examples=40)
@given(geometry_values=geometries(), resolution=st.sampled_from([65, 129, 257]))
def test_circle_validation_across_the_invariants_ranges_property(geometry_values, resolution):
    with geometry(*geometry_values):
        rep = validate_atlas(circle_two_charts(resolution))
    assert rep.passed, (geometry_values, rep)


@settings(max_examples=6)
@given(geometry_values=geometries(), resolution=st.sampled_from([65, 129]))
def test_torus_validation_across_the_invariants_ranges_property(geometry_values, resolution):
    with geometry(*geometry_values):
        rep = validate_atlas(torus_four_charts(resolution))
    assert rep.passed, (geometry_values, rep)


def test_validation_catches_corrupted_transition():
    """Biasing one transition by 0.01 must show up as a cocycle defect."""

    class Corrupted(Atlas):
        def transition_point(self, i, j, x):
            out = super().transition_point(i, j, x)
            if (i, j) == (1, 0):
                out = out + 0.01
            return out

    base = torus_four_charts()
    bad = Corrupted(base.name, base.charts)
    rep = validate_atlas(bad)
    assert not rep.passed
    assert rep.cocycle_residual == pytest.approx(0.01, abs=1e-12)


def test_uncovered_point_raises():
    # arcs of half-width 1 around 0 and pi leave theta = pi/2 uncovered
    with geometry(HALF_WIDTH, 1.0), pytest.raises(CoverageError):
        charts = tuple(Chart(k, [off], 257) for k, off in enumerate((0.0, PI)))
        Atlas("gappy", charts).partition_weights(np.array([[PI / 2]]))
