"""Sections over chart atlases: gluing, evaluation, quotient inner products,
openness margins, and fiberwise maps."""

import re

import numpy as np
import pytest

from mapgroups.atlas import circle_two_charts, torus_four_charts
from mapgroups.errors import (
    ChartDomainError,
    IncompatibleSectionError,
    InputError,
    ShapeMismatchError,
)
from mapgroups.fields import SampledField
from mapgroups.sections import (
    BallComplement,
    OpenBall,
    OpenBox,
    Section,
    compatibility_defect,
    glue,
    hilbert_inner,
    merge_components,
    open_margin,
    point_eval,
    pushforward,
    pushforward_derivative,
    random_section,
    section_from_function,
    split_components,
    theta_embed,
)


def circle_section(fn, atlas=None):
    return section_from_function(atlas or circle_two_charts(), fn)


def test_global_function_gives_compatible_pieces():
    a = circle_two_charts()
    sec = circle_section(lambda th: np.sin(th[:, 0]), a)
    d = compatibility_defect(sec.pieces, a)
    assert d < 1e-12, f"circle defect {d:.3e}"
    b = torus_four_charts()
    sec2 = section_from_function(b, lambda th: np.cos(th[:, 0]) * np.sin(th[:, 1]))
    d2 = compatibility_defect(sec2.pieces, b)
    assert d2 < 1e-9, f"torus defect {d2:.3e}"


def test_incompatible_pieces_are_rejected():
    a = circle_two_charts()
    sec = circle_section(lambda th: np.sin(th[:, 0]), a)
    pieces = list(sec.pieces)
    bumped = pieces[1].values + 0.5
    pieces[1] = SampledField(pieces[1].domain, bumped)
    d = compatibility_defect(tuple(pieces), a)
    assert d == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(IncompatibleSectionError, match=r"near charts 0/1 at point \["):
        Section(a, tuple(pieces))
    with pytest.raises(IncompatibleSectionError, match=r"near charts 0/1 at point \["):
        glue(tuple(pieces), a)


def test_glue_reproduces_the_sampled_function():
    a = circle_two_charts()
    fn = lambda th: np.column_stack([np.sin(th[:, 0]), np.cos(2 * th[:, 0])])
    sec = circle_section(fn, a)
    glued = glue(theta_embed(sec), a)
    worst = max(
        np.abs(p.values - q.values).max()
        for p, q in zip(glued.pieces, sec.pieces)
    )
    assert worst < 1e-10, f"glue deviation {worst:.3e}"


def test_point_eval_constant_section():
    a = circle_two_charts()
    sec = circle_section(lambda th: np.full(th.shape[0], 2.5), a)
    pts = np.linspace(0.0, 2 * np.pi, 17, endpoint=False)[:, None]
    vals = point_eval(sec, pts)
    assert np.abs(vals - 2.5).max() < 1e-12


def test_point_eval_matches_function_everywhere():
    a = circle_two_charts()
    sec = circle_section(lambda th: np.sin(3 * th[:, 0]), a)
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 2 * np.pi, size=(200, 1))
    vals = point_eval(sec, pts)[:, 0]
    assert np.abs(vals - np.sin(3 * pts[:, 0])).max() < 1e-8


def test_point_eval_sup_bounded_by_piece_sup():
    rng = np.random.default_rng(5)
    a = circle_two_charts()
    sec = random_section(a, 2, rng)
    sup = max(np.abs(p.values).max() for p in sec.pieces)
    pts = rng.uniform(0.0, 2 * np.pi, size=(300, 1))
    assert np.abs(point_eval(sec, pts)).max() <= sup + 1e-8


@pytest.mark.parametrize("build", [circle_two_charts, torus_four_charts])
def test_point_eval_of_no_points_is_empty(build):
    a = build()
    sec = random_section(a, 2, np.random.default_rng(29))
    out = point_eval(sec, np.zeros((0, a.m)))
    assert out.shape == (0, 2)


@pytest.mark.parametrize("build", [circle_two_charts, torus_four_charts])
def test_point_eval_rejects_points_of_the_wrong_width(build):
    a = build()
    sec = random_section(a, 1, np.random.default_rng(31))
    for width in {1, 2, 3} - {a.m}:
        with pytest.raises(ShapeMismatchError, match="points do not match"):
            point_eval(sec, np.zeros((3, width)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("build", [circle_two_charts, torus_four_charts])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_point_eval_names_a_nonfinite_point_as_given(build, bad):
    a = build()
    sec = random_section(a, 1, np.random.default_rng(31))
    pts = np.full((3, a.m), 0.5)
    pts[1, -1] = bad
    message = "^" + re.escape(f"point {pts[1]} is not finite") + "$"
    with pytest.raises(InputError, match=message):
        point_eval(sec, pts)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"components": 0}, r"^components must be >= 1, got 0$"),
        ({"order": -1}, r"^order must be >= 0, got -1$"),
        ({"order": 2.5}, r"^order must be an integer, got 2\.5$"),
    ],
)
def test_random_section_names_a_bad_count(kwargs, message):
    args = {"components": 1, **kwargs}
    with pytest.raises(InputError, match=message):
        random_section(circle_two_charts(), rng=np.random.default_rng(37), **args)


# ---------------------------------------------------------------------------
# quotient inner product


def test_hilbert_inner_of_zero_section_is_zero():
    a = circle_two_charts()
    zero = circle_section(lambda th: np.zeros(th.shape[0]), a)
    assert hilbert_inner(zero, zero, 1.5) == 0.0


def test_hilbert_inner_positive_for_nonzero():
    rng = np.random.default_rng(7)
    a = circle_two_charts()
    sec = random_section(a, 1, rng)
    assert hilbert_inner(sec, sec, 1.0) > 0.0


def test_hilbert_inner_constant_one_reference_values():
    """Frozen values for the all-ones section; the detail terms must add
    up to the total and both charts contribute equally by symmetry."""
    a = circle_two_charts()
    ones = circle_section(lambda th: np.ones(th.shape[0]), a)
    total, detail = hilbert_inner(ones, ones, 1.5, return_detail=True)
    assert total == pytest.approx(1.5358474665143864, rel=1e-9)
    assert len(detail) == 2
    assert detail[0]["term"] == pytest.approx(detail[1]["term"], rel=1e-9)
    assert sum(t["term"] for t in detail) == pytest.approx(total, rel=1e-12)
    assert detail[0]["modes"] == 24

    b = torus_four_charts()
    ones2 = section_from_function(b, lambda th: np.ones(th.shape[0]))
    total2 = hilbert_inner(ones2, ones2, 1.5)
    assert total2 == pytest.approx(2.1998581732499307, rel=1e-9)


def test_hilbert_inner_symmetric_bilinear():
    rng = np.random.default_rng(11)
    a = circle_two_charts()
    x = random_section(a, 1, rng)
    y = random_section(a, 1, rng)
    z = random_section(a, 1, rng)
    s = 1.5
    assert hilbert_inner(x, y, s) == pytest.approx(hilbert_inner(y, x, s), rel=1e-12)
    # build x + 0.8 z piecewise
    pieces = tuple(
        SampledField(p.domain, p.values + 0.8 * q.values)
        for p, q in zip(x.pieces, z.pieces)
    )
    comb = Section(a, pieces)
    left = hilbert_inner(comb, y, s)
    right = hilbert_inner(x, y, s) + 0.8 * hilbert_inner(z, y, s)
    assert left == pytest.approx(right, rel=1e-9)


def test_hilbert_inner_rejects_mismatched_sections():
    rng = np.random.default_rng(13)
    a = circle_two_charts()
    with pytest.raises(InputError):
        hilbert_inner(random_section(a, 1, rng), random_section(torus_four_charts(), 1, rng), 1.0)


# ---------------------------------------------------------------------------
# openness margins


def test_ball_margin_for_small_section():
    # nodes only come within ~2e-5 of the sine extrema, hence the loose abs
    a = circle_two_charts()
    sec = circle_section(lambda th: 0.3 * np.sin(th[:, 0]), a)
    om = open_margin(sec, OpenBall([0.0], 1.0))
    assert om.inside
    assert om.margin == pytest.approx(0.7, abs=1e-4)


def test_margin_clamps_to_zero_when_exiting():
    a = circle_two_charts()
    sec = circle_section(lambda th: 1.5 * np.sin(th[:, 0]), a)
    om = open_margin(sec, OpenBall([0.0], 1.0))
    assert om.margin == 0.0
    assert not om.inside


def test_margin_in_box_and_complement():
    a = circle_two_charts()
    sec = circle_section(lambda th: 2.0 + 0.1 * np.cos(th[:, 0]), a)
    box = OpenBox([1.5], [2.5])
    assert open_margin(sec, box).margin == pytest.approx(0.4, abs=1e-4)
    away = BallComplement([0.0], 1.0)
    assert open_margin(sec, away).margin == pytest.approx(0.9, abs=1e-4)


@pytest.mark.parametrize("target", [OpenBall, BallComplement])
def test_balls_reject_a_nan_radius(target):
    with pytest.raises(InputError, match="ball radius must be positive"):
        target([0.0], float("nan"))


@pytest.mark.parametrize("lo, hi", [([np.nan], [1.0]), ([0.0], [np.nan])])
def test_box_rejects_nan_bounds(lo, hi):
    with pytest.raises(InputError, match="box upper bounds must exceed lower bounds"):
        OpenBox(lo, hi)


# ---------------------------------------------------------------------------
# fiberwise maps


def test_pushforward_identity_and_square():
    a = circle_two_charts()
    sec = circle_section(lambda th: np.sin(th[:, 0]), a)
    same = pushforward(lambda p, y: y, sec)
    assert all(
        np.array_equal(p.values, q.values) for p, q in zip(same.pieces, sec.pieces)
    )
    sq = pushforward(lambda p, y: y**2, sec)
    assert all(
        np.array_equal(p.values, q.values**2) for p, q in zip(sq.pieces, sec.pieces)
    )


def test_pushforward_may_use_base_point():
    a = circle_two_charts()
    sec = circle_section(lambda th: np.cos(th[:, 0]), a)
    out = pushforward(lambda p, y: y * np.cos(p[:, :1]), sec)
    want = circle_section(lambda th: np.cos(th[:, 0]) ** 2, a)
    worst = max(
        np.abs(p.values - q.values).max() for p, q in zip(out.pieces, want.pieces)
    )
    assert worst < 1e-12


def test_pushforward_guards_the_target_set():
    a = circle_two_charts()
    sec = circle_section(lambda th: 1.5 * np.sin(th[:, 0]), a)
    with pytest.raises(ChartDomainError):
        pushforward(lambda p, y: y, sec, target=OpenBall([0.0], 1.0))
    # with a roomier target the same map goes through
    small = circle_section(lambda th: 0.5 * np.sin(th[:, 0]), a)
    out = pushforward(lambda p, y: y, small, target=OpenBall([0.0], 1.0))
    assert out.components == 1


def test_pushforward_derivative_of_square_is_2gh():
    rng = np.random.default_rng(17)
    a = circle_two_charts()
    gamma = random_section(a, 1, rng)
    eta = random_section(a, 1, rng)
    deriv = pushforward_derivative(lambda p, g, e: 2.0 * g * e, gamma, eta)
    for pd, pg, pe in zip(deriv.pieces, gamma.pieces, eta.pieces):
        assert np.array_equal(pd.values, 2.0 * pg.values * pe.values)


def test_pushforward_derivative_vanishes_for_zero_direction():
    rng = np.random.default_rng(19)
    a = circle_two_charts()
    gamma = random_section(a, 1, rng)
    zero = circle_section(lambda th: np.zeros(th.shape[0]), a)
    deriv = pushforward_derivative(lambda p, g, e: np.cos(g) * e, gamma, zero)
    assert all(not p.values.any() for p in deriv.pieces)


def test_split_and_merge_round_trip():
    rng = np.random.default_rng(23)
    a = circle_two_charts()
    sec = random_section(a, 3, rng)
    left, right = split_components(sec, 1)
    assert left.components == 1 and right.components == 2
    back = merge_components(left, right)
    assert all(
        np.array_equal(p.values, q.values) for p, q in zip(back.pieces, sec.pieces)
    )
    with pytest.raises(InputError):
        split_components(sec, 3)
