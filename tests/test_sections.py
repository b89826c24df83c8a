"""Sections over chart atlases: gluing, evaluation, quotient inner products,
and fiberwise maps."""

import re

import numpy as np
import pytest

from mapgroups.atlas import builtin_atlas, circle_two_charts, torus_four_charts
from mapgroups.errors import (
    IncompatibleSectionError,
    InputError,
    ShapeMismatchError,
)
from mapgroups.fields import (
    GridDomain,
    SampledField,
    grid_key,
    phase_matrix,
    sobolev_weights,
    tensor_points,
)
from mapgroups.sections import (
    EXTENSION_NODES_2D,
    Section,
    _thin_for_extension,
    _thin_grid,
    compatibility_defect,
    glue,
    hilbert_inner,
    point_eval,
    pushforward,
    pushforward_derivative,
    random_section,
    section_from_function,
    theta_embed,
)
from mapgroups.serialize import dump_section, load_section


def circle_section(fn, atlas=None):
    return section_from_function(atlas or circle_two_charts(), fn)


def test_global_function_gives_compatible_pieces():
    a = circle_two_charts()
    sec = circle_section(lambda th: np.sin(th[:, 0]), a)
    d, _ = compatibility_defect(sec.pieces, a)
    assert d < 1e-12, f"circle defect {d:.3e}"
    b = torus_four_charts()
    sec2 = section_from_function(b, lambda th: np.cos(th[:, 0]) * np.sin(th[:, 1]))
    d2, _ = compatibility_defect(sec2.pieces, b)
    assert d2 < 1e-9, f"torus defect {d2:.3e}"


def test_incompatible_pieces_are_rejected():
    a = circle_two_charts()
    sec = circle_section(lambda th: np.sin(th[:, 0]), a)
    pieces = list(sec.pieces)
    bumped = pieces[1].values + 0.5
    pieces[1] = SampledField(pieces[1].domain, bumped)
    d, where = compatibility_defect(tuple(pieces), a)
    assert d == pytest.approx(0.5, abs=1e-12)
    assert where[:2] == (0, 1)
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


def random_section_coefficients(m, components, rng, order):
    """The coefficients random_section draws."""
    shape = (components,) + (2 * order + 1,) * m
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return coef * sobolev_weights(m, order, -1.0)


def node_by_node_random_section(atlas, components, rng, order):
    """random_section as first written: the polynomial evaluated at the
    manifold point of each window node, ``from_chart`` of the window's nodes,
    as section_from_function reached them."""
    coef = random_section_coefficients(atlas.m, components, rng, order)
    pieces = []
    for c in atlas.charts:
        pts = c.from_chart(c.window.nodes())
        p = [phase_matrix(pts[:, d], order) for d in range(atlas.m)]
        if atlas.m == 1:
            vals = p[0] @ coef.T
        else:
            vals = np.einsum("qb,qnb->qn", p[1], np.einsum("qa,nab->qnb", p[0], coef))
        pieces.append(SampledField(c.window, vals.real))
    return Section(atlas, tuple(pieces))


@pytest.mark.parametrize("name", ["circle2", "torus4"])
@pytest.mark.parametrize("order", [0, 1, 2, 3])
@pytest.mark.parametrize("components", [1, 2, 3])
def test_random_section_is_bitwise_its_node_by_node_form(name, order, components):
    atlas = torus_four_charts() if name == "torus4" else circle_two_charts()
    rng_new, rng_old = np.random.default_rng(order), np.random.default_rng(order)
    got = random_section(atlas, components, rng_new, order)
    want = node_by_node_random_section(atlas, components, rng_old, order)
    for g, w in zip(got.pieces, want.pieces):
        # One shape and node stride: reductions over a value row may group
        # their sums by the layout.
        assert g.values.shape == w.values.shape
        assert g.values.strides[0] == w.values.strides[0]
        if atlas.m == 1:
            assert g.values.tobytes() == w.values.tobytes()
        else:
            # A surface piece is a separable product, which sums in another
            # order than the per-node contraction; the coefficients' l1 norm
            # bounds the values.
            coef = random_section_coefficients(2, components, np.random.default_rng(order), order)
            assert np.abs(g.values - w.values).max() <= 1e-14 * np.abs(coef).sum()
    # The generators are left in one state.
    assert rng_new.integers(2**62) == rng_old.integers(2**62)


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


@pytest.mark.parametrize("build", [circle_two_charts, torus_four_charts])
def test_window_points_are_built_once_read_only_and_handed_to_fn(build):
    atlas = build()
    for c in atlas.charts:
        want = tensor_points(c.window_angles())
        assert c.window_points is c.window_points
        assert not c.window_points.flags.writeable
        assert c.window_points.dtype == want.dtype and c.window_points.shape == want.shape
        assert c.window_points.tobytes() == want.tobytes()
    seen = []
    section_from_function(atlas, lambda th: seen.append(th) or np.ones(th.shape[0]))
    assert all(th is c.window_points for th, c in zip(seen, atlas.charts, strict=True))
    with pytest.raises(ValueError, match="read-only"):
        seen[0][0, 0] = 0.0


def test_thinned_extension_grids_are_shared_by_value_read_only_and_bounded():
    atlas = builtin_atlas("torus4")
    sec = random_section(atlas, 2, np.random.default_rng(5))
    loaded = load_section(dump_section(sec))
    for piece, twin in zip(sec.pieces, loaded.pieces):
        assert piece.domain is not twin.domain
        (thin, modes), (thin_twin, modes_twin) = (
            _thin_for_extension(p, EXTENSION_NODES_2D) for p in (piece, twin)
        )
        assert thin.domain is thin_twin.domain and modes == modes_twin == 12
        grid, take, _ = _thin_grid(*grid_key(piece.domain), EXTENSION_NODES_2D)
        assert grid is thin.domain
        assert not any(a.flags.writeable for a in (*take, *grid.axis_indices))
        # Every sixth of the 70 nodes per axis, from the first.
        stride = (slice(None, None, 6),) * 2
        want = piece.lattice_values()[stride].reshape(-1, 2)
        assert [a.tolist() for a in grid.axis_indices] == [
            a[::6].tolist() for a in piece.domain.axis_indices
        ]
        assert thin.values.tobytes() == thin_twin.values.tobytes() == want.tobytes()
    size = _thin_grid.cache_info().maxsize
    for k in range(size + 2):
        box = GridDomain.box(((1.0, 2.0 + 0.1 * k),), 65)
        _thin_for_extension(SampledField(box, np.ones((box.node_count, 1))), 24)
    assert _thin_grid.cache_info().currsize == size == 8


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

