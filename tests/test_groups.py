"""Matrix groups and node-wise group sections over an atlas."""

import dataclasses
import functools
import json
import logging

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mapgroups.atlas import circle_two_charts, torus_four_charts
from mapgroups.errors import ChartDomainError, InputError, NumericError
from mapgroups.groups import (
    GROUP_BUILDERS,
    PROJECTION_THRESHOLD,
    RELATION_DEFECT_LIMIT,
    AlgebraSection,
    GroupSection,
    adjoint_operator,
    bch_order2_probe,
    bch_residual,
    bracket,
    bracket_from_products,
    exp_section,
    group_by_name,
    group_invert,
    group_multiply,
    identity_group_section,
    log_section,
    node_product,
    random_algebra_section,
    so3,
    su2_real,
    upper_triangular2,
)
from mapgroups.limits import TimeSampledCurve, constant_curve, evolve
from mapgroups.sections import OVERLAP_TOLERANCE, compatibility_defect
from mapgroups.serialize import (
    canonical_json,
    dump_curve,
    dump_group_section,
    encode_array,
    load_curve,
    load_group_section,
)

ALL_GROUPS = [so3(), su2_real(), upper_triangular2()]


def matrix_last(g):
    """An entry-first (d, d, *nodes) stack as (*nodes, d, d), for np.matmul."""
    return np.moveaxis(g, (0, 1), (-2, -1))


# ---------------------------------------------------------------------------
# matrix level


def test_builders_and_lookup():
    assert sorted(GROUP_BUILDERS) == ["SO3", "SU2", "UT2"]
    assert group_by_name("SO3").name == "SO3"
    with pytest.raises(InputError):
        group_by_name("E8")


def test_exp_of_zero_is_identity():
    for g in ALL_GROUPS:
        out = g.exp(np.zeros((4, g.algebra_dim)))
        eye = np.broadcast_to(g.identity()[..., None], out.shape)
        assert np.abs(out - eye).max() < 1e-15, g.name


def test_so3_quarter_turn_about_z():
    g = so3()
    r = g.exp(np.array([0.0, 0.0, np.pi / 2]))
    want = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.abs(r - want).max() < 1e-15


def test_log_inverts_exp_inside_the_ball():
    rng = np.random.default_rng(3)
    for g in ALL_GROUPS:
        for trial in range(20):
            v = rng.uniform(-1.0, 1.0, size=g.algebra_dim)
            v *= 0.8 * g.q_radius / max(np.linalg.norm(v), 1e-12)
            back = g.log(g.exp(v))
            assert np.abs(back - v).max() < 1e-10, f"{g.name} trial {trial}"


@settings(max_examples=60)
@given(
    group=st.sampled_from(ALL_GROUPS),
    radius=st.sampled_from(["v_radius", "q_radius"]),
    direction=st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3
    ),
)
def test_log_inverts_exp_at_the_ball_radii_property(group, radius, direction):
    """log(exp(v)) = v at |v| = v_radius and just inside |v| = q_radius.

    At exactly q_radius ``log_valid`` rightly rejects part of the draws, so
    the outer radius is 0.999 q_radius.
    """
    u = np.asarray(direction)
    assume(np.linalg.norm(u) > 1e-3)
    r = group.v_radius if radius == "v_radius" else 0.999 * group.q_radius
    v = r * u / np.linalg.norm(u)
    g = group.exp(v[None])
    assert group.log_valid(g)[0]
    err = float(np.linalg.norm(group.log(g)[0] - v))
    assert err <= 1e-12, f"{group.name} at {radius}: |log(exp(v)) - v| = {err:.3e}"


DIRECTION = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3)
FRACTION = st.floats(min_value=0.0, max_value=1.0 - 1e-9)


@settings(max_examples=60)
@given(
    group=st.sampled_from(ALL_GROUPS),
    du=DIRECTION,
    dv=DIRECTION,
    fu=FRACTION,
    fv=FRACTION,
)
def test_products_of_exponentials_below_v_radius_are_log_valid_property(
    group, du, dv, fu, fv
):
    """exp(u) exp(v) stays in the chart ball for |u|, |v| strictly below
    v_radius.  The largest norm drawn is (1 - 1e-9) v_radius: on the
    collinear edge the product lies on the ball's boundary, where rounding
    (about 1e-16 relative) decides ``log_valid`` either way."""
    u, v = np.asarray(du), np.asarray(dv)
    assume(np.linalg.norm(u) > 1e-3 and np.linalg.norm(v) > 1e-3)
    u *= fu * group.v_radius / np.linalg.norm(u)
    v *= fv * group.v_radius / np.linalg.norm(v)
    assert group.log_valid(node_product(group.exp(u[None]), group.exp(v[None])))[0]


@pytest.mark.parametrize("name, valid", [("SO3", False), ("SU2", False), ("UT2", True)])
def test_the_product_of_two_collinear_exponentials_at_v_radius(name, valid):
    """At |u| = |v| = v_radius in one direction, SO3 and SU2 land on the
    boundary of their chart ball, which ``log_valid`` excludes: the bound
    on the factors is strict."""
    g = group_by_name(name)
    u = np.array([[g.v_radius, 0.0, 0.0]])
    assert g.log_valid(node_product(g.exp(u), g.exp(u)))[0] == valid


def test_log_domain_guards():
    g = so3()
    # rotation by pi about the x axis sits outside the log ball
    half_turn = np.diag([1.0, -1.0, -1.0])
    assert not g.log_valid(half_turn[..., None])[0]
    assert g.log_valid(g.identity()[..., None])[0]
    ut = upper_triangular2()
    assert not ut.log_valid(np.array([[[-1.0], [0.0]], [[0.0], [1.0]]]))[0]


def with_bottom_copied(mats):
    """A (4, 4, *nodes) stack with its bottom half of entry rows rewritten
    from its top half, as the realified form [[X, -Y], [Y, X]] fixes it."""
    out = mats.copy()
    out[2:, :2] = -out[:2, 2:]
    out[2:, 2:] = out[:2, :2]
    return out


def su2_defect_reference(g):
    """The SU2 relation defect through a batched U^H U and np.linalg.det."""
    u = g[..., :2, :2] + 1j * g[..., 2:, :2]
    uhu = np.conj(np.swapaxes(u, -1, -2)) @ u
    unit = np.abs(uhu - np.eye(2)).max(axis=(-2, -1))
    det = np.abs(np.linalg.det(u) - 1.0)
    return np.maximum(unit, det)


@pytest.mark.parametrize("drift", [0.0, 1e-9, 1e-3])
def test_su2_closed_form_defect_matches_matrix_reference(drift):
    g = su2_real()
    rng = np.random.default_rng(17)
    mats = g.exp(rng.uniform(-1.4, 1.4, size=(500, 3)))
    mats[:2] += drift * rng.standard_normal(mats[:2].shape)
    mats = with_bottom_copied(mats)
    got = g.relation_defect(mats)
    want = su2_defect_reference(matrix_last(mats))
    assert np.abs(got - want).max() <= 4 * np.finfo(float).eps
    if drift:
        assert got.min() > 0.1 * drift


def su2_block_defect(g):
    """The SU2 relation defect read from strided 2x2 blocks of each matrix."""
    x1, y1 = g[..., :2, :2], g[..., 2:, :2]
    a, b, c, d = (x1[..., i, j] + 1j * y1[..., i, j] for i in (0, 1) for j in (0, 1))
    off = np.abs(np.conj(a) * b + np.conj(c) * d)

    def abs2(z):
        return z.real * z.real + z.imag * z.imag

    unit = np.maximum(np.abs(abs2(a) + abs2(c) - 1.0), np.abs(abs2(b) + abs2(d) - 1.0))
    det = np.abs(a * d - b * c - 1.0)
    return np.maximum(np.maximum(unit, off), det)


@pytest.mark.parametrize("batch", [(), (500,), (3, 40)])
def test_su2_entry_vector_defect_equals_block_form_bitwise(batch):
    g = su2_real()
    rng = np.random.default_rng(19)

    def draw():
        return g.exp(rng.uniform(-1.4, 1.4, size=batch + (3,)))

    # Every stack but exp's drifts in its top half and copies it down.
    cases = {
        "exp": draw(),
        "product": node_product(draw(), draw()),
        "drift 1e-9": draw() + 1e-9 * rng.standard_normal((4, 4) + batch),
        "drift 1e-3": draw() + 1e-3 * rng.standard_normal((4, 4) + batch),
        "normal": rng.standard_normal((4, 4) + batch),
    }
    for kind, mats in cases.items():
        mats = with_bottom_copied(mats)
        got = np.asarray(g.relation_defect(mats))
        # One matrix is a one-node stack: array arithmetic on both sides.
        want = np.asarray(su2_block_defect(matrix_last(mats.reshape(4, 4, -1)))).reshape(batch)
        assert got.shape == batch, kind
        assert got.tobytes() == want.tobytes(), kind


def su2_exp_reference(v):
    """SU2 exp as first written: the sum of the cos(theta/2) identity stack
    and the sinc(theta/2)-scaled algebra stack."""
    theta = np.linalg.norm(v, axis=-1)
    half = 0.5 * theta
    small = theta < 1e-8
    hs = np.where(small, 1.0, half)
    sinc_half = np.where(small, 1.0 - half**2 / 6.0, np.sin(hs) / hs)
    xi = np.tensordot(su2_real().basis, v, (0, -1))
    eye = np.eye(4).reshape((4, 4) + (1,) * theta.ndim)
    return np.cos(half) * eye + sinc_half * xi


def su2_exp_product_reference(v):
    """SU2 exp as the full product of the 16-entry basis with the
    coordinates, scaled, then shifted by the identity stack in place."""
    theta = np.linalg.norm(v, axis=-1)
    half = 0.5 * theta
    small = theta < 1e-8
    hs = np.where(small, 1.0, half)
    sinc_half = np.where(small, 1.0 - half**2 / 6.0, np.sin(hs) / hs)
    cos_half = np.cos(half)
    out = np.tensordot(su2_real().basis, v, (0, -1))
    out *= sinc_half
    out += cos_half * 0.0
    for i in range(4):
        out[i, i] += cos_half
    return out


def su2_exp_batches(seed):
    """Rows at many scales, zero rows of either sign, rows below the 1e-8
    series switch, rows at the chart-ball radius and rows with some
    coordinates exactly zero: as one stack, one row and a 2-D batch."""
    g = su2_real()
    rng = np.random.default_rng(seed)
    unit = rng.standard_normal((200, 3))
    unit /= np.linalg.norm(unit, axis=-1, keepdims=True)
    radius = g.q_radius * np.array([1.0 - 1e-9, 1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.0 + 1e-9])
    partial = rng.standard_normal((200, 3)) * rng.choice([1e-9, 1.0, 20.0], (200, 1))
    partial[rng.random((200, 3)) < 0.4] = 0.0
    partial[rng.random((200, 3)) < 0.2] = -0.0
    rows = np.concatenate([
        *(scale * rng.standard_normal((200, 3)) for scale in (1e-12, 1e-6, 0.3, 1.5, 5.0, 40.0)),
        np.zeros((5, 3)), -np.zeros((5, 3)),
        unit * rng.uniform(0.0, 1e-8, (200, 1)),
        (unit[:, None, :] * radius[:, None]).reshape(-1, 3),
        partial,
    ])
    rows = rng.permutation(rows)
    return rows, rows[0], rows[:180].reshape(12, 15, 3)


@pytest.mark.parametrize("seed", range(5))
def test_su2_exp_is_bitwise_its_identity_stack_sum(seed):
    for batch in su2_exp_batches(seed):
        got, want = su2_real().exp(batch), su2_exp_reference(batch)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_su2_exp_is_bitwise_the_full_basis_product(seed):
    """Sign bits included.  exp writes the Y block as a product too: a zero
    entry of -Y need not be the negated zero of Y, and once cos(theta/2)
    < 0 the sign of a zero entry survives the identity shift."""
    for batch in su2_exp_batches(seed):
        got, want = su2_real().exp(batch), su2_exp_product_reference(batch)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_coordinate_pseudoinverse_built_once():
    """The coordinate pseudoinverse is each flat basis element over its
    squared norm, within an ulp of the LAPACK pseudoinverse."""
    for g in ALL_GROUPS:
        flat = g.basis.reshape(g.algebra_dim, -1)
        pinv = flat / (flat * flat).sum(axis=1, keepdims=True)
        assert np.abs(pinv - np.linalg.pinv(flat.T)).max() <= np.finfo(float).eps
        v = np.random.default_rng(2).standard_normal((5, g.algebra_dim))
        want = np.einsum("ab,b...->...a", pinv, g.to_matrix(v).reshape(-1, 5))
        assert np.array_equal(g.from_matrix(g.to_matrix(v)), want)
        assert g._coords_pinv is g._coords_pinv


@settings(max_examples=30, deadline=None)
@given(
    group=st.sampled_from(ALL_GROUPS),
    batch=st.sampled_from([(), (1,), (139,), (3, 40)]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_coordinates_round_trip_bitwise_property(group, batch, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(batch + (group.algebra_dim,)) * 10.0 ** rng.uniform(-3.0, 3.0)
    got = group.from_matrix(group.to_matrix(v))
    assert got.shape == v.shape
    assert got.tobytes() == v.tobytes()


def at_node(x, n):
    """Node n of a (d, d, K) matrix stack, or of a node-first (K[, a]) stack."""
    return x[:, :, n] if x.ndim == 3 else x[n]


@settings(max_examples=30)
@given(
    group=st.sampled_from(ALL_GROUPS),
    nodes=st.integers(min_value=1, max_value=12),
    drift=st.sampled_from([0.0, 1e-9, 1e-3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ops_act_node_by_node_bitwise_property(group, nodes, drift, seed):
    """Each op's result at node n of a stack is, bitwise, its result on that
    node's (d, d) matrix or coordinate vector alone, as a view or a copy."""
    rng = np.random.default_rng(seed)
    u, v = group.v_radius * rng.uniform(-1.0, 1.0, size=(2, nodes, group.algebra_dim))
    g = group.exp(u)
    h = g + drift * rng.standard_normal(g.shape)
    ops = {
        "exp": (group.exp, u),
        "log": (group.log, g),
        "log_valid": (group.log_valid, h),
        "invert": (group.invert, h),
        "project": (group.project, h),
        "relation_defect": (group.relation_defect, h),
        "to_matrix": (group.to_matrix, v),
        "from_matrix": (group.from_matrix, h),
        "adjoint": (group.adjoint, g, v),
        "bracket_coords": (group.bracket_coords, u, v),
        "node_product": (node_product, g, h),
        "multiply": (group.multiply, g, h),
    }
    for name, (op, *args) in ops.items():
        stacked = np.asarray(op(*args))
        for n in range(nodes):
            want = at_node(stacked, n)
            views = [at_node(x, n) for x in args]
            for lone in (views, [x.copy() for x in views]):
                alone = np.asarray(op(*lone))
                assert alone.shape == want.shape, name
                assert alone.tobytes() == want.tobytes(), f"{group.name} {name} node {n}"


def test_inverse_multiplies_to_identity():
    rng = np.random.default_rng(5)
    for g in ALL_GROUPS:
        v = rng.uniform(-0.4, 0.4, size=(6, g.algebra_dim))
        mats = g.exp(v)
        prod = node_product(mats, g.invert(mats))
        eye = np.broadcast_to(g.identity()[..., None], prod.shape)
        assert np.abs(prod - eye).max() < 1e-14, g.name


def test_projection_repairs_small_drift():
    rng = np.random.default_rng(7)
    for g in ALL_GROUPS:
        v = rng.uniform(-0.4, 0.4, size=(5, g.algebra_dim))
        mats = g.exp(v) + 1e-6 * rng.standard_normal((g.dim, g.dim, 5))
        fixed = g.project(mats)
        assert g.relation_defect(fixed).max() < 1e-12, g.name
        assert np.abs(fixed - mats).max() < 1e-4, g.name


# ---------------------------------------------------------------------------
# closed-form projections and determinant, against the LAPACK forms they
# replaced, kept here as the references


def so3_svd_projection(g):
    """The nearest rotation by SVD: the polar factor, its last singular
    vector flipped where the determinant is negative."""
    u, _, vt = np.linalg.svd(matrix_last(g))
    u[..., :, -1] *= np.sign(np.linalg.det(u @ vt))[..., None]
    return np.moveaxis(u @ vt, (-2, -1), (0, 1))


def so3_lapack_defect(g):
    """The SO3 relation defect with the determinant from np.linalg.det."""
    orth = np.abs(node_product(g.swapaxes(0, 1), g) - np.eye(3)[..., None]).max(axis=(0, 1))
    return np.maximum(orth, np.abs(np.linalg.det(matrix_last(g)) - 1.0))


def realify(w):
    """The real 4x4 block form [[X, -Y], [Y, X]] of complex 2x2 matrices
    X + iY, entry-first."""
    x, y = w.real, w.imag
    return np.moveaxis(np.block([[x, -y], [y, x]]), (-2, -1), (0, 1))


def su2_svd_projection(g):
    """The SU2 projection by a complex SVD of U = X + iY, with the residual
    phase divided out so that the determinant is one."""
    uu, _, vt = np.linalg.svd(matrix_last(g[:2, :2] + 1j * g[2:, :2]))
    w = uu @ vt
    return realify(w * (np.linalg.det(w) ** (-0.5))[..., None, None])


def drifted(group, drift, nodes=1000, seed=73):
    """Seeded group values with every entry moved by ``drift`` times a
    standard normal; on SU2 the bottom half is rewritten from the top, so
    that the stack stays realified."""
    rng = np.random.default_rng(seed)
    mats = group.exp(group.v_radius * rng.uniform(-1.0, 1.0, size=(nodes, group.algebra_dim)))
    mats += drift * rng.standard_normal(mats.shape)
    return with_bottom_copied(mats) if group.name == "SU2" else mats


SO3_DRIFTS = [0.0, 1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 1e-2, 0.05]


@pytest.mark.parametrize("drift", SO3_DRIFTS)
def test_so3_newton_schulz_is_the_svd_polar_factor(drift):
    g = so3()
    mats = drifted(g, drift)
    assert g.relation_defect(mats).max() <= 0.5
    got = g.project(mats)
    assert np.abs(got - so3_svd_projection(mats)).max() <= 1e-14
    assert g.relation_defect(got).max() <= 4 * np.finfo(float).eps


def test_the_so3_drifts_span_relation_defects_from_1e_14_to_half():
    g = so3()
    defects = [g.relation_defect(drifted(g, d)).max() for d in SO3_DRIFTS[1:]]
    assert 1e-14 < defects[0] < 1e-12 and 0.3 < defects[-1] <= 0.5


@pytest.mark.parametrize("drift", [0.0, 1e-14, 1e-9, 1e-6, 1e-3, 0.05, 1.0])
def test_so3_triple_product_determinant_is_lapack_det_within_ulps(drift):
    """The defect is the larger of the orthogonality and determinant terms,
    so two defects differ by no more than their determinants do."""
    g = so3()
    mats = drifted(g, drift)
    got, want = g.relation_defect(mats), so3_lapack_defect(mats)
    scale = np.maximum(1.0, np.abs(matrix_last(mats)).sum(axis=-1).prod(axis=-1))
    assert (np.abs(got - want) <= 4 * np.finfo(float).eps * scale).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_so3_defect_of_an_overflowing_stack_is_not_finite_and_does_not_warn():
    g = so3()
    mats = 1e120 * g.exp(np.random.default_rng(97).uniform(-1.0, 1.0, size=(50, 3)))
    assert not np.isfinite(g.relation_defect(mats)).any()


def so3_cross_defect(g):
    """The SO3 relation defect as it read with np.cross: |g^T g - I| out of
    place and the triple product as a sum over the crossed entry rows."""
    orth = np.abs(node_product(g.swapaxes(0, 1), g) - np.eye(3)[..., None]).max(axis=(0, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.abs((g[0] * np.cross(g[1], g[2], axis=0)).sum(axis=0) - 1.0)
    return np.maximum(orth, det)


def su2_entry_defect(g):
    """The SU2 relation defect as it read with one complex array per entry
    of U = X + iY, each its real row plus 1j times its imaginary row."""
    e = g.reshape(16, -1)
    a, b, c, d = (e[k] + 1j * e[k + 8] for k in (0, 1, 4, 5))
    off = np.abs(np.conj(a) * b + np.conj(c) * d)

    def abs2(z):
        return z.real * z.real + z.imag * z.imag

    unit = np.maximum(np.abs(abs2(a) + abs2(c) - 1.0), np.abs(abs2(b) + abs2(d) - 1.0))
    det = np.abs(a * d - b * c - 1.0)
    return np.maximum(np.maximum(unit, off), det).reshape(g.shape[2:])


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["SO3", "SU2"]),
    nodes=st.sampled_from([1, 139, 4900]),
    drift=st.one_of(st.just(0.0), st.floats(0.0, 0.3)),
    scale=st.sampled_from([1.0, 1e200]),
    seed=st.integers(0, 2**32 - 1),
)
def test_relation_defect_is_bitwise_its_reference_form(name, nodes, drift, scale, seed):
    """Compared as int64 views, so each NaN and inf, and its sign, sits
    where the reference puts it; a 1e200 scale overflows every product."""
    g = group_by_name(name)
    mats = scale * drifted(g, drift, nodes=nodes, seed=seed)
    reference = so3_cross_defect if name == "SO3" else su2_entry_defect
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = g.relation_defect(mats), reference(mats)
    assert got.shape == want.shape == (nodes,)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    if scale != 1.0:
        assert not np.isfinite(got).any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "name, projected", [("SO3", "nan"), ("SU2", r"1\.000e\+00")], ids=["SO3", "SU2"]
)
def test_a_nan_relation_defect_fails_both_relation_checks(atlas, name, projected):
    """Finite entries of 1e200 overflow every entry product, so the defect
    is NaN, which compares false with any limit; both checks still fail.
    Re-projection cannot repair the chart: SO3's Newton-Schulz steps keep
    the overflow, and SU2's quaternion norm overflows to inf, so its
    projected value is 0."""
    g = group_by_name(name)
    gamma = exp_section(random_algebra_section(atlas, g, np.random.default_rng(5)))
    pieces = (1e200 * gamma.pieces[0],) + gamma.pieces[1:]
    assert np.isfinite(pieces[0]).all() and np.isnan(g.relation_defect(pieces[0])).any()
    with pytest.raises(
        InputError, match=r"^chart 0: node matrices violate the group relations by nan$"
    ):
        GroupSection(atlas, g, pieces)
    with pytest.raises(
        NumericError,
        match=rf"^chart 0: product relation defect {projected} exceeds 1\.0e-10 even after "
        r"re-projection$",
    ):
        GroupSection.computed(atlas, g, pieces, PROJECTION_THRESHOLD, "product")


@pytest.mark.parametrize("seed", range(4))
def test_seven_steps_repair_defects_near_one_and_the_stated_singular_values(seed):
    """Normal drifts of rotations whose largest relation defect is about 1,
    and stacks whose singular values lie at the ends of [0.35, 1.53]."""
    g = so3()
    mats = drifted(g, 0.1, nodes=4900, seed=seed)
    assert 0.9 < g.relation_defect(mats).max() < 1.2
    assert g.relation_defect(g.project(mats)).max() < RELATION_DEFECT_LIMIT
    rng = np.random.default_rng(seed)
    u, v = (g.exp(rng.uniform(-1.0, 1.0, size=(500, 3))) for _ in range(2))
    sigma = rng.choice([0.35, 1.0, 1.53], size=(3, 500))
    mats = np.einsum("ik...,k...,jk...->ij...", u, sigma, v)
    assert g.relation_defect(g.project(mats)).max() < RELATION_DEFECT_LIMIT


@pytest.mark.parametrize("drift", [0.0, 1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 1e-2])
def test_su2_quaternion_projection_matches_the_svd_form(drift):
    """Within 1e-14 for realified drifts up to 1e-9; above, the two agree to
    second order in the drift."""
    g = su2_real()
    mats = drifted(g, drift)
    got = g.project(mats)
    assert np.abs(got - su2_svd_projection(mats)).max() <= max(1e-14, 10 * drift**2)
    assert g.relation_defect(got).max() <= 4 * np.finfo(float).eps


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    batch=st.sampled_from([(), (1,), (139,), (3, 40)]),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_su2_projection_of_any_finite_stack_is_realified_exactly_property(batch, scale, seed):
    g = su2_real()
    mats = scale * np.random.default_rng(seed).standard_normal((4, 4) + batch)
    got = g.project(mats)
    assert got.shape == mats.shape
    assert g.exact_fn(got).all() and realified_exactly(got)


def test_ut2_projection_zeroes_only_the_lower_entry():
    g = upper_triangular2()
    mats = np.random.default_rng(79).standard_normal((2, 2, 50))
    got = g.project(mats)
    assert not got[1, 0].any()
    for i, j in ((0, 0), (0, 1), (1, 1)):
        assert got[i, j].tobytes() == mats[i, j].tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "group, scale",
    [(so3(), 3.0), (so3(), 1e3), (so3(), 2.0), (so3(), 1e-3), (su2_real(), 0.0)],
    ids=["SO3-overflow", "SO3-overflow-early", "SO3-sign-flip", "SO3-too-small", "SU2-zero"],
)
def test_a_stack_the_projection_cannot_repair_is_a_numeric_error(atlas, group, scale):
    """Chart 1's piece scaled by ``scale``.  Singular values of sqrt(3) or
    more go to 0, flip sign or overflow; small ones are not brought to 1; a
    zero quaternion part divides 0 by 0.  None of it warns, and each ends in
    the NumericError naming the chart."""
    xi = random_algebra_section(atlas, group, np.random.default_rng(89))
    pieces = list(exp_section(xi).pieces)
    pieces[1] = scale * pieces[1]
    with pytest.raises(
        NumericError,
        match=r"^chart 1: product relation defect \S+ exceeds 1\.0e-10 even after re-projection$",
    ):
        GroupSection.computed(atlas, group, pieces, PROJECTION_THRESHOLD, "product")


def test_adjoint_matches_conjugation():
    rng = np.random.default_rng(9)
    for g in ALL_GROUPS:
        h = g.exp(rng.uniform(-0.5, 0.5, size=(8, g.algebra_dim)))
        x = rng.uniform(-1.0, 1.0, size=(8, g.algebra_dim))
        ad = matrix_last(g.to_matrix(g.adjoint(h, x)))
        conj = matrix_last(h) @ matrix_last(g.to_matrix(x)) @ matrix_last(g.invert(h))
        assert np.abs(ad - conj).max() < 1e-10, g.name


def test_so3_adjoint_is_an_isometry():
    rng = np.random.default_rng(11)
    g = so3()
    h = g.exp(rng.uniform(-1.0, 1.0, size=(50, 3)))
    x = rng.uniform(-1.0, 1.0, size=(50, 3))
    gap = np.abs(
        np.linalg.norm(g.adjoint(h, x), axis=-1) - np.linalg.norm(x, axis=-1)
    ).max()
    assert gap < 1e-12, f"norm drift {gap:.3e}"


def test_bracket_structure_constants():
    g = so3()
    e = np.eye(3)
    assert np.abs(g.bracket_coords(e[0], e[1]) - e[2]).max() < 1e-14
    assert np.abs(g.bracket_coords(e[1], e[2]) - e[0]).max() < 1e-14
    assert np.abs(g.bracket_coords(e[0], e[0])).max() == 0.0


def test_bracket_jacobi_identity():
    rng = np.random.default_rng(13)
    for g in ALL_GROUPS:
        for trial in range(10):
            u, v, w = rng.uniform(-1.0, 1.0, size=(3, g.algebra_dim))
            total = (
                g.bracket_coords(u, g.bracket_coords(v, w))
                + g.bracket_coords(v, g.bracket_coords(w, u))
                + g.bracket_coords(w, g.bracket_coords(u, v))
            )
            assert np.abs(total).max() < 1e-12, f"{g.name} trial {trial}"


# ---------------------------------------------------------------------------
# exactly realified SU2


def realified_exactly(g):
    """Both copies of X, and of Y, in [[X, -Y], [Y, X]] are equal as floats."""
    return bool(np.all(g[2:, 2:] == g[:2, :2]) and np.all(g[2:, :2] == -g[:2, 2:]))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    batch=st.sampled_from([(), (1,), (140,), (4900,), (3, 40)]),
    drift=st.sampled_from([0.0, 1e-9, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_su2_product_top_rows_are_node_product_bitwise_property(batch, drift, seed):
    """The top half of the SU2 product is node_product's, byte for byte, on
    group values and on any stacks; the bottom half is copied from it."""
    g = su2_real()
    rng = np.random.default_rng(seed)
    a, b = (
        g.exp(rng.uniform(-1.4, 1.4, size=batch + (3,)))
        + drift * rng.standard_normal((4, 4) + batch)
        for _ in range(2)
    )
    got, want = g.multiply(a, b), node_product(a, b)
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert got[:2].tobytes() == want[:2].tobytes()
    assert realified_exactly(got) and g.exact_fn(got).all()


@pytest.mark.parametrize("atlas_name", ["circle2", "torus4"])
def test_su2_values_the_program_computes_pass_the_witness(atlas_name):
    """exp, multiply, invert, project, the identity and evolve's time-1
    value, on a sampled and on a constant curve."""
    atlas = {"circle2": circle_two_charts, "torus4": torus_four_charts}[atlas_name]()
    g = su2_real()
    rng = np.random.default_rng(67)
    xi, eta, zeta = (random_algebra_section(atlas, g, rng) for _ in range(3))
    a, b = exp_section(xi), exp_section(eta)
    drifted = a.pieces[0] + 1e-6 * rng.standard_normal(a.pieces[0].shape)
    assert not g.exact_fn(drifted).any()
    sections = {
        "exp": a,
        "multiply": group_multiply(a, b),
        "invert": group_invert(a),
        "identity": identity_group_section(atlas, g),
        "evolve sampled": evolve(TimeSampledCurve(np.linspace(0.0, 1.0, 3), (xi, eta, zeta)), 4),
        "evolve constant": evolve(constant_curve(xi), 8),
    }
    for what, gs in sections.items():
        for p in gs.pieces:
            assert g.exact_fn(p).all() and realified_exactly(p), what
    projected = g.project(drifted)
    assert g.exact_fn(projected).all() and realified_exactly(projected)


def test_the_witness_sees_one_unequal_twin_entry():
    g = su2_real()
    mats = g.exp(np.random.default_rng(71).uniform(-1.0, 1.0, size=(50, 3)))
    assert g.exact_fn(mats).all()
    for row, col in [(2, 2), (3, 3), (2, 0), (3, 1), (0, 0), (1, 2)]:
        bad = mats.copy()
        bad[row, col, 17] = np.nextafter(bad[row, col, 17], 2.0)
        assert np.flatnonzero(~g.exact_fn(bad)).tolist() == [17], (row, col)
        assert not realified_exactly(bad)
        # The relation defect reads X and Y from the left half only, so a
        # change in the right half leaves it; the door check sees it.
        if col >= 2:
            assert g.relation_defect(bad).tobytes() == g.relation_defect(mats).tobytes()
    assert g.exact_fn(g.identity()).shape == ()
    assert [group.exact_fn is None for group in ALL_GROUPS] == [True, False, True]


@functools.cache
def door_case(atlas_name, group_name):
    """A builtin atlas and a seeded exp section of a group on it."""
    atlas = {"circle2": circle_two_charts, "torus4": torus_four_charts}[atlas_name]()
    xi = random_algebra_section(atlas, group_by_name(group_name), np.random.default_rng(73))
    return atlas, exp_section(xi)


def stepped(value, delta):
    """``value + delta``, or ``value`` moved one ulp toward ``delta``'s sign
    where that sum rounds back to ``value``."""
    out = value + delta
    return out if out != value else np.nextafter(value, np.copysign(np.inf, delta))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    atlas_name=st.sampled_from(["circle2", "torus4"]),
    entry=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    delta=st.one_of(st.floats(-1.0, -5e-324), st.floats(5e-324, 1.0)),
    data=st.data(),
)
def test_the_door_refuses_any_one_twin_entry_change(atlas_name, entry, delta, data):
    """Each of the 16 SU2 entries is one side of one of 8 twin pairs.  Moved
    by at least one ulp at any node of any chart, it is refused, from a
    caller and from a file, with the chart and node named.  A NaN there is
    named by the finiteness scan first, a zero against a negative zero is a
    twin pair, and SO3 and UT2 pieces moved alike meet the relation and
    overlap checks alone."""
    atlas, gamma = door_case(atlas_name, "SU2")
    chart = data.draw(st.integers(0, atlas.chart_count - 1), label="chart")
    node = data.draw(st.integers(0, atlas.charts[chart].window.node_count - 1), label="node")
    row, col = entry

    def with_entry(section, at, value):
        pieces = [p.copy() for p in section.pieces]
        pieces[chart][at + (node,)] = value
        return tuple(pieces)

    g = gamma.group
    moved = with_entry(gamma, entry, stepped(gamma.pieces[chart][row, col, node], delta))
    doc = dump_group_section(gamma)
    doc["pieces"][chart] = encode_array(moved[chart].reshape(16, -1).T)
    refusal = rf"^chart {chart}, node {node}: matrix is not of the realified SU2 form"
    with pytest.raises(InputError, match=refusal):
        GroupSection(atlas, g, moved)
    with pytest.raises(InputError, match=refusal):
        load_group_section(json.loads(canonical_json(doc)))
    with pytest.raises(
        InputError, match=rf"^nonfinite value at node {node}, component {4 * row + col}$"
    ):
        GroupSection(atlas, g, with_entry(gamma, entry, np.nan))
    # A zero entry of the identity, its sign flipped: np.array_equal
    # takes -0.0 for 0.0, and so does the door.
    ident = identity_group_section(atlas, g)
    signed = with_entry(ident, (row, col ^ 2) if row == col else entry, -0.0)
    piece = signed[chart]
    assert np.signbit(piece).sum() == 1
    assert np.array_equal(piece[2:, 2:], piece[:2, :2])
    assert np.array_equal(piece[2:, :2], -piece[:2, 2:])
    assert GroupSection(atlas, g, signed).relation_defects == ident.relation_defects
    for name in ("SO3", "UT2"):
        other = door_case(atlas_name, name)[1]
        h, d = other.group, other.group.dim
        at = (row % d, col % d)
        pieces = with_entry(other, at, stepped(other.pieces[chart][at + (node,)], delta))
        lattices = [
            p.reshape((d * d,) + c.window.axis_counts) for c, p in zip(atlas.charts, pieces)
        ]
        if h.relation_defect(pieces[chart]).max() > RELATION_DEFECT_LIMIT:
            expected = rf"^chart {chart}: node matrices violate the group relations"
        elif compatibility_defect(lattices, atlas)[0] > OVERLAP_TOLERANCE:
            expected = r"^group section overlap defect"
        else:
            GroupSection(atlas, h, pieces)
            continue
        with pytest.raises(InputError, match=expected):
            GroupSection(atlas, h, pieces)


# ---------------------------------------------------------------------------
# sections


@pytest.fixture(scope="module")
def atlas():
    return circle_two_charts()


def test_identity_section_and_inverse(atlas):
    rng = np.random.default_rng(17)
    g = so3()
    e = identity_group_section(atlas, g)
    gamma = exp_section(random_algebra_section(atlas, g, rng))
    left = group_multiply(gamma, e)
    for p, q in zip(left.pieces, gamma.pieces):
        assert np.abs(p - q).max() < 1e-14
    cancel = group_multiply(gamma, group_invert(gamma))
    for p, q in zip(cancel.pieces, e.pieces):
        assert np.abs(p - q).max() < 1e-14


def test_multiplication_associative(atlas):
    rng = np.random.default_rng(19)
    g = su2_real()
    a = exp_section(random_algebra_section(atlas, g, rng))
    b = exp_section(random_algebra_section(atlas, g, rng))
    c = exp_section(random_algebra_section(atlas, g, rng))
    lhs = group_multiply(group_multiply(a, b), c)
    rhs = group_multiply(a, group_multiply(b, c))
    for p, q in zip(lhs.pieces, rhs.pieces):
        assert np.abs(p - q).max() < 1e-12


def test_exp_of_zero_section_is_identity(atlas):
    g = upper_triangular2()
    from mapgroups.sections import section_from_function

    zero = AlgebraSection(
        g, section_from_function(atlas, lambda th: np.zeros((th.shape[0], 3)))
    )
    out = exp_section(zero)
    e = identity_group_section(atlas, g)
    for p, q in zip(out.pieces, e.pieces):
        assert np.abs(p - q).max() < 1e-15


def test_exp_one_parameter_homomorphism(atlas):
    rng = np.random.default_rng(23)
    g = so3()
    xi = random_algebra_section(atlas, g, rng)
    s, t = 0.3, 0.3
    joint = exp_section(xi.scaled(s + t))
    split = group_multiply(exp_section(xi.scaled(s)), exp_section(xi.scaled(t)))
    for p, q in zip(joint.pieces, split.pieces):
        assert np.abs(p - q).max() < 1e-10


def test_log_section_round_trip(atlas):
    rng = np.random.default_rng(29)
    for g in ALL_GROUPS:
        xi = random_algebra_section(atlas, g, rng)
        back = log_section(exp_section(xi))
        gap = (back - xi).section.sup_norm()
        assert gap < 1e-9, f"{g.name}: log round trip {gap:.3e}"


def test_log_of_identity_is_zero(atlas):
    g = so3()
    out = log_section(identity_group_section(atlas, g))
    assert out.section.sup_norm() < 1e-14


def test_log_rejects_far_rotations(atlas):
    g = so3()
    coords = np.array([np.pi - 0.05, 0.0, 0.0])
    pieces = tuple(
        np.broadcast_to(g.exp(coords)[..., None], (3, 3, c.window.node_count))
        for c in atlas.charts
    )
    gamma = GroupSection(atlas, g, pieces)
    with pytest.raises(ChartDomainError):
        log_section(gamma)


def test_group_section_rejects_non_members(atlas):
    g = so3()
    pieces = tuple(
        np.full((3, 3, c.window.node_count), 0.5) for c in atlas.charts
    )
    with pytest.raises(InputError):
        GroupSection(atlas, g, pieces)


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: g.name)
def test_group_section_names_the_worst_overlap_point(atlas, g):
    rng = np.random.default_rng(37)
    pieces = list(exp_section(random_algebra_section(atlas, g, rng)).pieces)
    pieces[1] = g.multiply(pieces[1], g.exp(np.full(g.algebra_dim, 1e-6)))
    with pytest.raises(
        InputError,
        match=r"^group section overlap defect \S+ exceeds 1\.0e-09 near charts "
        r"0/1 at point \[\S+\]$",
    ):
        GroupSection(atlas, g, tuple(pieces))


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: g.name)
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_group_section_names_a_nonfinite_entry(atlas, g):
    rng = np.random.default_rng(41)
    pieces = list(exp_section(random_algebra_section(atlas, g, rng)).pieces)
    pieces[1] = pieces[1].copy()
    pieces[1][0, 1, 5] = np.nan
    with pytest.raises(InputError, match=r"^nonfinite value at node 5, component 1$"):
        GroupSection(atlas, g, tuple(pieces))


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: g.name)
@pytest.mark.filterwarnings("error")
def test_nonfinite_entry_is_rejected_before_any_defect_is_measured(atlas, g):
    rng = np.random.default_rng(41)
    pieces = list(exp_section(random_algebra_section(atlas, g, rng)).pieces)
    pieces[1] = pieces[1].copy()
    pieces[1][0, 1, 5] = np.nan
    with pytest.raises(InputError, match=r"^nonfinite value at node 5, component 1$"):
        GroupSection(atlas, g, tuple(pieces))


@pytest.fixture(scope="module")
def torus():
    return torus_four_charts()


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: g.name)
def test_relation_defects_are_the_per_chart_maxima(atlas, torus, g):
    for a in (atlas, torus):
        gs = exp_section(random_algebra_section(a, g, np.random.default_rng(47)))
        want = tuple(float(g.relation_defect(p).max()) for p in gs.pieces)
        assert gs.relation_defects == want


def test_product_projection_cannot_repair_is_a_numeric_error(atlas):
    group = dataclasses.replace(so3(), project_fn=lambda g: g)
    rng = np.random.default_rng(43)

    def drifted():
        # Scaling by 1 + 3e-11 moves |det - 1| to 9e-11, inside the
        # construction limit; the product of two such factors sits 1.8e-10 off.
        xi = random_algebra_section(atlas, group, rng)
        pieces = tuple(p * (1.0 + 3e-11) for p in exp_section(xi).pieces)
        return GroupSection(atlas, group, pieces)

    a, b = drifted(), drifted()
    assert 0.8e-10 < max(a.relation_defects + b.relation_defects) < 1e-10
    with pytest.raises(NumericError, match=r"^chart 0: product relation defect "):
        group_multiply(a, b)


def _counting(group):
    """``group`` with a defect_fn and, where it has one, an exact_fn that
    record each call, and the two records."""
    calls, witnesses = [], []

    def counting(mats):
        calls.append(mats.shape)
        return group.defect_fn(mats)

    def witness(mats):
        witnesses.append(mats.shape)
        return group.exact_fn(mats)

    door = witness if group.exact_fn else None
    return dataclasses.replace(group, defect_fn=counting, exact_fn=door), calls, witnesses


@pytest.mark.parametrize("base", ALL_GROUPS, ids=lambda g: g.name)
def test_each_constructed_value_is_measured_once_per_chart(atlas, caplog, base):
    group, calls, witnesses = _counting(base)
    rng = np.random.default_rng(53)
    xi, eta = (random_algebra_section(atlas, group, rng) for _ in range(2))
    g, h = exp_section(xi), exp_section(eta)
    for build in (
        lambda: exp_section(xi),
        lambda: group_invert(g),
        lambda: group_multiply(g, h),
    ):
        calls.clear()
        witnesses.clear()
        with caplog.at_level(logging.INFO, logger="mapgroups.groups"):
            built = build()
        assert len(calls) == atlas.chart_count
        assert len(witnesses) == (atlas.chart_count if base.exact_fn else 0)
        assert not caplog.records
        want = tuple(float(base.relation_defect(p).max()) for p in built.pieces)
        assert built.relation_defects == want


def test_a_reprojected_product_is_measured_twice_per_chart(atlas, caplog):
    group, calls, _ = _counting(upper_triangular2())
    rng = np.random.default_rng(59)
    pieces = []
    for p in exp_section(random_algebra_section(atlas, group, rng)).pieces:
        p = p.copy()
        p[1, 0] = 5e-11  # inside the construction limit, above the product threshold
        pieces.append(p)
    a = GroupSection(atlas, group, tuple(pieces))
    ident = identity_group_section(atlas, group)
    calls.clear()
    with caplog.at_level(logging.INFO, logger="mapgroups.groups"):
        out = group_multiply(a, ident)
    assert len(calls) == 2 * atlas.chart_count
    assert [r.getMessage() for r in caplog.records] == [
        f"chart {j}: product drifted 5.000e-11 off UT2; re-projected"
        for j in range(atlas.chart_count)
    ]
    assert out.relation_defects == (0.0,) * atlas.chart_count


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: g.name)
def test_every_construction_gives_contiguous_entry_first_pieces(atlas, g):
    rng = np.random.default_rng(61)
    xi, eta, zeta = (random_algebra_section(atlas, g, rng) for _ in range(3))
    a, b = exp_section(xi), exp_section(eta)
    sampled = TimeSampledCurve(np.linspace(0.0, 1.0, 3), (xi, eta, zeta))
    built = {
        "identity": identity_group_section(atlas, g),
        "exp": a,
        "multiply": group_multiply(a, b),
        "invert": group_invert(a),
        "evolve constant curve": evolve(constant_curve(xi), 8),
        "evolve file curve": evolve(load_curve(dump_curve(sampled)), 8),
        "load": load_group_section(dump_group_section(a)),
    }
    for name, gs in built.items():
        for c, p in zip(atlas.charts, gs.pieces):
            assert p.shape == (g.dim, g.dim, c.window.node_count), name
            assert p.flags.c_contiguous, name
        fresh = tuple(float(g.relation_defect(p).max()) for p in gs.pieces)
        assert gs.relation_defects == fresh, name


def test_adjoint_by_identity_fixes_direction(atlas):
    rng = np.random.default_rng(31)
    g = su2_real()
    eta = random_algebra_section(atlas, g, rng)
    out = adjoint_operator(identity_group_section(atlas, g), eta)
    assert (out - eta).section.sup_norm() < 1e-12


def test_random_algebra_section_scales_to_any_finite_amplitude(atlas):
    g = su2_real()
    zero = random_algebra_section(atlas, g, np.random.default_rng(3), amplitude=0.0)
    assert zero.section.sup_norm() == 0.0
    default = random_algebra_section(atlas, g, np.random.default_rng(3))
    stated = random_algebra_section(atlas, g, np.random.default_rng(3), 0.9 * g.v_radius)
    for p, q in zip(default.section.pieces, stated.section.pieces):
        assert p.values.tobytes() == q.values.tobytes()
    for bad in (-0.5, np.nan, np.inf):
        with pytest.raises(InputError, match=f"^amplitude must be finite and >= 0, got {bad}$"):
            random_algebra_section(atlas, g, np.random.default_rng(3), amplitude=bad)


def test_random_sections_stay_in_the_safe_ball(atlas):
    rng = np.random.default_rng(37)
    for g in ALL_GROUPS:
        xi = random_algebra_section(atlas, g, rng)
        assert xi.section.sup_norm() <= 0.9 * g.v_radius + 1e-12


# ---------------------------------------------------------------------------
# product expansion


def test_product_expansion_residual_tiny_for_commuting(atlas):
    rng = np.random.default_rng(41)
    g = so3()
    xi = random_algebra_section(atlas, g, rng)
    assert bch_residual(xi, xi, 0.1) < 1e-12


def test_product_expansion_third_order(atlas):
    rng = np.random.default_rng(43)
    g = so3()
    xi = random_algebra_section(atlas, g, rng)
    eta = random_algebra_section(atlas, g, rng)
    slope = bch_order2_probe(xi, eta)
    assert abs(slope - 3.0) < 0.4, f"remainder slope {slope:.3f}"


def test_bracket_section_matches_small_products(atlas):
    rng = np.random.default_rng(47)
    for g in ALL_GROUPS:
        xi = random_algebra_section(atlas, g, rng)
        eta = random_algebra_section(atlas, g, rng)
        direct = bracket(xi, eta)
        probed = bracket_from_products(xi, eta)
        gap = (direct - probed).section.sup_norm()
        assert gap < 1e-5, f"{g.name}: bracket gap {gap:.3e}"


def test_bracket_antisymmetric_sectionwise(atlas):
    rng = np.random.default_rng(53)
    g = su2_real()
    xi = random_algebra_section(atlas, g, rng)
    eta = random_algebra_section(atlas, g, rng)
    lhs = bracket(xi, eta)
    rhs = bracket(eta, xi).scaled(-1.0)
    assert (lhs - rhs).section.sup_norm() < 1e-12
