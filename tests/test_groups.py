"""Matrix groups and node-wise group sections over an atlas."""

import dataclasses

import numpy as np
import pytest

from mapgroups.atlas import circle_two_charts, torus_four_charts
from mapgroups.errors import ChartDomainError, InputError, NumericError
from mapgroups.groups import (
    GROUP_BUILDERS,
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
    random_algebra_section,
    so3,
    su2_real,
    upper_triangular2,
)

ALL_GROUPS = [so3(), su2_real(), upper_triangular2()]


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
        eye = np.broadcast_to(g.identity(), out.shape)
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


def test_log_domain_guards():
    g = so3()
    # rotation by pi about the x axis sits outside the log ball
    half_turn = np.diag([1.0, -1.0, -1.0])
    assert not g.log_valid(half_turn[None])[0]
    assert g.log_valid(g.identity()[None])[0]
    ut = upper_triangular2()
    assert not ut.log_valid(np.array([[[-1.0, 0.0], [0.0, 1.0]]]))[0]


def su2_defect_reference(g):
    """The SU2 relation defect through a batched U^H U and np.linalg.det."""
    x1, x2, y1, y2 = g[..., :2, :2], g[..., 2:, 2:], g[..., 2:, :2], -g[..., :2, 2:]
    struct = np.maximum(
        np.abs(x1 - x2).max(axis=(-2, -1)), np.abs(y1 - y2).max(axis=(-2, -1))
    )
    u = x1 + 1j * y1
    uhu = np.conj(np.swapaxes(u, -1, -2)) @ u
    unit = np.abs(uhu - np.eye(2)).max(axis=(-2, -1))
    det = np.abs(np.linalg.det(u) - 1.0)
    return np.maximum(np.maximum(struct, unit), det)


@pytest.mark.parametrize("drift", [0.0, 1e-9, 1e-3])
def test_su2_closed_form_defect_matches_matrix_reference(drift):
    g = su2_real()
    rng = np.random.default_rng(17)
    mats = g.exp(rng.uniform(-1.4, 1.4, size=(500, 3)))
    mats = mats + drift * rng.standard_normal(mats.shape)
    got = g.relation_defect(mats)
    assert np.abs(got - su2_defect_reference(mats)).max() <= 4 * np.finfo(float).eps
    if drift:
        assert got.min() > 0.1 * drift


def su2_block_defect(g):
    """The SU2 relation defect read from strided 2x2 blocks of each matrix."""
    x1, x2, y1, y2 = g[..., :2, :2], g[..., 2:, 2:], g[..., 2:, :2], -g[..., :2, 2:]
    struct = np.maximum(
        np.abs(x1 - x2).max(axis=(-2, -1)), np.abs(y1 - y2).max(axis=(-2, -1))
    )
    a, b, c, d = (x1[..., i, j] + 1j * y1[..., i, j] for i in (0, 1) for j in (0, 1))
    off = np.abs(np.conj(a) * b + np.conj(c) * d)

    def abs2(z):
        return z.real * z.real + z.imag * z.imag

    unit = np.maximum(np.abs(abs2(a) + abs2(c) - 1.0), np.abs(abs2(b) + abs2(d) - 1.0))
    det = np.abs(a * d - b * c - 1.0)
    return np.maximum(np.maximum(struct, np.maximum(unit, off)), det)


@pytest.mark.parametrize("batch", [(), (500,), (3, 40)])
def test_su2_entry_vector_defect_equals_block_form_bitwise(batch):
    g = su2_real()
    rng = np.random.default_rng(19)

    def draw():
        return g.exp(rng.uniform(-1.4, 1.4, size=batch + (3,)))

    cases = {
        "exp": draw(),
        "product": draw() @ draw(),
        "drift 1e-9": draw() + 1e-9 * rng.standard_normal(batch + (4, 4)),
        "drift 1e-3": draw() + 1e-3 * rng.standard_normal(batch + (4, 4)),
        "normal": rng.standard_normal(batch + (4, 4)),
    }
    for kind, mats in cases.items():
        got = np.asarray(g.relation_defect(mats))
        want = np.asarray(su2_block_defect(mats))
        assert got.shape == batch, kind
        assert got.tobytes() == want.tobytes(), kind


def test_coordinate_pseudoinverse_built_once():
    for g in ALL_GROUPS:
        pinv = np.linalg.pinv(g.basis.reshape(g.algebra_dim, -1).T)
        v = np.random.default_rng(2).standard_normal((5, g.algebra_dim))
        want = np.einsum("ab,...b->...a", pinv, g.to_matrix(v).reshape(5, -1))
        assert np.array_equal(g.from_matrix(g.to_matrix(v)), want)
        assert g._coords_pinv is g._coords_pinv


def test_inverse_multiplies_to_identity():
    rng = np.random.default_rng(5)
    for g in ALL_GROUPS:
        v = rng.uniform(-0.4, 0.4, size=(6, g.algebra_dim))
        mats = g.exp(v)
        prod = mats @ g.invert(mats)
        eye = np.broadcast_to(g.identity(), prod.shape)
        assert np.abs(prod - eye).max() < 1e-14, g.name


def test_projection_repairs_small_drift():
    rng = np.random.default_rng(7)
    for g in ALL_GROUPS:
        v = rng.uniform(-0.4, 0.4, size=(5, g.algebra_dim))
        mats = g.exp(v) + 1e-6 * rng.standard_normal((5, g.dim, g.dim))
        fixed = g.project(mats)
        assert g.relation_defect(fixed).max() < 1e-12, g.name
        assert np.abs(fixed - mats).max() < 1e-4, g.name


def test_adjoint_matches_conjugation():
    rng = np.random.default_rng(9)
    for g in ALL_GROUPS:
        h = g.exp(rng.uniform(-0.5, 0.5, size=(8, g.algebra_dim)))
        x = rng.uniform(-1.0, 1.0, size=(8, g.algebra_dim))
        ad = g.to_matrix(g.adjoint(h, x))
        conj = h @ g.to_matrix(x) @ g.invert(h)
        assert np.abs(ad - conj).max() < 1e-10, g.name


def test_so3_adjoint_is_an_isometry():
    rng = np.random.default_rng(11)
    g = so3()
    h = g.exp(rng.uniform(-1.0, 1.0, size=(50, 3)))
    x = rng.uniform(-1.0, 1.0, size=(50, 3))
    gap = np.abs(g.coord_norm(g.adjoint(h, x)) - g.coord_norm(x)).max()
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
        gap = (back - xi).sup_coord_norm()
        assert gap < 1e-9, f"{g.name}: log round trip {gap:.3e}"


def test_log_of_identity_is_zero(atlas):
    g = so3()
    out = log_section(identity_group_section(atlas, g))
    assert out.sup_coord_norm() < 1e-14


def test_log_rejects_far_rotations(atlas):
    g = so3()
    coords = np.array([np.pi - 0.05, 0.0, 0.0])
    pieces = tuple(
        np.broadcast_to(g.exp(coords), (c.window.node_count, 3, 3)).copy()
        for c in atlas.charts
    )
    gamma = GroupSection(atlas, g, pieces)
    with pytest.raises(ChartDomainError):
        log_section(gamma)


def test_group_section_rejects_non_members(atlas):
    g = so3()
    pieces = tuple(
        np.full((c.window.node_count, 3, 3), 0.5) for c in atlas.charts
    )
    with pytest.raises(InputError):
        GroupSection(atlas, g, pieces)


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: g.name)
def test_group_section_names_the_worst_overlap_point(atlas, g):
    rng = np.random.default_rng(37)
    pieces = list(exp_section(random_algebra_section(atlas, g, rng)).pieces)
    pieces[1] = pieces[1] @ g.exp(np.full(g.algebra_dim, 1e-6))
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
    pieces[1][5, 0, 1] = np.nan
    with pytest.raises(InputError, match=r"^nonfinite value at node 5, component 1$"):
        GroupSection(atlas, g, tuple(pieces))


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: g.name)
@pytest.mark.filterwarnings("error")
def test_nonfinite_entry_is_rejected_before_any_defect_is_measured(atlas, g):
    rng = np.random.default_rng(41)
    pieces = list(exp_section(random_algebra_section(atlas, g, rng)).pieces)
    pieces[1] = pieces[1].copy()
    pieces[1][5, 0, 1] = np.nan
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


def test_adjoint_by_identity_fixes_direction(atlas):
    rng = np.random.default_rng(31)
    g = su2_real()
    eta = random_algebra_section(atlas, g, rng)
    out = adjoint_operator(identity_group_section(atlas, g), eta)
    assert (out - eta).sup_coord_norm() < 1e-12


def test_random_sections_stay_in_the_safe_ball(atlas):
    rng = np.random.default_rng(37)
    for g in ALL_GROUPS:
        xi = random_algebra_section(atlas, g, rng)
        assert xi.sup_coord_norm() <= 0.9 * g.v_radius + 1e-12


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
        gap = (direct - probed).sup_coord_norm()
        assert gap < 1e-5, f"{g.name}: bracket gap {gap:.3e}"


def test_bracket_antisymmetric_sectionwise(atlas):
    rng = np.random.default_rng(53)
    g = su2_real()
    xi = random_algebra_section(atlas, g, rng)
    eta = random_algebra_section(atlas, g, rng)
    lhs = bracket(xi, eta)
    rhs = bracket(eta, xi).scaled(-1.0)
    assert (lhs - rhs).sup_coord_norm() < 1e-12
