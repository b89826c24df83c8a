"""Exponent ladders, borderline decay fields, rung inclusion spectra, and
the time-1 evolution of curves of algebra sections."""

import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapgroups.atlas import circle_two_charts, torus_four_charts
from mapgroups.errors import InputError, NumericError
from mapgroups.groups import (
    RELATION_DEFECT_LIMIT,
    exp_section,
    group_by_name,
    node_product,
    random_algebra_section,
    so3,
    upper_triangular2,
)
from mapgroups.limits import (
    ORDER_MAX,
    ORDER_STEP,
    RATIO_START,
    RATIO_WINDOW,
    TimeSampledCurve,
    _chart_curve_matrices,
    _decay_terms,
    _increment_ratio,
    _interp_matrices,
    _rk4_factor,
    constant_curve,
    critical_order_estimate,
    decay_partial_norm_sq,
    evolution_smoothness_probe,
    evolve,
    ladder,
    rung_compactness_probe,
    sup_entry_gap,
)
from mapgroups.serialize import dump_curve, load_curve


# ---------------------------------------------------------------------------
# ladders


def test_ladder_formula_and_frozen_values():
    lad = ladder(0.5, 4)
    assert lad.rungs == (1.5, 1.0, 0.8333333333333333, 0.75)
    for j, s in enumerate(lad.rungs, start=1):
        assert s == 0.5 + 1.0 / j


def test_ladder_strictly_decreasing_above_base():
    lad = ladder(1.0, 8)
    r = np.array(lad.rungs)
    assert np.all(np.diff(r) < 0)
    assert np.all(r > lad.s0)


def test_ladder_validation():
    with pytest.raises(InputError):
        ladder(0.4, 3)  # below the embedding threshold for curves
    with pytest.raises(InputError):
        ladder(0.9, 3, m=2)
    with pytest.raises(InputError):
        ladder(1.0, 1)


def test_ladder_takes_only_an_integer_count():
    with pytest.raises(InputError, match=r"^count must be an integer, got 2\.5$"):
        ladder(1.0, 2.5)
    assert ladder(1.0, np.int64(3)).rungs == ladder(1.0, 3).rungs


@pytest.mark.parametrize(
    "s0, m, match",
    [
        (float("nan"), 1, r"^s0 must be finite and >= 0\.5, got nan$"),
        (float("inf"), 1, r"^s0 must be finite and >= 0\.5, got inf$"),
        (2.0, 3, r"^dimension m must be 1 or 2, got 3$"),
    ],
)
def test_ladder_rejects_a_nonfinite_base_and_an_unsupported_dimension(s0, m, match):
    with pytest.raises(InputError, match=match):
        ladder(s0, 3, m=m)


# ---------------------------------------------------------------------------
# decay fields and the critical order


def test_partial_norm_small_case():
    # alpha = 2, s = 0: sum over k in {-1,0,1} of (1+k^2)^(-2) = 1.5
    assert decay_partial_norm_sq(2.0, 0.0, 1) == pytest.approx(1.5, rel=1e-15)


def test_partial_norms_cauchy_on_the_convergent_side():
    inc = decay_partial_norm_sq(2.0, 1.0, 20000) - decay_partial_norm_sq(
        2.0, 1.0, 10000
    )
    assert 0.0 < inc < 1e-6, f"tail increment {inc:.3e}"


def test_critical_order_near_two_alpha_minus_one():
    for alpha, want in ((1.0, 0.99609375), (1.5, 1.99609375), (2.0, 2.99609375)):
        got = critical_order_estimate(alpha)
        assert got == pytest.approx(want, abs=1e-12), f"alpha={alpha}: {got}"
        assert abs(got - (2.0 * alpha - 1.0)) < 0.05


CUTS = [RATIO_START << j for j in range(RATIO_WINDOW + 1)]


def reference_increment_ratio(alpha, s, convention):
    """The growth ratio from one fresh lattice per cut."""
    sums = np.array([decay_partial_norm_sq(alpha, s, n, convention) for n in CUTS])
    inc = np.diff(sums)
    if inc[0] <= 0.0:
        return 0.0
    return float(inc[-1] / inc[0])


def reference_critical_order(alpha, convention):
    """Bisection on the per-cut growth ratio."""

    def divergent(s):
        return reference_increment_ratio(alpha, s, convention) >= 1.0

    lo, hi = 0.0, ORDER_MAX
    if divergent(lo):
        return 0.0
    if not divergent(hi):
        return hi
    while hi - lo > ORDER_STEP:
        mid = 0.5 * (lo + hi)
        if divergent(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@settings(max_examples=40)
@given(
    alpha=st.floats(0.05, 5.0),
    s=st.floats(0.0, ORDER_MAX),
    convention=st.sampled_from(["paper", "standard"]),
    extra=st.integers(0, CUTS[-1]),
)
def test_nested_slice_sums_are_the_partial_norms(alpha, s, convention, extra):
    """The central slice |k| <= n of the top cut's terms sums bitwise to
    decay_partial_norm_sq at n, at every cut of the ratio and one more;
    so the ratio is bitwise the per-cut one."""
    top = CUTS[-1]
    terms = _decay_terms(alpha, s, top, convention)
    for n in [*CUTS, extra]:
        assert np.sum(terms[top - n : top + n + 1]) == decay_partial_norm_sq(
            alpha, s, n, convention
        ), n
    assert _increment_ratio(alpha, s, convention) == reference_increment_ratio(
        alpha, s, convention
    )


@settings(max_examples=12)
@given(alpha=st.floats(0.05, 5.0), convention=st.sampled_from(["paper", "standard"]))
def test_critical_order_is_the_per_cut_bisection(alpha, convention):
    assert critical_order_estimate(alpha, convention) == reference_critical_order(
        alpha, convention
    )


# ---------------------------------------------------------------------------
# rung inclusion spectra


def test_rung_probe_reference_report():
    lad = ladder(0.5, 3)
    rep = rung_compactness_probe(lad, 1, 64)
    assert rep.s_fine == 1.5 and rep.s_coarse == 1.0
    assert rep.sigma_max == 1.0
    assert rep.decreasing
    assert rep.spectrum.shape == (129,)
    assert rep.sigma_min == pytest.approx((1.0 + 64.0**2) ** (-0.5 / 4.0), rel=1e-12)


def test_rung_probe_index_bounds():
    lad = ladder(0.5, 3)
    with pytest.raises(InputError):
        rung_compactness_probe(lad, 0, 32)
    with pytest.raises(InputError):
        rung_compactness_probe(lad, 3, 32)


# ---------------------------------------------------------------------------
# evolution


@pytest.fixture(scope="module")
def atlas():
    return circle_two_charts()


def test_constant_curve_evolves_to_exponential(atlas):
    rng = np.random.default_rng(3)
    xi = random_algebra_section(atlas, so3(), rng)
    got = evolve(constant_curve(xi), 64)
    want = exp_section(xi)
    gap = max(np.abs(p - q).max() for p, q in zip(got.pieces, want.pieces))
    assert gap < 1e-8, f"time-1 gap {gap:.3e}"


def test_zero_curve_stays_at_identity(atlas):
    from mapgroups.groups import AlgebraSection
    from mapgroups.sections import section_from_function

    g = upper_triangular2()
    zero = AlgebraSection(
        g, section_from_function(atlas, lambda th: np.zeros((th.shape[0], 3)))
    )
    out = evolve(constant_curve(zero), 16)
    for p in out.pieces:
        eye = np.broadcast_to(np.eye(2)[..., None], p.shape)
        assert np.abs(p - eye).max() < 1e-14


def test_linearly_growing_curve_halves_the_exponent(atlas):
    """gamma(t) = t * xi commutes with itself, so the time-1 value is the
    exponential of the time average xi/2."""
    rng = np.random.default_rng(5)
    xi = random_algebra_section(atlas, so3(), rng)
    times = np.linspace(0.0, 1.0, 9)
    curve = TimeSampledCurve(times, tuple(xi.scaled(float(t)) for t in times))
    got = evolve(curve, 72)
    want = exp_section(xi.scaled(0.5))
    gap = max(np.abs(p - q).max() for p, q in zip(got.pieces, want.pieces))
    assert gap < 1e-8, f"time-1 gap {gap:.3e}"


def test_evolve_step_floor(atlas):
    rng = np.random.default_rng(7)
    xi = random_algebra_section(atlas, so3(), rng)
    times = np.linspace(0.0, 1.0, 9)
    curve = TimeSampledCurve(times, tuple(xi.scaled(float(t)) for t in times))
    with pytest.raises(InputError):
        evolve(curve, 4)


def test_evolve_fourth_order_convergence(atlas):
    rng = np.random.default_rng(9)
    xi = random_algebra_section(atlas, so3(), rng)
    curve = constant_curve(xi)
    want = exp_section(xi)

    def err(steps):
        got = evolve(curve, steps)
        return max(np.abs(p - q).max() for p, q in zip(got.pieces, want.pieces))

    ratio = err(8) / err(16)
    assert abs(ratio - 16.0) < 4.0, f"step-halving ratio {ratio:.2f}"


def test_curve_time_grid_validation(atlas):
    rng = np.random.default_rng(11)
    xi = random_algebra_section(atlas, so3(), rng)
    with pytest.raises(InputError):
        TimeSampledCurve(np.array([0.0, 0.5]), (xi, xi))
    with pytest.raises(InputError):
        TimeSampledCurve(np.array([0.0, 0.7, 1.0]), (xi, xi, xi))


def test_shifted_curve_moves_every_sample(atlas):
    rng = np.random.default_rng(13)
    xi = random_algebra_section(atlas, so3(), rng)
    eta = random_algebra_section(atlas, so3(), rng)
    moved = constant_curve(xi).shifted(eta, 0.25)
    want = xi + eta.scaled(0.25)
    for sec in moved.sections:
        assert (sec - want).section.sup_norm() < 1e-15


def test_smoothness_probe_second_order(atlas):
    rng = np.random.default_rng(15)
    xi = random_algebra_section(atlas, so3(), rng, amplitude=0.8)
    eta = random_algebra_section(atlas, so3(), rng, amplitude=0.5)
    slope = evolution_smoothness_probe(constant_curve(xi), eta, steps=32)
    assert abs(slope - 2.0) < 0.3, f"difference slope {slope:.3f}"


def test_smoothness_probe_rejects_zero_direction(atlas):
    rng = np.random.default_rng(17)
    from mapgroups.groups import AlgebraSection
    from mapgroups.sections import section_from_function

    xi = random_algebra_section(atlas, so3(), rng)
    zero = AlgebraSection(
        so3(), section_from_function(atlas, lambda th: np.zeros((th.shape[0], 3)))
    )
    with pytest.raises(InputError):
        evolution_smoothness_probe(constant_curve(xi), zero, steps=16)


# ---------------------------------------------------------------------------
# RK4 steps as propagators, constant curves by powering


def stepwise_reference(curve, steps):
    """Time-1 pieces from the stage-form RK4 loop (k1..k4 applied to eta
    step by step), with evolve's re-projection rule.  It runs np.matmul on
    (K, d, d) stacks and turns each time-1 value entry-first once."""
    group = curve.group
    h = 1.0 / steps
    pieces = []
    for j in range(curve.atlas.chart_count):
        stack = np.stack([sec.chart_matrices(j).transpose(2, 0, 1) for sec in curve.sections])
        eta = np.broadcast_to(group.identity(), stack.shape[1:]).copy()
        for i in range(steps):
            t = i * h
            a1 = _interp_matrices(stack, curve.times, t)
            a2 = _interp_matrices(stack, curve.times, t + 0.5 * h)
            a4 = _interp_matrices(stack, curve.times, t + h)
            k1 = eta @ a1
            k2 = (eta + 0.5 * h * k1) @ a2
            k3 = (eta + 0.5 * h * k2) @ a2
            k4 = (eta + h * k3) @ a4
            eta = eta + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        eta = np.ascontiguousarray(eta.transpose(1, 2, 0))
        if float(group.relation_defect(eta).max()) > RELATION_DEFECT_LIMIT:
            eta = group.project(eta)
        pieces.append(eta)
    return pieces


def reference_gap(curve, steps):
    got = evolve(curve, steps)
    want = stepwise_reference(curve, steps)
    return max(float(np.abs(p - q).max()) for p, q in zip(got.pieces, want))


@pytest.fixture(scope="module")
def torus():
    return torus_four_charts()


@pytest.mark.parametrize("group_name", ["SO3", "SU2", "UT2"])
@pytest.mark.parametrize("atlas_name", ["circle2", "torus4"])
def test_powered_constant_curve_matches_stepwise_rk4(
    atlas, torus, atlas_name, group_name
):
    chosen = atlas if atlas_name == "circle2" else torus
    xi = random_algebra_section(
        chosen, group_by_name(group_name), np.random.default_rng(0)
    )
    for steps in (8, 32, 64):
        gap = reference_gap(constant_curve(xi), steps)
        assert gap <= 1e-13, f"{steps} steps: gap {gap:.3e}"


@pytest.mark.parametrize("group_name", ["SO3", "SU2", "UT2"])
def test_sampled_curve_propagators_match_stepwise_rk4(atlas, group_name):
    group = group_by_name(group_name)
    rng = np.random.default_rng(21)
    times = np.linspace(0.0, 1.0, 9)
    curve = TimeSampledCurve(
        times, tuple(random_algebra_section(atlas, group, rng) for _ in times)
    )
    gap = reference_gap(curve, 64)
    assert gap <= 1e-13, f"gap {gap:.3e}"


def test_constant_curve_read_back_from_a_file_is_powered_identically(atlas):
    xi = random_algebra_section(atlas, so3(), np.random.default_rng(23))
    curve = constant_curve(xi)
    back = load_curve(dump_curve(curve))
    assert back.sections[0] is not back.sections[1]
    for p, q in zip(evolve(back, 64).pieces, evolve(curve, 64).pieces):
        assert np.array_equal(p, q)


def test_powered_constant_curve_is_reprojected_with_a_log_record(torus, caplog):
    group = so3()
    xi = random_algebra_section(torus, group, np.random.default_rng(0))
    with caplog.at_level(logging.INFO, logger="mapgroups.groups"):
        out = evolve(constant_curve(xi), 32)
    drifts = [
        r for r in caplog.records
        if r.name == "mapgroups.groups" and "re-projected" in r.getMessage()
    ]
    assert drifts, "no re-projection record"
    assert all(r.levelno == logging.INFO for r in drifts)
    assert max(r.args[1] for r in drifts) > RELATION_DEFECT_LIMIT
    for p in out.pieces:
        assert float(group.relation_defect(p).max()) <= RELATION_DEFECT_LIMIT


def test_time1_value_projection_cannot_repair_is_a_numeric_error(torus):
    group = dataclasses.replace(so3(), project_fn=lambda g: g)
    xi = random_algebra_section(torus, group, np.random.default_rng(0))
    with pytest.raises(NumericError, match=r"^chart 0: time-1 value relation defect "):
        evolve(constant_curve(xi), 32)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    group_name=st.sampled_from(["SO3", "SU2", "UT2"]),
    fraction=st.floats(min_value=0.0, max_value=1.0),
    steps=st.integers(min_value=2, max_value=64),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_powering_equals_stepwise_rk4_property(group_name, fraction, steps, seed):
    group = group_by_name(group_name)
    xi = random_algebra_section(
        circle_two_charts(),
        group,
        np.random.default_rng(seed),
        amplitude=fraction * group.v_radius,
    )
    gap = reference_gap(constant_curve(xi), steps)
    assert gap <= 1e-12, f"gap {gap:.3e}"


# ---------------------------------------------------------------------------
# entry-first node stacks and their product kernel


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    d=st.sampled_from([2, 3, 4]),
    nodes=st.sampled_from([1, 140, 4900]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_product_kernel_matches_matmul_property(d, nodes, seed):
    """The (d, d, K) kernel is np.matmul on the same (K, d, d) stacks, to
    within 4 ulp of the value scale."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, d, d, nodes))
    got = node_product(a, b).transpose(2, 0, 1)
    a, b = a.transpose(2, 0, 1), b.transpose(2, 0, 1)
    want = a @ b
    scale = float((np.abs(a) @ np.abs(b)).max())
    assert np.abs(got - want).max() <= 4 * np.spacing(scale)


@pytest.mark.parametrize("group_name", ["SO3", "SU2", "UT2"])
def test_chart_curve_stack_is_entry_first_and_contiguous(torus, group_name):
    """A strided stack slows the kernel many times over, so evolve's chart
    stack must be one C-contiguous (T, d, d, K) array."""
    group = group_by_name(group_name)
    rng = np.random.default_rng(25)
    times = np.linspace(0.0, 1.0, 3)
    curve = TimeSampledCurve(
        times, tuple(random_algebra_section(torus, group, rng) for _ in times)
    )
    for j in range(torus.chart_count):
        stack = _chart_curve_matrices(curve, j)
        nodes = torus.charts[j].window.node_count
        assert stack.shape == (times.size, group.dim, group.dim, nodes)
        assert stack.flags.c_contiguous
        for t, sec in enumerate(curve.sections):
            assert np.array_equal(stack[t], sec.chart_matrices(j))


@pytest.mark.parametrize("d, product", [
    (2, node_product), (3, node_product), (4, node_product), (4, group_by_name("SU2").multiply),
], ids=["2", "3", "4", "SU2"])
def test_rk4_factor_matches_the_allocating_formula_bitwise(d, product):
    """The in-place factor keeps the sum order and the full-identity add of
    ``eye + (h/6) (a1 + 2 b2 + 2 b3 + b4)``, with the product it is given,
    so every byte agrees, signed zeros included (half the entries are zero)."""
    rng = np.random.default_rng(60 + d)
    for h in (1.0 / 64, -0.37, 1.0):
        a1, a2, a4 = rng.standard_normal((3, d, d, 50)) * rng.integers(0, 2, (3, d, d, 50))
        b2 = a2 + (0.5 * h) * product(a1, a2)
        b3 = a2 + (0.5 * h) * product(b2, a2)
        b4 = a4 + h * product(b3, a4)
        want = np.eye(d)[..., None] + (h / 6.0) * (a1 + 2.0 * b2 + 2.0 * b3 + b4)
        assert _rk4_factor(product, a1, a2, a4, h).tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sup_entry_gap_matches_the_allocating_formula_bitwise(d):
    """The in-place absolute value gives the maximum of ``abs(a - b)``, NaN
    included, and leaves both piece tuples as they were."""
    rng = np.random.default_rng(70 + d)
    pieces_a = tuple(rng.standard_normal((d, d, 40)) for _ in range(4))
    pieces_b = tuple(rng.standard_normal((d, d, 40)) for _ in range(4))
    pieces_b[2][0, 1, 7] = np.nan
    for a, b in ((pieces_a, pieces_b), (pieces_a, pieces_b[:2]), (pieces_a, pieces_a)):
        before = [p.tobytes() for p in a + b]
        want = max(float(np.abs(x - y).max()) for x, y in zip(a, b))
        got = sup_entry_gap(a, b)
        assert np.array([got]).tobytes() == np.array([want]).tobytes()
        assert [p.tobytes() for p in a + b] == before


@pytest.mark.parametrize("group_name", ["SO3", "SU2", "UT2"])
@pytest.mark.parametrize("samples", [2, 3])
def test_evolve_measures_each_time1_chart_once(atlas, caplog, group_name, samples):
    """One measurement per chart, and one more for each chart whose time-1
    value is re-projected (RK4 drifts off SO3 and SU2 at 8 steps)."""
    calls = []
    base = group_by_name(group_name)

    def counting(mats):
        calls.append(mats.shape)
        return base.defect_fn(mats)

    group = dataclasses.replace(base, defect_fn=counting)
    rng = np.random.default_rng(61)
    times = np.linspace(0.0, 1.0, samples)
    xi = random_algebra_section(atlas, group, rng)
    sections = (xi,) * 2 if samples == 2 else tuple(
        random_algebra_section(atlas, group, rng) for _ in times
    )
    curve = TimeSampledCurve(times, sections)
    calls.clear()
    with caplog.at_level(logging.INFO, logger="mapgroups.groups"):
        evolve(curve, 8)
    projected = len(caplog.records)
    assert projected == (0 if group_name == "UT2" else atlas.chart_count)
    assert len(calls) == atlas.chart_count + projected
