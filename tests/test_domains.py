"""Level-set domains, inner-normal flows, and shrink certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapgroups.domains import (
    DOMAIN_BUILDERS,
    FLOW_BAND,
    FLOW_PLATEAU,
    GRADIENT_FLOOR,
    DescentReport,
    FlowField,
    ShrinkCertificate,
    _inner_normal,
    boundary_samples,
    descent_and_shrink,
    disc,
    domain_by_name,
    ellipse,
    flow,
    monotone_descent_check,
    peanut,
    shrink_domain,
)
from mapgroups.errors import InputError


def test_domain_lookup():
    for name in ("disc", "ellipse", "peanut"):
        assert domain_by_name(name).name == name
    with pytest.raises(InputError):
        domain_by_name("annulus")


def test_level_signs():
    d = disc()
    assert d.level(np.array([[0.0, 0.0]]))[0] < 0
    assert d.level(np.array([[1.0, 0.0]]))[0] == 0.0
    assert d.level(np.array([[2.0, 0.0]]))[0] > 0


def test_peanut_shape_constraint():
    p = peanut()
    # waist point between the lobes is inside
    assert p.level(np.array([[0.0, 0.0]]))[0] < 0


def test_boundary_samples_rejects_a_negative_count():
    with pytest.raises(InputError, match=r"^count must be >= 0, got -1$"):
        boundary_samples(disc(), -1, np.random.default_rng(0))


def test_boundary_samples_takes_only_an_integer_count():
    with pytest.raises(InputError, match=r"^count must be an integer, got 2\.5$"):
        boundary_samples(disc(), 2.5, np.random.default_rng(0))
    assert boundary_samples(disc(), np.int64(3), np.random.default_rng(0)).shape == (3, 2)


def test_boundary_samples_land_on_the_level_set():
    rng = np.random.default_rng(3)
    for d in (disc(), ellipse(), peanut()):
        pts = boundary_samples(d, 50, rng)
        assert pts.shape == (50, 2)
        assert np.abs(d.level(pts)).max() < 1e-12, d.name
        assert boundary_samples(d, 0, rng).shape == (0, 2)


@pytest.mark.parametrize("build", [disc, ellipse, peanut])
def test_gradient_matches_central_differences_of_the_level(build):
    """Each domain's grad g matches a central difference of its g at
    boundary and interior points."""
    dom = build()
    edge = boundary_samples(dom, 40, np.random.default_rng(8))
    pts = np.vstack([edge, 0.5 * edge])  # the half-scaled ones lie inside
    assert np.all(dom.level(pts[40:]) < 0.0)
    h = 1e-5
    fd = np.column_stack([
        (dom.level(pts + h * e) - dom.level(pts - h * e)) / (2.0 * h)
        for e in np.eye(2)
    ])
    gr = dom.gradient(pts)
    rel = np.linalg.norm(fd - gr, axis=1) / np.linalg.norm(gr, axis=1)
    assert rel.max() <= 1e-6, (dom.name, rel.max())


def test_flow_field_vanishes_on_the_core():
    f = FlowField(disc())
    deep = np.array([[0.0, 0.0], [0.1, -0.1]])
    assert np.abs(f(deep)).max() == 0.0
    # on the boundary it is exactly the unit inner normal
    v = f(np.array([[1.0, 0.0]]))
    assert np.abs(v - [[-1.0, 0.0]]).max() < 1e-12


def test_radial_flow_on_the_disc_matches_closed_form():
    """Near the boundary of the disc the field is the constant-speed
    inward radial direction while the bump plateau holds, so the point
    (1, 0) moves to (1 - t, 0)."""
    f = FlowField(disc())
    for t in (0.05, 0.1):
        moved = flow(f, np.array([[1.0, 0.0]]), t)
        assert np.abs(moved - [[1.0 - t, 0.0]]).max() < 1e-10, f"t={t}"


def test_flow_group_law():
    f = FlowField(ellipse())
    rng = np.random.default_rng(7)
    pts = boundary_samples(ellipse(), 20, rng)
    once = flow(f, pts, 0.12)
    twice = flow(f, flow(f, pts, 0.05), 0.07)
    assert np.abs(once - twice).max() < 1e-8


def test_flow_step_floor():
    with pytest.raises(InputError):
        flow(FlowField(disc()), np.array([[1.0, 0.0]]), 0.1, steps=4)


def test_descent_slopes_match_gradient_norm():
    rng = np.random.default_rng(9)
    for d in (disc(), ellipse()):
        f = FlowField(d)
        pts = boundary_samples(d, 30, rng)
        rep = monotone_descent_check(f, pts)
        assert rep.all_descending
        assert rep.max_abs_error < 1e-4, f"{d.name}: {rep.max_abs_error:.3e}"
        # disc: |grad g| = 2 on the unit circle, so slopes are all -2
        if d.name == "disc":
            assert np.abs(rep.slopes + 2.0).max() < 1e-4


@pytest.mark.parametrize("check", [
    monotone_descent_check,
    lambda f, p: descent_and_shrink(f, p, 0.1, 4, rng=np.random.default_rng(0)),
], ids=["monotone_descent_check", "descent_and_shrink"])
def test_the_descent_check_needs_a_point(check):
    with pytest.raises(InputError, match="^the descent check needs at least one boundary point$"):
        check(FlowField(disc()), np.empty((0, 2)))


def test_shrink_certificate_on_the_disc():
    f = FlowField(disc())
    cert = shrink_domain(f, 0.1, samples=100, rng=np.random.default_rng(11))
    assert cert.passed
    # radial motion: boundary lands on radius 0.9, so -g = 1 - 0.81
    assert cert.margin == pytest.approx(0.19, abs=1e-6)
    assert cert.fixed_defect == 0.0
    assert cert.domain == "disc"


def test_shrink_rejects_zero_time():
    with pytest.raises(InputError):
        shrink_domain(FlowField(disc()), 0.0, rng=np.random.default_rng(0))


def test_shrink_rejects_a_non_finite_time():
    with pytest.raises(InputError, match="^t0 must be finite, got nan$"):
        shrink_domain(FlowField(disc()), float("nan"), samples=10,
                      rng=np.random.default_rng(0))


def test_negative_time_grows_the_domain():
    f = FlowField(disc())
    cert = shrink_domain(f, -0.1, samples=60, rng=np.random.default_rng(13))
    assert cert.passed
    assert cert.margin == pytest.approx(1.1**2 - 1.0, abs=1e-6)


def test_anchors_never_move():
    for d in (disc(), ellipse(), peanut()):
        cert = shrink_domain(
            FlowField(d), 0.1, samples=40, rng=np.random.default_rng(17)
        )
        assert cert.fixed_defect == 0.0, d.name


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=20)
@given(
    name=st.sampled_from(sorted(DOMAIN_BUILDERS)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    times=st.lists(
        st.floats(min_value=-0.3, max_value=0.3, allow_subnormal=False),
        min_size=1, max_size=6,
    ),
    steps=st.integers(min_value=16, max_value=40),
)
def test_per_row_flow_equals_separate_flows_bitwise(name, seed, times, steps):
    d = domain_by_name(name)
    (xlo, xhi), (ylo, yhi) = d.bbox
    rng = np.random.default_rng(seed)
    # Points anywhere in the box: inside the band, on the core and outside.
    pts = np.column_stack([
        rng.uniform(xlo, xhi, len(times)), rng.uniform(ylo, yhi, len(times))
    ])
    f = FlowField(d)
    stacked = flow(f, pts, np.array(times), steps)
    for i, t in enumerate(times):
        assert same_bytes(stacked[i:i + 1], flow(f, pts[i:i + 1], t, steps)), (i, t)


def descent_by_separate_flows(field, pts, h=1e-5, steps=64):
    """The descent check as two flows, one at +h and one at -h."""
    fwd = field.domain.level(flow(field, pts, h, steps))
    bwd = field.domain.level(flow(field, pts, -h, steps))
    slopes = (fwd - bwd) / (2.0 * h)
    norms = np.linalg.norm(field.domain.gradient(pts), axis=1)
    err = float(np.abs(slopes + norms).max())
    return DescentReport(slopes, err, bool(np.all(slopes < 0.0)))


def shrink_by_separate_flows(field, t0, samples, steps, rng):
    """The shrink certificate with samples and anchors flowed apart."""
    dom = field.domain
    pts = boundary_samples(dom, samples, rng)
    gv = dom.level(flow(field, pts, t0, steps))
    signed = -gv if t0 > 0 else gv
    margin = float(signed.min())
    worst = tuple((float(p[0]), float(p[1])) for p in pts[np.argsort(signed)[:3]])
    anchors_moved = flow(field, dom.anchors, t0, steps)
    fixed_defect = float(np.abs(anchors_moved - dom.anchors).max())
    return ShrinkCertificate(
        dom.name, float(t0), steps, samples, margin, margin > 0.0, fixed_defect, worst
    )


@pytest.mark.parametrize("name", sorted(DOMAIN_BUILDERS))
def test_stacked_descent_check_matches_separate_flows_bitwise(name):
    d = domain_by_name(name)
    f = FlowField(d)
    pts = boundary_samples(d, 40, np.random.default_rng(19))
    got, ref = monotone_descent_check(f, pts), descent_by_separate_flows(f, pts)
    assert same_bytes(got.slopes, ref.slopes)
    assert (got.max_abs_error, got.all_descending) == (ref.max_abs_error, ref.all_descending)


@pytest.mark.parametrize("t0", [0.1, -0.1])
@pytest.mark.parametrize("name", sorted(DOMAIN_BUILDERS))
def test_stacked_shrink_certificate_matches_separate_flows_bitwise(name, t0):
    f = FlowField(domain_by_name(name))
    got = shrink_domain(f, t0, samples=60, steps=128, rng=np.random.default_rng(23))
    ref = shrink_by_separate_flows(f, t0, 60, 128, np.random.default_rng(23))
    assert got == ref


@settings(max_examples=12)
@given(
    name=st.sampled_from(sorted(DOMAIN_BUILDERS)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    t=st.one_of(
        st.sampled_from([0.1, -0.1]),
        # t/4 must be exact: no quarter below the smallest normal float.
        st.floats(min_value=-0.5, max_value=0.5).filter(lambda t: t == 0.0 or abs(t) > 1e-300),
    ),
)
def test_a_flow_in_quarter_half_quarter_calls_is_bitwise_one_flow(name, seed, t):
    """256 steps of t/256 are 64 of t/4, 128 of t/2 and 64 of t/4, bitwise,
    on the field's core, plateau, transition and outside its band."""
    d = domain_by_name(name)
    (xlo, xhi), (ylo, yhi) = d.bbox
    rng = np.random.default_rng(seed)
    box = np.column_stack([rng.uniform(xlo, xhi, 40), rng.uniform(ylo, yhi, 40)])
    levels = (0.0, 0.75 * FLOW_BAND, -0.75 * FLOW_BAND)
    ringed = [onto_level(d, box[np.abs(box).sum(axis=1) > 0.3], c) for c in levels]
    pts = np.vstack([box, *ringed, d.anchors, [[xhi, yhi]]])
    g = d.level(pts)
    assert all(r.size for r in ringed)
    assert np.any(g <= -FLOW_BAND) and np.any(g >= FLOW_BAND)
    f = FlowField(d)
    chained = flow(f, flow(f, flow(f, pts, t / 4, 64), t / 2, 128), t / 4, 64)
    assert same_bytes(chained, flow(f, pts, t, 256))


@pytest.mark.parametrize("name", sorted(DOMAIN_BUILDERS))
def test_descent_and_shrink_is_bitwise_the_two_checks(name):
    """The one-pass run equals monotone_descent_check followed by
    shrink_domain, and leaves the generator in the same state."""
    f = FlowField(domain_by_name(name))
    rng, ref_rng = np.random.default_rng(29), np.random.default_rng(29)
    pts = boundary_samples(f.domain, 40, rng)
    descent, cert = descent_and_shrink(f, pts, 0.1, 200, rng=rng)
    ref_descent = monotone_descent_check(f, boundary_samples(f.domain, 40, ref_rng))
    ref_cert = shrink_domain(f, 0.1, 200, rng=ref_rng)
    assert same_bytes(descent.slopes, ref_descent.slopes)
    assert (descent.max_abs_error, descent.all_descending) == (
        ref_descent.max_abs_error, ref_descent.all_descending)
    assert cert == ref_cert
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "t, message",
    [
        (float("nan"), "^t must be finite, got nan$"),
        (float("-inf"), "^t must be finite, got -inf$"),
        (np.array([0.1, np.nan, 0.1]), r"^t\[1\] must be finite, got nan$"),
        (np.array([np.nan, 0.1, np.inf]), r"^t\[0\] must be finite, got nan$"),
        (np.array([0.1, 0.1, -np.inf], np.float32), r"^t\[2\] must be finite, got -inf$"),
        ([0.1, True, 0.1], r"^t\[1\] must be a real number, got True$"),
        (np.array([0.1, 0.1]), r"must have shape \(3,\) for 3 points, got shape \(2,\)"),
        (np.full((3, 1), 0.1), r"must have shape \(3,\) for 3 points, got shape \(3, 1\)"),
    ],
    ids=["nan", "-inf", "row-nan", "first-row-nan", "last-row-float32-inf", "list-bool",
         "short", "column"],
)
def test_flow_rejects_bad_times(t, message):
    pts = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InputError, match=message):
        flow(FlowField(disc()), pts, t, steps=16)


@pytest.mark.parametrize("times", [
    np.array([0.1, -0.05, 0.2]),
    np.array([0.1, -0.05, 0.2], np.float32),
    np.array([1, 0, -1]),
], ids=["float64", "float32", "int"])
def test_per_row_times_flow_alike_as_an_array_or_a_list(times):
    pts = np.array([[0.9, 0.1], [0.2, 0.95], [0.5, 0.5]])
    f = FlowField(disc())
    want = flow(f, pts, [float(x) for x in times], 16)
    assert same_bytes(flow(f, pts, times, 16), want)


def reference_smooth_step(t):
    """smooth_step as it read before its plateau fast path."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def reference_level_grad(name, p):
    """Each domain's (g, grad g) with the gradient built by column_stack."""
    x, y = p[:, 0], p[:, 1]
    if name == "disc":
        return x**2 + y**2 - 1.0, 2.0 * p
    if name == "ellipse":
        g = (x / 2.0) ** 2 + (y / 1.0) ** 2 - 1.0
        return g, np.column_stack([2.0 * x / 2.0**2, 2.0 * y / 1.0**2])
    u1 = (x - 1.0) ** 2 + y**2
    u2 = (x + 1.0) ** 2 + y**2
    gx = 2.0 * (x - 1.0) * u2 + 2.0 * (x + 1.0) * u1
    return u1 * u2 - 1.15**4, np.column_stack([gx, 2.0 * y * (u1 + u2)])


def reference_boundary_samples(name, count, rng):
    """boundary_samples as it read on (N, 2) point stacks, polished with
    reference_level_grad."""
    (xlo, xhi), (ylo, yhi) = domain_by_name(name).bbox
    out = []
    for _ in range(200):
        if len(out) >= count:
            break
        pts = np.column_stack(
            [rng.uniform(xlo, xhi, size=4 * count), rng.uniform(ylo, yhi, size=4 * count)]
        )
        gv, gr = reference_level_grad(name, pts)
        for _ in range(60):
            nrm2 = np.sum(gr * gr, axis=1)
            ok = nrm2 > GRADIENT_FLOOR
            pts[ok] -= (gv[ok] / nrm2[ok])[:, None] * gr[ok]
            gv, gr = reference_level_grad(name, pts)
            if np.all(np.abs(gv) < 1e-12):
                break
        inside_box = (
            (pts[:, 0] > xlo) & (pts[:, 0] < xhi) & (pts[:, 1] > ylo) & (pts[:, 1] < yhi)
        )
        out.extend(pts[(np.abs(gv) < 1e-12) & inside_box].tolist())
    return np.asarray(out[:count]).reshape(count, 2)


@pytest.mark.parametrize("name", sorted(DOMAIN_BUILDERS))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_boundary_samples_are_bitwise_the_reference_polish(name, seed):
    for count in (0, 1, 7, 200):
        rng, reference_rng = (np.random.default_rng(seed) for _ in range(2))
        got = boundary_samples(domain_by_name(name), count, rng)
        assert same_bytes(got, reference_boundary_samples(name, count, reference_rng))
        # The same draws, so the same generator state after them.
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def reference_flow_field(name, points):
    """FlowField as it read before the fused form: np.linalg.norm of the
    gradient and bump_profile's formula over every row."""
    gv, gr = reference_level_grad(name, points)
    nrm = np.maximum(np.linalg.norm(gr, axis=1), GRADIENT_FLOOR)
    r = np.abs(np.abs(gv) / FLOW_BAND)
    xi = reference_smooth_step((1.0 - r) / (1.0 - FLOW_PLATEAU))
    return -(xi / nrm)[:, None] * gr


def onto_level(domain, pts, level):
    """Newton steps along the gradient towards g = level; the rows that
    reach it to 1e-12."""
    for _ in range(40):
        g, grad = domain.evaluate(pts)
        pts = pts - ((g - level) / np.sum(grad * grad, axis=1))[:, None] * grad
    return pts[np.abs(domain.level(pts) - level) < 1e-12]


# The level values where the field changes regime: the band edge and the
# plateau edge, inside and outside the domain.
EDGE_LEVELS = [s * e for s in (1.0, -1.0) for e in (FLOW_BAND, FLOW_PLATEAU * FLOW_BAND)]


@settings(max_examples=30)
@given(
    name=st.sampled_from(sorted(DOMAIN_BUILDERS)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    nudge=st.floats(min_value=-1e-9, max_value=1e-9, allow_subnormal=False),
)
def test_flow_field_is_bitwise_the_reference_formula(name, seed, nudge):
    d = domain_by_name(name)
    (xlo, xhi), (ylo, yhi) = d.bbox
    rng = np.random.default_rng(seed)
    # Points anywhere in the box (core, band and outside), points on and
    # just off each edge level, the anchors and the origin, where the
    # gradient of the disc and of the peanut is below GRADIENT_FLOOR.
    box = np.column_stack([rng.uniform(xlo, xhi, 24), rng.uniform(ylo, yhi, 24)])
    edges = [onto_level(d, box[np.abs(box).sum(axis=1) > 0.3], c) for c in EDGE_LEVELS]
    pts = np.vstack([box, *edges, *(e * (1.0 + nudge) for e in edges), d.anchors, [[0.0, 0.0]]])
    scaled = np.abs(d.level(pts)) / FLOW_BAND
    assert all(e.size for e in edges) and np.any((scaled > FLOW_PLATEAU) & (scaled < 1.0))
    reference = reference_flow_field(name, pts)
    assert same_bytes(FlowField(d)(pts), reference)
    # The unchecked core that every RK4 stage of flow evaluates, on the
    # coordinate-first (2, N) stack that flow keeps.
    assert same_bytes(_inner_normal(*d.level_grad(np.ascontiguousarray(pts.T))).T, reference)
    assert same_bytes(d.evaluate(pts)[1], reference_level_grad(name, pts)[1])
