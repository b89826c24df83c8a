import numpy as np
import pytest

from mapgroups.errors import InputError, NumericError, ShapeMismatchError
from mapgroups.fields import GridDomain, random_field, sample
from mapgroups.maps import (
    Diffeo,
    compose_maps,
    nemytskij,
    pullback,
    torus_translation,
)


def _scaling(factor, offset, domain):
    """x -> factor * x + offset on a 1-D box."""
    return Diffeo(lambda p: factor * np.atleast_2d(p) + offset, (domain,))


def test_composition_applies_inner_then_outer_on_the_inner_domain():
    a = _scaling(2.0, 0.3, (0.0, 1.0))
    b = _scaling(0.5, 0.1, (0.0, 2.3))
    c = compose_maps(b, a)
    p = np.array([[0.4]])
    assert np.array_equal(c.forward(p), b.forward(a.forward(p)))
    assert c.domain == a.domain


# ---------------------------------------------------------------------------
# pullback


def test_pullback_by_identity_is_identity():
    rng = np.random.default_rng(3)
    f = random_field(1, 6, 2, rng)
    g = GridDomain.box(((0.5, 3.0),), 129)
    v = sample(f, GridDomain.full_torus(1, 65))
    got = pullback(torus_translation(1, [0.0]), v, g)
    want = f.evaluate(g.nodes())
    assert np.abs(got.values - want).max() < 1e-9


def test_pullback_by_translation_shifts_samples():
    rng = np.random.default_rng(5)
    f = random_field(1, 5, 1, rng)
    v = sample(f, GridDomain.full_torus(1, 65))
    g = GridDomain.box(((1.0, 2.5),), 129)
    tau = 0.8
    got = pullback(torus_translation(1, [tau]), v, g)
    want = f.evaluate(np.mod(g.nodes() + tau, 2 * np.pi))
    assert np.abs(got.values - want).max() < 1e-9


def test_pullback_composition_matches_iterated_pullbacks():
    """(gamma o a o b) computed in one step equals pulling back twice."""
    rng = np.random.default_rng(7)
    f = random_field(1, 5, 1, rng)
    v = sample(f, GridDomain.full_torus(1, 65))
    a = torus_translation(1, [0.4])
    b = torus_translation(1, [1.1])
    g = GridDomain.box(((0.5, 3.0),), 129)
    once = pullback(compose_maps(a, b), v, g)
    inner = pullback(a, v, GridDomain.full_torus(1, 129))
    twice = pullback(b, inner, g)
    assert np.abs(once.values - twice.values).max() < 1e-9


def test_pullback_is_linear_in_the_field():
    rng = np.random.default_rng(9)
    f1 = random_field(1, 4, 1, rng)
    f2 = random_field(1, 4, 1, rng)
    full = GridDomain.full_torus(1, 65)
    g = GridDomain.box(((2.0, 4.0),), 129)
    theta = torus_translation(1, [0.37])
    lhs = pullback(theta, sample(f1 + f2.scaled(2.5), full), g)
    rhs = (
        pullback(theta, sample(f1, full), g).values
        + 2.5 * pullback(theta, sample(f2, full), g).values
    )
    assert np.abs(lhs.values - rhs).max() < 1e-11


def test_pullback_window_must_stay_inside_samples():
    rng = np.random.default_rng(11)
    f = random_field(1, 4, 1, rng)
    narrow = sample(f, GridDomain.box(((1.0, 2.0),), 129))
    g = GridDomain.box(((1.2, 1.8),), 129)
    with pytest.raises(InputError):
        pullback(torus_translation(1, [1.5]), narrow, g)


# ---------------------------------------------------------------------------
# superposition


def test_nemytskij_identity_and_square():
    rng = np.random.default_rng(13)
    g = GridDomain.box(((0.5, 3.0),), 65)
    v = sample(random_field(1, 4, 1, rng), g)
    ident = nemytskij(lambda x, y: y, v)
    assert np.array_equal(ident.values, v.values)
    sq = nemytskij(lambda x, y: y**2, v)
    assert np.array_equal(sq.values, v.values**2)


def test_nemytskij_can_depend_on_base_point():
    g = GridDomain.box(((0.5, 3.0),), 65)
    from mapgroups.fields import SampledField

    v = SampledField(g, np.ones((g.node_count, 1)))
    out = nemytskij(lambda x, y: np.sin(x[:, :1]) * y, v)
    assert np.abs(out.values[:, 0] - np.sin(g.nodes()[:, 0])).max() < 1e-15


def test_nemytskij_difference_quotient_slope():
    """f(gamma + h) - f(gamma) shrinks linearly in h for smooth f."""
    rng = np.random.default_rng(17)
    g = GridDomain.box(((0.5, 3.0),), 65)
    v = sample(random_field(1, 4, 1, rng), g)
    bump = sample(random_field(1, 4, 1, rng), g)
    f = lambda x, y: np.sin(y)
    gaps = []
    for h in (1e-2, 1e-3, 1e-4):
        shifted = nemytskij(f, v + bump.scaled(h))
        base = nemytskij(f, v)
        gaps.append(np.abs(shifted.values - base.values).max())
    slope = np.log(gaps[0] / gaps[2]) / np.log(1e-2 / 1e-4)
    assert abs(slope - 1.0) < 0.05, f"continuity slope {slope:.3f}"


def test_nemytskij_rejects_nonfinite_output():
    g = GridDomain.box(((0.5, 3.0),), 65)
    from mapgroups.fields import SampledField

    v = SampledField(g, np.zeros((g.node_count, 1)))
    with pytest.raises(NumericError), np.errstate(divide="ignore"):
        nemytskij(lambda x, y: 1.0 / y, v)
    with pytest.raises(ShapeMismatchError):
        nemytskij(lambda x, y: y[:-1], v)
