import numpy as np
import pytest

from mapgroups.cutoffs import SmoothCutoff, bump_profile, cutoff_multiply, smooth_step
from mapgroups.errors import InputError, SupportError
from mapgroups.fields import (
    BandlimitedField,
    GridDomain,
    SampledField,
    random_field,
    sample,
    synthesize,
)
from mapgroups.sobolev import hs_norm


def test_smooth_step_endpoints_exact():
    t = np.array([-2.0, 0.0, 1.0, 5.0])
    assert np.array_equal(smooth_step(t), [0.0, 0.0, 1.0, 1.0])
    mid = smooth_step(np.array([0.5]))
    assert mid[0] == pytest.approx(0.5)


def test_smooth_step_monotone():
    t = np.linspace(-0.5, 1.5, 400)
    v = smooth_step(t)
    assert np.all(np.diff(v) >= 0.0)


def test_bump_profile_plateau_and_support():
    r = np.array([0.0, 0.3, 0.5, 0.99, 1.0, 1.7])
    v = bump_profile(r, plateau=0.5)
    assert np.array_equal(v[:3], [1.0, 1.0, 1.0])
    assert 0.0 < v[3] < 1.0
    assert v[4] == 0.0 and v[5] == 0.0
    with pytest.raises(InputError):
        bump_profile(r, plateau=1.0)


def test_cutoff_exact_one_on_plateau_zero_outside():
    h = SmoothCutoff(center=[3.0, 2.0], radius=[1.0, 0.8])
    inside = np.array([[3.0, 2.0], [3.4, 1.7], [2.6, 2.3]])
    assert np.array_equal(h(inside), [1.0, 1.0, 1.0])
    outside = np.array([[4.1, 2.0], [3.0, 3.0], [0.0, 0.0]])
    assert np.array_equal(h(outside), [0.0, 0.0, 0.0])
    between = h(np.array([[3.8, 2.0]]))[0]
    assert 0.0 < between < 1.0


def test_cutoff_validation():
    with pytest.raises(InputError):
        SmoothCutoff(center=[1.0], radius=[-0.5])
    with pytest.raises(InputError):
        SmoothCutoff(center=[1.0, 2.0], radius=[0.5])
    with pytest.raises(InputError):
        SmoothCutoff(center=[1.0], radius=[0.5], plateau=0.0)


def test_multiply_refuses_support_outside_the_fundamental_domain():
    f = random_field(1, 4, 1, np.random.default_rng(29))
    h = SmoothCutoff(center=[0.5], radius=[1.0])
    with pytest.raises(SupportError, match="fundamental domain"):
        cutoff_multiply(h, f)


def test_multiply_bandlimited_doubles_cutoff():
    rng = np.random.default_rng(43)
    f = random_field(1, 8, 1, rng)
    h = SmoothCutoff(center=[np.pi], radius=[2.0])
    out = cutoff_multiply(h, f)
    assert out.modes == 16
    # the product spectrum is truncated at 2N, so plateau agreement is
    # limited by the bump's spectral tail, not exact
    pts = np.linspace(np.pi - 0.9, np.pi + 0.9, 31)[:, None]
    gap = np.abs(out.evaluate(pts) - f.evaluate(pts)).max()
    assert gap < 3e-2, f"plateau deviation {gap:.3e}"
    # far outside the support it is close to zero
    far = np.array([[0.3], [0.5], [6.0]])
    assert np.abs(out.evaluate(far)).max() < 2e-2


def test_multiply_zero_field_gives_zero():
    f = BandlimitedField(1, 8, np.zeros((1, 17), complex))
    h = SmoothCutoff(center=[3.0], radius=[1.0])
    assert not cutoff_multiply(h, f).coeffs.any()


def test_multiply_norm_bound_is_moderate():
    """The cutoff acts as a bounded operator: products never blow the
    order-s norm up by more than a modest factor."""
    rng = np.random.default_rng(47)
    h = SmoothCutoff(center=[np.pi], radius=[2.2])
    worst = 0.0
    for trial in range(12):
        f = random_field(1, 10, 1, rng)
        out = cutoff_multiply(h, f)
        denom = hs_norm(f, 1.0)
        if denom == 0.0:
            continue
        worst = max(worst, hs_norm(out, 1.0) / denom)
    assert worst < 3.0, f"operator ratio {worst:.3f}"


def multiply_by_sampling(h, field, oversample):
    """cutoff_multiply of one field as it read before stacking: sample,
    multiply, resynthesize."""
    out_modes = 2 * field.modes
    grid = GridDomain.full_torus(field.m, oversample * (2 * out_modes + 1))
    prod = sample(field, grid).values * h(grid.nodes())[:, None]
    return synthesize(SampledField(grid, prod), out_modes)


@pytest.mark.parametrize("oversample", [1, 2, 4])
@pytest.mark.parametrize("m, modes", [(1, 12), (1, 3), (2, 4)])
def test_multiply_of_a_stack_is_each_component_alone_bitwise(m, modes, oversample):
    h = SmoothCutoff(center=np.full(m, np.pi), radius=np.full(m, 2.0))
    f = random_field(m, modes, 5, np.random.default_rng(53 + m + modes))
    stacked = cutoff_multiply(h, f, oversample).coeffs
    for i in range(f.components):
        one = BandlimitedField(m, modes, f.coeffs[i : i + 1])
        alone = cutoff_multiply(h, one, oversample).coeffs
        assert stacked[i : i + 1].tobytes() == alone.tobytes(), i
        assert alone.tobytes() == multiply_by_sampling(h, one, oversample).coeffs.tobytes(), i
