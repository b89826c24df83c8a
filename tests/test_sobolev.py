"""Order-s norms, minimal-norm extension, and the compact-inclusion spectrum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapgroups.errors import InputError
from mapgroups.fields import (
    BandlimitedField,
    GridDomain,
    random_field,
    sample,
    wavenumber_squares,
)
from mapgroups.sobolev import (
    CONVENTION_TAGS,
    extension_probe,
    hs_inner,
    hs_norm,
    hs_norms,
    min_norm_extension,
    mode_weights,
    rellich_spectrum,
    restriction_kernel_basis,
    weight_exponent,
)


def cos_field(modes=4):
    c = np.zeros((1, 2 * modes + 1), dtype=complex)
    c[0, modes - 1] = 0.5
    c[0, modes + 1] = 0.5
    return BandlimitedField(1, modes, c)


def test_weight_exponent_per_convention():
    assert weight_exponent(3.0, "paper") == 1.5
    assert weight_exponent(3.0, "standard") == 3.0
    assert CONVENTION_TAGS == {"paper": "paper-s/2", "standard": "standard-s"}
    with pytest.raises(InputError):
        weight_exponent(2.0, "mixed")


def test_mode_weights_small_table():
    # k = -2..2, s = 2: paper gives (1+k^2), standard gives (1+k^2)^2
    w = mode_weights(1, 2, 2.0, "paper")
    assert np.array_equal(w, [5.0, 2.0, 1.0, 2.0, 5.0])
    w2 = mode_weights(1, 2, 2.0, "standard")
    assert np.array_equal(w2, [25.0, 4.0, 1.0, 4.0, 25.0])


@pytest.mark.parametrize(
    "m, modes, s, convention",
    [(1, 32, 1.5, "paper"), (2, 4, 2, "standard"), (1, 3, 0.0, "paper")],
)
def test_mode_weights_match_the_fresh_formula(m, modes, s, convention):
    w = mode_weights(m, modes, s, convention)
    fresh = (1.0 + wavenumber_squares(m, modes)) ** weight_exponent(s, convention)
    assert w.shape == fresh.shape and w.tobytes() == fresh.tobytes()


def test_cos_norm_closed_form():
    """cos has coefficients 1/2 at k = +-1, so the squared order-s norm
    is (1+1)^e / 2 with e the convention exponent."""
    f = cos_field()
    assert hs_norm(f, 0.0) == pytest.approx(np.sqrt(0.5), rel=1e-15)
    assert hs_norm(f, 2.0, "paper") == pytest.approx(1.0, rel=1e-15)
    assert hs_norm(f, 2.0, "standard") == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_inner_product_is_symmetric_bilinear():
    rng = np.random.default_rng(23)
    for trial in range(10):
        a = random_field(1, 6, 2, rng)
        b = random_field(1, 6, 2, rng)
        c = random_field(1, 6, 2, rng)
        s = float(rng.uniform(0.0, 3.0))
        left = hs_inner(a + b.scaled(0.7), c, s)
        right = hs_inner(a, c, s) + 0.7 * hs_inner(b, c, s)
        assert abs(left - right) < 1e-12 * (1 + abs(left))
        assert hs_inner(a, b, s) == pytest.approx(hs_inner(b, a, s), rel=1e-14)
        assert hs_inner(a, a, s) >= 0.0


def test_norm_rejects_negative_order():
    f = cos_field()
    with pytest.raises(InputError):
        hs_norm(f, -1.0)


def reference_norm(f, s, convention):
    """The order-s norm as one weight lattice (1 + |k|^2)^e, one product
    and one sum over the C-order coefficients."""
    w = (1.0 + wavenumber_squares(f.m, f.modes)) ** weight_exponent(s, convention)
    return float(np.sqrt(max(np.sum(w * f.coeffs * np.conj(f.coeffs)).real, 0.0)))


# Exponents 0, 0.5, 1 and 2 (numpy's scalar-power fast paths) in both
# conventions, plus orders that take the general power.
FAST_PATH_ORDERS = [0.0, 0.5, 1.0, 2.0, 4.0, 0.3, 1.7, 3.99]


@pytest.mark.parametrize("convention", ["paper", "standard"])
@pytest.mark.parametrize("m, modes", [(1, 0), (1, 12), (1, 32), (2, 3), (2, 8)])
def test_norms_at_many_orders_are_bitwise_the_reference(m, modes, convention):
    f = random_field(m, modes, 2, np.random.default_rng(7 + m + modes))
    want = [reference_norm(f, s, convention) for s in FAST_PATH_ORDERS]
    got = hs_norms(f, FAST_PATH_ORDERS, convention)
    assert type(got) is list and all(type(x) is float for x in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    single = [hs_norm(f, s, convention) for s in FAST_PATH_ORDERS]
    assert np.array(single).tobytes() == np.array(want).tobytes()


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 2),
    modes=st.integers(0, 12),
    components=st.integers(1, 3),
    convention=st.sampled_from(["paper", "standard"]),
    orders=st.lists(st.floats(0.0, 4.0), max_size=24),
    seed=st.integers(0, 2**32 - 1),
)
def test_norms_at_random_orders_are_bitwise_the_reference(
    m, modes, components, convention, orders, seed
):
    f = random_field(m, modes, components, np.random.default_rng(seed))
    want = [reference_norm(f, s, convention) for s in orders]
    assert np.array(hs_norms(f, orders, convention)).tobytes() == np.array(want).tobytes()


def test_norms_check_every_order_and_take_none():
    f = cos_field()
    assert hs_norms(f, []) == []
    for bad in (float("nan"), -1.0):
        with pytest.raises(InputError, match="^s must be finite and >= 0, got "):
            hs_norms(f, [1.0, bad])
    with pytest.raises(InputError, match="unknown weight convention"):
        hs_norms(f, [1.0], "mixed")


@pytest.mark.parametrize(
    "name, call",
    [("hs_norm", lambda f: hs_norm(f, 1.0)), ("hs_norms", lambda f: hs_norms(f, [1.0]))],
)
def test_norm_of_a_complex_field_names_the_function_called(name, call):
    f = BandlimitedField(1, 2, np.ones((1, 5), dtype=complex), real=False)
    with pytest.raises(InputError, match=f"^{name} expects a real-flagged field$"):
        call(f)


# ---------------------------------------------------------------------------
# minimal-norm extension


def window_grid():
    # 23 nodes: cutoffs of 11 or more leave free coefficients
    return GridDomain.box(((0.7, 2.9),), 65)


def test_extension_of_zero_data_is_zero():
    g = window_grid()
    from mapgroups.fields import SampledField

    v = SampledField(g, np.zeros((g.node_count, 1)))
    ext = min_norm_extension(v, 1.5, 14)
    assert np.abs(ext.coeffs).max() < 1e-12


def test_extension_recovers_low_frequency_truth():
    # three nodes determine the three cutoff-1 coefficients uniquely,
    # so the minimizer must be cos again
    f = cos_field(modes=1)
    v = sample(f, GridDomain.box(((0.7, 2.9),), 9))
    ext = min_norm_extension(v, 2.0, 1)
    assert np.abs(ext.coeffs - f.coeffs).max() < 1e-9


def test_extension_interpolates_and_is_minimal():
    rng = np.random.default_rng(31)
    g = window_grid()
    s = 1.5
    modes = 14
    for trial in range(5):
        f = random_field(1, 4, 1, rng)
        v = sample(f, g)
        ext = min_norm_extension(v, s, modes)
        node_err = np.abs(ext.evaluate(g.nodes()) - v.values).max()
        assert node_err < 1e-9, f"trial {trial}: node residual {node_err:.3e}"
        base = hs_norm(ext, s)
        kernel = restriction_kernel_basis(g, s, modes)
        assert kernel, "window should leave free coefficients at this cutoff"
        for q in kernel[:6]:
            coef = float(rng.standard_normal())
            rival = ext + q.scaled(coef)
            assert hs_norm(rival, s) >= base - 1e-12


def test_extension_orthogonal_to_vanishing_fields():
    rng = np.random.default_rng(37)
    g = window_grid()
    f = random_field(1, 4, 1, rng)
    ext = min_norm_extension(sample(f, g), 2.0, 14)
    for q in restriction_kernel_basis(g, 2.0, 14):
        ip = hs_inner(ext, q, 2.0)
        assert abs(ip) < 1e-10, f"overlap {ip:.3e}"


def test_kernel_fields_vanish_on_nodes():
    g = window_grid()
    basis = restriction_kernel_basis(g, 1.0, 14)
    # at least the coefficient surplus; near-dependent node rows may add more
    assert len(basis) >= 29 - g.node_count
    for q in basis:
        vals = q.evaluate(g.nodes())
        assert np.abs(vals).max() < 1e-9


def test_extension_rejects_overdetermined_mask():
    g = GridDomain.box(((0.3, 6.0),), 257)
    from mapgroups.fields import SampledField

    v = SampledField(g, np.ones((g.node_count, 1)))
    with pytest.raises(InputError):
        min_norm_extension(v, 1.0, 4)


def test_extension_probe_smoke():
    rng = np.random.default_rng(41)
    out = extension_probe(rng, instances=3, competitors=8, modes=12, resolution=49)
    assert out["max_interp_residual"] < 1e-8
    assert out["max_kernel_overlap"] < 1e-10
    assert out["min_minimality_margin"] >= -1e-12


# ---------------------------------------------------------------------------
# compact inclusion


def test_rellich_spectrum_reference_values():
    sig = rellich_spectrum(2.0, 1.0, 1)
    assert sig[0] == 1.0
    # k = +-1 entries are (1+1)^(-1/4)
    assert sig[1] == pytest.approx(2.0 ** -0.25, rel=1e-15)
    assert sig[2] == pytest.approx(2.0 ** -0.25, rel=1e-15)


def test_rellich_spectrum_sorted_and_below_one():
    for conv in ("paper", "standard"):
        sig = rellich_spectrum(2.5, 0.5, 16, convention=conv)
        assert sig.shape == (33,)
        assert np.all(np.diff(sig) <= 0)
        assert sig[0] == 1.0
        assert np.all(sig <= 1.0)


def test_rellich_spectrum_rejects_negative_modes():
    with pytest.raises(InputError, match=r"^modes must be >= 0, got -1$"):
        rellich_spectrum(2.0, 1.0, -1)


def test_rellich_requires_strict_gap():
    with pytest.raises(InputError):
        rellich_spectrum(1.0, 1.0, 8)
    with pytest.raises(InputError):
        rellich_spectrum(1.0, 2.0, 8)


def test_standard_convention_decays_faster():
    p = rellich_spectrum(2.0, 1.0, 32, convention="paper")
    s = rellich_spectrum(2.0, 1.0, 32, convention="standard")
    assert s[-1] < p[-1]
