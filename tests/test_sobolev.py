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
    CONVENTIONS,
    PINV_RCOND,
    _real_coords_to_coeffs,
    _weighted_real_system,
    extension_probe,
    group_norms,
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


@settings(max_examples=40)
@given(
    m=st.integers(1, 2),
    modes=st.integers(0, 8),
    size=st.integers(1, 3),
    groups=st.integers(1, 6),
    convention=st.sampled_from(["paper", "standard"]),
    s=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_group_norms_are_bitwise_hs_norm_of_each_group(m, modes, size, groups, convention, s, seed):
    f = random_field(m, modes, size * groups, np.random.default_rng(seed))
    got = group_norms(f, s, size, convention)
    want = [
        hs_norm(BandlimitedField(m, modes, f.coeffs[i : i + size]), s, convention)
        for i in range(0, f.components, size)
    ]
    assert type(got) is list and all(type(x) is float for x in got)
    assert np.array(got).tobytes() == np.array(want).tobytes()


def test_group_norms_need_whole_groups():
    f = random_field(1, 4, 3, np.random.default_rng(5))
    with pytest.raises(InputError, match="^3 components do not split into groups of 2$"):
        group_norms(f, 1.0, 2)
    with pytest.raises(InputError, match="^size must be >= 1, got 0$"):
        group_norms(f, 1.0, 0)


def test_norms_check_every_order_and_take_none():
    f = cos_field()
    assert hs_norms(f, []) == []
    for bad in (float("nan"), -1.0):
        with pytest.raises(InputError, match="^s must be finite and >= 0, got "):
            hs_norms(f, [1.0, bad])
    with pytest.raises(InputError, match="unknown weight convention"):
        hs_norms(f, [1.0], "mixed")


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize("m", [1, 2])
def test_a_field_with_no_components_has_zero_norms_and_no_groups(m, convention):
    empty = BandlimitedField(m, 3, np.zeros((0,) + (7,) * m, dtype=complex))
    norm = hs_norm(empty, 1.5, convention)
    assert type(norm) is float and norm == 0.0
    assert hs_norms(empty, [0.0, 1.0, 2.5], convention) == [0.0, 0.0, 0.0]
    assert group_norms(empty, 1.5, 1, convention) == []
    assert group_norms(empty, 1.5, 3, convention) == []


# ---------------------------------------------------------------------------
# minimal-norm extension


def window_grid():
    # 23 nodes: cutoffs of 11 or more leave free coefficients
    return GridDomain.box(((0.7, 2.9),), 65)


def lattice_window(n, resolution=82):
    """The circle window holding exactly lattice nodes 1 to n."""
    step = 2 * np.pi / resolution
    return GridDomain(1, resolution, ((0.5 * step, (n + 0.5) * step),), (np.arange(1, n + 1),))


def kernel_components(kernel):
    """The components of a kernel field, each as a one-component field."""
    return [
        BandlimitedField(kernel.m, kernel.modes, kernel.coeffs[i : i + 1])
        for i in range(kernel.components)
    ]


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
        assert kernel.components, "window should leave free coefficients at this cutoff"
        for q in kernel_components(kernel)[:6]:
            coef = float(rng.standard_normal())
            rival = ext + q.scaled(coef)
            assert hs_norm(rival, s) >= base - 1e-12


def test_extension_orthogonal_to_vanishing_fields():
    rng = np.random.default_rng(37)
    g = window_grid()
    f = random_field(1, 4, 1, rng)
    ext = min_norm_extension(sample(f, g), 2.0, 14)
    for q in kernel_components(restriction_kernel_basis(g, 2.0, 14)):
        ip = hs_inner(ext, q, 2.0)
        assert abs(ip) < 1e-10, f"overlap {ip:.3e}"


def test_kernel_fields_vanish_on_nodes():
    g = window_grid()
    basis = restriction_kernel_basis(g, 1.0, 14)
    # at least the coefficient surplus; near-dependent node rows may add more
    assert basis.components >= 29 - g.node_count
    for q in kernel_components(basis):
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


def extension_probe_rival_by_rival(
    rng, instances=20, competitors=50, modes=32, resolution=129, convention="paper"
):
    """extension_probe as it read before its rivals were stacked: one
    draw, one field and one norm per rival."""
    worst_residual = worst_overlap = 0.0
    min_margin = np.inf
    width_hi = min(3.0, 0.85 * 2.0 * np.pi * (2 * modes + 1) / resolution)
    for _ in range(instances):
        s = float(rng.uniform(0.5, 3.0))
        lo = float(rng.uniform(0.1, 2.5))
        width = float(rng.uniform(0.5 * width_hi, width_hi))
        grid = GridDomain.box(((lo, lo + width),), resolution)
        data = sample(random_field(1, modes, 2, rng), grid)
        ext = min_norm_extension(data, s, modes, convention=convention)
        resid = float(np.abs(ext.evaluate(grid.nodes()) - data.values).max())
        worst_residual = max(worst_residual, resid / max(1.0, float(np.abs(data.values).max())))
        kernel = restriction_kernel_basis(grid, s, modes, convention=convention)
        norm_ext = hs_norm(ext, s, convention)
        for kb in kernel_components(kernel):
            kn = hs_norm(kb, s, convention)
            if kn < 1e-14:
                continue
            for i in range(ext.components):
                comp = BandlimitedField(1, modes, ext.coeffs[i : i + 1])
                overlap = abs(hs_inner(comp, kb, s, convention)) / (kn * max(1.0, norm_ext))
                worst_overlap = max(worst_overlap, overlap)
        if not kernel.components:
            continue
        for _ in range(competitors):
            mix = rng.standard_normal((ext.components, kernel.components))
            pert = np.tensordot(mix, kernel.coeffs, axes=1)
            rival = BandlimitedField(1, modes, ext.coeffs + pert)
            min_margin = min(min_margin, hs_norm(rival, s, convention) - norm_ext)
    return {
        "instances": instances,
        "competitors": competitors,
        "max_interp_residual": worst_residual,
        "max_kernel_overlap": worst_overlap,
        "min_minimality_margin": float(min_margin),
    }


@pytest.mark.parametrize(
    "seed, kwargs",
    [
        (0, {}),
        (1, {"convention": "standard"}),
        (2, {"instances": 4, "competitors": 7, "modes": 12, "resolution": 49}),
        (3, {"instances": 5, "competitors": 1, "modes": 9, "resolution": 41}),
    ],
)
def test_stacked_rivals_reproduce_the_rival_by_rival_probe(seed, kwargs):
    got = extension_probe(np.random.default_rng(seed), **kwargs)
    want = extension_probe_rival_by_rival(np.random.default_rng(seed), **kwargs)
    assert got == want
    assert all(type(v) is type(want[k]) for k, v in got.items())


def kernel_basis_vector_by_vector(grid, s, modes, convention):
    """restriction_kernel_basis as it read when it returned a list: one
    one-component field per kernel vector."""
    b, half = _weighted_real_system(grid, modes, s, convention)
    _, sig, vt = np.linalg.svd(b, full_matrices=True)
    tol = PINV_RCOND * (sig[0] if sig.size else 1.0)
    rank = int(np.sum(sig > tol))
    lattice = (1,) + (2 * modes + 1,) * grid.m
    return [
        BandlimitedField(grid.m, modes, _real_coords_to_coeffs(r, half).reshape(lattice))
        for r in vt[rank:]
    ]


@pytest.mark.parametrize("convention", CONVENTIONS)
@pytest.mark.parametrize(
    "grid, s, modes",
    [
        (window_grid(), 1.0, 14),
        (window_grid(), 2.7, 32),
        (lattice_window(1), 0.5, 40),
        (lattice_window(80), 2.0, 40),
        (GridDomain.box(((0.3, 1.5), (2.0, 3.1)), 33), 1.5, 4),
    ],
)
def test_kernel_components_are_bitwise_the_vector_by_vector_fields(grid, s, modes, convention):
    kernel = restriction_kernel_basis(grid, s, modes, convention)
    fields = kernel_basis_vector_by_vector(grid, s, modes, convention)
    assert fields and isinstance(kernel, BandlimitedField)
    assert kernel.coeffs.shape == (len(fields),) + (2 * modes + 1,) * grid.m
    for i, q in enumerate(fields):
        assert kernel.coeffs[i : i + 1].tobytes() == q.coeffs.tobytes()


@pytest.mark.parametrize("convention", CONVENTIONS)
def test_stacked_rival_product_is_bitwise_one_tensordot_per_rival(convention):
    # Node counts 1 to 80 of 82 leave kernels of every size from 80 to 1.
    rng = np.random.default_rng(43)
    sizes = set()
    for n in range(1, 81):
        kernel = restriction_kernel_basis(lattice_window(n), 0.5 + n / 40, 40, convention)
        components = 1 + n % 3
        ext = random_field(1, 40, components, rng).coeffs
        mix = rng.standard_normal((4, components, kernel.components))
        stacked = ext + mix @ kernel.coeffs
        for row, got in zip(mix, stacked):
            assert got.tobytes() == (ext + np.tensordot(row, kernel.coeffs, axes=1)).tobytes()
        sizes.add(kernel.components)
    assert sizes == set(range(1, 81))


@pytest.mark.parametrize(
    "grid, modes",
    [
        (lattice_window(81), 40),
        (GridDomain.full_torus(1, 9), 3),
        (GridDomain.box(((0.2, 6.0), (0.2, 6.0)), 9), 2),
    ],
)
def test_enough_nodes_leave_a_kernel_with_no_components(grid, modes):
    assert grid.node_count >= (2 * modes + 1) ** grid.m
    kernel = restriction_kernel_basis(grid, 1.0, modes)
    assert kernel.coeffs.shape == (0,) + (2 * modes + 1,) * grid.m
    assert hs_norm(kernel, 1.0) == 0.0
    assert group_norms(kernel, 1.0, 1) == []


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
