"""Fractional Sobolev inner products and minimum-norm interpolation.

Inner products are mode-weighted sums over band-limited coefficients with

    weight(k) = (1 + |k|^2)^(s/2)     ("paper" convention, default)
    weight(k) = (1 + |k|^2)^s         ("standard" convention)

Both conventions are supported everywhere; file formats tag which one a
stored quantity used.  All reductions run in fixed C order so identical
inputs give bitwise identical results.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InputError, SolverError, check_count, check_name, check_real
from .fields import (
    BandlimitedField,
    GridDomain,
    SampledField,
    axis_phases,
    check_same_layout,
    random_field,
    sample,
    sobolev_weight_rows,
    sobolev_weights,
)

CONVENTIONS = ("paper", "standard")

# Tags written into files alongside any Sobolev-weighted quantity.
CONVENTION_TAGS = {"paper": "paper-s/2", "standard": "standard-s"}

# Relative singular-value floor for the interpolation pseudoinverse.
PINV_RCOND = 1e-10

# Largest accepted min-norm node residual, relative to max(1, data sup).
RESIDUAL_TOL = 1e-8

# Factored interpolation systems kept by min_norm_extension (LRU).
FACTOR_CACHE_SIZE = 16


def weight_exponent(s: float, convention: str = "paper") -> float:
    """Exponent e of the order-``s`` weights (1 + |k|^2)^e."""
    s = check_real(s, "s", 0.0)
    check_name(convention, CONVENTIONS, "weight convention")
    return 0.5 * s if convention == "paper" else s


def mode_weights(m: int, modes: int, s, convention: str = "paper") -> np.ndarray:
    """Weight lattice (1 + |k|^2)^e over all |k_d| <= modes."""
    return sobolev_weights(m, modes, weight_exponent(s, convention))


def hs_inner(
    a: BandlimitedField,
    b: BandlimitedField,
    s,
    convention: str = "paper",
) -> float:
    """Sobolev inner product of two real band-limited fields."""
    check_same_layout(a, b)
    w = mode_weights(a.m, a.modes, s, convention)
    total = np.sum(w * a.coeffs * np.conj(b.coeffs))
    return float(total.real)


def hs_norm(a: BandlimitedField, s, convention: str = "paper") -> float:
    return _norms(a, [s], convention, 1)[0][0]


def hs_norms(a: BandlimitedField, orders, convention: str = "paper") -> list[float]:
    """Sobolev norms of one real field at each of ``orders``, in one pass.

    Entry i is bitwise ``hs_norm(a, orders[i], convention)``: each weight
    row meets the same elementwise products and the same row-wise sum
    over the C-order coefficients.
    """
    return [row[0] for row in _norms(a, orders, convention, 1)]


def group_norms(a: BandlimitedField, s, size: int, convention: str = "paper") -> list[float]:
    """Order-s norms of the consecutive ``size``-component groups of one
    real field, so a stack of fields is measured in one pass.

    Entry i is bitwise ``hs_norm`` of components ``i*size`` up to
    ``(i+1)*size`` taken alone: each group's terms are one contiguous row,
    summed as the row of that field alone would be.
    """
    size = check_count(size, "size", 1)
    if a.components % size:
        raise InputError(f"{a.components} components do not split into groups of {size}")
    return _norms(a, [s], convention, a.components // size)[0]


def _norms(a: BandlimitedField, orders, convention: str, groups: int):
    """Norms at each order (rows) of each of ``groups`` equal consecutive
    component groups (columns)."""
    check_name(convention, CONVENTIONS, "weight convention")
    exponents = [weight_exponent(s, convention) for s in orders]
    w = sobolev_weight_rows(a.m, a.modes, exponents)
    c = a.coeffs.reshape(a.components, w.shape[1])
    terms = w[:, None, :] * c * np.conj(c)
    # A field with no components has norm 0 and no groups.
    totals = terms.reshape(len(exponents), groups, c.size // max(groups, 1)).sum(axis=2)
    return np.sqrt(np.maximum(totals.real, 0.0)).tolist()


def _pair_split(ncoef: int):
    """Conjugate-mirror index pairs of the flattened coefficient lattice.

    Reversing every lattice axis reverses the flat C order, so the mirror
    partner of flat index j is ncoef - 1 - j; the center (zero mode) is
    the only self-paired index.
    """
    npairs = (ncoef - 1) // 2
    p_idx = np.arange(npairs)
    return npairs, p_idx, ncoef - 1 - p_idx


def _weighted_real_system(grid: GridDomain, modes: int, s, convention: str):
    """Real node-evaluation matrix in weighted cosine/sine coordinates.

    Hermitian-symmetric coefficient vectors are parametrized by real
    coordinates r ordered [zero mode, cosine pairs, sine pairs]; the
    matrix maps r to node values, and the Euclidean norm of r equals the
    order-s norm of the corresponding field.  Returns the real matrix and
    the inverse square-root weights used to map coordinates back to
    coefficients.
    """
    ncoef = (2 * modes + 1) ** grid.m
    half = mode_weights(grid.m, modes, s, convention).reshape(ncoef) ** -0.5
    # Columns follow the C-order flattening of the coefficient lattice.
    phases = axis_phases(grid, modes)
    a = phases[0] if grid.m == 1 else np.einsum("ia,jb->ijab", *phases)
    aw = a.reshape(grid.node_count, ncoef) * half[None, :]
    npairs, p_idx, q_idx = _pair_split(ncoef)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    b = np.empty((grid.node_count, ncoef))
    b[:, 0] = aw[:, npairs].real
    b[:, 1 : 1 + npairs] = ((aw[:, p_idx] + aw[:, q_idx]) * inv_sqrt2).real
    b[:, 1 + npairs :] = ((aw[:, p_idx] - aw[:, q_idx]) * (1j * inv_sqrt2)).real
    return b, half


def _real_coords_to_coeffs(rows: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Map real pair coordinates (..., ncoef) to complex coefficients.

    The p and q entries are built from the same cosine/sine numbers, so
    the result is Hermitian-symmetric bit for bit.
    """
    ncoef = half.size
    npairs, p_idx, q_idx = _pair_split(ncoef)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    d = np.zeros(rows.shape, dtype=complex)
    d[..., npairs] = rows[..., 0]
    cos_part = rows[..., 1 : 1 + npairs] * inv_sqrt2
    sin_part = rows[..., 1 + npairs :] * inv_sqrt2
    d[..., p_idx] = cos_part + 1j * sin_part
    d[..., q_idx] = cos_part - 1j * sin_part
    return half * d


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _factored_system(resolution, window, index_bytes, modes, s, convention):
    """Kept SVD factors of one window's weighted system, by value.

    Keys are numbers and index bytes, never a grid or atlas.  Returns the
    inverse square-root weights and the kept u.T, sigma[:, None] and vt.T.
    """
    axes = tuple(np.frombuffer(b, dtype=np.int64) for b in index_bytes)
    grid = GridDomain(len(resolution), resolution, window, axes)
    b, half = _weighted_real_system(grid, modes, s, convention)
    u, sig, vt = np.linalg.svd(b, full_matrices=False)
    if sig.size == 0 or sig[0] == 0.0:
        raise SolverError("evaluation matrix is identically zero")
    keep = sig > PINV_RCOND * sig[0]
    factors = (half, u[:, keep].T, sig[keep][:, None], vt[keep].T)
    for f in factors:
        f.flags.writeable = False
    return factors


def min_norm_extension(
    v: SampledField, s, modes: int, convention: str = "paper"
) -> BandlimitedField:
    """Band-limited interpolant of node data with minimal Sobolev norm.

    Solves ``A c = values`` in the weighted least-norm sense: in the real
    pair coordinates of ``_weighted_real_system`` the order-s norm is
    Euclidean, so the truncated pseudoinverse solution is the minimizer
    and is orthogonal to every band-limited field vanishing on the nodes
    (the kernel returned by ``restriction_kernel_basis``, which cuts the
    same weighted system at the same singular-value floor, ``PINV_RCOND``,
    but from its own full SVD: that one is not bitwise this cached thin
    SVD, so the two are not shared).
    The achieved node residual must be at most ``RESIDUAL_TOL`` times
    max(1, data sup); a larger one raises SolverError.

    Parameters
    ----------
    v : SampledField
        Node data on a grid window; the node count must not exceed the
        coefficient count (2*modes+1)^m.
    s : float
        Sobolev order of the norm being minimized.
    modes : int
        Cutoff of the extension.
    """
    s = check_real(s, "s", 0.0)
    check_name(convention, CONVENTIONS, "weight convention")
    modes = check_count(modes, "modes", 0)
    grid = v.domain
    ncoef = (2 * modes + 1) ** grid.m
    if grid.node_count > ncoef:
        raise InputError(
            f"{grid.node_count} nodes exceed {ncoef} coefficients; "
            "raise the cutoff or thin the mask"
        )
    index_bytes = tuple(np.asarray(i, np.int64).tobytes() for i in grid.axis_indices)
    half, ut, sig, v_kept = _factored_system(
        grid.resolution, grid.window, index_bytes, modes, s, convention
    )
    r = v_kept @ ((ut @ v.values) / sig)  # (ncoef, n) real coordinates
    cflat = _real_coords_to_coeffs(r.T, half)  # (n, ncoef)
    lattice = (2 * modes + 1,) * grid.m
    ext = BandlimitedField(grid.m, modes, cflat.reshape((-1,) + lattice))
    residual = float(np.max(np.abs(sample(ext, grid).values - v.values)))
    scale = max(1.0, float(np.max(np.abs(v.values))))
    if residual > RESIDUAL_TOL * scale:
        raise SolverError(
            f"interpolation residual {residual:.3e} exceeds "
            f"{RESIDUAL_TOL:.1e} * {scale:.3e}; the system is inconsistent "
            "for this cutoff",
            residual=residual,
        )
    return ext


def restriction_kernel_basis(
    grid: GridDomain, s, modes: int, convention: str = "paper"
) -> BandlimitedField:
    """Real band-limited field whose components span the fields vanishing
    at every masked node.

    The Hermitian-symmetric coefficient subspace is parametrized by real
    cosine/sine pair coordinates, so the null space comes from one real
    SVD and every component is exactly symmetric.  The components are
    orthonormal in the order-s inner product; a trivial kernel gives a
    field with no components.
    """
    s = check_real(s, "s", 0.0)
    check_name(convention, CONVENTIONS, "weight convention")
    b, half = _weighted_real_system(grid, modes, s, convention)
    _, sig, vt = np.linalg.svd(b, full_matrices=True)
    rows = vt[int(np.sum(sig > PINV_RCOND * sig[0])) :]
    coeffs = _real_coords_to_coeffs(rows, half).reshape((-1,) + (2 * modes + 1,) * grid.m)
    return BandlimitedField(grid.m, modes, coeffs)


def rellich_spectrum(
    s,
    t,
    modes: int,
    m: int = 1,
    convention: str = "paper",
) -> np.ndarray:
    """Singular values of the inclusion of order-s fields into order t.

    For s > t the inclusion is compact on band-limited fields and its
    singular values are the weight ratios
    ``(1 + |k|^2)^((t - s) * e / 2)`` with e the convention exponent,
    returned sorted in decreasing order (one entry per lattice mode).
    """
    s = check_real(s, "s", 0.0)
    t = check_real(t, "t", 0.0)
    if not s > t:
        raise InputError(f"need s > t >= 0, got s={s}, t={t}")
    ws = mode_weights(m, modes, s, convention)
    wt = mode_weights(m, modes, t, convention)
    sig = np.sqrt(wt / ws).ravel()
    return np.sort(sig)[::-1]


def extension_probe(
    rng: np.random.Generator,
    instances: int = 20,
    competitors: int = 50,
    modes: int = 32,
    resolution: int = 129,
    convention: str = "paper",
) -> dict:
    """Randomized audit of the minimum-norm extension contract.

    Each instance draws a random field, a random sub-box of the circle and
    a random order s, extends the restricted samples, and measures three
    things: the worst node interpolation residual, the worst overlap with
    the restriction kernel (both absolute, against max(1, data norm)), and
    the minimality margin against competitors of the form extension plus a
    random kernel combination.  A positive margin means every competitor
    had a larger norm.
    """
    instances = check_count(instances, "instances", 1)
    competitors = check_count(competitors, "competitors", 1)
    modes = check_count(modes, "modes", 0)
    worst_residual = 0.0
    worst_overlap = 0.0
    min_margin = np.inf
    # Window width is capped so the node count stays below the number of
    # coefficients; otherwise the interpolation system is overdetermined.
    width_hi = min(3.0, 0.85 * 2.0 * np.pi * (2 * modes + 1) / resolution)
    for _ in range(instances):
        s = float(rng.uniform(0.5, 3.0))
        lo = float(rng.uniform(0.1, 2.5))
        width = float(rng.uniform(0.5 * width_hi, width_hi))
        grid = GridDomain.box(((lo, lo + width),), resolution)
        gamma = random_field(1, modes, 2, rng)
        data = sample(gamma, grid)
        ext = min_norm_extension(data, s, modes, convention=convention)
        resid = float(np.abs(sample(ext, grid).values - data.values).max())
        scale = max(1.0, float(np.abs(data.values).max()))
        worst_residual = max(worst_residual, resid / scale)

        kernel = restriction_kernel_basis(grid, s, modes, convention=convention)
        if not kernel.components:
            continue
        norm_ext = hs_norm(ext, s, convention)
        # The kernel components, and then the rivals, are measured as one
        # stack by the sums of hs_inner and hs_norm, so every number is
        # bitwise the one a field-by-field loop takes.
        kn = np.array(group_norms(kernel, s, 1, convention))
        w = mode_weights(1, modes, s, convention)
        inner = np.sum(w * ext.coeffs[:, None] * np.conj(kernel.coeffs), axis=2).real
        keep = kn >= 1e-14
        overlaps = np.abs(inner[:, keep]) / (kn[keep] * max(1.0, norm_ext))
        worst_overlap = max([worst_overlap, *overlaps.ravel().tolist()])
        # One draw is the stream of one (components, kernel) draw per rival,
        # and the stacked matmul is bitwise one product per rival.
        mix = rng.standard_normal((competitors, ext.components, kernel.components))
        rivals = ext.coeffs + mix @ kernel.coeffs
        stack = BandlimitedField(1, modes, rivals.reshape(-1, rivals.shape[-1]))
        norms = group_norms(stack, s, ext.components, convention)
        min_margin = min(min_margin, *(n - norm_ext for n in norms))
    return {
        "instances": instances,
        "competitors": competitors,
        "max_interp_residual": worst_residual,
        "max_kernel_overlap": worst_overlap,
        "min_minimality_margin": float(min_margin),
    }
