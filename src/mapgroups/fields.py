"""Band-limited and sampled vector fields on the m-torus, m in {1, 2}.

The ambient model is the torus [0, 2*pi)^m carrying a uniform lattice of
``resolution`` nodes per axis.  Grid windows are open boxes whose nodes are
taken from that lattice, so restriction and extension-by-zero are exact
index operations rather than approximate resamplings.

A band-limited field stores complex Fourier coefficients ``c_k`` for all
multi-indices with ``|k_d| <= modes``; every field is real-valued, so its
coefficients keep the mirror symmetry ``c_{-k} = conj(c_k)`` exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    AliasingError,
    EmptyMaskError,
    InputError,
    ShapeMismatchError,
    check_count,
    check_real,
)

TWO_PI = 2.0 * math.pi

# Stencil width for local polynomial interpolation between lattice nodes.
INTERP_POINTS = 10


@dataclass(frozen=True, eq=False)
class GridDomain:
    """Open box window with nodes drawn from the global torus lattice.

    ``axis_indices[d]`` holds the lattice indices along axis ``d`` whose
    node coordinate ``2*pi*i/resolution[d]`` lies inside the window.  The
    masked node set is the Cartesian product of the per-axis index sets,
    enumerated in C order.  ``resolution`` is stored as a tuple of checked
    counts and ``window`` as a tuple of float (lo, hi) pairs, one per axis,
    so grids given them as lists or tuples compare equal.
    """

    m: int
    resolution: tuple[int, ...]
    window: tuple[tuple[float, float], ...]
    axis_indices: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "m", check_dimension(self.m))
        object.__setattr__(self, "resolution", _resolution_tuple(self.resolution, self.m))
        object.__setattr__(self, "window", _window_tuple(self.window, self.m))
        if len(self.axis_indices) != self.m:
            raise InputError("per-axis data does not match dimension")
        if not self.is_full_torus:
            for lo, hi in self.window:
                if hi - lo >= TWO_PI:
                    raise InputError("proper window must have length < 2*pi")
        object.__setattr__(self, "axis_indices", tuple(map(np.asarray, self.axis_indices)))
        for d in range(self.m):
            idx = self.axis_indices[d]
            if idx.ndim != 1 or idx.size == 0:
                raise EmptyMaskError(f"axis {d} holds no lattice nodes")
            if idx.dtype.kind not in "iu":
                raise InputError(f"axis_indices[{d}] must be integers, got {idx.dtype}")
            if np.any(idx < 0) or np.any(idx >= self.resolution[d]):
                raise InputError("lattice index out of range")
            if np.any(np.diff(idx) <= 0):
                raise InputError("lattice indices must be strictly increasing")
            x = TWO_PI * idx / self.resolution[d]
            lo, hi = self.window[d]
            if not self.is_full_torus and (np.any(x <= lo) or np.any(x >= hi)):
                raise InputError(f"axis {d} node outside the open window")

    @classmethod
    def full_torus(cls, m: int, resolution) -> "GridDomain":
        m = check_dimension(m)
        res = _resolution_tuple(resolution, m)
        window = tuple((0.0, TWO_PI) for _ in range(m))
        idx = tuple(np.arange(r, dtype=np.int64) for r in res)
        return cls(m, res, window, idx)

    @classmethod
    def box(cls, window, resolution) -> "GridDomain":
        return cls.full_torus(len(window), resolution).subwindow(window)

    @property
    def is_full_torus(self) -> bool:
        return all(lo == 0.0 and hi == TWO_PI for lo, hi in self.window)

    @property
    def node_count(self) -> int:
        return int(np.prod([idx.size for idx in self.axis_indices]))

    @property
    def axis_counts(self) -> tuple[int, ...]:
        return tuple(int(idx.size) for idx in self.axis_indices)

    def axis_nodes(self, d: int) -> np.ndarray:
        return TWO_PI * self.axis_indices[d] / self.resolution[d]

    def nodes(self) -> np.ndarray:
        """Masked node coordinates, shape (node_count, m), C order."""
        return tensor_points([self.axis_nodes(d) for d in range(self.m)])

    def subwindow(self, window) -> "GridDomain":
        """Sub-box of this window on the same lattice (exact node subset)."""
        box = _window_tuple(window, self.m)
        for lo, hi in box:
            if not (0.0 <= lo < hi <= TWO_PI):
                raise InputError(f"window ({lo}, {hi}) not inside [0, 2*pi)")
        idx = []
        for d in range(self.m):
            lo, hi = box[d]
            wlo, whi = self.window[d]
            if not self.is_full_torus and (lo < wlo or hi > whi):
                raise InputError("subwindow must sit inside the parent window")
            x = self.axis_nodes(d)
            keep = self.axis_indices[d][(x > lo) & (x < hi)]
            if keep.size == 0:
                raise EmptyMaskError(f"window ({lo}, {hi}) holds no lattice nodes")
            idx.append(keep)
        return GridDomain(self.m, self.resolution, box, tuple(idx))

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if self.is_full_torus:
            return np.ones(pts.shape[0], dtype=bool)
        ok = np.ones(pts.shape[0], dtype=bool)
        for d in range(self.m):
            lo, hi = self.window[d]
            ok &= (pts[:, d] > lo) & (pts[:, d] < hi)
        return ok

    def mask_lattice(self) -> np.ndarray:
        """Dense boolean mask over the full lattice (C order)."""
        mask = np.zeros(self.resolution, dtype=bool)
        mask[np.ix_(*self.axis_indices)] = True
        return mask


def tensor_points(axes) -> np.ndarray:
    """Tensor grid of per-axis coordinates, shape (Q, m), C order."""
    if len(axes) == 1:
        return axes[0][:, None]
    xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def check_dimension(m) -> int:
    """``m`` as an int; InputError naming ``m`` unless it is 1 or 2."""
    m = check_count(m, "m", 1)
    if m > 2:
        raise InputError(f"dimension m must be 1 or 2, got {m}")
    return m


def _resolution_tuple(resolution, m):
    if np.isscalar(resolution):
        return (check_count(resolution, "resolution", 3),) * m
    res = tuple(check_count(r, "resolution", 3) for r in resolution)
    if len(res) != m:
        raise InputError("resolution needs one entry per axis")
    return res


def _window_tuple(window, m):
    box = tuple((float(lo), float(hi)) for lo, hi in window)
    if len(box) != m:
        raise InputError(f"window needs one (lo, hi) pair per axis, got {box!r}")
    return box


def same_grid(a: GridDomain, b: GridDomain) -> bool:
    return (
        a.m == b.m
        and a.resolution == b.resolution
        and a.window == b.window
        and all(np.array_equal(x, y) for x, y in zip(a.axis_indices, b.axis_indices))
    )


def hermitian_part(coeffs: np.ndarray) -> np.ndarray:
    """Project onto the mirror symmetry c_{-k} = conj(c_k), exactly.

    The projected array satisfies the symmetry bitwise because floating
    addition is commutative: reversing and conjugating ``c + rev_conj(c)``
    reproduces the same sums in the same order.
    """
    rev = coeffs[(slice(None),) + (slice(None, None, -1),) * (coeffs.ndim - 1)]
    return 0.5 * (coeffs + np.conj(rev))


def _is_hermitian(coeffs: np.ndarray) -> bool:
    rev = coeffs[(slice(None),) + (slice(None, None, -1),) * (coeffs.ndim - 1)]
    return np.array_equal(coeffs, np.conj(rev))


@dataclass(frozen=True, eq=False)
class BandlimitedField:
    """Real trigonometric polynomial field on the m-torus.

    Parameters
    ----------
    m : int
        Torus dimension, 1 or 2.
    modes : int
        Cutoff N; coefficients cover every |k_d| <= N.
    coeffs : ndarray
        Complex array of shape (components,) + (2N+1,)*m.  Axis index i
        corresponds to wavenumber k = i - N.  The mirror symmetry
        c_{-k} = conj(c_k) must hold exactly, so the field is real; use
        :func:`hermitian_part` to build such arrays.
    """

    m: int
    modes: int
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", check_dimension(self.m))
        object.__setattr__(self, "modes", check_count(self.modes, "modes", 0))
        c = np.asarray(self.coeffs)
        object.__setattr__(self, "coeffs", c)
        width = 2 * self.modes + 1
        want = (width,) * self.m
        if c.ndim != self.m + 1 or c.shape[1:] != want:
            raise ShapeMismatchError(
                f"coefficients must have shape (n,) + {want}, got {c.shape}"
            )
        if not np.issubdtype(c.dtype, np.complexfloating):
            raise InputError("coefficients must be complex")
        if not np.all(np.isfinite(c.view(float))):
            raise InputError("coefficients must be finite")
        if not _is_hermitian(c):
            raise InputError(
                "coefficients break c_{-k} = conj(c_k); "
                "build them with hermitian_part()"
            )

    @property
    def components(self) -> int:
        return self.coeffs.shape[0]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at arbitrary finite points, shape (Q, m) -> (Q, components).

        On curves the points are a tensor grid of one axis, evaluated by
        :func:`grid_values`.  For scattered points on surfaces, phases and
        the axis-0 contraction are computed once per distinct coordinate of
        each axis (a chart window's nodes repeat each coordinate many
        times) and gathered back per point.  Each output row sums the same
        terms in the same order as the per-point contraction, so the result
        is bitwise equal to it.
        """
        pts = check_points(points, self.m)
        if self.m == 1:
            return grid_values(self.coeffs, [phase_matrix(pts[:, 0], self.modes)]).real
        x0, inv0 = np.unique(pts[:, 0], return_inverse=True)
        x1, inv1 = np.unique(pts[:, 1], return_inverse=True)
        p0 = phase_matrix(x0, self.modes)
        p1 = phase_matrix(x1, self.modes)
        tmp = np.einsum("qa,nab->qnb", p0, self.coeffs)[inv0]
        return np.einsum("qb,qnb->qn", p1[inv1], tmp).real

    def __add__(self, other: "BandlimitedField") -> "BandlimitedField":
        check_same_layout(self, other)
        return BandlimitedField(self.m, self.modes, self.coeffs + other.coeffs)

    def scaled(self, factor: float) -> "BandlimitedField":
        factor = check_real(factor, "factor")
        return BandlimitedField(self.m, self.modes, factor * self.coeffs)


def check_same_layout(a: BandlimitedField, b: BandlimitedField):
    if a.m != b.m or a.modes != b.modes or a.components != b.components:
        raise ShapeMismatchError(
            "fields differ in dimension, cutoff, or component count"
        )


def check_points(points, m: int) -> np.ndarray:
    """``points`` as a float array (Q, m); ShapeMismatchError unless it has
    that shape, InputError naming the first point that is not finite."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != m:
        raise ShapeMismatchError("points do not match field dimension")
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():
        raise InputError(f"point {pts[int(np.argmin(finite))]} is not finite")
    return pts


def check_node_values(values: np.ndarray) -> None:
    """Raise InputError unless node-first values (K, n) are real floats, all
    finite; the message names the first nonfinite node and component."""
    if not np.issubdtype(values.dtype, np.floating):
        raise InputError("sampled values must be real floats")
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise InputError(f"nonfinite value at node {bad[0]}, component {bad[1]}")


@dataclass(frozen=True, eq=False)
class SampledField:
    """Node values of a field over a grid window.

    ``values`` has shape (node_count, components) in the C order of the
    grid's masked nodes.  ``parent_modes`` records the cutoff of an exact
    band-limited parent when one is known, which lets interpolation use
    trigonometric reconstruction on full-torus grids.
    """

    domain: GridDomain
    values: np.ndarray
    parent_modes: int | None = None

    def __post_init__(self):
        v = np.asarray(self.values)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[0] != self.domain.node_count:
            raise ShapeMismatchError(
                f"values must have shape (node_count, n), got {v.shape}"
            )
        check_node_values(v)
        if self.parent_modes is not None:
            parent = check_count(self.parent_modes, "parent_modes", 0)
            object.__setattr__(self, "parent_modes", parent)

    @property
    def components(self) -> int:
        return self.values.shape[1]

    def lattice_values(self) -> np.ndarray:
        """Values reshaped to (axis counts..., components)."""
        return self.values.reshape(self.domain.axis_counts + (self.components,))

    def interpolate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate between nodes.

        Full-torus grids use exact trigonometric reconstruction (from the
        band-limited parent cutoff when known).  Window grids use local
        tensor-product Lagrange interpolation on INTERP_POINTS nodes per
        axis, which keeps smooth compatible sections consistent to well
        below 1e-9.
        """
        pts = check_points(points, self.domain.m)
        if self.domain.is_full_torus:
            nyquist = min((r - 1) // 2 for r in self.domain.resolution)
            n = self.parent_modes if self.parent_modes is not None else nyquist
            n = min(n, nyquist)
            return synthesize(self, n).evaluate(np.mod(pts, TWO_PI))
        ok = self.domain.contains_points(pts)
        if not np.all(ok):
            bad = pts[np.argmin(ok)]
            raise InputError(f"point {bad} outside the grid window")
        return _lagrange_interpolate(self, pts)

    def _binary(self, other: "SampledField", op) -> "SampledField":
        if not same_grid(self.domain, other.domain):
            raise ShapeMismatchError("sampled fields live on different grids")
        if self.components != other.components:
            raise ShapeMismatchError("component counts differ")
        if self.parent_modes is None or other.parent_modes is None:
            parent = None
        else:
            parent = max(self.parent_modes, other.parent_modes)
        return SampledField(self.domain, op(self.values, other.values), parent)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def scaled(self, factor: float) -> "SampledField":
        factor = check_real(factor, "factor")
        return SampledField(self.domain, factor * self.values, self.parent_modes)


def phase_matrix(x: np.ndarray, modes: int) -> np.ndarray:
    """Fourier phases exp(i x k) for |k| <= modes, shape (len(x), 2*modes+1)."""
    return np.exp(1j * np.outer(x, np.arange(-modes, modes + 1)))


def grid_values(coeffs: np.ndarray, phases) -> np.ndarray:
    """Complex values of the trigonometric polynomial with coefficients
    ``coeffs`` (shape (components,) + (2N+1,)*m) on a tensor grid, given
    the ``phase_matrix`` of each axis's coordinates, one per coefficient
    axis; shape (Q, components), C-contiguous, in the C order of the
    grid's points.

    The one kernel for tensor grids: the separable product of
    :func:`tensor_transfer` (sum factorization, Orszag, J. Comput. Phys.
    37, 1980).  On curves it is bitwise ``phases[0] @ coeffs.T``, and so
    :meth:`BandlimitedField.evaluate`; on surfaces it sums in another order
    than the per-point contraction and agrees with it to rounding.
    """
    if len(phases) != coeffs.ndim - 1:
        raise ShapeMismatchError("axes do not match coefficient dimension")
    vals = tensor_transfer(phases, coeffs).reshape(coeffs.shape[0], -1)
    return np.ascontiguousarray(vals.T)


# Keyed by (resolution, modes); four tables cover every lattice axis of a
# circle-reports pass, and the bound keeps a process that samples at many
# resolutions from keeping every table alive.
@lru_cache(maxsize=4)
def lattice_phases(resolution: int, modes: int) -> np.ndarray:
    """Read-only ``phase_matrix`` of every node 2*pi*i/resolution of one
    lattice axis; row i is bitwise the phases of node i, so a grid axis
    reads its phases as the rows ``axis_indices[d]``."""
    table = phase_matrix(TWO_PI * np.arange(resolution) / resolution, modes)
    table.flags.writeable = False
    return table


def axis_phases(grid: GridDomain, modes: int) -> list[np.ndarray]:
    """Phase matrix of each axis of a grid's nodes, from the lattice tables."""
    return [
        lattice_phases(grid.resolution[d], modes)[grid.axis_indices[d]]
        for d in range(grid.m)
    ]


def wavenumber_squares(m: int, modes: int) -> np.ndarray:
    """Lattice of |k|^2 over every |k_d| <= modes, shape (2*modes+1,)*m."""
    m = check_dimension(m)
    modes = check_count(modes, "modes", 0)
    k = np.arange(-modes, modes + 1, dtype=float)
    if m == 1:
        return k**2
    return k[:, None] ** 2 + k[None, :] ** 2


def sobolev_weights(m: int, modes: int, exponent: float) -> np.ndarray:
    """Lattice of (1 + |k|^2)^exponent over every |k_d| <= modes."""
    return sobolev_weight_rows(m, modes, [exponent]).reshape((2 * modes + 1,) * m)


def sobolev_weight_rows(m: int, modes: int, exponents) -> np.ndarray:
    """Weights at each exponent, shape (len(exponents), (2*modes+1)**m).

    Row i is the C-order lattice of (1 + |k|^2)^exponents[i].  Each row
    is one power with a scalar exponent, so numpy's fast paths at 0, 0.5,
    1 and 2 apply; an array of exponents would take the general power,
    which differs in the last bit at 0.5.
    """
    base = (1.0 + wavenumber_squares(m, modes)).ravel()
    return np.array([base**e for e in exponents]).reshape(-1, base.size)


def sample(field: BandlimitedField, grid: GridDomain) -> SampledField:
    """Evaluate a band-limited field at the masked nodes of a grid."""
    if field.m != grid.m:
        raise ShapeMismatchError("field and grid dimensions differ")
    vals = grid_values(field.coeffs, axis_phases(grid, field.modes)).real
    return SampledField(grid, np.ascontiguousarray(vals), parent_modes=field.modes)


def restrict_sampled(v: SampledField, window) -> SampledField:
    """Exact restriction of node values to a sub-box of the window."""
    sub = v.domain.subwindow(window)
    sel = []
    for d in range(v.domain.m):
        pos = np.searchsorted(v.domain.axis_indices[d], sub.axis_indices[d])
        sel.append(pos)
    out = v.lattice_values()[np.ix_(*sel)].reshape(sub.node_count, v.components)
    return SampledField(sub, np.ascontiguousarray(out), v.parent_modes)


def extend_by_zero(v: SampledField, target: GridDomain) -> SampledField:
    """Place node values into a larger aligned window, zero elsewhere.

    The target must live on the same lattice and contain every node of the
    source window, so the operation is an exact index scatter.
    """
    if v.domain.m != target.m or v.domain.resolution != target.resolution:
        raise ShapeMismatchError("extension target must share the lattice")
    pos = []
    for d in range(v.domain.m):
        src = v.domain.axis_indices[d]
        tgt = target.axis_indices[d]
        p = np.searchsorted(tgt, src)
        if np.any(p >= tgt.size) or not np.array_equal(tgt[np.minimum(p, tgt.size - 1)], src):
            raise InputError(f"axis {d}: source nodes not contained in target window")
        pos.append(p)
    out = np.zeros(target.axis_counts + (v.components,), dtype=float)
    out[np.ix_(*pos)] = v.lattice_values()
    return SampledField(target, out.reshape(target.node_count, v.components))


def synthesize(v: SampledField, modes: int) -> BandlimitedField:
    """Recover Fourier coefficients from full-torus samples.

    Exact for fields band-limited at ``modes`` when every axis resolution
    is at least ``2*modes + 1``; coarser grids alias and are rejected.
    """
    grid = v.domain
    if not grid.is_full_torus:
        raise InputError("synthesis requires a full-torus grid")
    modes = check_count(modes, "modes", 0)
    for d, r in enumerate(grid.resolution):
        if r < 2 * modes + 1:
            raise AliasingError(
                f"axis {d}: resolution {r} cannot resolve cutoff {modes} "
                f"(needs at least {2 * modes + 1})"
            )
    lat = v.lattice_values()
    vals = np.moveaxis(lat, -1, 0)  # (n, R0[, R1])
    spec = np.fft.fftn(vals, axes=tuple(range(1, grid.m + 1)))
    spec /= float(np.prod(grid.resolution))
    k = np.arange(-modes, modes + 1)
    take = [k % grid.resolution[d] for d in range(grid.m)]
    coeffs = spec[np.ix_(np.arange(vals.shape[0]), *take)]
    coeffs = hermitian_part(np.ascontiguousarray(coeffs))
    return BandlimitedField(grid.m, modes, coeffs)


def random_field(
    m: int,
    modes: int,
    components: int,
    rng: np.random.Generator,
    decay: float = 2.0,
    amplitude: float = 1.0,
) -> BandlimitedField:
    """Random real field with coefficient magnitudes ~ (1+|k|^2)^(-decay/2)."""
    components = check_count(components, "components", 1)
    amplitude = check_real(amplitude, "amplitude", 0.0)
    weights = sobolev_weights(m, modes, -check_real(decay, "decay") / 2.0)
    shape = (components,) + weights.shape
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    raw *= amplitude * weights
    return BandlimitedField(m, modes, hermitian_part(raw))


def _equispaced_barycentric(p: int) -> np.ndarray:
    return np.array(
        [1.0 / np.prod(j - np.delete(np.arange(p), j).astype(float)) for j in range(p)]
    )


# Barycentric weights of the equispaced stencil of each width up to
# INTERP_POINTS, indexed by width (Berrut & Trefethen, SIAM Rev. 46(3), 2004).
_BARYCENTRIC = tuple(_equispaced_barycentric(p) for p in range(INTERP_POINTS + 1))


def _axis_stencils(xq: np.ndarray, nodes: np.ndarray):
    """Stencil start indices and barycentric weights along one axis."""
    count = nodes.size
    p = min(INTERP_POINTS, count)
    pos = np.searchsorted(nodes, xq)
    start = np.clip(pos - p // 2, 0, count - p)
    idx = start[:, None] + np.arange(p)[None, :]
    xs = nodes[idx]
    diff = xq[:, None] - xs
    bw = _BARYCENTRIC[p]
    hit = np.abs(diff) < 1e-13
    any_hit = hit.any(axis=1)
    terms = bw[None, :] / np.where(hit, 1.0, diff)
    weights = terms / terms.sum(axis=1, keepdims=True)
    if np.any(any_hit):
        weights[any_hit] = hit[any_hit].astype(float)
    return idx, weights


def axis_interpolation_matrix(grid: GridDomain, d: int, xq: np.ndarray) -> np.ndarray:
    """Dense matrix of the local Lagrange weights along axis ``d``.

    Row q holds the stencil weights :meth:`SampledField.interpolate` uses
    on a window grid at coordinate ``xq[q]``, scattered over the window's
    axis-``d`` nodes, so interpolation at a tensor grid of points is a
    product of these matrices with the lattice values (see
    :func:`tensor_transfer`).
    """
    xq = np.asarray(xq, dtype=float)
    lo, hi = grid.window[d]
    outside = (xq <= lo) | (xq >= hi)
    if np.any(outside):
        bad = xq[np.argmax(outside)]
        raise InputError(f"axis {d} coordinate {bad} outside the grid window")
    idx, w = _axis_stencils(xq, grid.axis_nodes(d))
    out = np.zeros((xq.size, grid.axis_counts[d]))
    np.put_along_axis(out, idx, w, axis=1)
    return out


def tensor_transfer(matrices, stack: np.ndarray) -> np.ndarray:
    """Apply per-axis matrices to component-first values of shape (n, c0[, c1]).

    Returns ``W0 @ S @ W1.T`` (per component) on surfaces, shaped
    (n, q0, q1), and on curves the (n, q0) transpose of ``W0 @ S.T``.
    On surfaces the product is taken in the order with fewer multiply-adds,
    ``(W0 @ S) @ W1.T`` on a tie.
    """
    if len(matrices) == 1:
        return (matrices[0] @ stack.T).T
    w0, w1 = matrices
    (q0, g0), (q1, g1) = w0.shape, w1.shape
    if g0 * q1 * (g1 + q0) < q0 * g1 * (g0 + q1):
        return w0 @ (stack @ w1.T)
    return w0 @ stack @ w1.T


def _lagrange_interpolate(v: SampledField, pts: np.ndarray) -> np.ndarray:
    grid = v.domain
    lat = v.lattice_values()
    if grid.m == 1:
        idx, w = _axis_stencils(pts[:, 0], grid.axis_nodes(0))
        return np.einsum("qp,qpn->qn", w, lat[idx])
    idx0, w0 = _axis_stencils(pts[:, 0], grid.axis_nodes(0))
    idx1, w1 = _axis_stencils(pts[:, 1], grid.axis_nodes(1))
    sub = lat[idx0[:, :, None], idx1[:, None, :]]
    return np.einsum("qa,qb,qabn->qn", w0, w1, sub)
