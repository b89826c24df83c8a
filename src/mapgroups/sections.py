"""Sections: manifold-valued-free chart families of sampled fields.

A section stores one sampled field per chart, on the chart's witness
window, with values agreeing across overlaps.  Gluing realizes the global
object through the atlas partition of unity; the Hilbert inner product
sums per-chart quotient-space surrogates built from minimum-norm
extensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atlas import Atlas, require_same_atlas
from .errors import (
    CoverageError,
    IncompatibleSectionError,
    InputError,
    ShapeMismatchError,
    check_count,
    check_name,
    check_real,
)
from .fields import (
    GridDomain,
    SampledField,
    check_points,
    grid_values,
    phase_matrix,
    same_grid,
    sobolev_weights,
    tensor_points,
    tensor_transfer,
)
from .sobolev import CONVENTIONS, min_norm_extension, hs_inner

# Largest overlap defect a family of chart pieces may have and still be
# one section.
OVERLAP_TOLERANCE = 1e-9

# Node budgets for the quotient-norm surrogate inner product; the
# extension cutoff is twice the per-axis node count.
EXTENSION_NODES_1D = 24
EXTENSION_NODES_2D = 12


def _window_lattices(pieces, atlas: Atlas) -> list[np.ndarray]:
    """One component-first lattice (n, c0[, c1]) per chart.

    A ``SampledField`` piece must be sampled on its chart's window; it is
    copied once, C-contiguous.  An array piece is taken as such a lattice,
    without a copy, once its shape is checked against the window.
    """
    pieces = tuple(pieces)
    if len(pieces) != atlas.chart_count:
        raise ShapeMismatchError("one piece per chart required")
    lattices = []
    for c, p in zip(atlas.charts, pieces):
        counts = c.window.axis_counts
        if isinstance(p, SampledField):
            if not same_grid(p.domain, c.window):
                raise InputError(
                    f"piece for chart {c.index} is not sampled on its window"
                )
            p = np.ascontiguousarray(p.values.T).reshape((p.components,) + counts)
        elif p.shape[1:] != counts:
            raise ShapeMismatchError(
                f"piece for chart {c.index} must have shape (n, *{counts}), "
                f"got {p.shape}"
            )
        if lattices and p.shape[0] != lattices[0].shape[0]:
            raise ShapeMismatchError("pieces disagree on component count")
        lattices.append(p)
    return lattices


def _lattice_block(lattice: np.ndarray, cols) -> np.ndarray:
    """Component-first lattice values (n, c0[, c1]) at the nodes
    ``np.ix_(*cols)``.  Only the axes whose columns are cut are gathered,
    each a ``take`` of whole contiguous rows; an axis kept whole stays a view.
    """
    for axis, col in enumerate(cols, start=1):
        if col.size < lattice.shape[axis]:
            lattice = lattice.take(col, axis=axis)
    return lattice


def compatibility_defect(pieces, atlas: Atlas):
    """Largest disagreement between chart pieces over sampled overlaps, and
    where it lies.

    ``pieces`` holds one piece per chart: a ``SampledField`` on the chart's
    window, or its component-first lattice (n, c0[, c1]).  Pieces are
    interpolated to the shared points of
    ``atlas.overlap_samples(i, j, OVERLAP_SAMPLES)``, a constant of the
    atlas module, through their own chart coordinates; the defect is the
    max over points and chart pairs of the value difference (sup over
    components).  The points form a tensor grid, so each piece's values
    there are a product of the atlas's cached per-axis interpolation
    matrices with its lattice values.  Each transfer keeps only its live
    columns, so only the lattice block its stencils touch enters the
    product.  Returns ``(defect, where)``: ``where`` is the chart pair and
    manifold point of the maximum, ``(i, j, point)``, or None when no
    overlap sample differs.
    """
    lattices = _window_lattices(pieces, atlas)
    worst = 0.0
    worst_point = None
    for op in atlas.overlap_transfers:
        vi = tensor_transfer(op.first, _lattice_block(lattices[op.i], op.first_cols))
        vj = tensor_transfer(op.second, _lattice_block(lattices[op.j], op.second_cols))
        vi -= vj  # vi is a fresh product, so the difference goes in place
        diff = np.abs(vi, out=vi).max(axis=0)
        k = np.unravel_index(int(np.argmax(diff)), diff.shape)
        if diff[k] > worst:
            worst = float(diff[k])
            worst_point = (op.i, op.j, [float(a[q]) for a, q in zip(op.angles, k)])
    return worst, worst_point


def require_compatible(pieces, atlas: Atlas, what: str) -> None:
    """Raise IncompatibleSectionError when the pieces' overlap defect
    exceeds OVERLAP_TOLERANCE.

    The message, prefixed by ``what``, names the defect, the chart pair and
    the manifold point where it is largest.
    """
    defect, where = compatibility_defect(pieces, atlas)
    if defect > OVERLAP_TOLERANCE:
        raise IncompatibleSectionError(
            f"{what}overlap defect {defect:.3e} exceeds {OVERLAP_TOLERANCE:.1e} near "
            f"charts {where[0]}/{where[1]} at point {where[2]}"
        )


@dataclass(frozen=True, eq=False)
class Section:
    """Compatible chart family of sampled fields over an atlas: the pieces
    agree on overlaps to within OVERLAP_TOLERANCE."""

    atlas: Atlas
    pieces: tuple[SampledField, ...]
    tolerance = OVERLAP_TOLERANCE  # a class constant, not a field

    def __post_init__(self):
        object.__setattr__(self, "pieces", tuple(self.pieces))
        require_compatible(self.pieces, self.atlas, "")

    @property
    def components(self) -> int:
        return self.pieces[0].components

    def _binary(self, other: "Section", op) -> "Section":
        require_same_atlas(self.atlas, other.atlas, "sections")
        new = tuple(op(a, b) for a, b in zip(self.pieces, other.pieces))
        return Section(self.atlas, new)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def scaled(self, factor: float) -> "Section":
        factor = check_real(factor, "factor")
        return Section(self.atlas, tuple(p.scaled(factor) for p in self.pieces))

    def sup_norm(self) -> float:
        """Largest Euclidean value norm over all stored nodes."""
        return max(
            float(np.linalg.norm(p.values, axis=1).max()) for p in self.pieces
        )


def section_from_function(atlas: Atlas, fn) -> Section:
    """Sample a global function of manifold points into chart pieces.

    ``fn`` maps angle arrays (Q, m) to value arrays (Q, n).
    """
    return Section(atlas, _chart_samples(atlas, fn))


def _chart_samples(atlas: Atlas, fn, *sections) -> tuple[SampledField, ...]:
    """One field per chart: ``fn`` of the window's manifold points and the
    given sections' values there, as a (Q, n) or (Q,) array."""
    pieces = []
    for j, c in enumerate(atlas.charts):
        theta = tensor_points(c.window_angles())
        vals = np.asarray(fn(theta, *(s.pieces[j].values for s in sections)), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        pieces.append(SampledField(c.window, vals))
    return tuple(pieces)


def random_section(
    atlas: Atlas, components: int, rng: np.random.Generator, order: int = 3
) -> Section:
    """Random smooth section from a low-order trigonometric polynomial.

    Coefficients are complex normal draws weighted by (1 + |k|^2)^(-1).
    Each chart piece is the real part of the polynomial on the tensor
    grid of the chart's window angles, bitwise its values at each node.
    """
    components = check_count(components, "components", 1)
    order = check_count(order, "order", 0)
    m = atlas.m
    shape = (components,) + (2 * order + 1,) * m
    coef = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    coef *= sobolev_weights(m, order, -1.0)
    return Section(atlas, tuple(
        SampledField(c.window, grid_values(
            coef, [phase_matrix(x, order) for x in c.window_angles()]
        ).real)
        for c in atlas.charts
    ))


def theta_embed(section: Section) -> tuple[SampledField, ...]:
    """Chart pieces of a section (the embedding into the product space)."""
    return section.pieces


def glue(pieces, atlas: Atlas) -> Section:
    """Assemble compatible chart pieces into a section.

    The value on chart j's window is the partition-of-unity combination
    ``sum_i h_i(p) * piece_i(phi_i(p))`` over the manifold point p of each
    node, which is linear in the pieces and reproduces compatible input
    at the nodes.  Every piece must be sampled on its chart's window; each
    term is a product of the atlas's cached per-axis interpolation matrices,
    cut to their live columns, with the lattice block they touch.
    """
    lattices = _window_lattices(pieces, atlas)
    require_compatible(lattices, atlas, "cannot glue: ")
    n = lattices[0].shape[0]
    out = []
    for c, ops in zip(atlas.charts, atlas.partition_transfers):
        vals = np.zeros((n,) + c.window.axis_counts)
        for op in ops:
            block = _lattice_block(lattices[op.source], op.cols)
            vals[(slice(None),) + np.ix_(*op.hits)] += op.weights * tensor_transfer(
                op.matrices, block
            )
        vals = np.moveaxis(vals, 0, -1).reshape(c.window.node_count, n)
        out.append(SampledField(c.window, np.ascontiguousarray(vals)))
    return Section(atlas, tuple(out))


def point_eval(section: Section, theta: np.ndarray) -> np.ndarray:
    """Evaluate a section at finite manifold points through the deepest chart."""
    pts = check_points(theta, section.atlas.m)
    out = np.empty((pts.shape[0], section.components))
    if not len(pts):
        return out
    depths = np.column_stack(
        [c.window_depth(pts) for c in section.atlas.charts]
    )
    best = depths.argmax(axis=1)
    if depths[np.arange(pts.shape[0]), best].min() <= 0.0:
        bad = pts[int(np.argmin(depths.max(axis=1)))]
        raise CoverageError(f"point {bad} not inside any witness window")
    for j in np.unique(best):
        sel = best == j
        x = section.atlas.charts[j].to_chart(pts[sel])
        out[sel] = section.pieces[j].interpolate(x)
    return out


def hilbert_inner(
    a: Section, b: Section, s, convention: str = "paper", return_detail: bool = False
):
    """Sum of per-chart quotient inner products of two sections.

    Each chart piece is (sub)sampled to at most EXTENSION_NODES_1D nodes per
    axis on curves, EXTENSION_NODES_2D on surfaces, extended to the
    band-limited field of minimal Sobolev norm matching those nodes, and
    the extensions are paired with :func:`hs_inner`.  The extension cutoff
    doubles the node count per axis, which keeps the systems well
    conditioned; it is reported in the detail dictionary.
    """
    s = check_real(s, "s", 0.0)
    check_name(convention, CONVENTIONS, "weight convention")
    require_same_atlas(a.atlas, b.atlas, "sections")
    if a.components != b.components:
        raise ShapeMismatchError("component counts differ")
    max_nodes_per_axis = EXTENSION_NODES_1D if a.atlas.m == 1 else EXTENSION_NODES_2D
    total = 0.0
    detail = []
    for j, (pa, pb) in enumerate(zip(a.pieces, b.pieces)):
        ga, modes = _thin_for_extension(pa, max_nodes_per_axis)
        gb, _ = _thin_for_extension(pb, max_nodes_per_axis)
        ea = min_norm_extension(ga, s, modes, convention)
        eb = min_norm_extension(gb, s, modes, convention)
        term = hs_inner(ea, eb, s, convention)
        total += term
        detail.append({"chart": j, "modes": modes, "term": term})
    if return_detail:
        return total, detail
    return total


def _thin_for_extension(piece: SampledField, max_nodes_per_axis: int):
    """Stride-subsample a window piece so the extension system is square."""
    grid = piece.domain
    lat = piece.lattice_values()
    take = []
    for d in range(grid.m):
        count = grid.axis_counts[d]
        stride = max(1, int(np.ceil(count / max_nodes_per_axis)))
        take.append(np.arange(0, count, stride))
    sub = lat[np.ix_(*take)]
    counts = [t.size for t in take]
    # Cutoff equal to the node count doubles the coefficients per axis.
    # A square system on a window arc is catastrophically ill-conditioned
    # (~1e9 already at 24 nodes), while this 2x margin keeps the condition
    # number in the tens, so the surrogate inner product stays bilinear
    # to rounding accuracy.
    modes = max(counts)
    idx = tuple(grid.axis_indices[d][take[d]] for d in range(grid.m))
    thin = GridDomain(grid.m, grid.resolution, grid.window, idx)
    vals = sub.reshape(thin.node_count, piece.components)
    return SampledField(thin, np.ascontiguousarray(vals)), modes


def pushforward(f, section: Section) -> Section:
    """Apply a smooth map fiberwise: node values f(p, gamma(p)).

    ``f`` receives manifold points (K, m) and values (K, n), returning
    (K, p).
    """
    pieces = _chart_samples(section.atlas, f, section)
    return Section(section.atlas, pieces)


def pushforward_derivative(d2f, gamma: Section, eta: Section) -> Section:
    """Fiber derivative of a pushforward along a direction section.

    ``d2f`` receives (points, gamma values, eta values) and returns the
    derivative values; the result is the section
    ``p -> d2f(p, gamma(p), eta(p))``.
    """
    require_same_atlas(gamma.atlas, eta.atlas, "sections")
    pieces = _chart_samples(gamma.atlas, d2f, gamma, eta)
    return Section(gamma.atlas, pieces)

