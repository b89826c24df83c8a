"""Finite atlases with witness windows on the circle and the 2-torus.

Manifold points are canonical angles in [0, 2*pi)^m.  Chart j centers the
arc (or box) around its offset: chart coordinates are
``x = pi + wrap(theta - offset_j)`` with ``wrap`` the principal value in
(-pi, pi], so every codomain is the box (pi - HALF_WIDTH, pi + HALF_WIDTH)^m
inside the fundamental domain of the coordinate torus.  All transitions are
(piecewise) translations with unit Jacobian.
"""

from __future__ import annotations

import inspect
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .cutoffs import PLATEAU, SmoothCutoff, bump_profile
from .errors import (
    ChartDomainError,
    CoverageError,
    InputError,
    check_count,
    check_name,
    check_real,
)
from .fields import (
    TWO_PI,
    GridDomain,
    axis_interpolation_matrix,
    tensor_points,
)

PI = np.pi

# Half-width of every chart's codomain box around pi, and of its witness
# window inside it.  The 2^m corner charts at offsets {0, pi}^m cover the
# manifold because WINDOW_HALF exceeds pi/2, and their overlaps are wide
# enough that the rounding of sample angles (~1e-15 rad) stays inside a
# codomain; tests/test_atlas.py holds these invariants.
HALF_WIDTH = 2.0
WINDOW_HALF = 1.7

# Largest inverse, cocycle and partition residual validate_atlas accepts.
VALIDATION_TOL = 1e-9

# Overlap sample points per axis of the cached overlap transfers, which
# the section compatibility check applies.
OVERLAP_SAMPLES = 24

# Overlap sample points per axis of validate_atlas's inverse and cocycle checks.
VALIDATION_SAMPLES = 64


def wrap_angle(theta: np.ndarray) -> np.ndarray:
    """Principal value in (-pi, pi]."""
    return PI - np.mod(PI - np.asarray(theta, dtype=float), TWO_PI)


def _chart_coords(theta, offset):
    """Chart coordinates of angles ``theta`` in the chart at ``offset``."""
    return PI + wrap_angle(theta - offset)


def _chart_angles(x, offset):
    """Angles of chart coordinates ``x`` in the chart at ``offset``."""
    return np.mod(x - PI + offset, TWO_PI)


@dataclass(frozen=True, eq=False)
class Chart:
    """One chart: an offset arc/box with a strictly smaller witness window.

    The window is the box (pi +- WINDOW_HALF)^m on the lattice of
    ``resolution`` nodes per axis.
    """

    index: int
    offset: np.ndarray
    resolution: InitVar[int]
    window: GridDomain = field(init=False)

    def __post_init__(self, resolution):
        off = np.array([check_real(x, "offset") for x in np.atleast_1d(self.offset)])
        object.__setattr__(self, "offset", off)
        box = tuple((PI - WINDOW_HALF, PI + WINDOW_HALF) for _ in range(off.size))
        object.__setattr__(
            self, "window", GridDomain.box(box, check_count(resolution, "resolution", 3))
        )

    @property
    def m(self) -> int:
        return self.offset.size

    def to_chart(self, theta: np.ndarray) -> np.ndarray:
        return _chart_coords(np.atleast_2d(np.asarray(theta, dtype=float)), self.offset)

    def from_chart(self, x: np.ndarray) -> np.ndarray:
        return _chart_angles(np.atleast_2d(np.asarray(x, dtype=float)), self.offset)

    def window_angles(self) -> list[np.ndarray]:
        """Angles of the window's lattice nodes along each axis; the
        window's nodes map to their tensor grid, in C order."""
        return [
            _chart_angles(self.window.axis_nodes(d), self.offset[d]) for d in range(self.m)
        ]

    @cached_property
    def window_points(self) -> np.ndarray:
        """Read-only manifold points of the window's nodes, shape
        (node_count, m): the tensor grid of ``window_angles()``, built once
        per chart."""
        pts = tensor_points(self.window_angles())
        pts.flags.writeable = False
        return pts

    def codomain(self) -> tuple[tuple[float, float], ...]:
        return tuple((PI - HALF_WIDTH, PI + HALF_WIDTH) for _ in range(self.m))

    def in_codomain(self, x: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        return np.all(np.abs(pts - PI) < HALF_WIDTH, axis=1)

    def window_depth(self, theta: np.ndarray) -> np.ndarray:
        """Distance of phi_j(theta) to the witness window boundary (signed)."""
        x = self.to_chart(theta)
        return WINDOW_HALF - np.max(np.abs(x - PI), axis=1)


class _ReadOnlyArrays:
    """Dataclass base that marks its arrays, and those in its tuple fields,
    read-only: builtin atlases and the operators cached on them are shared
    by the whole process."""

    def __post_init__(self):
        for value in vars(self).values():
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.flags.writeable = False


@dataclass(frozen=True)
class OverlapTransfer(_ReadOnlyArrays):
    """Per-axis interpolation from two chart windows to their overlap samples.

    The overlap samples of charts ``i < j`` are the tensor grid (C order)
    of the per-axis manifold angles ``angles[d]``.  ``first[d]`` and
    ``second[d]`` map the axis-d window lattice of chart i and of chart j
    to those angles' chart coordinates (see ``fields.tensor_transfer``).
    Each matrix keeps only its live columns: the axis-d lattice nodes
    ``first_cols[d]`` (``second_cols[d]``) that its stencils touch.
    """

    i: int
    j: int
    angles: tuple[np.ndarray, ...]
    first: tuple[np.ndarray, ...]
    first_cols: tuple[np.ndarray, ...]
    second: tuple[np.ndarray, ...]
    second_cols: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class PartitionTransfer(_ReadOnlyArrays):
    """One source chart's term of the partition-of-unity sum on a target window.

    The source bump is a tensor bump supported in the source window, so the
    target nodes it reaches are the product of the per-axis node positions
    ``hits[d]``.  ``matrices[d]`` interpolates the source window lattice to
    those nodes and keeps only its live columns, the axis-d source nodes
    ``cols[d]`` that its stencils touch.  ``weights`` holds the source's
    partition weight on the hit block, shape (h0[, h1]).
    """

    source: int
    hits: tuple[np.ndarray, ...]
    matrices: tuple[np.ndarray, ...]
    cols: tuple[np.ndarray, ...]
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class Atlas:
    """Finite chart collection with partition bumps subordinate to windows.

    The interpolation operators that depend only on the atlas, the
    attributes ``overlap_transfers`` and ``partition_transfers``, are built
    on first use and kept on the instance, so they live as long as it does.
    Each overlap and partition transfer keeps only its live columns, the
    window lattice nodes its interpolation stencils touch.
    """

    name: str
    charts: tuple[Chart, ...]

    def __post_init__(self):
        if len(self.charts) < 2:
            raise InputError("an atlas needs at least two charts")
        lattices = sorted({c.window.resolution for c in self.charts})
        if len(lattices) > 1:
            raise InputError(f"chart windows lie on different lattices {lattices}")

    @property
    def m(self) -> int:
        return self.charts[0].m

    @property
    def lattice_resolution(self) -> int:
        """Lattice nodes per axis of every chart window."""
        return self.charts[0].window.resolution[0]

    @property
    def chart_count(self) -> int:
        return len(self.charts)

    def transition_point(self, i: int, j: int, x: np.ndarray) -> np.ndarray:
        """Transition phi_i o phi_j^(-1) at chart-j coordinates x."""
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        cj, ci = self.charts[j], self.charts[i]
        ok_j = cj.in_codomain(pts)
        if not np.all(ok_j):
            bad = pts[int(np.argmin(ok_j))]
            raise ChartDomainError(f"point {bad} outside chart {j} codomain")
        out = ci.to_chart(cj.from_chart(pts))
        ok_i = ci.in_codomain(out)
        if not np.all(ok_i):
            bad = pts[int(np.argmin(ok_i))]
            raise ChartDomainError(
                f"point {bad} in chart {j} does not meet chart {i}"
            )
        return out

    def bump_values(self, theta: np.ndarray) -> np.ndarray:
        """Unnormalized chart bumps at manifold points, shape (Q, charts).

        Bump j is the tensor bump in chart-j coordinates supported exactly
        on the witness window, so subordination is structural.
        """
        th = np.atleast_2d(np.asarray(theta, dtype=float))
        return np.column_stack([
            SmoothCutoff([PI] * self.m, [WINDOW_HALF] * self.m)(c.to_chart(th))
            for c in self.charts
        ])

    def partition_weights(self, theta: np.ndarray) -> np.ndarray:
        """Partition of unity subordinate to the witness windows."""
        b = self.bump_values(theta)
        total = b.sum(axis=1)
        if np.any(total <= 0.0):
            th = np.atleast_2d(np.asarray(theta, dtype=float))
            bad = th[int(np.argmin(total))]
            raise CoverageError(f"point {bad} not covered by any witness window")
        return b / total[:, None]

    def manifold_grid(self, per_axis: int) -> np.ndarray:
        """Deterministic dense sample of the manifold, shape (Q, m)."""
        ax = TWO_PI * (np.arange(per_axis) + 0.5) / per_axis
        return tensor_points([ax] * self.m)

    def _axis_overlap_arcs(self, i: int, j: int, d: int):
        """Intersection arcs of two witness arcs on coordinate axis d.

        Arcs of equal half-width intersect in up to two arcs: one around
        the midpoint of the centers and one around its antipode.  Returns
        (center, half_width) pairs for the nonempty ones.
        """
        ci, cj = self.charts[i], self.charts[j]
        h = WINDOW_HALF
        delta = abs(float(wrap_angle(cj.offset[d] - ci.offset[d])))
        mid = float(ci.offset[d]) + 0.5 * delta
        arcs = []
        if h - 0.5 * delta > 0:
            arcs.append((mid, h - 0.5 * delta))
        if h - PI + 0.5 * delta > 0:
            arcs.append((mid + PI, h - PI + 0.5 * delta))
        return arcs

    def _overlap_axes(self, i: int, j: int, per_axis: int):
        """Per-axis sample angles of the overlap of two witness windows.

        Each arc intersection is sampled uniformly, kept two lattice cells
        away from the window edges; the inset shrinks on bands too thin
        for it, so genuine overlaps always yield points.  Returns None for
        an empty overlap.
        """
        margin = 2.0 * TWO_PI / self.lattice_resolution
        axes = []
        for d in range(self.m):
            arcs = self._axis_overlap_arcs(i, j, d)
            if not arcs:
                return None
            pts = []
            for center, half in arcs:
                inset = min(margin, 0.45 * half)
                pts.append(np.linspace(center - half + inset,
                                       center + half - inset, per_axis))
            axes.append(np.mod(np.concatenate(pts), TWO_PI))
        return axes

    def overlap_samples(self, i: int, j: int, per_axis: int = 33) -> np.ndarray:
        """Manifold points lying inside both witness windows.

        The pairwise overlap is a product of per-axis arc intersections;
        the points are the tensor grid of their ``per_axis >= 1`` samples.
        """
        axes = self._overlap_axes(i, j, check_count(per_axis, "per_axis", 1))
        if axes is None:
            return np.empty((0, self.m))
        return tensor_points(axes)

    def _axis_matrices(self, k: int, angles):
        """Per-axis interpolation from chart k's window to manifold angles.

        Each matrix is cut to its live columns, the lattice nodes its
        stencils touch.  Returns the cut matrices and the column indices.
        """
        c = self.charts[k]
        mats, cols = [], []
        for d, a in enumerate(angles):
            full = axis_interpolation_matrix(c.window, d, _chart_coords(a, c.offset[d]))
            live = np.flatnonzero(full.any(axis=0))
            mats.append(full[:, live])
            cols.append(live)
        return tuple(mats), tuple(cols)

    @cached_property
    def overlap_transfers(self) -> tuple[OverlapTransfer, ...]:
        """Transfers to ``overlap_samples(i, j, OVERLAP_SAMPLES)`` for each
        overlapping pair i < j."""
        ops = []
        for i in range(self.chart_count):
            for j in range(i + 1, self.chart_count):
                axes = self._overlap_axes(i, j, OVERLAP_SAMPLES)
                if axes is None:
                    continue
                ops.append(OverlapTransfer(
                    i, j, tuple(axes),
                    *self._axis_matrices(i, axes), *self._axis_matrices(j, axes),
                ))
        return tuple(ops)

    @cached_property
    def partition_transfers(self) -> tuple[tuple[PartitionTransfer, ...], ...]:
        """Terms of the partition-of-unity sum at the window nodes of each
        chart, indexed by that target chart."""
        tables = []
        for c in self.charts:
            axes = c.window_angles()
            weights = self.partition_weights(c.window_points)
            ops = []
            for i, src in enumerate(self.charts):
                coords = [_chart_coords(a, src.offset[d]) for d, a in enumerate(axes)]
                hits = tuple(
                    np.flatnonzero(
                        bump_profile(np.abs(x - PI) / WINDOW_HALF) > 0.0
                    )
                    for x in coords
                )
                if any(h.size == 0 for h in hits):
                    continue
                block = weights[:, i].reshape(c.window.axis_counts)[np.ix_(*hits)]
                ops.append(PartitionTransfer(
                    i, hits, *self._axis_matrices(i, [a[h] for a, h in zip(axes, hits)]),
                    block,
                ))
            tables.append(tuple(ops))
        return tuple(tables)


def atlas_descriptor(a: Atlas) -> dict:
    """Every fact that makes an atlas what it is, as JSON data."""
    return {
        "name": a.name,
        "m": a.m,
        "lattice_resolution": a.lattice_resolution,
        "transition_kind": "translation",
        "bump": {"plateau": PLATEAU},
        "charts": [
            {
                "index": c.index,
                "offset": [float(x) for x in c.offset],
                "half_width": HALF_WIDTH,
                "window_half": WINDOW_HALF,
                "codomain": [[lo, hi] for lo, hi in c.codomain()],
                "window": [[lo, hi] for lo, hi in c.window.window],
            }
            for c in a.charts
        ],
    }


def require_same_atlas(a: Atlas, b: Atlas, what: str) -> None:
    """Raise InputError unless two atlases have one descriptor."""
    if not (a is b or atlas_descriptor(a) == atlas_descriptor(b)):
        raise InputError(f"{what} live on different atlases")


def _corner_atlas(name, m, resolution) -> Atlas:
    """Charts at the offsets {0, pi}^m, axis 0 varying fastest."""
    return Atlas(name, tuple(
        Chart(k, off[::-1], resolution) for k, off in enumerate(product((0.0, PI), repeat=m))
    ))


def circle_two_charts(resolution: int = 257) -> Atlas:
    """Two arcs offset by pi; transitions are translations by +-pi."""
    return _corner_atlas("circle2", 1, resolution)


def torus_four_charts(resolution: int = 129) -> Atlas:
    """Product of two 2-chart circles: offsets (0,0), (pi,0), (0,pi), (pi,pi)."""
    return _corner_atlas("torus4", 2, resolution)


BUILTIN_ATLASES = {"circle2": circle_two_charts, "torus4": torus_four_charts}


def builtin_atlas(name: str, resolution: int | None = None) -> Atlas:
    """The one shared instance of a builtin atlas at a lattice resolution.

    ``resolution=None`` means the builder's default, and gives the same
    instance as passing that default.
    """
    check_name(name, BUILTIN_ATLASES, "atlas")
    if resolution is None:
        resolution = inspect.signature(BUILTIN_ATLASES[name]).parameters["resolution"].default
    return _shared_atlas(name, resolution)


# Keyed by (name, resolution) as builtin_atlas passes them; the bound stops a
# process that loads files at many resolutions from keeping every atlas and
# its operators alive.
@lru_cache(maxsize=4)
def _shared_atlas(name: str, resolution: int) -> Atlas:
    atlas = BUILTIN_ATLASES[name](resolution)
    for c in atlas.charts:
        for arr in (c.offset, *c.window.axis_indices):
            arr.flags.writeable = False
    return atlas


@dataclass(frozen=True)
class AtlasReport:
    cover_margin: float
    inverse_residual: float
    cocycle_residual: float
    partition_residual: float
    passed: bool


def validate_atlas(a: Atlas) -> AtlasReport:
    """Covering, inverse, cocycle, and partition checks on dense samples.

    Covering and partition run on a manifold grid of 1024 points on the
    circle, 128 per axis on the torus; inverse and cocycle on each chart
    pair's ``VALIDATION_SAMPLES`` overlap samples.  Residuals pass at most
    ``VALIDATION_TOL``.
    """
    pts = a.manifold_grid(1024 if a.m == 1 else 128)
    depths = np.column_stack([c.window_depth(pts) for c in a.charts])
    cover_margin = float(depths.max(axis=1).min())

    inverse_residual = 0.0
    cocycle_residual = 0.0
    for i in range(a.chart_count):
        for j in range(a.chart_count):
            if i == j:
                continue
            ov = a.overlap_samples(i, j, VALIDATION_SAMPLES)
            if ov.size == 0:
                continue
            x = a.charts[j].to_chart(ov)
            y = a.transition_point(i, j, x)
            back = a.transition_point(j, i, y)
            inverse_residual = max(inverse_residual, float(np.abs(back - x).max()))
            for k in range(a.chart_count):
                if k in (i, j):
                    continue
                deep = ov[a.charts[k].window_depth(ov) > 0.05]
                if deep.size == 0:
                    continue
                xk = a.charts[k].to_chart(deep)
                direct = a.transition_point(i, k, xk)
                via = a.transition_point(i, j, a.transition_point(j, k, xk))
                cocycle_residual = max(
                    cocycle_residual, float(np.abs(direct - via).max())
                )

    part = a.partition_weights(pts).sum(axis=1)
    partition_residual = float(np.abs(part - 1.0).max())

    passed = (
        cover_margin > 0.0
        and inverse_residual <= VALIDATION_TOL
        and cocycle_residual <= VALIDATION_TOL
        and partition_residual <= VALIDATION_TOL
    )
    return AtlasReport(
        cover_margin,
        inverse_residual,
        cocycle_residual,
        partition_residual,
        passed,
    )
