"""Finite atlases with witness windows on the circle and the 2-torus.

Manifold points are canonical angles in [0, 2*pi)^m.  Chart j centers the
arc (or box) around its offset: chart coordinates are
``x = pi + wrap(theta - offset_j)`` with ``wrap`` the principal value in
(-pi, pi], so every codomain is the box (pi - half_width, pi + half_width)^m
inside the fundamental domain of the coordinate torus.  All transitions are
(piecewise) translations with unit Jacobian.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cutoffs import bump_profile
from .errors import ChartDomainError, CoverageError, InputError, check_count
from .fields import TWO_PI, GridDomain, axis_interpolation_matrix, tensor_points
from .maps import Diffeo, constant_jacobian

PI = np.pi

# Least half-width window_half - pi/2 of a chart overlap: the rounding of
# thinner overlaps' sample angles (~1e-15 rad) can put them outside a codomain.
MIN_OVERLAP = 1e-12

# Largest inverse, cocycle and partition residual validate_atlas accepts.
VALIDATION_TOL = 1e-9


def wrap_angle(theta: np.ndarray) -> np.ndarray:
    """Principal value in (-pi, pi]."""
    return PI - np.mod(PI - np.asarray(theta, dtype=float), TWO_PI)


@dataclass(frozen=True, eq=False)
class Chart:
    """One chart: an offset arc/box with a strictly smaller witness window."""

    index: int
    offset: np.ndarray
    half_width: float
    window_half: float
    window: GridDomain

    def __post_init__(self):
        off = np.atleast_1d(np.asarray(self.offset, dtype=float))
        object.__setattr__(self, "offset", off)
        if not 0.0 < self.window_half < self.half_width < PI:
            raise InputError(
                "need 0 < window_half < half_width < pi for a proper chart"
            )
        want = tuple(
            (PI - self.window_half, PI + self.window_half) for _ in range(off.size)
        )
        if self.window.window != want:
            raise InputError("witness window box does not match window_half")

    @property
    def m(self) -> int:
        return self.offset.size

    def to_chart(self, theta: np.ndarray) -> np.ndarray:
        th = np.atleast_2d(np.asarray(theta, dtype=float))
        return PI + wrap_angle(th - self.offset)

    def from_chart(self, x: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        return np.mod(pts - PI + self.offset, TWO_PI)

    def codomain(self) -> tuple[tuple[float, float], ...]:
        return tuple((PI - self.half_width, PI + self.half_width) for _ in range(self.m))

    def in_codomain(self, x: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        return np.all(np.abs(pts - PI) < self.half_width, axis=1)

    def window_depth(self, theta: np.ndarray) -> np.ndarray:
        """Distance of phi_j(theta) to the witness window boundary (signed)."""
        x = self.to_chart(theta)
        return self.window_half - np.max(np.abs(x - PI), axis=1)


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

    Interpolation operators that depend only on the atlas are built on
    first use and kept on the instance, so they live as long as it does.
    Each overlap and partition transfer keeps only its live columns, the
    window lattice nodes its interpolation stencils touch.
    """

    name: str
    m: int
    charts: tuple[Chart, ...]
    plateau: float = 0.5
    lattice_resolution: int = 257
    _operators: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.m not in (1, 2):
            raise InputError("atlas dimension must be 1 or 2")
        if len(self.charts) < 2:
            raise InputError("an atlas needs at least two charts")
        for c in self.charts:
            if c.m != self.m:
                raise InputError("chart dimension mismatch")

    @property
    def chart_count(self) -> int:
        return len(self.charts)

    def to_chart(self, j: int, theta: np.ndarray) -> np.ndarray:
        return self.charts[j].to_chart(theta)

    def from_chart(self, j: int, x: np.ndarray) -> np.ndarray:
        return self.charts[j].from_chart(x)

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
        cols = []
        for c in self.charts:
            x = c.to_chart(th)
            r = np.abs(x - PI) / c.window_half
            vals = np.ones(th.shape[0])
            for d in range(self.m):
                vals *= bump_profile(r[:, d], self.plateau)
            cols.append(vals)
        return np.column_stack(cols)

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
        h = min(ci.window_half, cj.window_half)
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
            full = axis_interpolation_matrix(c.window, d, PI + wrap_angle(a - c.offset[d]))
            live = np.flatnonzero(full.any(axis=0))
            mats.append(full[:, live])
            cols.append(live)
        return tuple(mats), tuple(cols)

    def overlap_transfers(self, per_axis: int) -> tuple[OverlapTransfer, ...]:
        """Transfers to :meth:`overlap_samples` for each overlapping pair i < j."""
        key = ("overlap", per_axis)
        if key not in self._operators:
            ops = []
            for i in range(self.chart_count):
                for j in range(i + 1, self.chart_count):
                    axes = self._overlap_axes(i, j, per_axis)
                    if axes is None:
                        continue
                    ops.append(OverlapTransfer(
                        i, j, tuple(axes),
                        *self._axis_matrices(i, axes), *self._axis_matrices(j, axes),
                    ))
            self._operators[key] = tuple(ops)
        return self._operators[key]

    def partition_transfers(self, t: int) -> tuple[PartitionTransfer, ...]:
        """Terms of the partition-of-unity sum at the window nodes of chart t."""
        key = ("partition", t)
        if key not in self._operators:
            c = self.charts[t]
            axes = [
                np.mod(c.window.axis_nodes(d) - PI + c.offset[d], TWO_PI)
                for d in range(self.m)
            ]
            weights = self.partition_weights(tensor_points(axes))
            ops = []
            for i, src in enumerate(self.charts):
                coords = [PI + wrap_angle(a - src.offset[d]) for d, a in enumerate(axes)]
                hits = tuple(
                    np.flatnonzero(
                        bump_profile(np.abs(x - PI) / src.window_half, self.plateau) > 0.0
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
            self._operators[key] = tuple(ops)
        return self._operators[key]


def require_same_atlas(a: Atlas, b: Atlas, what: str) -> None:
    """Raise InputError unless two atlases are the same chart collection."""
    if a is not b and not (
        a.name == b.name
        and a.m == b.m
        and a.lattice_resolution == b.lattice_resolution
        and a.chart_count == b.chart_count
        and all(
            np.array_equal(x.offset, y.offset)
            and x.half_width == y.half_width
            and x.window_half == y.window_half
            for x, y in zip(a.charts, b.charts)
        )
    ):
        raise InputError(f"{what} live on different atlases")


def transition(a: Atlas, i: int, j: int) -> Diffeo:
    """Transition map as a Diffeo (piecewise translation, unit Jacobian)."""
    ci, cj = a.charts[i], a.charts[j]

    def fwd(p):
        return a.transition_point(i, j, p)

    def inv(p):
        return a.transition_point(j, i, p)

    jac = constant_jacobian(np.eye(a.m))
    return Diffeo(fwd, inv, jac, cj.codomain(), ci.codomain())


def _make_chart(index, offset, half_width, window_half, resolution, m) -> Chart:
    window = GridDomain.box(
        tuple((PI - window_half, PI + window_half) for _ in range(m)), resolution
    )
    return Chart(index, np.asarray(offset, dtype=float), half_width, window_half, window)


def circle_two_charts(
    resolution: int = 257,
    half_width: float = 2.0,
    window_half: float = 1.7,
    plateau: float = 0.5,
) -> Atlas:
    """Two arcs offset by pi; transitions are translations by +-pi."""
    if not window_half - PI / 2 > MIN_OVERLAP:
        raise InputError("window_half must exceed pi/2 + 1e-12 so two arcs cover the circle")
    charts = tuple(
        _make_chart(k, [off], half_width, window_half, resolution, 1)
        for k, off in enumerate((0.0, PI))
    )
    return Atlas("circle2", 1, charts, plateau, resolution)


def torus_four_charts(
    resolution: int = 129,
    half_width: float = 2.0,
    window_half: float = 1.7,
    plateau: float = 0.5,
) -> Atlas:
    """Product of two 2-chart circles: offsets (0,0), (pi,0), (0,pi), (pi,pi)."""
    if not window_half - PI / 2 > MIN_OVERLAP:
        raise InputError("window_half must exceed pi/2 + 1e-12 for a four-chart cover")
    offsets = ((0.0, 0.0), (PI, 0.0), (0.0, PI), (PI, PI))
    charts = tuple(
        _make_chart(k, off, half_width, window_half, resolution, 2)
        for k, off in enumerate(offsets)
    )
    return Atlas("torus4", 2, charts, plateau, resolution)


BUILTIN_ATLASES = {"circle2": circle_two_charts, "torus4": torus_four_charts}


def builtin_atlas(name: str, resolution: int | None = None) -> Atlas:
    """The one shared instance of a builtin atlas at a lattice resolution.

    ``resolution=None`` means the builder's default, and gives the same
    instance as passing that default.
    """
    if name not in BUILTIN_ATLASES:
        raise InputError(
            f"unknown atlas {name!r}; available: {sorted(BUILTIN_ATLASES)}"
        )
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
    enlarged_window_ok: bool
    passed: bool


def enlarged_window(a: Atlas, j: int) -> GridDomain:
    """A strictly larger witness box still inside the chart codomain."""
    c = a.charts[j]
    half = c.window_half + 0.5 * (c.half_width - c.window_half)
    return GridDomain.box(
        tuple((PI - half, PI + half) for _ in range(a.m)), a.lattice_resolution
    )


def validate_atlas(a: Atlas, overlap_per_axis: int = 64) -> AtlasReport:
    """Covering, inverse, cocycle, and partition checks on dense samples.

    Covering and partition run on a manifold grid of 1024 points on the
    circle, 128 per axis on the torus; inverse and cocycle on each chart
    pair's ``overlap_per_axis >= 1`` overlap samples.  Residuals pass at
    most ``VALIDATION_TOL``.
    """
    overlap_per_axis = check_count(overlap_per_axis, "overlap_per_axis", 1)
    pts = a.manifold_grid(1024 if a.m == 1 else 128)
    depths = np.column_stack([c.window_depth(pts) for c in a.charts])
    cover_margin = float(depths.max(axis=1).min())

    inverse_residual = 0.0
    cocycle_residual = 0.0
    for i in range(a.chart_count):
        for j in range(a.chart_count):
            if i == j:
                continue
            ov = a.overlap_samples(i, j, overlap_per_axis)
            if ov.size == 0:
                continue
            x = a.to_chart(j, ov)
            y = a.transition_point(i, j, x)
            back = a.transition_point(j, i, y)
            inverse_residual = max(inverse_residual, float(np.abs(back - x).max()))
            for k in range(a.chart_count):
                if k in (i, j):
                    continue
                deep = ov[a.charts[k].window_depth(ov) > 0.05]
                if deep.size == 0:
                    continue
                xk = a.to_chart(k, deep)
                direct = a.transition_point(i, k, xk)
                via = a.transition_point(i, j, a.transition_point(j, k, xk))
                cocycle_residual = max(
                    cocycle_residual, float(np.abs(direct - via).max())
                )

    part = a.partition_weights(pts).sum(axis=1)
    partition_residual = float(np.abs(part - 1.0).max())

    enlarged_ok = True
    try:
        for j in range(a.chart_count):
            enlarged_window(a, j)
    except InputError:
        enlarged_ok = False

    passed = (
        cover_margin > 0.0
        and inverse_residual <= VALIDATION_TOL
        and cocycle_residual <= VALIDATION_TOL
        and partition_residual <= VALIDATION_TOL
        and enlarged_ok
    )
    return AtlasReport(
        cover_margin,
        inverse_residual,
        cocycle_residual,
        partition_residual,
        enlarged_ok,
        passed,
    )
