"""Exponent ladders, borderline decay fields, and the evolution ODE.

The ladder ``s_j = s0 + 1/j`` decreases strictly toward ``s0``; inclusions
between adjacent rungs are compact with an explicitly known spectrum.  The
decay family ``c_k = (1 + |k|^2)^(-alpha/2)`` sits in order ``s`` exactly
for ``s < 2*alpha - 1`` (one dimension, s/2-exponent weights), which gives
a sharp target for the divergence-based estimator here.

``evolve`` integrates the right-translation equation
``eta'(t) = eta(t) @ gamma(t)``, ``eta(0) = identity`` node-wise with the
classical fixed-step fourth-order scheme, interpolating the curve linearly
between its time samples.  The equation is linear, so each RK4 step is a
right factor ``eta -> eta @ R`` built from the curve alone; the time-1
value is the ordered product of the step factors.  On a chart where every
time sample is the same, all factors are equal and the product is a
matrix power, taken by repeated squaring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atlas import require_same_atlas
from .errors import InputError, NumericError, ShapeMismatchError
from .fields import BandlimitedField, hermitian_part, wavenumber_squares
from .groups import (
    RELATION_DEFECT_LIMIT,
    AlgebraSection,
    GroupSection,
    onto_group,
    require_same_group,
)
from .sobolev import check_convention, rellich_spectrum, weight_exponent


@dataclass(frozen=True)
class SobolevLadder:
    """Strictly decreasing exponent ladder s0 + 1/j, j = 1..count."""

    s0: float
    rungs: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.rungs)


def ladder(s0: float, count: int, m: int = 1) -> SobolevLadder:
    s0 = float(s0)
    if s0 < m / 2.0:
        raise InputError(f"ladder base must be >= m/2 = {m / 2.0}, got {s0}")
    if count < 2:
        raise InputError("a ladder needs at least two rungs")
    rungs = tuple(s0 + 1.0 / j for j in range(1, count + 1))
    return SobolevLadder(s0, rungs)


def decay_field(alpha: float, modes: int, m: int = 1) -> BandlimitedField:
    """Field with coefficients (1 + |k|^2)^(-alpha/2) (real, one component)."""
    alpha = float(alpha)
    if alpha <= 0:
        raise InputError("decay exponent must be positive")
    coeffs = ((1.0 + wavenumber_squares(m, modes)) ** (-alpha / 2.0)).astype(complex)
    return BandlimitedField(m, modes, hermitian_part(coeffs[None]), real=True)


def decay_partial_norm_sq(
    alpha: float, s: float, modes: int, convention: str = "paper"
) -> float:
    """Squared order-s norm of the decay field truncated at ``modes`` (m=1)."""
    check_convention(convention)
    expo = weight_exponent(s, convention) - float(alpha)
    return float(np.sum((1.0 + wavenumber_squares(1, modes)) ** expo))


def _increment_ratio(
    alpha: float,
    s: float,
    n_start: int,
    window: int,
    convention: str,
) -> float:
    """Tail growth ratio of partial sums over a geometric cutoff sequence.

    Increments of a convergent series decay geometrically along doubling
    cutoffs; for a divergent one they grow (or stall, at the borderline).
    The ratio of the last increment to the one ``window`` doublings earlier
    is < 1 exactly on the convergent side, with sharp sensitivity in s.
    """
    cuts = n_start * 2 ** np.arange(window + 1)
    sums = np.array(
        [decay_partial_norm_sq(alpha, s, int(n), convention) for n in cuts]
    )
    inc = np.diff(sums)
    if inc[0] <= 0.0:
        return 0.0
    return float(inc[-1] / inc[0])


def critical_order_estimate(
    alpha: float,
    n_start: int = 32,
    window: int = 10,
    step: float = 0.01,
    s_max: float = 8.0,
    convention: str = "paper",
) -> float:
    """Largest order whose partial norms stay bounded, located by bisection.

    The boundedness predicate is the partial-sum growth ratio over a
    doubling cutoff sequence (window ``window``): ratios below one mean
    the increments decay geometrically.  Bisection over s refines to
    ``step``.  A return of 0.0 means even order zero diverges (the field
    lies on no nonnegative rung).
    """
    alpha = float(alpha)
    if alpha <= 0:
        raise InputError("decay exponent must be positive")

    def divergent(s: float) -> bool:
        return _increment_ratio(alpha, s, n_start, window, convention) >= 1.0

    lo, hi = 0.0, float(s_max)
    if divergent(lo):
        return 0.0
    if not divergent(hi):
        return hi
    while hi - lo > step:
        mid = 0.5 * (lo + hi)
        if divergent(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RungCompactnessReport:
    """Spectrum summary for the inclusion between adjacent rungs."""

    s_fine: float
    s_coarse: float
    modes: int
    sigma_max: float
    sigma_min: float
    decreasing: bool
    index_below_threshold: int | None
    threshold: float
    spectrum: np.ndarray


def rung_compactness_probe(
    lad: SobolevLadder,
    j: int,
    modes: int,
    m: int = 1,
    convention: str = "paper",
    threshold: float = 1e-3,
) -> RungCompactnessReport:
    """Inclusion spectrum from rung j into rung j+1 (1-based, j < count).

    The inclusion goes from the smaller exponent index to the larger one
    in the ladder order, i.e. from s_j down to s_{j+1} < s_j.
    """
    if not 1 <= j < lad.count:
        raise InputError(
            f"rung index must satisfy 1 <= j < {lad.count}, got {j}"
        )
    s_fine = lad.rungs[j - 1]
    s_coarse = lad.rungs[j]
    sig = rellich_spectrum(s_fine, s_coarse, modes, m=m, convention=convention)
    uniq = np.unique(sig)[::-1]
    below = np.nonzero(sig < threshold)[0]
    return RungCompactnessReport(
        s_fine,
        s_coarse,
        modes,
        float(sig[0]),
        float(sig[-1]),
        bool(np.all(np.diff(uniq) < 0.0)),
        int(below[0]) if below.size else None,
        threshold,
        sig,
    )


@dataclass(frozen=True, eq=False)
class TimeSampledCurve:
    """Uniformly time-sampled curve of algebra sections on [0, 1]."""

    times: np.ndarray
    sections: tuple[AlgebraSection, ...]

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "sections", tuple(self.sections))
        if t.ndim != 1 or t.size < 2:
            raise InputError("a curve needs at least two time samples")
        if t[0] != 0.0 or t[-1] != 1.0:
            raise InputError("curve must be sampled on [0, 1]")
        dt = np.diff(t)
        if np.any(dt <= 0) or not np.allclose(dt, dt[0], rtol=1e-12, atol=1e-12):
            raise InputError("time samples must be uniform and increasing")
        if len(self.sections) != t.size:
            raise ShapeMismatchError("one section per time sample required")
        first = self.sections[0]
        for sec in self.sections[1:]:
            require_same_group(first, sec)
            require_same_atlas(first.atlas, sec.atlas, "curve sections")

    @property
    def group(self):
        return self.sections[0].group

    @property
    def atlas(self):
        return self.sections[0].atlas

    @property
    def resolution(self) -> int:
        return self.times.size - 1

    def shifted(self, direction: AlgebraSection, eps: float) -> "TimeSampledCurve":
        """Curve with every time sample moved by eps * direction."""
        moved = tuple(sec + direction.scaled(eps) for sec in self.sections)
        return TimeSampledCurve(self.times, moved)


def constant_curve(xi: AlgebraSection) -> TimeSampledCurve:
    return TimeSampledCurve(np.array([0.0, 1.0]), (xi, xi))


def _chart_curve_matrices(curve: TimeSampledCurve, j: int) -> np.ndarray:
    """Stack of per-time matrices for one chart, shape (T, K, d, d)."""
    return np.stack([sec.chart_matrices(j) for sec in curve.sections])


def _interp_matrices(stack: np.ndarray, times: np.ndarray, t: float) -> np.ndarray:
    """Linear-in-time interpolation of a (T, K, d, d) matrix stack."""
    t = min(max(t, 0.0), 1.0)
    pos = np.searchsorted(times, t, side="right") - 1
    pos = min(pos, times.size - 2)
    w = (t - times[pos]) / (times[pos + 1] - times[pos])
    return (1.0 - w) * stack[pos] + w * stack[pos + 1]


def _rk4_factor(
    a1: np.ndarray, a2: np.ndarray, a4: np.ndarray, h: float
) -> np.ndarray:
    """Right factor R of one classical RK4 step of eta' = eta @ a(t).

    ``a1``, ``a2``, ``a4`` are the curve at the step's start, midpoint and
    end.  The stages k1..k4 are ``eta @ a1``, ``eta @ B2``, ``eta @ B3``,
    ``eta @ B4``, so the step is ``eta -> eta @ R`` with R independent of eta.
    """
    b2 = a2 + (0.5 * h) * (a1 @ a2)
    b3 = a2 + (0.5 * h) * (b2 @ a2)
    b4 = a4 + h * (b3 @ a4)
    return np.eye(a1.shape[-1]) + (h / 6.0) * (a1 + 2.0 * b2 + 2.0 * b3 + b4)


def evolve(curve: TimeSampledCurve, steps: int) -> GroupSection:
    """Integrate eta' = eta * gamma(t) from the identity over [0, 1].

    Classical fixed-step fourth-order integration, node by node; the step
    count must be at least the curve's time resolution.  Each step is a
    right factor (``_rk4_factor``); where a chart's time samples are all
    bitwise equal, the time-1 value is that factor to the power ``steps``.
    Time-1 values whose relation defect exceeds the GroupSection
    construction limit are re-projected (``groups.onto_group``); one that
    projection cannot repair, or whose chart pieces fail the GroupSection
    construction checks, raises NumericError: the curve was valid input.
    """
    if steps < curve.resolution:
        raise InputError(
            f"need at least {curve.resolution} steps for this time grid"
        )
    group = curve.group
    h = 1.0 / steps
    pieces = []
    for j in range(curve.atlas.chart_count):
        stack = _chart_curve_matrices(curve, j)
        if (stack == stack[0]).all():
            a = stack[0]
            eta = np.linalg.matrix_power(_rk4_factor(a, a, a, h), steps)
        else:
            eta = None
            for i in range(steps):
                t = i * h
                a1 = _interp_matrices(stack, curve.times, t)
                a2 = _interp_matrices(stack, curve.times, t + 0.5 * h)
                a4 = _interp_matrices(stack, curve.times, t + h)
                r = _rk4_factor(a1, a2, a4, h)
                eta = r if eta is None else eta @ r
        pieces.append(onto_group(group, eta, RELATION_DEFECT_LIMIT, "time-1 value", j))
    try:
        return GroupSection(curve.atlas, group, tuple(pieces))
    except InputError as exc:
        raise NumericError(f"time-1 value: {exc}") from exc


def sup_entry_gap(pieces_a, pieces_b) -> float:
    """Largest entry difference between two equally shaped piece tuples."""
    return max(
        float(np.abs(a - b).max()) for a, b in zip(pieces_a, pieces_b)
    )


def evolution_smoothness_probe(
    curve: TimeSampledCurve,
    direction: AlgebraSection,
    eps_grid=(0.04, 0.02, 0.01),
    steps: int = 64,
) -> float:
    """Log-log slope of central-difference convergence for the time-1 map.

    Central differences of ``evolve`` along a fixed direction converge at
    second order in the offset; the slope is fit against a reference
    difference at a much smaller offset.
    """
    eps = np.asarray(sorted(eps_grid, reverse=True), dtype=float)
    if eps.size < 2 or np.any(eps <= 0):
        raise InputError("need at least two positive offsets")

    def central(e: float):
        up = evolve(curve.shifted(direction, e), steps)
        dn = evolve(curve.shifted(direction, -e), steps)
        return tuple((a - b) / (2.0 * e) for a, b in zip(up.pieces, dn.pieces))

    ref = central(float(eps[-1]) / 8.0)
    gaps = np.array([sup_entry_gap(central(float(e)), ref) for e in eps])
    if np.any(gaps <= 0):
        raise InputError("differences degenerate; offsets too small")
    slope, _ = np.polyfit(np.log(eps), np.log(gaps), 1)
    return float(slope)
