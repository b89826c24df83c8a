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
matrix power, taken by repeated squaring.  Group values are entry-first
node stacks, ``(d, d, K)`` for K nodes, as everywhere in ``groups``;
algebra coordinates are node-first, ``(K, a)``.  Every matrix product goes
through the group's node-wise product, ``MatrixGroup.multiply``, so an SU2
time-1 value is exactly realified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atlas import require_same_atlas
from .errors import InputError, NumericError, ShapeMismatchError, check_count, check_real
from .fields import check_dimension, sobolev_weights
from .groups import (
    RELATION_DEFECT_LIMIT,
    AlgebraSection,
    GroupSection,
    node_power,
    require_same_group,
)
from .sobolev import rellich_spectrum, weight_exponent

# Critical-order estimation: the growth ratio compares partial sums over
# RATIO_WINDOW doublings of the cutoff from RATIO_START, and bisection over
# s in [0, ORDER_MAX] stops at a bracket of width ORDER_STEP.
RATIO_START = 32
RATIO_WINDOW = 10
ORDER_STEP = 0.01
ORDER_MAX = 8.0

# Offsets of the evolution smoothness probe's central differences.
SMOOTHNESS_OFFSETS = (0.04, 0.02, 0.01)


@dataclass(frozen=True)
class SobolevLadder:
    """Strictly decreasing exponent ladder s0 + 1/j, j = 1..count."""

    s0: float
    rungs: tuple[float, ...]

    @property
    def count(self) -> int:
        return len(self.rungs)


def ladder(s0: float, count: int, m: int = 1) -> SobolevLadder:
    """Rungs s0 + 1/j above a finite base ``s0 >= m/2``."""
    s0 = check_real(s0, "s0", check_dimension(m) / 2.0)
    count = check_count(count, "count", 2)
    rungs = tuple(s0 + 1.0 / j for j in range(1, count + 1))
    return SobolevLadder(s0, rungs)


def decay_partial_norm_sq(
    alpha: float, s: float, modes: int, convention: str = "paper"
) -> float:
    """Squared order-s norm of the decay field truncated at ``modes`` (m=1)."""
    expo = weight_exponent(s, convention) - check_real(alpha, "alpha", 0.0, strict=True)
    return float(np.sum(sobolev_weights(1, modes, expo)))


def _increment_ratio(alpha: float, s: float, convention: str) -> float:
    """Tail growth ratio of partial sums over a geometric cutoff sequence.

    Increments of a convergent series decay geometrically along doubling
    cutoffs; for a divergent one they grow (or stall, at the borderline).
    The ratio of the last increment to the one ``RATIO_WINDOW`` doublings
    earlier is < 1 exactly on the convergent side, with sharp sensitivity
    in s.
    """
    cuts = RATIO_START * 2 ** np.arange(RATIO_WINDOW + 1)
    sums = np.array(
        [decay_partial_norm_sq(alpha, s, int(n), convention) for n in cuts]
    )
    inc = np.diff(sums)
    if inc[0] <= 0.0:
        return 0.0
    return float(inc[-1] / inc[0])


def critical_order_estimate(alpha: float, convention: str = "paper") -> float:
    """Largest order whose partial norms stay bounded, located by bisection.

    The boundedness predicate is the partial-sum growth ratio over
    ``RATIO_WINDOW`` doublings of the cutoff from ``RATIO_START``: ratios
    below one mean the increments decay geometrically.  Bisection over s in
    [0, ``ORDER_MAX``] refines to ``ORDER_STEP``.  A return of 0.0 means
    even order zero diverges (the field lies on no nonnegative rung).
    """

    def divergent(s: float) -> bool:
        return _increment_ratio(alpha, s, convention) >= 1.0

    lo, hi = 0.0, ORDER_MAX
    if divergent(lo):
        return 0.0
    if not divergent(hi):
        return hi
    while hi - lo > ORDER_STEP:
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
    sigma_max: float
    sigma_min: float
    decreasing: bool
    spectrum: np.ndarray


def rung_compactness_probe(
    lad: SobolevLadder,
    j: int,
    modes: int,
    m: int = 1,
    convention: str = "paper",
) -> RungCompactnessReport:
    """Inclusion spectrum from rung j into rung j+1 (1-based, j < count).

    The inclusion goes from the smaller exponent index to the larger one
    in the ladder order, i.e. from s_j down to s_{j+1} < s_j.
    """
    j = check_count(j, "j", 1)
    if j >= lad.count:
        raise InputError(f"j must be below the ladder's count {lad.count}, got {j}")
    s_fine = lad.rungs[j - 1]
    s_coarse = lad.rungs[j]
    sig = rellich_spectrum(s_fine, s_coarse, modes, m=m, convention=convention)
    uniq = np.unique(sig)[::-1]
    return RungCompactnessReport(
        s_fine,
        s_coarse,
        float(sig[0]),
        float(sig[-1]),
        bool(np.all(np.diff(uniq) < 0.0)),
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
    """One chart's curve matrices as one C-contiguous (T, d, d, K) stack."""
    return np.stack([sec.chart_matrices(j) for sec in curve.sections])


def _interp_matrices(stack: np.ndarray, times: np.ndarray, t: float) -> np.ndarray:
    """Linear-in-time interpolation of a (T, d, d, K) matrix stack."""
    t = min(max(t, 0.0), 1.0)
    pos = np.searchsorted(times, t, side="right") - 1
    pos = min(pos, times.size - 2)
    w = (t - times[pos]) / (times[pos + 1] - times[pos])
    return (1.0 - w) * stack[pos] + w * stack[pos + 1]


def _rk4_factor(
    multiply, a1: np.ndarray, a2: np.ndarray, a4: np.ndarray, h: float
) -> np.ndarray:
    """Right factor R of one classical RK4 step of eta' = eta @ a(t).

    ``a1``, ``a2``, ``a4`` are the curve at the step's start, midpoint and
    end, as (d, d, K) stacks; they are only read, and ``multiply`` is the
    group's node-wise product.  The stages k1..k4 are ``eta @ a1``,
    ``eta @ B2``, ``eta @ B3``, ``eta @ B4``, so the step is
    ``eta -> eta @ R`` with R independent of eta.
    """
    b2 = multiply(a1, a2)
    b2 *= 0.5 * h
    b2 += a2
    b3 = multiply(b2, a2)
    b3 *= 0.5 * h
    b3 += a2
    b4 = multiply(b3, a4)
    b4 *= h
    b4 += a4
    # r = eye + (h/6) ((a1 + 2 b2) + 2 b3 + b4), summed in that order into
    # the product outputs; the full identity is added, as eye + r would.
    r = b2
    r *= 2.0
    r += a1
    b3 *= 2.0
    r += b3
    r += b4
    r *= h / 6.0
    r += np.eye(a1.shape[0])[..., None]
    return r


def evolve(curve: TimeSampledCurve, steps: int) -> GroupSection:
    """Integrate eta' = eta * gamma(t) from the identity over [0, 1].

    Classical fixed-step fourth-order integration, node by node; the step
    count must be an integer of at least the curve's time resolution.  Each
    step is a right factor (``_rk4_factor``); where a chart's time samples
    are all bitwise equal, the time-1 value is that factor to the power
    ``steps``.
    On a sampled curve, each step's end value is the next step's start
    value.  Time-1 values whose relation defect exceeds the GroupSection
    construction limit are re-projected (``GroupSection.computed``); one that
    projection cannot repair, or whose chart pieces fail the GroupSection
    construction checks, raises NumericError: the curve was valid input.
    """
    steps = check_count(steps, "steps", curve.resolution)
    group = curve.group
    multiply = group.multiply
    h = 1.0 / steps
    pieces = []
    for j in range(curve.atlas.chart_count):
        stack = _chart_curve_matrices(curve, j)
        if (stack == stack[0]).all():
            a = stack[0]
            eta = node_power(multiply, _rk4_factor(multiply, a, a, a, h), steps)
        else:
            eta, a1 = None, _interp_matrices(stack, curve.times, 0.0)
            for i in range(steps):
                t = i * h
                a2 = _interp_matrices(stack, curve.times, t + 0.5 * h)
                a4 = _interp_matrices(stack, curve.times, t + h)
                r = _rk4_factor(multiply, a1, a2, a4, h)
                eta = r if eta is None else multiply(eta, r)
                a1 = a4
        pieces.append(eta)
    try:
        return GroupSection.computed(
            curve.atlas, group, pieces, RELATION_DEFECT_LIMIT, "time-1 value"
        )
    except InputError as exc:
        raise NumericError(f"time-1 value: {exc}") from exc


def sup_entry_gap(pieces_a, pieces_b) -> float:
    """Largest entry difference between two equally shaped piece tuples;
    each difference takes its absolute value in place."""

    def gap(a, b):
        d = a - b
        return float(np.abs(d, out=d).max())

    return max(gap(a, b) for a, b in zip(pieces_a, pieces_b))


def evolution_smoothness_probe(
    curve: TimeSampledCurve, direction: AlgebraSection, steps: int
) -> float:
    """Log-log slope of central-difference convergence for the time-1 map.

    Central differences of ``evolve`` along a fixed direction, at the
    offsets ``SMOOTHNESS_OFFSETS``, converge at second order in the offset;
    the slope is fit against a reference difference at an offset eight
    times smaller than the last.  Each ``evolve`` takes ``steps`` steps,
    which it checks.
    """
    eps = np.asarray(SMOOTHNESS_OFFSETS)

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
