"""Smooth compactly supported cutoffs with an exact plateau.

The 1-D profile is built from the classical mollifier kernel
``E(t) = exp(-1/t)``: the transition ``E(t) / (E(t) + E(1-t))`` is smooth,
identically 0 for t <= 0 and identically 1 for t >= 1.  Box bumps are
tensor products of the 1-D profile, so values are exactly 1 on the plateau
box and exactly 0 outside the support box.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, SupportError, check_count, check_real
from .fields import (
    TWO_PI,
    BandlimitedField,
    GridDomain,
    SampledField,
    axis_phases,
    grid_values,
    synthesize,
)

# Fraction of the scaled radius on which every bump is exactly 1.
PLATEAU = 0.5


def smooth_step(t: np.ndarray) -> np.ndarray:
    """Monotone C-infinity step: 0 for t <= 0, 1 for t >= 1.

    The transition formula runs only on the entries strictly inside
    (0, 1), and not at all when there are none.
    """
    t = np.asarray(t, dtype=float)
    out = np.asarray(t >= 1.0, dtype=float)
    mid = (t > 0.0) & (t < 1.0)
    if not mid.any():
        return out
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def bump_profile(r: np.ndarray) -> np.ndarray:
    """1-D bump in the scaled radius r = |x - c| / radius.

    Equals 1 for r <= PLATEAU, 0 for r >= 1, with a smooth exponential
    transition in between.
    """
    r = np.abs(np.asarray(r, dtype=float))
    return smooth_step((1.0 - r) / (1.0 - PLATEAU))


@dataclass(frozen=True, eq=False)
class SmoothCutoff:
    """Tensor-product bump supported in a box, exactly 1 on the inner
    ``PLATEAU`` fraction of each radius.

    Parameters
    ----------
    center, radius : ndarray, shape (m,)
        Box center and per-axis support half-widths.
    """

    center: np.ndarray
    radius: np.ndarray

    def __post_init__(self):
        c, r = np.atleast_1d(self.center), np.atleast_1d(self.radius)
        if c.shape != r.shape or c.ndim != 1:
            raise InputError("center and radius must be 1-D arrays of equal length")
        c = np.array([check_real(x, "center") for x in c])
        r = np.array([check_real(x, "radius", 0.0, strict=True) for x in r])
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def m(self) -> int:
        return self.center.size

    @property
    def support_box(self) -> tuple[tuple[float, float], ...]:
        return tuple(
            (float(c - r), float(c + r)) for c, r in zip(self.center, self.radius)
        )

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.shape[1] != self.m:
            raise InputError("points do not match cutoff dimension")
        out = np.ones(pts.shape[0])
        for d in range(self.m):
            r = np.abs(pts[:, d] - self.center[d]) / self.radius[d]
            out *= bump_profile(r)
        return out


def cutoff_multiply(
    h: SmoothCutoff, field: BandlimitedField, oversample: int = 2
) -> BandlimitedField:
    """Multiply a band-limited field by a smooth cutoff.

    The field is sampled on a full-torus grid ``oversample`` (an integer
    >= 1) times finer than the doubled cutoff requires, multiplied, and
    resynthesized at cutoff ``2 * modes``; the modes beyond that are
    dropped (controlled aliasing, since the cutoff itself is not
    band-limited).  Each component is sampled alone and all are
    resynthesized in one FFT, so component i of the product is bitwise
    the product of component i alone: a stack of fields costs one call.
    """
    if h.m != field.m:
        raise InputError("cutoff and field dimensions differ")
    if any(lo < 0.0 or hi > TWO_PI for lo, hi in h.support_box):
        raise SupportError(
            f"cutoff support {h.support_box} sticks out of the fundamental domain"
        )
    oversample = check_count(oversample, "oversample", 1)
    out_modes = 2 * field.modes
    res = oversample * (2 * out_modes + 1)
    grid = GridDomain.full_torus(field.m, res)
    phases = axis_phases(grid, field.modes)
    # One product per component, the one a one-component ``sample`` takes.
    values = np.hstack([grid_values(c[None], phases) for c in field.coeffs])
    prod = values.real * h(grid.nodes())[:, None]
    return synthesize(SampledField(grid, prod), out_modes)
