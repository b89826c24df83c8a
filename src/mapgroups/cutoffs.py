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

from .errors import InputError, SupportError, check_count
from .fields import TWO_PI, BandlimitedField, GridDomain, SampledField, sample, synthesize


def smooth_step(t: np.ndarray) -> np.ndarray:
    """Monotone C-infinity step: 0 for t <= 0, 1 for t >= 1."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    return out


def bump_profile(r: np.ndarray, plateau: float = 0.5) -> np.ndarray:
    """1-D bump in the scaled radius r = |x - c| / radius.

    Equals 1 for r <= plateau, 0 for r >= 1, with a smooth exponential
    transition in between.
    """
    if not 0.0 < plateau < 1.0:
        raise InputError("plateau fraction must lie strictly between 0 and 1")
    r = np.abs(np.asarray(r, dtype=float))
    return smooth_step((1.0 - r) / (1.0 - plateau))


@dataclass(frozen=True, eq=False)
class SmoothCutoff:
    """Tensor-product bump supported in a box.

    Parameters
    ----------
    center, radius : ndarray, shape (m,)
        Box center and per-axis support half-widths.
    plateau : float
        Fraction of the radius on which the bump is exactly 1.
    """

    center: np.ndarray
    radius: np.ndarray
    plateau: float = 0.5

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        r = np.atleast_1d(np.asarray(self.radius, dtype=float))
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)
        if c.shape != r.shape or c.ndim != 1:
            raise InputError("center and radius must be 1-D arrays of equal length")
        if np.any(r <= 0.0):
            raise InputError("support radii must be positive")
        if not 0.0 < self.plateau < 1.0:
            raise InputError("plateau fraction must lie strictly between 0 and 1")

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
            out *= bump_profile(r, self.plateau)
        return out


def _support_inside(h: SmoothCutoff, box) -> bool:
    for (slo, shi), (lo, hi) in zip(h.support_box, box):
        if slo < lo or shi > hi:
            return False
    return True


def cutoff_multiply(
    h: SmoothCutoff, field: BandlimitedField, oversample: int = 2
) -> BandlimitedField:
    """Multiply a band-limited field by a smooth cutoff.

    The field is sampled on a full-torus grid ``oversample`` (an integer
    >= 1) times finer than the doubled cutoff requires, multiplied, and
    resynthesized at cutoff ``2 * modes``; the modes beyond that are
    dropped (controlled aliasing, since the cutoff itself is not
    band-limited).
    """
    if h.m != field.m:
        raise InputError("cutoff and field dimensions differ")
    torus = tuple((0.0, TWO_PI) for _ in range(field.m))
    if not _support_inside(h, torus):
        raise SupportError(
            f"cutoff support {h.support_box} sticks out of the fundamental domain"
        )
    oversample = check_count(oversample, "oversample", 1)
    out_modes = 2 * field.modes
    res = oversample * (2 * out_modes + 1)
    grid = GridDomain.full_torus(field.m, res)
    v = sample(field, grid)
    prod = SampledField(grid, v.values * h(grid.nodes())[:, None])
    return synthesize(prod, out_modes)
