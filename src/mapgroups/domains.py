"""Inward flows on planar level-set domains and shrink certificates.

A domain is the open sublevel set {g < 0} of a smooth function with
closed-form gradient.  The flow field pushes along the inner normal
direction inside a band around the boundary and vanishes on a compact
core, so anchor points deep inside never move.  Certificates record how
far the flowed boundary sits inside (or outside, for negative times).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .cutoffs import bump_profile
from .errors import InputError, check_count, check_name, check_real

GRADIENT_FLOOR = 1e-12

# Boundary polishing stops at |g| < POLISH_TOL, after at most POLISH_ROUNDS
# rounds of fresh bbox draws.
POLISH_TOL = 1e-12
POLISH_ROUNDS = 200

# The flow field's bump is supported on |g| < FLOW_BAND, with an exact
# plateau on the inner FLOW_PLATEAU fraction of it.
FLOW_BAND = 0.5
FLOW_PLATEAU = 0.5

# Time offset and RK4 steps of the descent check's central difference.
DESCENT_OFFSET = 1e-5
DESCENT_STEPS = 64


@dataclass(frozen=True, eq=False)
class LevelSetDomain:
    """Open planar domain {g < 0} with a closed-form gradient.

    ``level_grad`` maps an (N, 2) point array to the pair ``(g, grad g)``
    of shapes (N,) and (N, 2).  ``anchors`` are points deep inside where
    any boundary-band flow field vanishes; they serve as fixed-point
    witnesses in certificates.
    """

    name: str
    level_grad: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    bbox: tuple[tuple[float, float], tuple[float, float]]
    anchors: np.ndarray

    def evaluate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.level_grad(np.atleast_2d(np.asarray(points, float)))

    def level(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(points)[0]

    def gradient(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(points)[1]


def disc() -> LevelSetDomain:
    def level_grad(p):
        return p[:, 0] ** 2 + p[:, 1] ** 2 - 1.0, 2.0 * p

    return LevelSetDomain(
        "disc", level_grad, ((-1.5, 1.5), (-1.5, 1.5)), np.array([[0.0, 0.0]])
    )


def ellipse() -> LevelSetDomain:
    """Ellipse (x/2)^2 + y^2 < 1."""
    rx, ry = 2.0, 1.0

    def level_grad(p):
        x, y = p[:, 0], p[:, 1]
        return (x / rx) ** 2 + (y / ry) ** 2 - 1.0, 2.0 * p / np.array([rx**2, ry**2])

    return LevelSetDomain(
        "ellipse",
        level_grad,
        ((-rx - 0.5, rx + 0.5), (-ry - 0.5, ry + 0.5)),
        np.array([[0.0, 0.0]]),
    )


def peanut() -> LevelSetDomain:
    """Cassini oval ((x-c)^2 + y^2)((x+c)^2 + y^2) < size^4 with focus
    c = 1 and size 1.15; c < size < c*sqrt(2) makes it a peanut."""
    focus, size = 1.0, 1.15
    a4 = size**4

    def level_grad(p):
        x, y = p[:, 0], p[:, 1]
        u1 = (x - focus) ** 2 + y**2
        u2 = (x + focus) ** 2 + y**2
        grad = np.empty_like(p)
        grad[:, 0] = 2.0 * (x - focus) * u2 + 2.0 * (x + focus) * u1
        grad[:, 1] = 2.0 * y * (u1 + u2)
        return u1 * u2 - a4, grad

    reach = np.sqrt(focus**2 + size**2)
    return LevelSetDomain(
        "peanut",
        level_grad,
        ((-reach - 0.3, reach + 0.3), (-size, size)),
        np.array([[-focus, 0.0], [focus, 0.0]]),
    )


DOMAIN_BUILDERS = {"disc": disc, "ellipse": ellipse, "peanut": peanut}


def domain_by_name(name: str) -> LevelSetDomain:
    return DOMAIN_BUILDERS[check_name(name, DOMAIN_BUILDERS, "domain")]()


def boundary_samples(
    domain: LevelSetDomain, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Random boundary points: bbox rejection plus root polishing along the
    gradient direction until |g| < POLISH_TOL, in at most POLISH_ROUNDS
    rounds."""
    count = check_count(count, "count", 0)
    (xlo, xhi), (ylo, yhi) = domain.bbox
    out = []
    for _ in range(POLISH_ROUNDS):
        if len(out) >= count:
            break
        pts = np.column_stack(
            [
                rng.uniform(xlo, xhi, size=4 * count),
                rng.uniform(ylo, yhi, size=4 * count),
            ]
        )
        gv, gr = domain.evaluate(pts)
        for _ in range(60):
            nrm2 = np.sum(gr * gr, axis=1)
            ok = nrm2 > GRADIENT_FLOOR
            pts[ok] -= (gv[ok] / nrm2[ok])[:, None] * gr[ok]
            gv, gr = domain.evaluate(pts)
            if np.all(np.abs(gv) < POLISH_TOL):
                break
        inside_box = (
            (pts[:, 0] > xlo) & (pts[:, 0] < xhi)
            & (pts[:, 1] > ylo) & (pts[:, 1] < yhi)
        )
        good = pts[(np.abs(gv) < POLISH_TOL) & inside_box]
        out.extend(good.tolist())
    if len(out) < count:
        raise InputError(
            f"could only polish {len(out)} of {count} boundary samples"
        )
    return np.asarray(out[:count])


@dataclass(frozen=True, eq=False)
class FlowField:
    """Inner-normal flow supported in a band around the boundary.

    ``F(y) = -xi(g(y)) * grad g(y) / max(|grad g(y)|, GRADIENT_FLOOR)``
    where ``xi`` is a smooth even bump in the level value, supported on
    |g| < ``FLOW_BAND``, with an exact plateau (``FLOW_PLATEAU``), so the field
    equals the unit inner normal on the boundary and vanishes outside the
    band (in particular on the compact core {g <= -FLOW_BAND}).
    """

    domain: LevelSetDomain

    def __call__(self, points: np.ndarray) -> np.ndarray:
        gv, gr = self.domain.evaluate(points)
        # Bitwise np.linalg.norm(gr, axis=1), without its overhead.
        nrm = np.maximum(np.sqrt(gr[:, 0] ** 2 + gr[:, 1] ** 2), GRADIENT_FLOOR)
        xi = bump_profile(np.abs(gv) / FLOW_BAND, FLOW_PLATEAU)
        return -(xi / nrm)[:, None] * gr


def flow(
    field: FlowField, points: np.ndarray, t: float | np.ndarray, steps: int = 256
) -> np.ndarray:
    """Flow points with fixed-step RK4 for time ``t`` (either sign).

    ``t`` is one time for every row of ``points``, or an ``(N,)`` array
    holding one time per row; row ``i`` then takes ``steps`` steps of
    ``t[i] / steps``.  Every RK4 operation is elementwise or a per-row
    reduction, so a row flowed in a stack is bitwise equal to the same row
    flowed alone at its own time.  ``steps`` must be an integer >= 16.
    """
    steps = check_count(steps, "steps", 16)
    pts = np.atleast_2d(np.asarray(points, dtype=float)).copy()
    if np.ndim(t) == 0:
        h = check_real(t, "t") / steps
    else:
        if np.shape(t) != (len(pts),):
            raise InputError(
                f"per-row flow times must have shape ({len(pts)},) for "
                f"{len(pts)} points, got shape {np.shape(t)}"
            )
        times = np.array([check_real(x, f"t[{i}]") for i, x in enumerate(t)])
        h = (times / steps)[:, None]
    for _ in range(steps):
        k1 = field(pts)
        k2 = field(pts + 0.5 * h * k1)
        k3 = field(pts + 0.5 * h * k2)
        k4 = field(pts + h * k3)
        pts = pts + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return pts


@dataclass(frozen=True)
class DescentReport:
    """Finite-difference slopes of g along the flow at boundary points."""

    slopes: np.ndarray
    max_abs_error: float
    all_descending: bool


def monotone_descent_check(
    field: FlowField, boundary_points: np.ndarray
) -> DescentReport:
    """Compare d/dt g(flow(y, t)) at t = 0 against -|grad g(y)|, by central
    differences at t = +-DESCENT_OFFSET of DESCENT_STEPS RK4 steps each."""
    h = DESCENT_OFFSET
    pts = np.atleast_2d(np.asarray(boundary_points, dtype=float))
    n = len(pts)
    # Forward and backward flows as one stack: rows [:n] at +h, [n:] at -h.
    moved = flow(field, np.vstack([pts, pts]), np.repeat([h, -h], n), DESCENT_STEPS)
    gv = field.domain.level(moved)
    slopes = (gv[:n] - gv[n:]) / (2.0 * h)
    norms = np.linalg.norm(field.domain.gradient(pts), axis=1)
    err = float(np.abs(slopes + norms).max())
    return DescentReport(slopes, err, bool(np.all(slopes < 0.0)))


@dataclass(frozen=True)
class ShrinkCertificate:
    """Outcome of flowing the boundary for a fixed time.

    For t0 > 0 the margin is min(-g) over flowed boundary samples: positive
    means the flowed boundary sits strictly inside the domain.  For t0 < 0
    the margin is min(+g): positive means it sits strictly outside (an
    enlargement).  ``fixed_defect`` is the largest displacement of the
    domain anchors, which the band-supported field must not move.
    """

    domain: str
    t0: float
    steps: int
    sample_count: int
    margin: float
    passed: bool
    fixed_defect: float
    worst_points: tuple[tuple[float, float], ...]


def shrink_domain(
    field: FlowField,
    t0: float,
    samples: int = 200,
    steps: int = 256,
    *,
    rng: np.random.Generator,
) -> ShrinkCertificate:
    """Certificate that the time-t0 flow moves the boundary strictly
    inward (t0 > 0) or outward (t0 < 0), from ``samples >= 1`` boundary
    points flowed in ``steps`` RK4 steps (checked by ``flow``).

    A nonpositive margin yields ``passed = False`` rather than an error.
    """
    samples = check_count(samples, "samples", 1)
    t0 = check_real(t0, "t0")
    if t0 == 0.0:
        raise InputError("t0 must be nonzero")
    dom = field.domain
    pts = boundary_samples(dom, samples, rng)
    # Samples and anchors flow as one stack: rows [:samples], then anchors.
    moved = flow(field, np.vstack([pts, dom.anchors]), t0, steps)
    gv = dom.level(moved[:samples])
    signed = -gv if t0 > 0 else gv
    margin = float(signed.min())
    order = np.argsort(signed)[:3]
    worst = tuple((float(p[0]), float(p[1])) for p in pts[order])
    fixed_defect = float(np.abs(moved[samples:] - dom.anchors).max())
    return ShrinkCertificate(
        dom.name,
        t0,
        steps,
        samples,
        margin,
        margin > 0.0,
        fixed_defect,
        worst,
    )
