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
from .errors import InputError, SingularBoundaryError

GRADIENT_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class LevelSetDomain:
    """Open planar domain {g < 0} with a closed-form gradient.

    ``anchors`` are points deep inside where any boundary-band flow field
    vanishes; they serve as fixed-point witnesses in certificates.
    """

    name: str
    g: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    bbox: tuple[tuple[float, float], tuple[float, float]]
    anchors: np.ndarray

    def level(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.g(np.atleast_2d(np.asarray(points, float))), float)

    def gradient(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(self.grad(np.atleast_2d(np.asarray(points, float))), float)


def disc() -> LevelSetDomain:
    def g(p):
        return p[:, 0] ** 2 + p[:, 1] ** 2 - 1.0

    def grad(p):
        return 2.0 * p

    return LevelSetDomain(
        "disc", g, grad, ((-1.5, 1.5), (-1.5, 1.5)), np.array([[0.0, 0.0]])
    )


def ellipse(rx: float = 2.0, ry: float = 1.0) -> LevelSetDomain:
    def g(p):
        return (p[:, 0] / rx) ** 2 + (p[:, 1] / ry) ** 2 - 1.0

    def grad(p):
        return np.column_stack([2.0 * p[:, 0] / rx**2, 2.0 * p[:, 1] / ry**2])

    return LevelSetDomain(
        "ellipse",
        g,
        grad,
        ((-rx - 0.5, rx + 0.5), (-ry - 0.5, ry + 0.5)),
        np.array([[0.0, 0.0]]),
    )


def peanut(focus: float = 1.0, size: float = 1.15) -> LevelSetDomain:
    """Cassini oval: ((x-c)^2 + y^2)((x+c)^2 + y^2) = size^4, c < size."""
    if not focus < size < focus * np.sqrt(2.0):
        raise InputError("need focus < size < focus*sqrt(2) for a peanut shape")
    a4 = size**4

    def parts(p):
        x, y = p[:, 0], p[:, 1]
        u1 = (x - focus) ** 2 + y**2
        u2 = (x + focus) ** 2 + y**2
        return x, y, u1, u2

    def g(p):
        _, _, u1, u2 = parts(p)
        return u1 * u2 - a4

    def grad(p):
        x, y, u1, u2 = parts(p)
        gx = 2.0 * (x - focus) * u2 + 2.0 * (x + focus) * u1
        gy = 2.0 * y * (u1 + u2)
        return np.column_stack([gx, gy])

    reach = np.sqrt(focus**2 + size**2)
    return LevelSetDomain(
        "peanut",
        g,
        grad,
        ((-reach - 0.3, reach + 0.3), (-size, size)),
        np.array([[-focus, 0.0], [focus, 0.0]]),
    )


DOMAIN_BUILDERS = {"disc": disc, "ellipse": ellipse, "peanut": peanut}


def domain_by_name(name: str) -> LevelSetDomain:
    if name not in DOMAIN_BUILDERS:
        raise InputError(
            f"unknown domain {name!r}; available: {sorted(DOMAIN_BUILDERS)}"
        )
    return DOMAIN_BUILDERS[name]()


def boundary_samples(
    domain: LevelSetDomain,
    count: int,
    rng: np.random.Generator,
    tol: float = 1e-12,
    max_rounds: int = 200,
) -> np.ndarray:
    """Random boundary points: bbox rejection plus root polishing along the
    gradient direction until |g| < tol."""
    (xlo, xhi), (ylo, yhi) = domain.bbox
    out = []
    for _ in range(max_rounds):
        if len(out) >= count:
            break
        pts = np.column_stack(
            [
                rng.uniform(xlo, xhi, size=4 * count),
                rng.uniform(ylo, yhi, size=4 * count),
            ]
        )
        for _ in range(60):
            gv = domain.level(pts)
            gr = domain.gradient(pts)
            nrm2 = np.sum(gr * gr, axis=1)
            ok = nrm2 > GRADIENT_FLOOR
            stepped = pts[ok] - (gv[ok] / nrm2[ok])[:, None] * gr[ok]
            pts = pts.copy()
            pts[ok] = stepped
            if np.all(np.abs(domain.level(pts)) < tol):
                break
        gv = np.abs(domain.level(pts))
        inside_box = (
            (pts[:, 0] > xlo) & (pts[:, 0] < xhi)
            & (pts[:, 1] > ylo) & (pts[:, 1] < yhi)
        )
        good = pts[(gv < tol) & inside_box]
        out.extend(good.tolist())
    if len(out) < count:
        raise InputError(
            f"could only polish {len(out)} of {count} boundary samples"
        )
    return np.asarray(out[:count])


def inner_normal(domain: LevelSetDomain, points: np.ndarray) -> np.ndarray:
    """Unit inner normal -grad g / |grad g| at near-boundary points."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    gv = domain.level(pts)
    if np.any(np.abs(gv) >= 1e-6):
        bad = pts[int(np.argmax(np.abs(gv)))]
        raise InputError(f"point {bad} is not on the boundary (|g| >= 1e-6)")
    gr = domain.gradient(pts)
    nrm = np.linalg.norm(gr, axis=1)
    if np.any(nrm <= 1e-8):
        bad = pts[int(np.argmin(nrm))]
        raise SingularBoundaryError(f"gradient vanishes near {bad}")
    return -gr / nrm[:, None]


@dataclass(frozen=True, eq=False)
class FlowField:
    """Inner-normal flow supported in a band around the boundary.

    ``F(y) = -xi(g(y)) * grad g(y) / max(|grad g(y)|, floor)`` where ``xi``
    is a smooth even bump in the level value with an exact plateau, so the
    field equals the unit inner normal on the boundary and vanishes outside
    the band (in particular on the compact core {g <= -band}).
    """

    domain: LevelSetDomain
    band: float = 0.5
    plateau: float = 0.5
    floor: float = GRADIENT_FLOOR

    def __post_init__(self):
        if not (np.isfinite(self.band) and self.band > 0):
            raise InputError(f"band width must be finite and positive, got {self.band!r}")
        if not 0.0 < self.plateau < 1.0:
            raise InputError(
                f"plateau fraction must lie strictly between 0 and 1, got {self.plateau!r}"
            )

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        gv = self.domain.level(pts)
        gr = self.domain.gradient(pts)
        nrm = np.maximum(np.linalg.norm(gr, axis=1), self.floor)
        xi = bump_profile(np.abs(gv) / self.band, self.plateau)
        return -(xi / nrm)[:, None] * gr


def flow(
    field: FlowField, points: np.ndarray, t: float | np.ndarray, steps: int = 256
) -> np.ndarray:
    """Flow points with fixed-step RK4 for time ``t`` (either sign).

    ``t`` is one time for every row of ``points``, or an ``(N,)`` array
    holding one time per row; row ``i`` then takes ``steps`` steps of
    ``t[i] / steps``.  Every RK4 operation is elementwise or a per-row
    reduction, so a row flowed in a stack is bitwise equal to the same row
    flowed alone at its own time.
    """
    if steps < 16:
        raise InputError("use at least 16 integration steps")
    pts = np.atleast_2d(np.asarray(points, dtype=float)).copy()
    times = np.asarray(t, dtype=float)
    if times.ndim and times.shape != (len(pts),):
        raise InputError(
            f"per-row flow times must have shape ({len(pts)},) for "
            f"{len(pts)} points, got shape {times.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(times))
    if bad.size:
        row = f" in row {bad[0]}" if times.ndim else ""
        raise InputError(f"flow time must be finite, got {times.flat[bad[0]]}{row}")
    h = float(t) / steps if times.ndim == 0 else (times / steps)[:, None]
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
    gradient_norms: np.ndarray
    max_abs_error: float
    all_descending: bool


def monotone_descent_check(
    field: FlowField,
    boundary_points: np.ndarray,
    h: float = 1e-5,
    steps: int = 64,
) -> DescentReport:
    """Compare d/dt g(flow(y, t)) at t = 0 against -|grad g(y)|."""
    if not (np.isfinite(h) and h != 0.0):
        raise InputError(f"difference step h must be finite and nonzero, got {float(h)}")
    pts = np.atleast_2d(np.asarray(boundary_points, dtype=float))
    n = len(pts)
    # Forward and backward flows as one stack: rows [:n] at +h, [n:] at -h.
    moved = flow(field, np.vstack([pts, pts]), np.repeat([h, -h], n), steps)
    gv = field.domain.level(moved)
    slopes = (gv[:n] - gv[n:]) / (2.0 * h)
    norms = np.linalg.norm(field.domain.gradient(pts), axis=1)
    err = float(np.abs(slopes + norms).max())
    return DescentReport(slopes, norms, err, bool(np.all(slopes < 0.0)))


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
    rng: np.random.Generator | None = None,
) -> ShrinkCertificate:
    """Certificate that the time-t0 flow moves the boundary strictly
    inward (t0 > 0) or outward (t0 < 0).

    A nonpositive margin yields ``passed = False`` rather than an error.
    """
    if not np.isfinite(t0):
        raise InputError(f"flow time must be finite, got {t0}")
    if t0 == 0.0:
        raise InputError("flow time must be nonzero")
    if rng is None:
        rng = np.random.default_rng(0)
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
        float(t0),
        steps,
        samples,
        margin,
        margin > 0.0,
        fixed_defect,
        worst,
    )
