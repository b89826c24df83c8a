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

from .cutoffs import smooth_step
from .errors import InputError, check_count, check_name, check_real
from .fields import check_points

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

# RK4 steps of a shrink certificate's flow: 4 * DESCENT_STEPS, so that the
# descent check's rows can ride in its first quarter (descent_and_shrink).
SHRINK_STEPS = 4 * DESCENT_STEPS


@dataclass(frozen=True, eq=False)
class LevelSetDomain:
    """Open planar domain {g < 0} with a closed-form gradient.

    ``level_grad`` maps a coordinate-first float (2, N) point stack
    ``x, y = p`` to the pair ``(g, grad g)`` of shapes (N,) and (2, N),
    unchecked, the gradient a fresh array; ``evaluate`` checks (N, 2)
    points with ``fields.check_points`` first and returns the gradient as
    (N, 2).  ``anchors`` are
    points deep inside where any boundary-band flow field vanishes; they
    serve as fixed-point witnesses in certificates.
    """

    name: str
    level_grad: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    bbox: tuple[tuple[float, float], tuple[float, float]]
    anchors: np.ndarray

    def evaluate(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gv, gr = self.level_grad(check_points(points, 2).T)
        return gv, gr.T

    def level(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(points)[0]

    def gradient(self, points: np.ndarray) -> np.ndarray:
        return self.evaluate(points)[1]


def disc() -> LevelSetDomain:
    def level_grad(p):
        x, y = p
        return x**2 + y**2 - 1.0, 2.0 * p

    return LevelSetDomain(
        "disc", level_grad, ((-1.5, 1.5), (-1.5, 1.5)), np.array([[0.0, 0.0]])
    )


def ellipse() -> LevelSetDomain:
    """Ellipse (x/2)^2 + y^2 < 1."""
    rx, ry = 2.0, 1.0
    radii_sq = np.array([[rx**2], [ry**2]])

    def level_grad(p):
        x, y = p
        return (x / rx) ** 2 + (y / ry) ** 2 - 1.0, 2.0 * p / radii_sq

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
        x, y = p
        left, right, y2 = x - focus, x + focus, y**2
        u1 = left**2 + y2
        u2 = right**2 + y2
        grad = np.empty(p.shape)
        np.add(2.0 * left * u2, 2.0 * right * u1, out=grad[0])
        np.multiply(2.0 * y, u1 + u2, out=grad[1])
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
        # Coordinate-first, (2, 4 * count), as level_grad takes it.
        pts = np.array(
            [rng.uniform(xlo, xhi, size=4 * count), rng.uniform(ylo, yhi, size=4 * count)]
        )
        gv, gr = domain.level_grad(pts)
        for _ in range(60):
            nrm2 = gr[0] * gr[0] + gr[1] * gr[1]
            ok = nrm2 > GRADIENT_FLOOR
            pts[:, ok] -= gv[ok] / nrm2[ok] * gr[:, ok]
            gv, gr = domain.level_grad(pts)
            if np.all(np.abs(gv) < POLISH_TOL):
                break
        x, y = pts
        inside_box = (x > xlo) & (x < xhi) & (y > ylo) & (y < yhi)
        good = pts[:, (np.abs(gv) < POLISH_TOL) & inside_box].T
        out.extend(good.tolist())
    if len(out) < count:
        raise InputError(
            f"could only polish {len(out)} of {count} boundary samples"
        )
    return np.asarray(out[:count]).reshape(count, 2)


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
        return _inner_normal(*self.domain.level_grad(check_points(points, 2).T)).T


def _inner_normal(gv: np.ndarray, gr: np.ndarray) -> np.ndarray:
    """The flow field (2, N) from (g, grad g) of ``level_grad``, written over
    the gradient: the one core that ``FlowField`` and every RK4 stage of
    ``flow`` share, with no check of its own."""
    # Bitwise np.linalg.norm of each gradient, without its overhead.
    nrm = np.maximum(np.sqrt(gr[0] ** 2 + gr[1] ** 2), GRADIENT_FLOOR)
    # Bitwise bump_profile(|g| / FLOW_BAND, FLOW_PLATEAU): the scaled radius
    # is already >= 0, and the plateau is a constant in (0, 1).
    xi = smooth_step((1.0 - np.abs(gv) / FLOW_BAND) / (1.0 - FLOW_PLATEAU))
    gr *= -(xi / nrm)
    return gr


def flow(
    field: FlowField, points: np.ndarray, t: float | np.ndarray, steps: int = 256
) -> np.ndarray:
    """Flow points with fixed-step RK4 for time ``t`` (either sign).

    ``points`` pass ``fields.check_points(points, 2)``.  ``t`` is one time
    for every row of ``points``, or an ``(N,)`` array holding one time per
    row; row ``i`` then takes ``steps`` steps of ``t[i] / steps``.  Every
    RK4 operation is elementwise or a per-row reduction, so a row flowed in
    a stack is bitwise equal to the same row flowed alone at its own time.
    ``steps`` must be an integer >= 16.
    """
    steps = check_count(steps, "steps", 16)
    pts = check_points(points, 2)
    if np.ndim(t) == 0:
        h = check_real(t, "t") / steps
    else:
        if np.shape(t) != (len(pts),):
            raise InputError(
                f"per-row flow times must have shape ({len(pts)},) for "
                f"{len(pts)} points, got shape {np.shape(t)}"
            )
        if isinstance(t, np.ndarray) and t.dtype.kind == "f" and np.isfinite(t).all():
            times = t.astype(float, copy=False)
        else:
            times = np.array([check_real(x, f"t[{i}]") for i, x in enumerate(t)])
        h = times / steps
    half, sixth = 0.5 * h, h / 6.0
    level_grad = field.domain.level_grad
    # The state is coordinate-first, (2, N): a view of the points here, and
    # a new array after each step, so the caller's points are never written.
    pts = pts.T
    for _ in range(steps):
        k1 = _inner_normal(*level_grad(pts))
        k2 = _inner_normal(*level_grad(pts + half * k1))
        k3 = _inner_normal(*level_grad(pts + half * k2))
        k4 = _inner_normal(*level_grad(pts + h * k3))
        # k1 + 2 k2 + 2 k3 + k4, summed in that order, in place.
        k1 += 2.0 * k2
        k1 += 2.0 * k3
        k1 += k4
        pts = pts + sixth * k1
    return pts.T


@dataclass(frozen=True)
class DescentReport:
    """Finite-difference slopes of g along the flow at boundary points."""

    slopes: np.ndarray
    max_abs_error: float
    all_descending: bool


def _descent_rows(boundary_points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checked boundary points (at least one), and the stack and
    per-row times of their central difference: rows [:n] flow for
    +DESCENT_OFFSET, rows [n:] for -DESCENT_OFFSET."""
    pts = check_points(boundary_points, 2)
    if len(pts) == 0:
        raise InputError("the descent check needs at least one boundary point")
    times = np.repeat([DESCENT_OFFSET, -DESCENT_OFFSET], len(pts))
    return pts, np.vstack([pts, pts]), times


def _descent_report(
    domain: LevelSetDomain, pts: np.ndarray, moved: np.ndarray
) -> DescentReport:
    """The report from ``pts`` and their ``_descent_rows`` stack flowed for
    DESCENT_STEPS RK4 steps."""
    n = len(pts)
    gv = domain.level(moved)
    slopes = (gv[:n] - gv[n:]) / (2.0 * DESCENT_OFFSET)
    norms = np.linalg.norm(domain.gradient(pts), axis=1)
    err = float(np.abs(slopes + norms).max())
    return DescentReport(slopes, err, bool(np.all(slopes < 0.0)))


def monotone_descent_check(
    field: FlowField, boundary_points: np.ndarray
) -> DescentReport:
    """Compare d/dt g(flow(y, t)) at t = 0 against -|grad g(y)|, by central
    differences at t = +-DESCENT_OFFSET of DESCENT_STEPS RK4 steps each,
    over at least one boundary point."""
    pts, rows, times = _descent_rows(boundary_points)
    return _descent_report(field.domain, pts, flow(field, rows, times, DESCENT_STEPS))


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


def _shrink_samples(
    domain: LevelSetDomain, t0: float, samples: int, rng: np.random.Generator
) -> tuple[float, np.ndarray]:
    """The checked nonzero t0, and ``samples >= 1`` boundary points."""
    samples = check_count(samples, "samples", 1)
    t0 = check_real(t0, "t0")
    if t0 == 0.0:
        raise InputError("t0 must be nonzero")
    return t0, boundary_samples(domain, samples, rng)


def _certificate(
    domain: LevelSetDomain, t0: float, steps: int, pts: np.ndarray, moved: np.ndarray
) -> ShrinkCertificate:
    """The certificate from boundary samples ``pts`` and the stack
    [pts, anchors] flowed for time t0 in ``steps`` RK4 steps."""
    samples = len(pts)
    gv = domain.level(moved[:samples])
    signed = -gv if t0 > 0 else gv
    margin = float(signed.min())
    order = np.argsort(signed)[:3]
    worst = tuple((float(p[0]), float(p[1])) for p in pts[order])
    fixed_defect = float(np.abs(moved[samples:] - domain.anchors).max())
    return ShrinkCertificate(
        domain.name,
        t0,
        steps,
        samples,
        margin,
        margin > 0.0,
        fixed_defect,
        worst,
    )


def shrink_domain(
    field: FlowField,
    t0: float,
    samples: int = 200,
    steps: int = SHRINK_STEPS,
    *,
    rng: np.random.Generator,
) -> ShrinkCertificate:
    """Certificate that the time-t0 flow moves the boundary strictly
    inward (t0 > 0) or outward (t0 < 0), from ``samples >= 1`` boundary
    points flowed in ``steps`` RK4 steps (checked by ``flow``).

    A nonpositive margin yields ``passed = False`` rather than an error.
    """
    dom = field.domain
    t0, pts = _shrink_samples(dom, t0, samples, rng)
    # Samples and anchors flow as one stack: rows [:samples], then anchors.
    moved = flow(field, np.vstack([pts, dom.anchors]), t0, steps)
    return _certificate(dom, t0, steps, pts, moved)


def descent_and_shrink(
    field: FlowField,
    boundary_points: np.ndarray,
    t0: float,
    samples: int = 200,
    *,
    rng: np.random.Generator,
) -> tuple[DescentReport, ShrinkCertificate]:
    """``monotone_descent_check(field, boundary_points)``, then
    ``shrink_domain(field, t0, samples, rng=rng)``, bitwise, in one RK4 pass
    of 1,024 field evaluations where the two calls take 1,280.

    The shrink flow's SHRINK_STEPS steps of t0/256 run as 64 steps of t0/4,
    128 of t0/2 and 64 of t0/4: each call's step is again t0/256, since
    scaling by a power of two is exact (for every t0 whose quarter is a
    normal float).  The descent rows ride in the first call, whose 64 steps
    are DESCENT_STEPS; a row of a stack flows bitwise as it would alone.
    """
    dom = field.domain
    pts, rows, times = _descent_rows(boundary_points)
    t0, samples_pts = _shrink_samples(dom, t0, samples, rng)
    stack = np.vstack([samples_pts, dom.anchors])
    n = len(stack)
    first = flow(
        field,
        np.vstack([stack, rows]),
        np.concatenate([np.full(n, t0 / 4), times]),
        DESCENT_STEPS,
    )
    moved = flow(field, flow(field, first[:n], t0 / 2, 2 * DESCENT_STEPS), t0 / 4, DESCENT_STEPS)
    descent = _descent_report(dom, pts, first[n:])
    return descent, _certificate(dom, t0, SHRINK_STEPS, samples_pts, moved)
