"""Diffeomorphisms of torus windows; pullback and superposition operators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputError, NumericError, ShapeMismatchError
from .fields import TWO_PI, GridDomain, SampledField


@dataclass(frozen=True, eq=False)
class Diffeo:
    """Closed-form diffeomorphism between boxes.

    ``forward``, ``inverse`` map point arrays of shape (Q, m) to (Q, m);
    ``jacobian`` returns (Q, m, m).  ``domain`` and ``codomain`` are boxes;
    a (0, 2*pi) box on every axis means the map acts on the full torus and
    points are understood modulo 2*pi.
    """

    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    domain: tuple[tuple[float, float], ...]
    codomain: tuple[tuple[float, float], ...]

    @property
    def m(self) -> int:
        return len(self.domain)


def constant_jacobian(a: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Jacobian callable returning the matrix ``a`` at every point."""
    def jac(p):
        return np.broadcast_to(a, (np.atleast_2d(p).shape[0],) + a.shape).copy()

    return jac


def identity_map(m: int) -> Diffeo:
    box = tuple((0.0, TWO_PI) for _ in range(m))

    def fwd(p):
        return np.array(p, dtype=float, copy=True)

    return Diffeo(fwd, fwd, constant_jacobian(np.eye(m)), box, box)


def torus_translation(m: int, shift) -> Diffeo:
    """Rigid rotation of the torus by a fixed shift vector."""
    tau = np.atleast_1d(np.asarray(shift, dtype=float))
    if tau.size != m:
        raise InputError("shift must have one entry per axis")
    box = tuple((0.0, TWO_PI) for _ in range(m))

    def fwd(p):
        return np.mod(np.atleast_2d(np.asarray(p, dtype=float)) + tau, TWO_PI)

    def inv(p):
        return np.mod(np.atleast_2d(np.asarray(p, dtype=float)) - tau, TWO_PI)

    return Diffeo(fwd, inv, constant_jacobian(np.eye(m)), box, box)


def affine_map(matrix, offset, domain) -> Diffeo:
    """Affine diffeomorphism x -> A x + b restricted to a domain box."""
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    b = np.atleast_1d(np.asarray(offset, dtype=float))
    m = a.shape[0]
    if a.shape != (m, m) or b.size != m:
        raise InputError("matrix and offset sizes disagree")
    if abs(np.linalg.det(a)) < 1e-14:
        raise InputError("affine matrix is singular")
    ainv = np.linalg.inv(a)
    dom = tuple((float(lo), float(hi)) for lo, hi in domain)
    corners = np.array(np.meshgrid(*[(lo, hi) for lo, hi in dom], indexing="ij"))
    corners = corners.reshape(m, -1).T @ a.T + b
    codom = tuple(
        (float(corners[:, d].min()), float(corners[:, d].max())) for d in range(m)
    )

    def fwd(p):
        return np.atleast_2d(np.asarray(p, dtype=float)) @ a.T + b

    def inv(p):
        return (np.atleast_2d(np.asarray(p, dtype=float)) - b) @ ainv.T

    return Diffeo(fwd, inv, constant_jacobian(a), dom, codom)


def compose_maps(outer: Diffeo, inner: Diffeo) -> Diffeo:
    """Composition outer(inner(x)), with the chain-rule Jacobian."""
    if outer.m != inner.m:
        raise ShapeMismatchError("map dimensions differ")

    def fwd(p):
        return outer.forward(inner.forward(p))

    def inv(p):
        return inner.inverse(outer.inverse(p))

    def jac(p):
        ji = inner.jacobian(p)
        jo = outer.jacobian(inner.forward(p))
        return np.einsum("qij,qjk->qik", jo, ji)

    return Diffeo(fwd, inv, jac, inner.domain, outer.codomain)


def validate_diffeo(theta: Diffeo, points: np.ndarray) -> dict:
    """Round-trip and Jacobian checks at sample points: a round trip within
    1e-10 and every |det J| above 1e-12."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    back = theta.inverse(theta.forward(pts))
    delta = np.abs(back - pts)
    # On the torus a round trip may legitimately differ by a full period.
    delta = np.minimum(delta, np.abs(delta - TWO_PI))
    dets = np.linalg.det(theta.jacobian(pts))
    return {
        "round_trip": float(delta.max()),
        "min_abs_det": float(np.min(np.abs(dets))),
        "passed": bool(delta.max() <= 1e-10 and np.min(np.abs(dets)) > 1e-12),
    }


def _box_inside(inner_box, outer_box) -> bool:
    for (ilo, ihi), (olo, ohi) in zip(inner_box, outer_box):
        if olo == 0.0 and ohi == TWO_PI:
            continue
        if ilo < olo or ihi > ohi:
            return False
    return True


def pullback(theta: Diffeo, gamma: SampledField, window: GridDomain) -> SampledField:
    """Compose a sampled field with a diffeomorphism: (gamma o theta) on window.

    The field is evaluated at the mapped nodes by interpolation from its
    samples (trigonometric on full-torus grids, local polynomial on window
    grids), so the operation is linear in ``gamma``.
    """
    if theta.m != gamma.domain.m or window.m != gamma.domain.m:
        raise ShapeMismatchError("map, field, and window dimensions differ")
    if not _box_inside(window.window, theta.domain):
        raise InputError("window must sit inside the map domain")
    mapped = np.atleast_2d(theta.forward(window.nodes()))
    if gamma.domain.is_full_torus:
        mapped = np.mod(mapped, TWO_PI)
    else:
        ok = gamma.domain.contains_points(mapped)
        if not np.all(ok):
            bad = int(np.argmin(ok))
            raise InputError(
                f"mapped node {mapped[bad]} falls outside the sample window "
                f"{gamma.domain.window}"
            )
    return SampledField(window, gamma.interpolate(mapped))


def nemytskij(f, gamma: SampledField) -> SampledField:
    """Superposition operator: node values x -> f(x, gamma(x)).

    ``f`` must be vectorized: it receives node coordinates of shape (K, m)
    and values of shape (K, n) and returns an array of shape (K, p).
    """
    nodes = gamma.domain.nodes()
    out = np.asarray(f(nodes, gamma.values), dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2 or out.shape[0] != nodes.shape[0]:
        raise ShapeMismatchError(
            f"superposition output must have shape (K, p), got {out.shape}"
        )
    if not np.all(np.isfinite(out)):
        bad = int(np.argwhere(~np.isfinite(out))[0][0])
        raise NumericError(
            f"nonfinite superposition value at node {bad}, x = {nodes[bad]}"
        )
    return SampledField(gamma.domain, out)
