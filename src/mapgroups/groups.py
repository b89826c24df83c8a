"""Matrix Lie groups with closed-form exp/log and group-valued sections.

Three groups are built in:

* ``SO3`` -- rotations of R^3, exp by the Rodrigues formula, log from the
  rotation angle; valid strictly below angle pi.
* ``SU2`` -- special unitary 2x2 matrices realified as 4x4 real matrices
  (block form [[X, -Y], [Y, X]] for X + iY).
* ``UT2`` -- invertible upper-triangular 2x2 matrices with positive
  diagonal; exp/log in closed form via divided differences.

Every group states a chart ball: ``log`` is trusted only inside radius
``q_radius`` (measured in algebra coordinates), and ``v_radius`` is small
enough that the product of two exponentials of norms strictly below
``v_radius`` stays inside the chart ball.

Layout: group values are entry-first stacks ``(d, d, *nodes)``, entry
``g[i, j]`` one array over the nodes.  Every node-wise product of group
values goes through its group's ``multiply``: :func:`node_product` on SO3
and UT2, and on SU2 that kernel on the top half, with the bottom half
copied from it.  Algebra coordinates are node-first, ``(*nodes, a)``, like
the values of a sampled field.

SU2 values are exactly realified: the two copies of X, and of Y, in
``[[X, -Y], [Y, X]]`` are equal as floats, the second Y negated.  Every
value the program computes has that form, and ``GroupSection`` refuses a
piece that does not (``exact_fn``, the door check), naming its chart and
first node.  So an SU2 value is fixed by its top half: its relation defect
reads X and Y once, and a group section's overlap check reads the 8 entry
rows of that half.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .atlas import Atlas, require_same_atlas
from .errors import (
    ChartDomainError,
    InputError,
    NumericError,
    ShapeMismatchError,
    check_name,
    check_real,
)
from .fields import SampledField, check_node_values
from .sections import Section, random_section, require_compatible

LOGGER = logging.getLogger("mapgroups.groups")

# Drift threshold above which products are re-projected onto the group.
PROJECTION_THRESHOLD = 1e-12

# Largest relation defect a GroupSection will accept at construction, and
# the most a re-projected value may keep.
RELATION_DEFECT_LIMIT = 1e-10

# Product parameters t of the order-2 expansion probe, largest first.
BCH_PARAMETERS = (0.1, 0.05, 0.025)

# Newton-Schulz steps g <- g (3I - g^T g) / 2 of the SO3 projection, each
# taking every singular value s to s (3 - s^2) / 2.  Seven take every s in
# [0.35, 1.53] to within 5e-12 of 1, and so the relation defect below
# RELATION_DEFECT_LIMIT.  That repairs every stack whose relation defect is
# at most 0.29 (the eigenvalues of g^T g lie within three times the defect
# of 1), and normal drifts of rotations with defects up to 1.1.  An s
# outside that interval is not brought to 1 (s = sqrt(3) goes to 0, and a
# larger s changes sign or overflows), and its node keeps a defect above
# the limit.
NEWTON_SCHULZ_STEPS = 7


def node_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Node-wise matrix product of two entry-first (d, d, *nodes) stacks."""
    return np.einsum("ik...,kj...->ij...", a, b)


def node_power(multiply, a: np.ndarray, n: int) -> np.ndarray:
    """Node-wise power ``a**n`` (n >= 1) of a (d, d, *nodes) stack by repeated
    squaring with the product ``multiply``, the powers of two multiplied in
    from the right."""
    result = None
    while True:
        n, bit = divmod(n, 2)
        if bit:
            result = a if result is None else multiply(result, a)
        if not n:
            return result
        a = multiply(a, a)


def _eye(d: int, nodes: tuple) -> np.ndarray:
    """The identity, shaped to broadcast against a (d, d, *nodes) stack."""
    return np.eye(d).reshape((d, d) + (1,) * len(nodes))


def _entry_pinv(basis: np.ndarray) -> np.ndarray:
    """Pseudoinverse of the flat basis, entry-first and C-contiguous, (d*d, a):
    then the coordinate sums run in one order on one matrix and on a stack.
    Every basis has disjoint supports, so it is the flat basis over its
    squared norms, exactly; adding 0.0 makes each of its zeros positive."""
    flat = basis.reshape(len(basis), -1)
    return np.ascontiguousarray(flat.T / (flat * flat).sum(axis=1) + 0.0)


def _coords(pinv: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Algebra coordinates (*nodes, a) of a (d, d, *nodes) stack: a view of
    the coordinate-first sum, which einsum writes several times faster than
    a node-first one."""
    flat = mats.reshape((-1,) + mats.shape[2:])
    return np.einsum("ba,b...->a...", pinv, flat).transpose((*range(1, flat.ndim), 0))


@dataclass(frozen=True, eq=False)
class MatrixGroup:
    """A matrix group with a fixed algebra basis and closed-form charts."""

    name: str
    dim: int
    basis: np.ndarray
    q_radius: float
    v_radius: float
    exp_fn: Callable[[np.ndarray], np.ndarray]
    log_fn: Callable[[np.ndarray], np.ndarray]
    log_valid_fn: Callable[[np.ndarray], np.ndarray]
    invert_fn: Callable[[np.ndarray], np.ndarray]
    project_fn: Callable[[np.ndarray], np.ndarray]
    defect_fn: Callable[[np.ndarray], np.ndarray]
    # The node-wise product of two group stacks.
    multiply: Callable[[np.ndarray, np.ndarray], np.ndarray]
    # The door check of a group whose values are fixed by the top half of
    # their entry rows (SU2): per node, whether the bottom half is that
    # half's exact copy.  SO3 and UT2 have none; every entry row is free.
    exact_fn: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def algebra_dim(self) -> int:
        return self.basis.shape[0]

    def to_matrix(self, coords: np.ndarray) -> np.ndarray:
        # Exact: every basis entry has at most one nonzero term.
        return np.tensordot(self.basis, np.asarray(coords, dtype=float), (0, -1))

    @cached_property
    def _coords_pinv(self) -> np.ndarray:
        return _entry_pinv(self.basis)

    def from_matrix(self, mats: np.ndarray) -> np.ndarray:
        return _coords(self._coords_pinv, np.asarray(mats, dtype=float))

    def exp(self, coords: np.ndarray) -> np.ndarray:
        return self.exp_fn(np.asarray(coords, dtype=float))

    def log(self, mats: np.ndarray) -> np.ndarray:
        return self.log_fn(np.asarray(mats, dtype=float))

    def log_valid(self, mats: np.ndarray) -> np.ndarray:
        return self.log_valid_fn(np.asarray(mats, dtype=float))

    def invert(self, mats: np.ndarray) -> np.ndarray:
        return self.invert_fn(np.asarray(mats, dtype=float))

    def project(self, mats: np.ndarray) -> np.ndarray:
        return self.project_fn(np.asarray(mats, dtype=float))

    def relation_defect(self, mats: np.ndarray) -> np.ndarray:
        """Node-wise relation defects.  SU2's is that of a realified stack:
        it reads X and Y once, from the left half of [[X, -Y], [Y, X]], and
        takes the right half for their copy, as ``exact_fn`` checks."""
        return self.defect_fn(np.asarray(mats, dtype=float))

    def identity(self) -> np.ndarray:
        return np.eye(self.dim)

    def adjoint(self, g: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Ad_g in algebra coordinates: g X g^{-1} pushed back to coords."""
        x = self.to_matrix(coords)
        return self.from_matrix(self.multiply(self.multiply(g, x), self.invert(g)))

    def bracket_coords(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        xu, xv = self.to_matrix(u), self.to_matrix(v)
        return self.from_matrix(self.multiply(xu, xv) - self.multiply(xv, xu))


def _hat3(v: np.ndarray) -> np.ndarray:
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    zero = np.zeros_like(x)
    return np.array([[zero, -z, y], [z, zero, -x], [-y, x, zero]])


def _vee3(mats: np.ndarray) -> np.ndarray:
    return np.stack([mats[2, 1], mats[0, 2], mats[1, 0]], axis=-1)


def _transpose(g: np.ndarray) -> np.ndarray:
    """Node-wise transpose, the inverse on SO3 and SU2."""
    return g.swapaxes(0, 1).copy()


def so3() -> MatrixGroup:
    basis = np.array([_hat3(e) for e in np.eye(3)])
    q_radius = np.pi - 0.1

    def exp_fn(v):
        # Bitwise np.linalg.norm(v, axis=-1), without its overhead.
        theta = np.sqrt(v[..., 0] ** 2 + v[..., 1] ** 2 + v[..., 2] ** 2)
        k = _hat3(v)
        small = theta < 1e-8
        th = np.where(small, 1.0, theta)
        a = np.where(small, 1.0 - theta**2 / 6.0, np.sin(th) / th)
        b = np.where(small, 0.5 - theta**2 / 24.0, (1.0 - np.cos(th)) / th**2)
        return _eye(3, theta.shape) + a * k + b * node_product(k, k)

    def _angle(g):
        return np.arccos(np.clip((np.trace(g) - 1.0) / 2.0, -1.0, 1.0))

    def log_fn(g):
        theta = _angle(g)
        small = theta < 1e-8
        th = np.where(small, 1.0, theta)
        factor = np.where(small, 0.5 + theta**2 / 12.0, th / (2.0 * np.sin(th)))
        return factor[..., None] * _vee3(g - g.swapaxes(0, 1))

    def log_valid_fn(g):
        return _angle(g) < q_radius

    def project_fn(g):
        # The orthogonal polar factor, by NEWTON_SCHULZ_STEPS fixed steps.
        three = 3.0 * _eye(3, g.shape[2:])
        for _ in range(NEWTON_SCHULZ_STEPS):
            g = node_product(g, three - node_product(g.swapaxes(0, 1), g)) / 2.0
        return g

    def defect_fn(g):
        gtg = node_product(g.swapaxes(0, 1), g)
        gtg -= _eye(3, g.shape[2:])
        orth = np.abs(gtg, out=gtg).max(axis=(0, 1))
        # The determinant, as the triple product g[0] . (g[1] x g[2]) of the
        # entry rows, summed in np.cross's and sum(axis=0)'s order.  Where it
        # overflows it reads inf or NaN, which fails every defect test, so
        # numpy's warning would say nothing more.
        (a0, a1, a2), (b0, b1, b2) = g[1], g[2]
        with np.errstate(over="ignore", invalid="ignore"):
            det = g[0, 0] * (a1 * b2 - a2 * b1)
            det += g[0, 1] * (a2 * b0 - a0 * b2)
            det += g[0, 2] * (a0 * b1 - a1 * b0)
            det -= 1.0
        return np.maximum(orth, np.abs(det))

    return MatrixGroup(
        "SO3", 3, basis, q_radius, q_radius / 2.0,
        exp_fn, log_fn, log_valid_fn, _transpose, project_fn, defect_fn,
        node_product,
    )


_SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ]
)


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def su2_real() -> MatrixGroup:
    mats = -0.5j * _SIGMA
    # The real 4x4 block form [[X, -Y], [Y, X]] of each X + iY.
    basis = np.block([[mats.real, -mats.imag], [mats.imag, mats.real]])
    # One row per entry of the flattened basis but the last two, 14 and 15:
    # those are X's second row, which exp_fn copies from the top-left block.
    basis_rows = np.ascontiguousarray(basis.reshape(3, 16)[:, :14].T)
    coords_pinv = _entry_pinv(basis)
    q_radius = np.pi - 0.1

    def exp_fn(v):
        # Bitwise np.linalg.norm(v, axis=-1), without its overhead.
        theta = np.sqrt(v[..., 0] ** 2 + v[..., 1] ** 2 + v[..., 2] ** 2)
        half = 0.5 * theta
        small = theta < 1e-8
        hs = np.where(small, 1.0, half)
        sinc_half = np.where(small, 1.0 - half**2 / 6.0, np.sin(hs) / hs)
        cos_half = np.cos(half)
        # cos(theta/2) I + sinc(theta/2) xi, written into the xi stack.  The
        # product fills entries 0 to 13, each bitwise as a full product of
        # the basis fills it.  The Y block is a product, not the negated -Y
        # block: a zero sum's sign does not follow negation.  Adding the
        # signed zero cos * 0 everywhere keeps the sign of each zero entry
        # as the sum with the identity stack gave it.
        out = np.empty((4, 4) + v.shape[:-1])
        rows = out.reshape(16, -1)[:14]
        np.dot(basis_rows, v.reshape(-1, 3).T, out=rows)
        rows *= sinc_half.reshape(-1)
        out[3, 2:] = out[1, :2]
        out += cos_half * 0.0
        for i in range(4):
            out[i, i] += cos_half
        return out

    def _half_angle(g):
        return np.arccos(np.clip(np.trace(g) / 4.0, -1.0, 1.0))

    def log_fn(g):
        half = _half_angle(g)
        small = half < 1e-8
        hs = np.where(small, 1.0, half)
        inv_sinc = np.where(small, 1.0 + half**2 / 6.0, hs / np.sin(hs))
        anti = 0.5 * (g - g.swapaxes(0, 1))
        return _coords(coords_pinv, inv_sinc * anti)

    def log_valid_fn(g):
        return 2.0 * _half_angle(g) < q_radius

    def project_fn(g):
        # The Frobenius-nearest value: the quaternion part a I + xi of g,
        # divided by its norm.  Realified exactly, as every basis entry has
        # one nonzero term.
        a = np.trace(g) / 4.0
        v = _coords(coords_pinv, 0.5 * (g - g.swapaxes(0, 1)))
        q = np.tensordot(basis, v, (0, -1)) + a * _eye(4, a.shape)
        return q / np.sqrt(a * a + (v * v).sum(axis=-1) / 4.0)

    def defect_fn(g):
        # Entries of U = [[a, b], [c, d]] = X + i Y, one (4, K) complex stack
        # read from the left half [X; Y] of [[X, -Y], [Y, X]]: the unitarity
        # residuals of U^H U and |det U - 1| in closed form.  Rows, not
        # scalars, for one matrix too: numpy's complex scalar product rounds
        # unlike its array loop.
        u = np.empty((2, 2) + g.shape[2:], complex)
        u.real = g[:2, :2]
        u.imag = g[2:, :2]
        u = u.reshape(4, -1)
        sq = _abs2(u)
        unit = np.maximum(np.abs(sq[0] + sq[2] - 1.0), np.abs(sq[1] + sq[3] - 1.0))
        a, b, c, d = u
        off = np.abs(np.conj(a) * b + np.conj(c) * d)
        det = np.abs(a * d - b * c - 1.0)
        return np.maximum(np.maximum(unit, off), det).reshape(g.shape[2:])

    def multiply(a, b):
        # The top half [X, -Y] of the product is node_product's, bitwise;
        # the bottom half [Y, X] is copied from it, the Y block negated.
        out = np.empty((4, 4) + np.broadcast_shapes(a.shape[2:], b.shape[2:]))
        np.einsum("ik...,kj...->ij...", a[:2], b, out=out[:2])
        np.negative(out[:2, 2:], out=out[2:, :2])
        out[2:, 2:] = out[:2, :2]
        return out

    def exact_fn(g):
        return ((g[2:, 2:] == g[:2, :2]) & (g[2:, :2] == -g[:2, 2:])).all(axis=(0, 1))

    return MatrixGroup(
        "SU2", 4, basis, q_radius, q_radius / 2.0,
        exp_fn, log_fn, log_valid_fn, _transpose, project_fn, defect_fn,
        multiply, exact_fn,
    )


def upper_triangular2() -> MatrixGroup:
    basis = np.zeros((3, 2, 2))
    basis[0, 0, 0] = 1.0  # E11
    basis[1, 0, 1] = 1.0  # E12
    basis[2, 1, 1] = 1.0  # E22

    def _phi(x, z):
        """Divided difference (e^x - e^z)/(x - z), stable near x = z."""
        mid = 0.5 * (x + z)
        d = 0.5 * (x - z)
        small = np.abs(d) < 1e-8
        ds = np.where(small, 1.0, d)
        ratio = np.where(small, 1.0 + d**2 / 6.0, np.sinh(ds) / ds)
        return np.exp(mid) * ratio

    def exp_fn(v):
        x, y, z = v[..., 0], v[..., 1], v[..., 2]
        out = np.zeros((2, 2) + v.shape[:-1])
        out[0, 0] = np.exp(x)
        out[1, 1] = np.exp(z)
        out[0, 1] = y * _phi(x, z)
        return out

    def log_fn(g):
        a = g[0, 0]
        c = g[1, 1]
        x = np.log(a)
        z = np.log(c)
        y = g[0, 1] / _phi(x, z)
        return np.stack([x, y, z], axis=-1)

    def log_valid_fn(g):
        a = g[0, 0]
        c = g[1, 1]
        ok = (a > 1e-12) & (c > 1e-12)
        x = np.log(np.where(ok, a, 1.0))
        z = np.log(np.where(ok, c, 1.0))
        y = g[0, 1] / _phi(x, z)
        norm = np.sqrt(x * x + y * y + z * z)
        return ok & (norm < 5.0)

    def invert_fn(g):
        a = g[0, 0]
        b = g[0, 1]
        c = g[1, 1]
        out = np.zeros_like(g)
        out[0, 0] = 1.0 / a
        out[1, 1] = 1.0 / c
        out[0, 1] = -b / (a * c)
        return out

    def project_fn(g):
        # Only the lower entry is off the group's subspace; a diagonal entry
        # of the wrong sign is a value no projection repairs.
        out = g.copy()
        out[1, 0] = 0.0
        return out

    def defect_fn(g):
        lower = np.abs(g[1, 0])
        diag = np.minimum(g[0, 0], g[1, 1])
        return np.maximum(lower, np.maximum(-diag, 0.0))

    return MatrixGroup(
        "UT2", 2, basis, 5.0, 1.0,
        exp_fn, log_fn, log_valid_fn, invert_fn, project_fn, defect_fn,
        node_product,
    )


GROUP_BUILDERS = {"SO3": so3, "SU2": su2_real, "UT2": upper_triangular2}


def group_by_name(name: str) -> MatrixGroup:
    return GROUP_BUILDERS[check_name(name, GROUP_BUILDERS, "group")]()


@dataclass(frozen=True, eq=False)
class GroupSection:
    """Chart family of node-wise group elements over an atlas.

    Each piece is one C-contiguous entry-first stack, ``(d, d, K)`` for a
    chart window of K nodes, and passes its group's door check ``exact_fn``,
    where it has one, at every node.  ``relation_defects`` keeps each
    chart's largest relation defect.  Values an operation computes are built
    by :meth:`computed`, which measures each chart once and hands that
    measurement to the checks here.
    """

    atlas: Atlas
    group: MatrixGroup
    pieces: tuple[np.ndarray, ...]
    relation_defects: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self):
        # The node-wise kernel slows down many times over on strided stacks.
        object.__setattr__(self, "pieces", tuple(map(np.ascontiguousarray, self.pieces)))
        if len(self.pieces) != self.atlas.chart_count:
            raise ShapeMismatchError("one piece per chart required")
        d = self.group.dim
        for c, p in zip(self.atlas.charts, self.pieces):
            if p.shape != (d, d, c.window.node_count):
                raise ShapeMismatchError(
                    f"chart {c.index} matrices must have shape "
                    f"({d}, {d}, {c.window.node_count}), got {p.shape}"
                )
            # Nonfinite entries would fail the door check as unequal twins,
            # or the relation check by a NaN defect, so they are rejected
            # first, naming the node.
            check_node_values(p.reshape(d * d, -1).T)
            if self.group.exact_fn is not None:
                twins = self.group.exact_fn(p)
                if not twins.all():
                    raise InputError(
                        f"chart {c.index}, node {int(np.argmin(twins))}: matrix is not "
                        f"of the realified {self.group.name} form [[X, -Y], [Y, X]]"
                    )
        if "relation_defects" not in vars(self):
            defects = tuple(float(self.group.relation_defect(p).max()) for p in self.pieces)
            object.__setattr__(self, "relation_defects", defects)
        # A NaN defect (an entry product that overflowed) fails too.
        for c, defect in zip(self.atlas.charts, self.relation_defects):
            if not defect <= RELATION_DEFECT_LIMIT:
                raise InputError(
                    f"chart {c.index}: node matrices violate the group "
                    f"relations by {defect:.3e}"
                )
        # The overlap check reads each piece as its component-first lattice
        # (rows, c0[, c1]), a view of the contiguous stack.  A transfer acts
        # on each row alone and negation is exact, so where the door check
        # fixes every piece by its top half, the defect and its worst point
        # on those rows are bitwise those on all d*d.
        rows = d * d if self.group.exact_fn is None else d * d // 2
        lattices = [
            p.reshape((d * d,) + c.window.axis_counts)[:rows]
            for c, p in zip(self.atlas.charts, self.pieces)
        ]
        require_compatible(lattices, self.atlas, "group section ")

    @classmethod
    def computed(cls, atlas, group, mats, threshold, what):
        """Group section of computed per-chart matrices ``mats``, each chart
        measured once and projected onto the group (with an INFO record) when
        its relation defect exceeds ``threshold`` or is NaN.  Products and
        time-1 values of valid sections lie on the group, so a projection
        that leaves more than RELATION_DEFECT_LIMIT raises NumericError."""
        pieces, defects = list(mats), []
        for chart, p in enumerate(pieces):
            drift = float(group.relation_defect(p).max())
            if not drift <= threshold:
                LOGGER.info(
                    f"chart %d: {what} drifted %.3e off %s; re-projected",
                    chart, drift, group.name,
                )
                # A value projection cannot repair may overflow on the way;
                # its defect is then NaN or inf, and fails the test below.
                with np.errstate(all="ignore"):
                    pieces[chart] = p = group.project(p)
                    drift = float(group.relation_defect(p).max())
                if not drift <= RELATION_DEFECT_LIMIT:
                    raise NumericError(
                        f"chart {chart}: {what} relation defect {drift:.3e} exceeds "
                        f"{RELATION_DEFECT_LIMIT:.1e} even after re-projection"
                    )
            defects.append(drift)
        # The measurements go in before __init__, whose checks then use them.
        self = cls.__new__(cls)
        object.__setattr__(self, "relation_defects", tuple(defects))
        self.__init__(atlas, group, pieces)
        return self


@dataclass(frozen=True, eq=False)
class AlgebraSection:
    """Section with values in algebra coordinates of a fixed group."""

    group: MatrixGroup
    section: Section

    def __post_init__(self):
        if self.section.components != self.group.algebra_dim:
            raise ShapeMismatchError(
                f"algebra sections of {self.group.name} need "
                f"{self.group.algebra_dim} components"
            )

    @property
    def atlas(self) -> Atlas:
        return self.section.atlas

    def chart_coords(self, j: int) -> np.ndarray:
        return self.section.pieces[j].values

    def chart_matrices(self, j: int) -> np.ndarray:
        return self.group.to_matrix(self.chart_coords(j))

    def __add__(self, other: "AlgebraSection") -> "AlgebraSection":
        require_same_group(self, other)
        return AlgebraSection(self.group, self.section + other.section)

    def __sub__(self, other: "AlgebraSection") -> "AlgebraSection":
        require_same_group(self, other)
        return AlgebraSection(self.group, self.section - other.section)

    def scaled(self, factor: float) -> "AlgebraSection":
        return AlgebraSection(self.group, self.section.scaled(factor))


def require_same_group(a, b):
    if not (a.group is b.group or a.group.name == b.group.name):
        raise InputError("operands belong to different groups")


def identity_group_section(atlas: Atlas, group: MatrixGroup) -> GroupSection:
    pieces = tuple(
        np.repeat(group.identity()[..., None], c.window.node_count, axis=2)
        for c in atlas.charts
    )
    return GroupSection(atlas, group, pieces)


def group_multiply(a: GroupSection, b: GroupSection) -> GroupSection:
    """Node-wise product; re-projects and logs only if drift exceeds 1e-12."""
    require_same_atlas(a.atlas, b.atlas, "group sections")
    require_same_group(a, b)
    return GroupSection.computed(
        a.atlas, a.group, (a.group.multiply(pa, pb) for pa, pb in zip(a.pieces, b.pieces)),
        PROJECTION_THRESHOLD, "product",
    )


def group_invert(a: GroupSection) -> GroupSection:
    return GroupSection(a.atlas, a.group, tuple(a.group.invert(p) for p in a.pieces))


def exp_section(xi: AlgebraSection) -> GroupSection:
    """Node-wise group exponential of an algebra section."""
    pieces = tuple(
        xi.group.exp(xi.chart_coords(j)) for j in range(xi.atlas.chart_count)
    )
    return GroupSection(xi.atlas, xi.group, pieces)


def _algebra_section(group: MatrixGroup, atlas: Atlas, coords) -> AlgebraSection:
    """Algebra section from per-chart coordinate arrays (node_count, dim)."""
    pieces = tuple(
        SampledField(c.window, np.ascontiguousarray(v)) for c, v in zip(atlas.charts, coords)
    )
    return AlgebraSection(group, Section(atlas, pieces))


def log_section(gamma: GroupSection) -> AlgebraSection:
    """Node-wise group logarithm; rejects nodes outside the chart ball."""
    for j, (c, p) in enumerate(zip(gamma.atlas.charts, gamma.pieces)):
        ok = gamma.group.log_valid(p)
        if not np.all(ok):
            bad = int(np.argmin(ok))
            node = c.window.nodes()[bad]
            raise ChartDomainError(
                f"chart {j}, node {bad} (x = {node}): matrix outside the "
                f"log domain of {gamma.group.name}"
            )
    coords = (gamma.group.log(p) for p in gamma.pieces)
    return _algebra_section(gamma.group, gamma.atlas, coords)


def adjoint_operator(gamma: GroupSection, eta: AlgebraSection) -> AlgebraSection:
    """Node-wise adjoint action of a group section on an algebra section."""
    require_same_atlas(gamma.atlas, eta.atlas, "sections")
    require_same_group(gamma, eta)
    coords = (
        gamma.group.adjoint(g, eta.chart_coords(j)) for j, g in enumerate(gamma.pieces)
    )
    return _algebra_section(gamma.group, gamma.atlas, coords)


def bracket(xi: AlgebraSection, eta: AlgebraSection) -> AlgebraSection:
    """Node-wise Lie bracket in algebra coordinates."""
    require_same_atlas(xi.atlas, eta.atlas, "sections")
    require_same_group(xi, eta)
    coords = (
        xi.group.bracket_coords(xi.chart_coords(j), eta.chart_coords(j))
        for j in range(xi.atlas.chart_count)
    )
    return _algebra_section(xi.group, xi.atlas, coords)


def random_algebra_section(
    atlas: Atlas,
    group: MatrixGroup,
    rng: np.random.Generator,
    amplitude: float | None = None,
) -> AlgebraSection:
    """Random smooth algebra section of order-2 trigonometric polynomials,
    scaled to sup norm ``amplitude`` (default 0.9 of the product-safe ball
    radius)."""
    if amplitude is None:
        amplitude = 0.9 * group.v_radius
    amplitude = check_real(amplitude, "amplitude", 0.0)
    sec = random_section(atlas, group.algebra_dim, rng, order=2)
    scale = amplitude / max(sec.sup_norm(), 1e-12)
    return AlgebraSection(group, sec.scaled(scale))


def bch_residual(xi: AlgebraSection, eta: AlgebraSection, t: float) -> float:
    """Sup-node defect of the order-2 product expansion at parameter t.

    Compares log(exp(t xi) exp(t eta)) against
    t (xi + eta) + t^2/2 [xi, eta]; the remainder is cubic in t.
    """
    t = check_real(t, "t")
    g = group_multiply(exp_section(xi.scaled(t)), exp_section(eta.scaled(t)))
    lg = log_section(g)
    model = (xi + eta).scaled(t) + bracket(xi, eta).scaled(0.5 * t * t)
    return (lg - model).section.sup_norm()


def bch_order2_probe(xi: AlgebraSection, eta: AlgebraSection) -> float:
    """Log-log slope of the order-2 product expansion remainder (about 3)
    over the parameters ``BCH_PARAMETERS``."""
    ts = np.asarray(BCH_PARAMETERS)
    res = np.array([bch_residual(xi, eta, float(t)) for t in ts])
    if np.any(res <= 0):
        raise InputError("remainder vanished; probe parameters too small")
    slope, _ = np.polyfit(np.log(ts), np.log(res), 1)
    return float(slope)


def bracket_from_products(
    xi: AlgebraSection, eta: AlgebraSection, t: float = 1e-3
) -> AlgebraSection:
    """Extract the bracket from small products:
    (log(exp(t xi) exp(t eta)) - log(exp(t eta) exp(t xi))) / t^2,
    accurate to O(t^2) because the cubic product terms are symmetric."""
    t = check_real(t, "t", 0.0, strict=True)
    a, b = exp_section(xi.scaled(t)), exp_section(eta.scaled(t))
    ab = log_section(group_multiply(a, b))
    ba = log_section(group_multiply(b, a))
    return (ab - ba).scaled(1.0 / (t * t))
