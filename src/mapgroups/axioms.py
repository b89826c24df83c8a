"""Executable probes for the four function-space closure properties.

Each probe exercises one closure property of the sampled/band-limited
field calculus and returns a small result record:

* ``axiom-PF``: superposition by a smooth map is continuous (first-order
  response to a perturbation of the argument).
* ``axiom-PB``: pullback by diffeomorphisms is functorial.
* ``axiom-GL``: extension by zero composed with restriction is the
  identity, exactly, for compactly supported node data.
* ``axiom-MU``: multiplication by a smooth cutoff has an empirical
  operator bound that is stable under refining the product grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cutoffs import SmoothCutoff, cutoff_multiply
from .errors import check_count
from .fields import (
    GridDomain,
    SampledField,
    extend_by_zero,
    random_field,
    restrict_sampled,
    sample,
)
from .maps import compose_maps, nemytskij, pullback, torus_translation
from .sobolev import hs_norm

# Each probe's field cutoff and grid resolution; axiom-MU's fields are
# cut at MU_MODES and measured at order MU_ORDER.
PROBE_MODES = 16
PROBE_RESOLUTION = 257
MU_MODES = 12
MU_ORDER = 1.0

# Perturbation sizes of the superposition probe, largest first.
PF_OFFSETS = (1e-2, 3e-3, 1e-3)


@dataclass(frozen=True)
class AxiomCheck:
    check_id: str
    passed: bool
    measures: dict = field(default_factory=dict)


def probe_superposition_continuity(
    rng: np.random.Generator, slope_window: float = 0.2
) -> AxiomCheck:
    """axiom-PF: sup-node response of sin-superposition is first order."""
    grid = GridDomain.full_torus(1, PROBE_RESOLUTION)
    gamma = sample(random_field(1, PROBE_MODES, 1, rng), grid)
    eta = sample(random_field(1, PROBE_MODES, 1, rng), grid)
    scale = float(np.abs(eta.values).max())
    eta = eta.scaled(1.0 / max(scale, 1e-12))

    def f(x, y):
        return np.sin(y)

    base = nemytskij(f, gamma)
    eps = np.asarray(PF_OFFSETS)
    resp = np.array(
        [
            float(np.abs((nemytskij(f, gamma + eta.scaled(e)) - base).values).max())
            for e in eps
        ]
    )
    slope = float(np.polyfit(np.log(eps), np.log(resp), 1)[0])
    passed = abs(slope - 1.0) <= slope_window
    return AxiomCheck(
        "axiom-PF",
        passed,
        {"slope": slope, "target": 1.0, "window": slope_window},
    )


def probe_pullback_functoriality(
    rng: np.random.Generator, tol: float = 1e-9
) -> AxiomCheck:
    """axiom-PB: pulling back along a composition equals pulling back twice."""
    grid = GridDomain.full_torus(1, PROBE_RESOLUTION)
    gamma = sample(random_field(1, PROBE_MODES, 2, rng), grid)
    t1 = torus_translation(1, rng.uniform(0.0, 2.0 * np.pi))
    t2 = torus_translation(1, rng.uniform(0.0, 2.0 * np.pi))
    composed = pullback(compose_maps(t1, t2), gamma, grid)
    stepwise = pullback(t2, pullback(t1, gamma, grid), grid)
    residual = float(np.abs(composed.values - stepwise.values).max())
    return AxiomCheck(
        "axiom-PB", residual <= tol, {"residual": residual, "tol": tol}
    )


def probe_extend_by_zero(rng: np.random.Generator) -> AxiomCheck:
    """axiom-GL: zero-extension then restriction is exactly the identity."""
    m = 1
    inner = GridDomain.box(((1.0, 3.0),), PROBE_RESOLUTION)
    outer = GridDomain.box(((0.5, 4.5),), PROBE_RESOLUTION)
    raw = sample(random_field(m, PROBE_MODES, 2, rng), inner)
    bump = SmoothCutoff(np.array([2.0]), np.array([0.9]))
    supported = SampledField(inner, raw.values * bump(inner.nodes())[:, None])
    widened = extend_by_zero(supported, outer)
    back = restrict_sampled(widened, inner.window)
    identical = bool(np.array_equal(back.values, supported.values))
    # Zero outside the original window: check directly on the lattice.
    lat = widened.lattice_values()
    inside_idx = np.searchsorted(outer.axis_indices[0], inner.axis_indices[0])
    mask = np.ones(lat.shape[0], dtype=bool)
    mask[inside_idx] = False
    vanishes = bool(np.all(lat[mask] == 0.0))
    return AxiomCheck(
        "axiom-GL",
        identical and vanishes,
        {"round_trip_exact": identical, "zero_outside": vanishes},
    )


def probe_cutoff_bound(
    rng: np.random.Generator, trials: int = 100, rel_tol: float = 0.05
) -> AxiomCheck:
    """axiom-MU: empirical cutoff-multiplication bound is grid-stable,
    over ``trials >= 1`` random fields."""
    trials = check_count(trials, "trials", 1)
    h = SmoothCutoff(np.array([np.pi]), np.array([2.0]))
    # Both grids see the same fields, so the change measures the grid alone.
    seed = rng.integers(0, 2**63)

    def bound(oversample: int) -> float:
        gen = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(trials):
            g = random_field(1, MU_MODES, 1, gen)
            denom = hs_norm(g, MU_ORDER)
            if denom < 1e-12:
                continue
            prod = cutoff_multiply(h, g, oversample=oversample)
            worst = max(worst, hs_norm(prod, MU_ORDER) / denom)
        return worst

    coarse = bound(2)
    fine = bound(4)
    rel = abs(fine - coarse) / max(coarse, 1e-12)
    return AxiomCheck(
        "axiom-MU",
        rel <= rel_tol,
        {"bound_coarse": coarse, "bound_fine": fine, "rel_change": rel,
         "rel_tol": rel_tol},
    )


# Check id -> the keyword of its probe that a tolerance of that id
# overrides (the zero-extension check is exact and takes none).
TOLERANCE_KEYWORDS = {"axiom-PF": "slope_window", "axiom-PB": "tol", "axiom-MU": "rel_tol"}


def run_axiom_suite(rng_for, tolerances=None) -> list[AxiomCheck]:
    """Run the four probes with independent substreams.

    ``rng_for(name)`` must return a fresh generator per probe name, so the
    suite outcome is reproducible regardless of execution order.  The
    optional ``tolerances`` map overrides per-check acceptance windows by
    check id (see ``TOLERANCE_KEYWORDS``); other names in it are ignored.
    """
    tol = dict(tolerances or {})

    def window(check_id: str) -> dict:
        return {TOLERANCE_KEYWORDS[check_id]: tol[check_id]} if check_id in tol else {}

    return [
        probe_superposition_continuity(rng_for("axiom-PF"), **window("axiom-PF")),
        probe_pullback_functoriality(rng_for("axiom-PB"), **window("axiom-PB")),
        probe_extend_by_zero(rng_for("axiom-GL")),
        probe_cutoff_bound(rng_for("axiom-MU"), **window("axiom-MU")),
    ]
