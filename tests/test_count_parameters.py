"""Every count parameter of the public API rejects a bad value by name.

One row per call and bad value: a fraction above the minimum, NaN, +Inf,
and one below the minimum.  Each must raise InputError naming the
parameter.  ``evolve``'s step kernels are patched to fail, so a missing
check fails fast instead of hanging.
"""

import math

import numpy as np
import pytest

from mapgroups.atlas import circle_two_charts, validate_atlas
from mapgroups.axioms import probe_cutoff_bound
from mapgroups.cutoffs import SmoothCutoff, cutoff_multiply
from mapgroups.domains import FlowField, boundary_samples, disc, flow, shrink_domain
from mapgroups.errors import InputError
from mapgroups.fields import (
    GridDomain,
    random_field,
    restrict,
    sample,
    synthesize,
    wavenumber_squares,
)
from mapgroups.groups import bracket_from_products, random_algebra_section, so3
from mapgroups.limits import (
    constant_curve,
    decay_field,
    evolution_smoothness_probe,
    evolve,
    ladder,
    rung_compactness_probe,
)
from mapgroups.sections import random_section
from mapgroups.sobolev import (
    extension_probe,
    min_norm_extension,
    rellich_spectrum,
    restriction_kernel_basis,
)

ATLAS = circle_two_charts()
XI = random_algebra_section(ATLAS, so3(), np.random.default_rng(3))
CURVE = constant_curve(XI)
WINDOW = GridDomain.box(((1.0, 2.5),), 129)
DATA = restrict(random_field(1, 8, 1, np.random.default_rng(4)), WINDOW)
TORUS_FIELD = sample(random_field(1, 4, 1, np.random.default_rng(5)),
                     GridDomain.full_torus(1, 33))
BANDLIMITED = random_field(1, 4, 1, np.random.default_rng(6))
CUTOFF = SmoothCutoff(np.array([np.pi]), np.array([2.0]))
POINTS = np.array([[1.0, 0.0], [0.0, 1.0]])


def rng():
    return np.random.default_rng(0)


LADDER = ladder(0.5, 4)
FLOW_FIELD = FlowField(disc())

# (function, call on the value, parameter name, least accepted value)
COUNTS = [
    ("evolve", lambda v: evolve(CURVE, v), "steps", CURVE.resolution),
    ("evolution_smoothness_probe",
     lambda v: evolution_smoothness_probe(CURVE, XI, v), "steps", CURVE.resolution),
    ("rung_compactness_probe", lambda v: rung_compactness_probe(LADDER, v, 8), "j", 1),
    ("rung_compactness_probe", lambda v: rung_compactness_probe(LADDER, 1, v), "modes", 0),
    ("ladder", lambda v: ladder(0.5, v), "count", 2),
    ("decay_field", lambda v: decay_field(2.0, v), "modes", 0),
    ("flow", lambda v: flow(FLOW_FIELD, POINTS, 0.1, v), "steps", 16),
    ("shrink_domain", lambda v: shrink_domain(FLOW_FIELD, 0.1, samples=v), "samples", 1),
    ("shrink_domain", lambda v: shrink_domain(FLOW_FIELD, 0.1, 4, steps=v), "steps", 16),
    ("boundary_samples", lambda v: boundary_samples(disc(), v, rng()), "count", 0),
    ("extension_probe", lambda v: extension_probe(rng(), instances=v), "instances", 1),
    ("extension_probe", lambda v: extension_probe(rng(), competitors=v), "competitors", 1),
    ("extension_probe", lambda v: extension_probe(rng(), modes=v), "modes", 0),
    ("extension_probe", lambda v: extension_probe(rng(), resolution=v), "resolution", 3),
    ("min_norm_extension", lambda v: min_norm_extension(DATA, 1.0, v), "modes", 0),
    ("restriction_kernel_basis",
     lambda v: restriction_kernel_basis(WINDOW, 1.0, v), "modes", 0),
    ("rellich_spectrum", lambda v: rellich_spectrum(2.0, 1.0, v), "modes", 0),
    ("random_field", lambda v: random_field(1, v, 1, rng()), "modes", 0),
    ("random_field", lambda v: random_field(1, 4, v, rng()), "components", 1),
    ("wavenumber_squares", lambda v: wavenumber_squares(2, v), "modes", 0),
    ("synthesize", lambda v: synthesize(TORUS_FIELD, v), "modes", 0),
    ("GridDomain.full_torus", lambda v: GridDomain.full_torus(2, v), "resolution", 3),
    ("circle_two_charts", lambda v: circle_two_charts(resolution=v), "resolution", 3),
    ("random_section", lambda v: random_section(ATLAS, v, rng()), "components", 1),
    ("random_section", lambda v: random_section(ATLAS, 1, rng(), v), "order", 0),
    ("cutoff_multiply", lambda v: cutoff_multiply(CUTOFF, BANDLIMITED, v), "oversample", 1),
    ("Atlas.overlap_samples", lambda v: ATLAS.overlap_samples(0, 1, v), "per_axis", 1),
    ("validate_atlas", lambda v: validate_atlas(ATLAS, v), "overlap_per_axis", 1),
    ("probe_cutoff_bound", lambda v: probe_cutoff_bound(rng(), trials=v), "trials", 1),
]

ROWS = [
    pytest.param(call, bad, name, id=f"{fn}-{name}-{bad}")
    for fn, call, name, least in COUNTS
    for bad in (least + 0.5, math.nan, math.inf, least - 1)
] + [
    # Not a count: the product parameter must be positive and finite.
    pytest.param(lambda v: bracket_from_products(XI, XI, v), bad, "t",
                 id=f"bracket_from_products-t-{bad}")
    for bad in (0.0, -1e-3, math.nan, math.inf)
]


@pytest.mark.parametrize("call, bad, name", ROWS)
def test_a_bad_count_raises_input_error_naming_it(monkeypatch, call, bad, name):
    def no_steps(*args):
        raise AssertionError("evolve started integrating")

    monkeypatch.setattr("mapgroups.limits.node_power", no_steps)
    monkeypatch.setattr("mapgroups.limits._rk4_factor", no_steps)
    with pytest.raises(InputError, match=rf"\b{name}\b"):
        call(bad)
