"""Every count parameter of the public API rejects a bad value by name.

One row per call and bad value: a fraction above the minimum, NaN, +Inf,
and one below the minimum.  Each must raise InputError naming the
parameter.  ``evolve``'s step kernels are patched to fail, so a missing
check fails fast instead of hanging.  A second table does the same for
the array inputs of the value types and for the decay exponent.
"""

import math

import numpy as np
import pytest

from mapgroups.atlas import Chart, circle_two_charts, validate_atlas
from mapgroups.axioms import probe_cutoff_bound
from mapgroups.cutoffs import SmoothCutoff, cutoff_multiply
from mapgroups.domains import (
    FlowField,
    boundary_samples,
    descent_and_shrink,
    disc,
    flow,
    shrink_domain,
)
from mapgroups.errors import InputError
from mapgroups.fields import (
    TWO_PI,
    BandlimitedField,
    GridDomain,
    SampledField,
    random_field,
    sample,
    synthesize,
    wavenumber_squares,
)
from mapgroups.groups import bracket_from_products, random_algebra_section, so3
from mapgroups.limits import (
    constant_curve,
    critical_order_estimate,
    decay_partial_norm_sq,
    evolution_smoothness_probe,
    evolve,
    ladder,
    rung_compactness_probe,
)
from mapgroups.maps import torus_translation
from mapgroups.sections import random_section
from mapgroups.sobolev import (
    extension_probe,
    group_norms,
    min_norm_extension,
    rellich_spectrum,
    restriction_kernel_basis,
)

ATLAS = circle_two_charts()
XI = random_algebra_section(ATLAS, so3(), np.random.default_rng(3))
CURVE = constant_curve(XI)
WINDOW = GridDomain.box(((1.0, 2.5),), 129)
DATA = sample(random_field(1, 8, 1, np.random.default_rng(4)), WINDOW)
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
    ("BandlimitedField", lambda v: BandlimitedField(1, v, np.zeros((1, 3), complex)), "modes", 0),
    ("flow", lambda v: flow(FLOW_FIELD, POINTS, 0.1, v), "steps", 16),
    ("shrink_domain", lambda v: shrink_domain(FLOW_FIELD, 0.1, samples=v, rng=rng()),
     "samples", 1),
    ("shrink_domain", lambda v: shrink_domain(FLOW_FIELD, 0.1, 4, steps=v, rng=rng()),
     "steps", 16),
    ("descent_and_shrink",
     lambda v: descent_and_shrink(FLOW_FIELD, POINTS, 0.1, samples=v, rng=rng()), "samples", 1),
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
    ("group_norms", lambda v: group_norms(BANDLIMITED, 1.0, v), "size", 1),
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
] + [
    # Not a count: the sup norm to scale to must be finite and >= 0.
    pytest.param(lambda v: random_algebra_section(ATLAS, so3(), rng(), v), bad, "amplitude",
                 id=f"random_algebra_section-amplitude-{bad}")
    for bad in (-0.5, math.nan, math.inf, -math.inf)
]


@pytest.mark.parametrize("call, bad, name", ROWS)
def test_a_bad_count_raises_input_error_naming_it(monkeypatch, call, bad, name):
    def no_steps(*args):
        raise AssertionError("evolve started integrating")

    monkeypatch.setattr("mapgroups.limits.node_power", no_steps)
    monkeypatch.setattr("mapgroups.limits._rk4_factor", no_steps)
    with pytest.raises(InputError, match=rf"\b{name}\b"):
        call(bad)


# (call, bad value, name the error must give).  Lists go through the same
# conversion and checks as arrays.
VALUE_ROWS = [
    pytest.param(lambda v: GridDomain(1, (9,), ((0.0, TWO_PI),), (v,)), bad, "axis_indices",
                 id=f"GridDomain-axis_indices-{bad}")
    for bad in ([0.5, 1.5], [True, False], np.array([1.0, 2.0]))
] + [
    # Every dimension goes through one check, which rejects a float and
    # anything outside 1..2.
    pytest.param(call, bad, "m", id=f"{fn}-m-{bad}")
    for fn, call in (
        ("GridDomain", lambda v: GridDomain(v, (9,), ((0.0, TWO_PI),), (np.arange(9),))),
        ("GridDomain.full_torus", lambda v: GridDomain.full_torus(v, 9)),
        ("BandlimitedField", lambda v: BandlimitedField(v, 1, np.zeros((1, 3), complex))),
        ("ladder", lambda v: ladder(2.0, 3, m=v)),
        ("wavenumber_squares", lambda v: wavenumber_squares(v, 2)),
        ("torus_translation", lambda v: torus_translation(v, [0.0])),
    )
    for bad in (1.0, 0, 3)
] + [
    # A chart's dimension is its offset's size.
    pytest.param(lambda v: Chart(0, np.zeros(v), 2.0, 1.7, 9), bad, "m", id=f"Chart-m-{bad}")
    for bad in (0, 3)
] + [
    # A list resolution is checked and stored as a tuple of counts.
    pytest.param(lambda v: GridDomain(1, v, ((0.0, TWO_PI),), (np.arange(9),)), [9.5],
                 "resolution", id="GridDomain-resolution-[9.5]"),
] + [
    pytest.param(lambda v: SampledField(TORUS_FIELD.domain, TORUS_FIELD.values, parent_modes=v),
                 bad, "parent_modes", id=f"SampledField-parent_modes-{bad}")
    for bad in (2.5, -3)
] + [
    pytest.param(lambda v: SampledField(WINDOW, v), bad, "values", id=f"SampledField-{label}")
    for label, bad in (("flat-list", [1.0] * WINDOW.node_count),
                       ("short-list", [[1.0]] * 3),
                       ("str-list", [["x"]] * WINDOW.node_count))
] + [
    pytest.param(lambda v: BandlimitedField(1, 1, v), bad, "coefficients",
                 id=f"BandlimitedField-{label}")
    for label, bad in (("real-list", [[0.0, 1.0, 0.0]]),
                       ("short-list", [[0j, 1 + 0j]]),
                       ("nan-list", [[0j, complex(math.nan, 0.0), 0j]]))
] + [
    pytest.param(call, bad, "alpha", id=f"{fn}-alpha-{bad}")
    for fn, call in (("decay_partial_norm_sq", lambda v: decay_partial_norm_sq(v, 1.0, 8)),
                     ("critical_order_estimate", critical_order_estimate))
    for bad in (math.nan, math.inf, -math.inf, -1.0, 0.0)
]


@pytest.mark.parametrize("call, bad, name", VALUE_ROWS)
def test_a_bad_value_raises_input_error_naming_it(call, bad, name):
    with pytest.raises(InputError, match=rf"\b{name}\b"):
        call(bad)
