"""The contract sweep: every real-valued parameter and every named registry
of the public API rejects a bad value by name, through the two rules of
``errors.py``.

Each real parameter of the README table meets NaN, +Inf, -Inf, the values
just past its bounds, a str and None; each must raise InputError whose
message starts with the parameter's name, unless the value is the
parameter's documented default (None for an amplitude).  Each registry
meets None, a number, a list, the empty string and an unknown name.
``evolve``'s step kernels are patched to fail, so a missing check fails
fast instead of integrating.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mapgroups.atlas import Atlas, Chart, builtin_atlas, circle_two_charts
from mapgroups.cli import RunConfig, load_config_file
from mapgroups.cutoffs import SmoothCutoff, bump_profile
from mapgroups.domains import (
    FlowField,
    descent_and_shrink,
    disc,
    domain_by_name,
    flow,
    shrink_domain,
)
from mapgroups.errors import InputError, check_name, check_real
from mapgroups.fields import GridDomain, SampledField, random_field, same_grid, sample
from mapgroups.groups import (
    bch_residual,
    bracket_from_products,
    group_by_name,
    random_algebra_section,
    so3,
)
from mapgroups.limits import critical_order_estimate, decay_partial_norm_sq, ladder
from mapgroups.maps import torus_translation
from mapgroups.sections import hilbert_inner, random_section
from mapgroups.serialize import convention_tag, dump_grid, dump_sampled, load_grid, load_sampled
from mapgroups.sobolev import (
    group_norms,
    hs_inner,
    hs_norm,
    hs_norms,
    min_norm_extension,
    mode_weights,
    rellich_spectrum,
    restriction_kernel_basis,
    weight_exponent,
)

INF = math.inf
ATLAS = builtin_atlas("circle2")
XI = random_algebra_section(ATLAS, so3(), np.random.default_rng(3))
SECTION = random_section(ATLAS, 1, np.random.default_rng(4))
FIELD = random_field(1, 4, 1, np.random.default_rng(5))
WINDOW = GridDomain.box(((1.0, 2.5),), 17)
DATA = sample(FIELD, WINDOW)
GRID_DOC = dump_grid(WINDOW)
FLOW_FIELD = FlowField(disc())
POINTS = np.array([[0.5, 0.0], [0.0, 0.5], [0.0, 0.0]])
CHARTS = ATLAS.charts


def rng():
    return np.random.default_rng(0)


# (function, parameter name as the message gives it, call on the value,
#  least value, largest value, whether both bounds are excluded)
REALS = [
    ("weight_exponent", "s", lambda v: weight_exponent(v), 0.0, INF, False),
    ("mode_weights", "s", lambda v: mode_weights(1, 4, v), 0.0, INF, False),
    ("hs_inner", "s", lambda v: hs_inner(FIELD, FIELD, v), 0.0, INF, False),
    ("hs_norm", "s", lambda v: hs_norm(FIELD, v), 0.0, INF, False),
    ("hs_norms", "s", lambda v: hs_norms(FIELD, [1.0, v]), 0.0, INF, False),
    ("group_norms", "s", lambda v: group_norms(FIELD, v, 1), 0.0, INF, False),
    ("min_norm_extension", "s", lambda v: min_norm_extension(DATA, v, 8), 0.0, INF, False),
    ("restriction_kernel_basis", "s",
     lambda v: restriction_kernel_basis(WINDOW, v, 8), 0.0, INF, False),
    ("rellich_spectrum", "s", lambda v: rellich_spectrum(v, 0.0, 4), 0.0, INF, False),
    ("rellich_spectrum", "t", lambda v: rellich_spectrum(2.0, v, 4), 0.0, INF, False),
    ("hilbert_inner", "s", lambda v: hilbert_inner(SECTION, SECTION, v), 0.0, INF, False),
    ("decay_partial_norm_sq", "s",
     lambda v: decay_partial_norm_sq(1.0, v, 4), 0.0, INF, False),
    ("decay_partial_norm_sq", "alpha",
     lambda v: decay_partial_norm_sq(v, 1.0, 4), 0.0, INF, True),
    ("critical_order_estimate", "alpha", critical_order_estimate, 0.0, INF, True),
    ("ladder", "s0", lambda v: ladder(v, 3), 0.5, INF, False),
    ("ladder-m2", "s0", lambda v: ladder(v, 3, m=2), 1.0, INF, False),
    ("random_field", "decay", lambda v: random_field(1, 4, 1, rng(), decay=v), -INF, INF, False),
    ("random_field", "amplitude",
     lambda v: random_field(1, 4, 1, rng(), amplitude=v), 0.0, INF, False),
    ("random_algebra_section", "amplitude",
     lambda v: random_algebra_section(ATLAS, so3(), rng(), v), 0.0, INF, False),
    ("bracket_from_products", "t", lambda v: bracket_from_products(XI, XI, v), 0.0, INF, True),
    ("bch_residual", "t", lambda v: bch_residual(XI, XI, v), -INF, INF, False),
    ("flow", "t", lambda v: flow(FLOW_FIELD, POINTS, v, 16), -INF, INF, False),
    ("flow-rows", "t[0]",
     lambda v: flow(FLOW_FIELD, POINTS, [v, 0.1, 0.1], 16), -INF, INF, False),
    ("flow-rows", "t[1]",
     lambda v: flow(FLOW_FIELD, POINTS, [0.1, v, 0.1], 16), -INF, INF, False),
    ("flow-rows", "t[2]",
     lambda v: flow(FLOW_FIELD, POINTS, [0.1, 0.1, v], 16), -INF, INF, False),
    ("shrink_domain", "t0",
     lambda v: shrink_domain(FLOW_FIELD, v, samples=4, rng=rng()), -INF, INF, False),
    ("descent_and_shrink", "t0",
     lambda v: descent_and_shrink(FLOW_FIELD, POINTS, v, 4, rng=rng()), -INF, INF, False),
    ("bump_profile", "plateau", lambda v: bump_profile(np.zeros(3), v), 0.0, 1.0, True),
    ("SmoothCutoff", "plateau", lambda v: SmoothCutoff([1.0], [0.5], v), 0.0, 1.0, True),
    ("SmoothCutoff", "radius", lambda v: SmoothCutoff([1.0, 1.0], [0.5, v]), 0.0, INF, True),
    ("SmoothCutoff", "center", lambda v: SmoothCutoff([v], [0.5]), -INF, INF, False),
    ("Atlas", "plateau", lambda v: Atlas("circle2", CHARTS, v), 0.0, 1.0, True),
    ("circle_two_charts", "plateau", lambda v: circle_two_charts(65, plateau=v), 0.0, 1.0, True),
    ("Chart", "offset", lambda v: Chart(0, [v], 2.0, 1.7, 9), -INF, INF, False),
    ("Chart", "half_width", lambda v: Chart(0, [0.0], v, 1.7, 9), -INF, INF, False),
    ("Chart", "window_half", lambda v: Chart(0, [0.0], 2.0, v, 9), -INF, INF, False),
    ("circle_two_charts", "window_half",
     lambda v: circle_two_charts(65, window_half=v), -INF, INF, False),
    ("torus_translation", "shift", lambda v: torus_translation(2, [0.5, v]), -INF, INF, False),
    ("BandlimitedField.scaled", "factor", lambda v: FIELD.scaled(v), -INF, INF, False),
    ("SampledField.scaled", "factor", lambda v: DATA.scaled(v), -INF, INF, False),
    ("Section.scaled", "factor", lambda v: SECTION.scaled(v), -INF, INF, False),
    ("RunConfig", "tolerance 'bracket'",
     lambda v: RunConfig(tolerances={"bracket": v}), 0.0, INF, False),
    ("load_grid-lo", "grid key 'window'",
     lambda v: load_grid(dict(GRID_DOC, window=[[v, 2.5]])), -INF, 2.5, True),
    ("load_grid-hi", "grid key 'window'",
     lambda v: load_grid(dict(GRID_DOC, window=[[1.0, v]])), 1.0, INF, True),
]

# Values a parameter documents as its default, and values a rule beside
# the range refuses.
DEFAULTS = {("random_algebra_section", "amplitude"): [None]}
EXTRA = {("shrink_domain", "t0"): [0.0, -0.0], ("descent_and_shrink", "t0"): [0.0, -0.0],
         ("RunConfig", "tolerance 'bracket'"): [10**400],
         ("load_grid-lo", "grid key 'window'"): [3.0],
         ("load_grid-hi", "grid key 'window'"): [0.5]}


def bad_values(low, high, strict):
    past = []
    if math.isfinite(low):
        past.append(low if strict else math.nextafter(low, -INF))
    if math.isfinite(high):
        past.append(high if strict else math.nextafter(high, INF))
    return [math.nan, INF, -INF, *past, "abc", None]


REAL_ROWS = [
    pytest.param(call, bad, name, (fn, name) in DEFAULTS and bad in DEFAULTS[(fn, name)],
                 id=f"{fn}-{name}-{bad!r}")
    for fn, name, call, low, high, strict in REALS
    for bad in bad_values(low, high, strict) + EXTRA.get((fn, name), [])
]


@pytest.mark.parametrize("call, bad, name, is_default", REAL_ROWS)
def test_a_bad_real_value_raises_input_error_naming_it(monkeypatch, call, bad, name, is_default):
    def no_steps(*args):
        raise AssertionError("evolve started integrating")

    monkeypatch.setattr("mapgroups.limits.node_power", no_steps)
    monkeypatch.setattr("mapgroups.limits._rk4_factor", no_steps)
    if is_default:
        call(bad)
        return
    with pytest.raises(InputError) as caught:
        call(bad)
    assert str(caught.value).startswith(f"{name} must be "), str(caught.value)


# (function, registry kind as the message gives it, call on the name)
NAMES = [
    ("builtin_atlas", "atlas", builtin_atlas),
    ("group_by_name", "group", group_by_name),
    ("domain_by_name", "domain", domain_by_name),
    ("convention_tag", "weight convention", convention_tag),
    ("weight_exponent", "weight convention", lambda v: weight_exponent(1.0, v)),
    ("hs_norms", "weight convention", lambda v: hs_norms(FIELD, [], v)),
    ("rellich_spectrum", "weight convention", lambda v: rellich_spectrum(2.0, 1.0, 4, 1, v)),
    ("RunConfig", "atlas", lambda v: RunConfig(atlas=v)),
    ("RunConfig", "group", lambda v: RunConfig(group=v)),
    ("RunConfig", "weight convention", lambda v: RunConfig(convention=v)),
    ("RunConfig", "tolerance", lambda v: RunConfig(tolerances={v: 1.0})),
]

NAME_ROWS = [
    pytest.param(call, bad, kind, id=f"{fn}-{kind}-{bad!r}")
    for fn, kind, call in NAMES
    for bad in (None, 4, ["SO3"], "", "moebius")
    if not (fn == "RunConfig" and kind == "tolerance" and isinstance(bad, list))
]


@pytest.mark.parametrize("call, bad, kind", NAME_ROWS)
def test_an_unknown_name_raises_input_error_naming_the_registry(call, bad, kind):
    with pytest.raises(InputError) as caught:
        call(bad)
    assert str(caught.value).startswith(f"unknown {kind} {bad!r}; available: [")


@pytest.mark.parametrize("key", ["seeds", ""])
def test_an_unknown_config_key_names_the_file_and_the_key(tmp_path, key):
    path = tmp_path / "cfg.json"
    path.write_text(f'{{"{key}": 3}}')
    with pytest.raises(InputError) as caught:
        load_config_file(path)
    assert str(caught.value).startswith(f"{path}: unknown config key {key!r}; available: [")


IDX = np.arange(10, 20)


@pytest.mark.parametrize(
    "m, window, axes",
    [
        (2, ((0.4, 1.0),), (IDX, IDX)),
        (1, ((0.4, 1.0), (0.1, 0.2)), (IDX,)),
        (1, (), (IDX,)),
    ],
)
def test_a_grid_window_needs_one_pair_per_axis(m, window, axes):
    with pytest.raises(InputError, match=r"^window needs one \(lo, hi\) pair per axis, got "):
        GridDomain(m, 129, window, axes)


def test_a_grid_stores_its_window_as_float_pairs():
    grid = GridDomain(1, 129, [[0.4, 1]], (IDX,))
    assert grid.window == ((0.4, 1.0),)
    assert all(type(x) is float for pair in grid.window for x in pair)
    loaded = load_sampled(dump_sampled(SampledField(grid, np.ones((10, 1))))).domain
    assert same_grid(loaded, grid) and same_grid(grid, GridDomain(1, 129, ((0.4, 1.0),), (IDX,)))


REAL_BOUNDS = st.sampled_from([(-INF, INF), (0.0, INF), (0.5, INF), (0.0, 1.0)])


@given(value=st.floats(allow_nan=True, allow_infinity=True), bounds=REAL_BOUNDS,
       strict=st.booleans())
def test_check_real_passes_exactly_the_finite_values_in_range(value, bounds, strict):
    low, high = bounds
    inside = math.isfinite(value) and (low < value < high if strict else low <= value <= high)
    if inside:
        out = check_real(value, "x", low, high, strict)
        assert type(out) is float and out == value
    else:
        with pytest.raises(InputError, match=r"^x must be finite"):
            check_real(value, "x", low, high, strict)


@pytest.mark.parametrize(
    "value, want",
    [(np.float32(0.25), 0.25), (np.int64(3), 3.0), (10**30, 1e30), (2, 2.0)],
)
def test_check_real_takes_numpy_scalars_and_python_integers(value, want):
    out = check_real(value, "x", 0.0)
    assert type(out) is float and out == want


@pytest.mark.parametrize(
    "value, message",
    [
        ("1.5", "^x must be a real number, got '1.5'$"),
        (None, "^x must be a real number, got None$"),
        (True, "^x must be a real number, got True$"),
        (1 + 0j, r"^x must be a real number, got \(1\+0j\)$"),
        (np.array([1.0]), r"^x must be a real number, got array\(\[1\.\]\)$"),
        (10**400, "^x must be finite and >= 0, got inf$"),
        (-(10**400), "^x must be finite and >= 0, got -inf$"),
    ],
)
def test_check_real_rejects_non_reals_by_name(value, message):
    with pytest.raises(InputError, match=message):
        check_real(value, "x", 0.0)


def test_check_name_returns_the_name_and_lists_the_registry_sorted():
    assert check_name("b", {"b": 1, "a": 2}, "letter") == "b"
    with pytest.raises(InputError, match=r"^unknown letter 'c'; available: \['a', 'b'\]$"):
        check_name("c", ("b", "a"), "letter")
