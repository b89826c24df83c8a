"""The benchmark tracer's contract with the library.

``perfbench/tracer.py`` wraps library callables by module and attribute
name, and its counters read their arguments by position or keyword.  A
renamed, moved or re-ordered parameter of a traced callable would otherwise
only fail the traced benchmark run, so these tests import the tracer as it
is and check, on this checkout, that every traced name binds and that the
``domains.flow`` counters read the call they wrap.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from mapgroups import domains

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def _owner_and_attr(modname, path):
    module = importlib.import_module(modname)
    if "." in path:
        cls_name, attr = path.split(".")
        return getattr(module, cls_name), attr
    return module, path


def _bound(owner, attr):
    # A class attribute is read from the class dict, so a method is seen
    # as the function the tracer swaps, not as a bound method.
    return vars(owner)[attr]


def test_every_traced_name_binds_and_is_restored():
    owners = [_owner_and_attr(modname, path) for _, modname, path in tracer.TRACED]
    before = [_bound(owner, attr) for owner, attr in owners]
    with tracer.Tracer().installed():
        for (owner, attr), original, (name, _, _) in zip(owners, before, tracer.TRACED):
            bound = _bound(owner, attr)
            assert bound is not original, name
            assert bound.__wrapped__ is original, name
    for (owner, attr), original in zip(owners, before):
        assert _bound(owner, attr) is original


DEFAULT_STEPS = inspect.signature(domains.flow).parameters["steps"].default
POINTS = np.array([[1.0, 0.0], [0.0, 0.9], [0.3, -0.8]])

CALLS = {
    "positional": (lambda flow, d: flow(d, POINTS, 0.1, 16), 16),
    "keyword": (lambda flow, d: flow(domain=d, points=POINTS, t=0.1, steps=32), 32),
    "default-steps": (lambda flow, d: flow(d, POINTS, 0.1), DEFAULT_STEPS),
}


@pytest.mark.parametrize("style", sorted(CALLS))
def test_flow_counters_read_the_call(style):
    call, steps = CALLS[style]
    want = call(domains.flow, domains.disc())
    t = tracer.Tracer()
    with t.installed(), t.op_span(0, "op.flow"):
        got = call(domains.flow, domains.disc())
    totals = t.layer_totals([0])
    assert totals["domains.flow.calls"] == 1
    assert totals["domains.flow.point_steps"] == len(POINTS) * steps
    assert np.array_equal(got, want)
