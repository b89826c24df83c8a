"""The four closure-property probes and the suite driver."""

import numpy as np
import pytest

from mapgroups.axioms import (
    MU_MODES,
    MU_ORDER,
    MU_TRIALS,
    probe_cutoff_bound,
    probe_extend_by_zero,
    probe_pullback_functoriality,
    probe_superposition_continuity,
    run_axiom_suite,
)
from mapgroups.cli import RunConfig
from mapgroups.cutoffs import SmoothCutoff, cutoff_multiply
from mapgroups.fields import random_field
from mapgroups.sobolev import hs_norm


def test_superposition_probe_first_order():
    check = probe_superposition_continuity(np.random.default_rng(0))
    assert check.check_id == "axiom-PF"
    assert check.passed, check.measures
    assert abs(check.measures["slope"] - 1.0) <= 0.2


def test_pullback_probe_functorial():
    check = probe_pullback_functoriality(np.random.default_rng(1))
    assert check.check_id == "axiom-PB"
    assert check.passed, check.measures
    assert check.measures["residual"] <= 1e-9


def test_zero_extension_probe_exact():
    check = probe_extend_by_zero(np.random.default_rng(2))
    assert check.check_id == "axiom-GL"
    assert check.passed
    assert check.measures == {"round_trip_exact": True, "zero_outside": True}


def test_cutoff_bound_probe_grid_stable():
    check = probe_cutoff_bound(np.random.default_rng(3))
    assert check.check_id == "axiom-MU"
    assert check.passed, check.measures
    assert check.measures["bound_coarse"] > 0.0


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_cutoff_bound_probe_compares_the_same_fields(seed):
    # Both grids resolve the products of the same fields, so the bounds
    # differ only by the grid; separate draws differed by up to 6%.
    m = probe_cutoff_bound(np.random.default_rng(seed)).measures
    assert abs(m["bound_fine"] - m["bound_coarse"]) <= 1e-5 * m["bound_coarse"]


def cutoff_bounds_field_by_field(rng, trials):
    """axiom-MU's two bounds as they read before the fields were stacked:
    one draw, one product and two norms per field and grid."""
    h = SmoothCutoff(np.array([np.pi]), np.array([2.0]))
    seed = rng.integers(0, 2**63)

    def bound(oversample):
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

    return bound(2), bound(4)


@pytest.mark.parametrize("seed, trials", [(0, MU_TRIALS), (1, MU_TRIALS), (5, 1), (9, 17)])
def test_stacked_cutoff_bound_is_the_field_by_field_bound(monkeypatch, seed, trials):
    # The probe reads MU_TRIALS at each call, so smaller stacks are checked too.
    monkeypatch.setattr("mapgroups.axioms.MU_TRIALS", trials)
    m = probe_cutoff_bound(np.random.default_rng(seed)).measures
    coarse, fine = cutoff_bounds_field_by_field(np.random.default_rng(seed), trials)
    assert (m["bound_coarse"], m["bound_fine"]) == (coarse, fine)


def test_suite_runs_all_four_and_is_reproducible():
    # The CLI's per-suite streams for seed 0, identical in every process.
    rng_for = RunConfig(seed=0).rng_for
    first = run_axiom_suite(rng_for)
    second = run_axiom_suite(rng_for)
    assert [c.check_id for c in first] == [
        "axiom-PF",
        "axiom-PB",
        "axiom-GL",
        "axiom-MU",
    ]
    assert all(c.passed for c in first), [c for c in first if not c.passed]
    for a, b in zip(first, second):
        assert a.measures == b.measures


def test_suite_tolerance_overrides_can_force_failure():
    def rng_for(name):
        return np.random.default_rng(4)

    checks = run_axiom_suite(rng_for, tolerances={"axiom-MU": 0.0})
    by_id = {c.check_id: c for c in checks}
    assert not by_id["axiom-MU"].passed
    assert by_id["axiom-GL"].passed
