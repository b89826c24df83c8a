"""The factored interpolation systems min_norm_extension keeps by value.

The cache holds the SVD factors of each weighted node-evaluation system,
keyed by lattice, window, node indices, cutoff, order, convention and
singular-value floor; solves on a warm cache must equal cold ones bit for
bit, and the cache must stay bounded and hold no grid or atlas.
"""

import gc
import weakref

import numpy as np
import pytest

from mapgroups.atlas import circle_two_charts, torus_four_charts
from mapgroups.fields import GridDomain, random_field, sample
from mapgroups.sections import hilbert_inner, random_section
from mapgroups.sobolev import (
    FACTOR_CACHE_SIZE,
    PINV_RCOND,
    _factored_system,
    _real_coords_to_coeffs,
    _weighted_real_system,
    min_norm_extension,
)


@pytest.fixture
def cold():
    _factored_system.cache_clear()
    yield _factored_system.cache_info
    _factored_system.cache_clear()


def reference_extension(v, s, modes, convention="paper"):
    """The solve with the SVD taken inline, as before the cache."""
    b, half = _weighted_real_system(v.domain, modes, s, convention)
    u, sig, vt = np.linalg.svd(b, full_matrices=False)
    keep = sig > PINV_RCOND * sig[0]
    coef = (u[:, keep].T @ v.values) / sig[keep][:, None]
    return _real_coords_to_coeffs((vt[keep].T @ coef).T, half)


def window_data(lo=0.7, hi=2.9, seed=0):
    grid = GridDomain.box(((lo, hi),), 129)
    return sample(random_field(1, 16, 2, np.random.default_rng(seed)), grid)


def test_extension_equals_inline_svd_solve_cold_and_warm(cold):
    v = window_data()
    want = reference_extension(v, 1.5, 24)
    for _ in range(2):
        got = min_norm_extension(v, 1.5, 24).coeffs.reshape(want.shape)
        assert np.array_equal(got, want)
    assert cold().misses == 1 and cold().hits == 1


def test_hilbert_inner_bitwise_on_cold_and_warm_cache(cold):
    atlas = torus_four_charts()
    rng = np.random.default_rng(4)
    a = random_section(atlas, 2, rng)
    b = random_section(atlas, 2, rng)
    first = hilbert_inner(a, b, 1.0, return_detail=True)
    # The four chart windows are the same box in chart coordinates.
    assert cold().misses == 1
    second = hilbert_inner(a, b, 1.0, return_detail=True)
    assert cold().misses == 1 and cold().hits == 4 * len(atlas.charts) - 1
    assert repr(first) == repr(second)
    _factored_system.cache_clear()
    assert repr(hilbert_inner(a, b, 1.0, return_detail=True)) == repr(first)


def test_order_and_convention_get_their_own_entries(cold):
    v = window_data()
    paper = min_norm_extension(v, 1.0, 24)
    higher = min_norm_extension(v, 2.0, 24)
    standard = min_norm_extension(v, 1.0, 24, convention="standard")
    assert cold().misses == 3 and cold().currsize == 3
    assert not np.array_equal(paper.coeffs, higher.coeffs)
    assert not np.array_equal(paper.coeffs, standard.coeffs)
    assert np.array_equal(higher.coeffs, min_norm_extension(v, 2.0, 24).coeffs)
    assert cold().hits == 1


def test_cached_factors_are_read_only(cold):
    v = window_data()
    min_norm_extension(v, 1.0, 24)
    grid = v.domain
    key = (grid.resolution, grid.window,
           tuple(i.tobytes() for i in grid.axis_indices), 24, 1.0, "paper")
    for array in _factored_system(*key):
        assert not array.flags.writeable


def test_cache_stays_bounded(cold):
    for j in range(FACTOR_CACHE_SIZE + 5):
        lo = 0.3 + 0.05 * j
        min_norm_extension(window_data(lo, lo + 2.0), 1.0, 24)
    info = cold()
    assert info.misses == FACTOR_CACHE_SIZE + 5
    assert info.currsize == FACTOR_CACHE_SIZE


def test_cache_keeps_no_atlas_alive(cold):
    atlas = circle_two_charts()
    sec = random_section(atlas, 1, np.random.default_rng(3))
    hilbert_inner(sec, sec, 1.0)
    assert cold().currsize > 0
    ref = weakref.ref(atlas)
    del atlas, sec
    gc.collect()
    assert ref() is None
