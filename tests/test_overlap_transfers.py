"""Atlas-cached overlap and partition transfers against pointwise references.

``compatibility_defect`` and ``glue`` apply per-axis interpolation matrices
that each atlas builds once.  The references below evaluate the same
quantities point by point through the public ``SampledField.interpolate``.
"""

import gc
import weakref

import numpy as np
import pytest

from mapgroups.atlas import circle_two_charts, torus_four_charts
from mapgroups.errors import InputError
from mapgroups.fields import GridDomain, SampledField
from mapgroups.groups import (
    exp_section,
    random_algebra_section,
    so3,
    su2_real,
    upper_triangular2,
)
from mapgroups.sections import compatibility_defect, glue, random_section

ATLASES = {"circle2": circle_two_charts, "torus4": torus_four_charts}
GROUPS = {"SO3": so3, "SU2": su2_real, "UT2": upper_triangular2}
PER_AXIS = 24


def rounding(pieces):
    """The separable transfer sums in another order than the pointwise
    stencil sum, so the two agree to a few units in the last place of the
    value scale."""
    scale = max(float(np.abs(p.values).max()) for p in pieces)
    return 16 * np.finfo(float).eps * scale


def pointwise_defect(pieces, atlas):
    worst, where = 0.0, None
    for i in range(atlas.chart_count):
        for j in range(i + 1, atlas.chart_count):
            pts = atlas.overlap_samples(i, j, PER_AXIS)
            if pts.size == 0:
                continue
            vi = pieces[i].interpolate(atlas.to_chart(i, pts))
            vj = pieces[j].interpolate(atlas.to_chart(j, pts))
            diff = np.max(np.abs(vi - vj), axis=1)
            k = int(np.argmax(diff))
            if diff[k] > worst:
                worst, where = float(diff[k]), (i, j, pts[k].tolist())
    return worst, where


def pointwise_glue(pieces, atlas):
    out = []
    for c in atlas.charts:
        theta = c.from_chart(c.window.nodes())
        weights = atlas.partition_weights(theta)
        vals = np.zeros((theta.shape[0], pieces[0].components))
        for i, piece in enumerate(pieces):
            hit = weights[:, i] > 0.0
            if np.any(hit):
                x = atlas.to_chart(i, theta[hit])
                vals[hit] += weights[hit, i, None] * piece.interpolate(x)
        out.append(vals)
    return out


def section_pieces(atlas, rng):
    return list(random_section(atlas, 1, rng).pieces)


def group_entry_pieces(atlas, rng, name):
    gamma = exp_section(random_algebra_section(atlas, GROUPS[name](), rng))
    return [
        SampledField(c.window, p.reshape(p.shape[0], -1))
        for c, p in zip(atlas.charts, gamma.pieces)
    ]


@pytest.mark.parametrize("atlas_name", sorted(ATLASES))
@pytest.mark.parametrize("kind", ["section", "SO3", "SU2", "UT2"])
def test_defect_matches_pointwise_reference(atlas_name, kind):
    atlas = ATLASES[atlas_name]()
    rng = np.random.default_rng(5)
    if kind == "section":
        pieces = section_pieces(atlas, rng)
    else:
        pieces = group_entry_pieces(atlas, rng, kind)
    # Node noise on the last chart gives the defect one clear maximum.
    last = pieces[-1]
    pieces[-1] = SampledField(
        last.domain, last.values + 1e-7 * rng.standard_normal(last.values.shape)
    )
    worst, where = compatibility_defect(pieces, atlas, return_worst=True)
    ref_worst, ref_where = pointwise_defect(pieces, atlas)
    assert worst > 1e-8
    assert abs(worst - ref_worst) <= 1e-15
    assert where[:2] == ref_where[:2]
    assert np.abs(np.subtract(where[2], ref_where[2])).max() <= 1e-15


@pytest.mark.parametrize("atlas_name", sorted(ATLASES))
def test_glue_matches_pointwise_reference(atlas_name):
    atlas = ATLASES[atlas_name]()
    sec = random_section(atlas, 2, np.random.default_rng(7))
    glued = glue(sec.pieces, atlas)
    tol = rounding(sec.pieces)
    for piece, ref in zip(glued.pieces, pointwise_glue(sec.pieces, atlas)):
        assert np.abs(piece.values - ref).max() <= tol


@pytest.mark.parametrize("atlas_name", sorted(ATLASES))
def test_pieces_off_their_window_are_rejected(atlas_name):
    atlas = ATLASES[atlas_name]()
    sec = random_section(atlas, 1, np.random.default_rng(8))
    c = atlas.charts[1]
    fine = GridDomain.box(c.window.window, 2 * atlas.lattice_resolution - 1)
    pieces = list(sec.pieces)
    pieces[1] = SampledField(fine, np.zeros((fine.node_count, 1)))
    with pytest.raises(InputError, match="chart 1 is not sampled on its window"):
        compatibility_defect(pieces, atlas)
    with pytest.raises(InputError, match="chart 1 is not sampled on its window"):
        glue(pieces, atlas)


def test_operator_cache_dies_with_its_atlas():
    atlas = torus_four_charts()
    sec = random_section(atlas, 1, np.random.default_rng(9))
    glue(sec.pieces, atlas)
    ref = weakref.ref(atlas)
    del atlas, sec
    gc.collect()
    assert ref() is None
