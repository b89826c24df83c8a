"""Atlas-cached overlap and partition transfers against pointwise references.

``compatibility_defect`` and ``glue`` apply per-axis interpolation matrices
that each atlas builds once, cut to their live lattice columns.  The
references below evaluate the same quantities point by point through the
public ``SampledField.interpolate``, through full-width matrices, or
through a gather of component-last lattices followed by a transpose.
"""

import gc
import weakref

import numpy as np
import pytest

from mapgroups.atlas import (
    OVERLAP_SAMPLES,
    PI,
    circle_two_charts,
    torus_four_charts,
    wrap_angle,
)
from mapgroups.errors import IncompatibleSectionError, InputError
from mapgroups import sections
from mapgroups.fields import (
    TWO_PI,
    GridDomain,
    SampledField,
    axis_interpolation_matrix,
    tensor_transfer,
)
from mapgroups.groups import (
    GroupSection,
    exp_section,
    group_multiply,
    node_product,
    random_algebra_section,
    so3,
    su2_real,
    upper_triangular2,
)
from mapgroups.sections import Section, compatibility_defect, glue, random_section

ATLASES = {"circle2": circle_two_charts, "torus4": torus_four_charts}
GROUPS = {"SO3": so3, "SU2": su2_real, "UT2": upper_triangular2}


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
            pts = atlas.overlap_samples(i, j, OVERLAP_SAMPLES)
            if pts.size == 0:
                continue
            vi = pieces[i].interpolate(atlas.charts[i].to_chart(pts))
            vj = pieces[j].interpolate(atlas.charts[j].to_chart(pts))
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
                x = atlas.charts[i].to_chart(theta[hit])
                vals[hit] += weights[hit, i, None] * piece.interpolate(x)
        out.append(vals)
    return out


def full_axis_matrix(chart, d, angles):
    """Fresh full-width interpolation matrix from a window axis to angles."""
    return axis_interpolation_matrix(
        chart.window, d, PI + wrap_angle(angles - chart.offset[d])
    )


def scattered(matrix, cols, width):
    out = np.zeros((matrix.shape[0], width))
    out[:, cols] = matrix
    return out


def dense_transfer(matrices, lattice):
    """Full-width transfer on component-last lattice values (c0[, c1], n)."""
    if len(matrices) == 1:
        return matrices[0] @ lattice
    w0, w1 = matrices
    return np.moveaxis(w0 @ np.moveaxis(lattice, -1, 0) @ w1.T, 0, -1)


def dense_defect(pieces, atlas):
    """compatibility_defect through full-width matrices, no columns cut."""
    lattices = [p.lattice_values() for p in pieces]
    worst, where = 0.0, None
    for op in atlas.overlap_transfers:
        ci, cj = atlas.charts[op.i], atlas.charts[op.j]
        wi = [full_axis_matrix(ci, d, a) for d, a in enumerate(op.angles)]
        wj = [full_axis_matrix(cj, d, a) for d, a in enumerate(op.angles)]
        vi = dense_transfer(wi, lattices[op.i])
        vj = dense_transfer(wj, lattices[op.j])
        diff = np.max(np.abs(vi - vj), axis=-1)
        k = np.unravel_index(int(np.argmax(diff)), diff.shape)
        if diff[k] > worst:
            worst = float(diff[k])
            where = (op.i, op.j, [float(a[q]) for a, q in zip(op.angles, k)])
    return worst, where


def gathered_block(lattice, cols):
    """Component-last lattice values (c0[, c1], n) at ``np.ix_(*cols)``,
    transposed to a contiguous component-first copy (n, g0[, g1])."""
    block = lattice[np.ix_(*cols)]
    return np.ascontiguousarray(block.transpose(-1, *range(len(cols))))


def gathered_defect(pieces, atlas):
    """compatibility_defect through gathered and transposed lattice blocks."""
    lattices = [p.lattice_values() for p in pieces]
    worst, where = 0.0, None
    for op in atlas.overlap_transfers:
        vi = tensor_transfer(op.first, gathered_block(lattices[op.i], op.first_cols))
        vj = tensor_transfer(op.second, gathered_block(lattices[op.j], op.second_cols))
        diff = np.max(np.abs(vi - vj), axis=0)
        k = np.unravel_index(int(np.argmax(diff)), diff.shape)
        if diff[k] > worst:
            worst = float(diff[k])
            where = (op.i, op.j, [float(a[q]) for a, q in zip(op.angles, k)])
    return worst, where


def gathered_glue(pieces, atlas):
    """glue's node values through gathered and transposed lattice blocks."""
    lattices = [p.lattice_values() for p in pieces]
    out = []
    for t, c in enumerate(atlas.charts):
        vals = np.zeros((pieces[0].components,) + c.window.axis_counts)
        for op in atlas.partition_transfers[t]:
            block = gathered_block(lattices[op.source], op.cols)
            vals[(slice(None),) + np.ix_(*op.hits)] += op.weights * tensor_transfer(
                op.matrices, block
            )
        out.append(np.moveaxis(vals, 0, -1).reshape(c.window.node_count, -1))
    return out


def section_pieces(atlas, rng):
    return list(random_section(atlas, 1, rng).pieces)


def group_entry_pieces(atlas, rng, name):
    gamma = exp_section(random_algebra_section(atlas, GROUPS[name](), rng))
    return [
        SampledField(c.window, p.reshape(-1, p.shape[-1]).T)
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
    worst, where = compatibility_defect(pieces, atlas)
    ref_worst, ref_where = pointwise_defect(pieces, atlas)
    assert worst > 1e-8
    assert abs(worst - ref_worst) <= 1e-15
    assert where[:2] == ref_where[:2]
    assert np.abs(np.subtract(where[2], ref_where[2])).max() <= 1e-15


@pytest.mark.parametrize("atlas_name", sorted(ATLASES))
def test_transfers_drop_only_all_zero_columns(atlas_name):
    atlas = ATLASES[atlas_name]()
    dropped = 0
    for op in atlas.overlap_transfers:
        for k, mats, cols in ((op.i, op.first, op.first_cols),
                              (op.j, op.second, op.second_cols)):
            c = atlas.charts[k]
            for d, (w, col) in enumerate(zip(mats, cols)):
                full = full_axis_matrix(c, d, op.angles[d])
                assert np.array_equal(scattered(w, col, full.shape[1]), full)
                dropped += full.shape[1] - col.size
    for t, target in enumerate(atlas.charts):
        angles = [
            np.mod(target.window.axis_nodes(d) - PI + target.offset[d], TWO_PI)
            for d in range(atlas.m)
        ]
        for op in atlas.partition_transfers[t]:
            c = atlas.charts[op.source]
            for d, (w, col) in enumerate(zip(op.matrices, op.cols)):
                full = full_axis_matrix(c, d, angles[d][op.hits[d]])
                assert np.array_equal(scattered(w, col, full.shape[1]), full)
                dropped += full.shape[1] - col.size
    assert dropped > 0


@pytest.mark.parametrize("atlas_name", sorted(ATLASES))
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_defect_matches_dense_reference(atlas_name, name):
    atlas = ATLASES[atlas_name]()
    rng = np.random.default_rng(11)
    pieces = group_entry_pieces(atlas, rng, name)
    # Node noise on the last chart gives the defect one clear maximum.
    last = pieces[-1]
    pieces[-1] = SampledField(
        last.domain, last.values + 1e-7 * rng.standard_normal(last.values.shape)
    )
    worst, where = compatibility_defect(pieces, atlas)
    ref_worst, ref_where = dense_defect(pieces, atlas)
    scale = max(float(np.abs(p.values).max()) for p in pieces)
    assert worst > 1e-8
    assert abs(worst - ref_worst) <= 4 * np.finfo(float).eps * scale
    assert where == ref_where


@pytest.mark.parametrize("atlas_name", sorted(ATLASES))
@pytest.mark.parametrize("kind", ["section", "SO3", "SU2", "UT2"])
def test_defect_and_glue_equal_the_gathered_reference_bitwise(atlas_name, kind):
    atlas = ATLASES[atlas_name]()
    rng = np.random.default_rng(13)
    if kind == "section":
        pieces = list(random_section(atlas, 3, rng).pieces)
    else:
        pieces = group_entry_pieces(atlas, rng, kind)
    glued = glue(pieces, atlas)
    for piece, ref in zip(glued.pieces, gathered_glue(pieces, atlas)):
        assert piece.values.tobytes() == ref.tobytes()
    # Node noise on the last chart gives the defect one clear maximum.
    last = pieces[-1]
    pieces[-1] = SampledField(
        last.domain, last.values + 1e-7 * rng.standard_normal(last.values.shape)
    )
    ref = gathered_defect(pieces, atlas)
    assert ref[0] > 1e-8
    assert compatibility_defect(pieces, atlas) == ref


def recording_check(monkeypatch):
    """Record the pieces of every call to the module-global check."""
    seen = []
    check = sections.compatibility_defect

    def recording(pieces, *args, **kwargs):
        seen.append(pieces)
        return check(pieces, *args, **kwargs)

    monkeypatch.setattr(sections, "compatibility_defect", recording)
    return seen


@pytest.mark.parametrize("atlas_name", sorted(ATLASES))
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_section_hands_its_stacks_to_the_check_uncopied(
    atlas_name, name, monkeypatch
):
    atlas = ATLASES[atlas_name]()
    gamma = exp_section(
        random_algebra_section(atlas, GROUPS[name](), np.random.default_rng(17))
    )
    seen = recording_check(monkeypatch)
    GroupSection(atlas, gamma.group, gamma.pieces)
    (lattices,) = seen
    d = gamma.group.dim
    # An exactly realified SU2 stack is checked on the 8 rows of its top half.
    rows = 8 if name == "SU2" else d * d
    for c, lattice, piece in zip(atlas.charts, lattices, gamma.pieces):
        assert lattice.shape == (rows,) + c.window.axis_counts
        assert lattice.flags.c_contiguous
        assert np.shares_memory(lattice, piece)
    entries = [
        SampledField(c.window, p.reshape(d * d, -1).T)
        for c, p in zip(atlas.charts, gamma.pieces)
    ]
    got = compatibility_defect(lattices, atlas)
    assert got == gathered_defect(entries, atlas)


def entry_lattices(atlas, pieces, rows=16):
    """The first ``rows`` entry rows of each (4, 4, K) piece as its lattice."""
    return [p.reshape((16,) + c.window.axis_counts)[:rows] for c, p in zip(atlas.charts, pieces)]


@pytest.mark.parametrize("atlas_name", sorted(ATLASES))
@pytest.mark.parametrize("seed", [23, 29])
def test_top_half_defect_is_the_full_defect_bitwise(atlas_name, seed):
    """On exactly realified SU2 pieces, the defect and worst point of the 8
    top-half rows are those of all 16, on a compatible section and on one
    whose last piece is moved off by an exact product."""
    atlas = ATLASES[atlas_name]()
    g = su2_real()
    rng = np.random.default_rng(seed)
    gamma = exp_section(random_algebra_section(atlas, g, rng))
    moved = list(gamma.pieces)
    moved[-1] = g.multiply(moved[-1], g.exp(1e-6 * rng.standard_normal(3)))
    assert g.exact_fn(moved[-1])
    for pieces, compatible in ((gamma.pieces, True), (moved, False)):
        full = compatibility_defect(entry_lattices(atlas, pieces), atlas)
        half = compatibility_defect(entry_lattices(atlas, pieces, 8), atlas)
        assert repr(half) == repr(full)
        assert (full[0] <= sections.OVERLAP_TOLERANCE) == compatible
    with pytest.raises(IncompatibleSectionError):
        GroupSection(atlas, g, tuple(moved))


@pytest.mark.parametrize("atlas_name", sorted(ATLASES))
def test_pieces_of_the_plain_product_are_checked_on_every_row(atlas_name, monkeypatch):
    """node_product, the SU2 product before it wrote its bottom half from the
    top, leaves the copies unequal; such pieces, as in an older file, keep
    the 16-row check."""
    atlas = ATLASES[atlas_name]()
    g = su2_real()
    rng = np.random.default_rng(37)
    a, b = (exp_section(random_algebra_section(atlas, g, rng)) for _ in range(2))
    pieces = tuple(node_product(pa, pb) for pa, pb in zip(a.pieces, b.pieces))
    seen = recording_check(monkeypatch)
    gamma = GroupSection(atlas, g, pieces)
    assert not all(gamma.exact)
    (lattices,) = seen
    assert [lattice.shape[0] for lattice in lattices] == [16] * atlas.chart_count


@pytest.mark.parametrize("atlas_name", sorted(ATLASES))
def test_a_twin_row_change_in_an_inexact_piece_is_checked(atlas_name, monkeypatch):
    """A piece that fails the witness sends every piece to the check on all
    16 rows, so a change confined to a bottom-half row still fails it."""
    atlas = ATLASES[atlas_name]()
    g = su2_real()
    gamma = exp_section(random_algebra_section(atlas, g, np.random.default_rng(31)))
    pieces = list(gamma.pieces)
    bad = pieces[-1].copy()
    bad[2, 0] += 1e-7  # the second copy of Y(0, 0)
    pieces[-1] = bad
    assert not g.exact_fn(bad)
    half = compatibility_defect(entry_lattices(atlas, pieces, 8), atlas)
    full = compatibility_defect(entry_lattices(atlas, pieces), atlas)
    assert half[0] <= sections.OVERLAP_TOLERANCE < full[0]
    # The relation check would refuse the piece first; lifted, the overlap
    # check alone must see the change.
    monkeypatch.setattr("mapgroups.groups.RELATION_DEFECT_LIMIT", 1.0)
    with pytest.raises(IncompatibleSectionError, match="^group section overlap defect"):
        GroupSection(atlas, g, tuple(pieces))


@pytest.mark.parametrize("atlas_name", sorted(ATLASES))
def test_each_construction_runs_the_check_once(atlas_name, monkeypatch):
    atlas = ATLASES[atlas_name]()
    rng = np.random.default_rng(19)
    sec = random_section(atlas, 2, rng)
    xi = random_algebra_section(atlas, su2_real(), rng)
    gamma = exp_section(xi)
    seen = recording_check(monkeypatch)
    builds = {
        "Section": (lambda: Section(atlas, sec.pieces), 1),
        "GroupSection": (lambda: GroupSection(atlas, gamma.group, gamma.pieces), 1),
        "exp_section": (lambda: exp_section(xi), 1),
        "group_multiply": (lambda: group_multiply(gamma, gamma), 1),
        # glue checks its input, then builds the Section it returns.
        "glue": (lambda: glue(sec.pieces, atlas), 2),
    }
    for what, (build, count) in builds.items():
        seen.clear()
        build()
        assert len(seen) == count, what


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
