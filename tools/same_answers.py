"""Print a digest of every output of a fixed run matrix, one row per output.

Usage::

    python3 tools/same_answers.py [--values DIR] > answers.txt

The program is imported from this checkout's ``src/``.  Each row is
``name value``: a sha256 of an output file or array, an exit code, a
stderr line, or the repr of a number.  Temporary paths never appear, so
running the script on two checkouts and diffing the outputs shows
whether a change keeps every answer.  The first rows call ``cli.main``,
which runs numpy's OpenBLAS on one thread for the rest of the process, so
the rows are the same at any ``OPENBLAS_NUM_THREADS``.

With ``--values DIR`` the script also keeps what it digests, so that
``tools/answer_moves.py`` can say by how much a moved row moved: each
output file as ``DIR/<row name>``, each array as ``DIR/<row name>.npy``,
and the rows themselves as ``DIR/answers.txt``.  The matrix, at seeds 0
and 1:

* every circle2 subcommand, with shrink-domain on disc, ellipse and peanut;
* group-demo and evolve on circle2 and torus4 for SO3, SU2 and UT2;
* evolve on three curve files: the SO3 circle2 test curve, a seeded
  9-sample UT2 curve on torus4, and a 65-sample circle2 UT2 curve that is 0
  but for a last sample of (-1000, 0, 0) at every node, whose RK4 factors
  blow up; and the node coordinates and values of every piece of the seeded
  UT2 curve after a dump_curve/load_curve round trip;
* glue, point_eval, hilbert_inner, the worst overlap defect, the partition
  weights, the bumps and validate_atlas on both builtin atlases, and the
  pieces and relation defects of a seeded SU2 product after a
  dump_group_section/load_group_section round trip through canonical_json;
* hs_norm of a seeded surface field at orders 0, 1, 2 and 4 in both weight
  conventions, and sample on the full 129-node torus grid and on a torus4
  chart window;
* the chart pieces of a seeded random_section on both builtin atlases, and
  the SU2 exp of a seeded coordinate stack with zero rows and zero entries;
* project of seeded drifted stacks of group values of 139 nodes (a circle2
  window) and 4,900 (a torus4 window): SO3 at drifts 1e-9, 1e-6 and 1e-3,
  SU2 at 1e-9 with the bottom half copied from the top, so that the stack
  stays realified, and UT2 at 1e-6; the SO3 relation_defect of a seeded
  stack at drift 0 and 1e-9; the SU2 relation_defect of seeded realified
  stacks of 139 and 4,900 nodes at drifts 0, 1e-9 and 1e-3; the SO3 and
  SU2 relation_defect of a seeded 139-node stack whose nodes are scaled in
  turn by 1e200, 1e120 and 1, so that its defects hold NaN and inf; and
  from_matrix(to_matrix(v)) of seeded coordinates for each group;
* boundary_samples(domain, 200, rng) of a seeded generator on each domain;
* flow on each domain of a seeded point stack over its bounding box, which
  spans the flow field's core, transition, plateau and outside, plus the
  anchors: at 16 steps, as one 64-step stack whose rows take 0.025 or
  +-DESCENT_OFFSET, and as three chained flows of 0.025, 0.05 and 0.025 in
  64, 128 and 64 steps; and cutoff_multiply of a seeded 3-component field on the
  circle and on the torus;
* the restriction_kernel_basis coefficients of a seeded circle window and
  a seeded torus window, each with a nonempty kernel, in both weight
  conventions;
* BandlimitedField.evaluate at seeded scattered points on curves and
  surfaces with 1 to 3 components, and SampledField.interpolate at seeded
  points of a circle window and of the full 129-node circle and torus, and
  with 1 to 3 components at seeded points of a torus4 chart window, a third
  of them within one stencil of its corners;
* BandlimitedField.evaluate on tensor grids: at each torus4 chart's window
  points with 1 to 3 components, at the nodes of the full 129-node torus,
  at a shuffled torus4 chart window with repeated rows, at the chart's
  window in F order and with its last point or its last row of points
  repeated, at a 1 x n and an n x 1 grid of its angles, and at a single
  seeded point;
* hilbert_inner of the same two sections after a dump/load round trip.

Then, once, each builtin atlas's file hash and every array of its overlap
and partition transfers; and, in both weight conventions,
critical_order_estimate at alpha 1, 1.5 and 2 and decay_partial_norm_sq at
the cuts 32 to 32768 of the ladder's growth ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import mapgroups as mg  # noqa: E402
from mapgroups import cli, serialize  # noqa: E402

SEEDS = (0, 1)
GROUPS = ("SO3", "SU2", "UT2")
DOMAINS = ("disc", "ellipse", "peanut")
CURVE_SAMPLES = 9
SPIKE_SAMPLES = 65
PROJECT_NODES = (139, 4900)
PROJECT_DRIFTS = {"SO3": (1e-9, 1e-6, 1e-3), "SU2": (1e-9,), "UT2": (1e-6,)}
DEFECT_DRIFTS = (0.0, 1e-9, 1e-3)
# Node scales of the overflow rows: entry products of 1e200 overflow to inf
# and their sums to NaN, the triple product of 1e120 overflows, 1 does not.
OVERFLOW_SCALES = (1e200, 1e120, 1.0)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_digest(arr) -> str:
    arr = np.ascontiguousarray(arr)
    return digest(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())


def run_cli(name: str, argv: list[str], work: Path):
    """Rows of one in-process CLI run: exit code, stdout and stderr lines,
    and the bytes of each file it wrote."""
    out = work / name.replace("/", "_")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--out", str(out)])
    yield name, f"exit {code}"
    for stream, text in (("stdout", stdout), ("stderr", stderr)):
        for line in text.getvalue().splitlines():
            yield name, f"{stream} {line.replace(str(work), '<work>')}"
    for path in sorted(out.glob("*")) if out.is_dir() else ():
        yield f"{name}/{path.name}", path.read_bytes()


def config(work: Path, seed: int, atlas: str, group: str) -> str:
    path = work / f"config_{atlas}_{group}_{seed}.json"
    serialize.write_json(path, {"seed": seed, "atlas": atlas, "group": group})
    return str(path)


def cli_rows(seed: int, work: Path):
    base = ["--config", config(work, seed, "circle2", "SO3")]
    for command in ("verify-axioms", "norms", "extend", "ladder"):
        yield from run_cli(f"s{seed}/circle2/{command}", [*base, command], work)
    for domain in DOMAINS:
        yield from run_cli(
            f"s{seed}/circle2/shrink-domain/{domain}", [*base, "shrink-domain", domain], work
        )
    for atlas in ("circle2", "torus4"):
        for group in GROUPS:
            cfg = ["--config", config(work, seed, atlas, group)]
            for command in ("group-demo", "evolve"):
                yield from run_cli(f"s{seed}/{atlas}/{command}/{group}", [*cfg, command], work)
    so3_curve = str(ROOT / "tests" / "data" / "curve_so3_3.json")
    yield from run_cli(f"s{seed}/evolve-file/SO3", [*base, "evolve", so3_curve], work)
    atlas = mg.builtin_atlas("torus4")
    group = mg.group_by_name("UT2")
    rng = np.random.default_rng(seed)
    sections = [mg.random_algebra_section(atlas, group, rng) for _ in range(CURVE_SAMPLES)]
    curve = mg.TimeSampledCurve(np.linspace(0.0, 1.0, CURVE_SAMPLES), sections)
    ut2_curve = work / f"curve_ut2_torus4_{seed}.json"
    serialize.write_json(ut2_curve, serialize.dump_curve(curve))
    cfg = ["--config", config(work, seed, "torus4", "UT2")]
    yield from run_cli(f"s{seed}/evolve-file/UT2", [*cfg, "evolve", str(ut2_curve)], work)
    loaded = serialize.load_curve(serialize.dump_curve(curve))
    for k, s in enumerate(loaded.sections):
        for j, p in enumerate(s.section.pieces):
            yield f"s{seed}/curve_round_trip/UT2/section{k}/piece{j}", np.column_stack(
                [p.domain.nodes(), p.values]
            )
    spiked = work / "curve_ut2_spiked.json"
    serialize.write_json(spiked, serialize.dump_curve(spiked_ut2_curve()))
    cfg = ["--config", config(work, seed, "circle2", "UT2")]
    yield from run_cli(f"s{seed}/evolve-file/UT2-spiked", [*cfg, "evolve", str(spiked)], work)


def spiked_ut2_curve():
    """A circle2 UT2 curve of SPIKE_SAMPLES samples, 0 at every node but for
    the last, (-1000, 0, 0): its time-1 diagonal comes out negative."""
    atlas = mg.builtin_atlas("circle2")
    group = mg.group_by_name("UT2")

    def constant(value):
        pieces = tuple(
            mg.SampledField(c.window, np.tile(value, (c.window.node_count, 1)))
            for c in atlas.charts
        )
        return mg.AlgebraSection(group, mg.Section(atlas, pieces))

    zero, spike = constant([0.0, 0.0, 0.0]), constant([-1000.0, 0.0, 0.0])
    sections = (zero,) * (SPIKE_SAMPLES - 1) + (spike,)
    return mg.TimeSampledCurve(np.linspace(0.0, 1.0, SPIKE_SAMPLES), sections)


def drifted_stack(group, rng, nodes: int, drift: float):
    """``group.exp`` of seeded coordinates in the product-safe ball, every
    entry then moved by ``drift`` times a standard normal; on SU2 the bottom
    half of the entry rows is then rewritten from the top half, so that the
    stack stays realified."""
    coords = group.v_radius * rng.uniform(-1.0, 1.0, size=(nodes, group.algebra_dim))
    mats = group.exp(coords) + drift * rng.standard_normal((group.dim, group.dim, nodes))
    if group.name == "SU2":
        mats[2:, :2] = -mats[:2, 2:]
        mats[2:, 2:] = mats[:2, :2]
    return mats


def group_rows(seed: int):
    """project of drifted stacks, the from_matrix/to_matrix round trip, and
    the SO3 and SU2 relation_defect, each on seeded input."""
    rng = np.random.default_rng(seed)
    for name in GROUPS:
        group = mg.group_by_name(name)
        for drift in PROJECT_DRIFTS[name]:
            for nodes in PROJECT_NODES:
                mats = drifted_stack(group, rng, nodes, drift)
                yield f"s{seed}/project/{name}/drift{drift:g}/n{nodes}", group.project(mats)
        coords = rng.standard_normal((PROJECT_NODES[-1], group.algebra_dim))
        yield f"s{seed}/from_matrix/{name}", group.from_matrix(group.to_matrix(coords))
    so3 = mg.so3()
    for drift in (0.0, 1e-9):
        mats = drifted_stack(so3, rng, PROJECT_NODES[-1], drift)
        yield f"s{seed}/relation_defect/SO3/drift{drift:g}", so3.relation_defect(mats)
    su2 = mg.su2_real()
    for drift in DEFECT_DRIFTS:
        for nodes in PROJECT_NODES:
            mats = drifted_stack(su2, rng, nodes, drift)
            name = f"s{seed}/relation_defect/SU2/drift{drift:g}/n{nodes}"
            yield name, su2.relation_defect(mats)
    for group in (so3, su2):
        mats = drifted_stack(group, rng, PROJECT_NODES[0], 1e-3)
        for offset, scale in enumerate(OVERFLOW_SCALES):
            mats[..., offset :: len(OVERFLOW_SCALES)] *= scale
        # The row is the defect array; where numpy warns of the overflow is
        # not an answer.
        with np.errstate(over="ignore", invalid="ignore"):
            defect = group.relation_defect(mats)
        yield f"s{seed}/relation_defect/{group.name}/overflow", defect


def su2_round_trip_rows(atlas, rng, head: str):
    """The pieces and relation defects of a seeded SU2 product after a
    dump_group_section, canonical_json and load_group_section round trip."""
    su2 = mg.su2_real()
    product = mg.group_multiply(
        *(mg.exp_section(mg.random_algebra_section(atlas, su2, rng)) for _ in range(2))
    )
    text = serialize.canonical_json(serialize.dump_group_section(product))
    loaded = serialize.load_group_section(json.loads(text))
    for j, p in enumerate(loaded.pieces):
        yield f"{head}/su2_round_trip/piece{j}", p
    yield f"{head}/su2_round_trip/relation_defects", repr(loaded.relation_defects)


def library_rows(seed: int):
    for name in ("circle2", "torus4"):
        atlas = mg.builtin_atlas(name)
        head = f"s{seed}/{name}"
        rng = np.random.default_rng(seed)
        f1 = mg.random_field(atlas.m, 3, 2, rng)
        f2 = mg.random_field(atlas.m, 3, 2, rng)
        s1 = mg.section_from_function(atlas, f1.evaluate)
        s2 = mg.section_from_function(atlas, f2.evaluate)
        mean = (s1 + s2).scaled(0.5)
        glued = mg.glue(mean.pieces, atlas)
        for j, p in enumerate(glued.pieces):
            yield f"{head}/glue/piece{j}", p.values
        points = rng.uniform(0.0, 2.0 * np.pi, size=(200, atlas.m))
        yield f"{head}/point_eval", mg.point_eval(glued, points)
        total, detail = mg.hilbert_inner(s1, s2, 1.0, return_detail=True)
        yield f"{head}/hilbert_inner", repr((total, detail))
        loaded = [serialize.load_section(serialize.dump_section(s)) for s in (s1, s2)]
        yield f"{head}/hilbert_inner_loaded", repr(
            mg.hilbert_inner(*loaded, 1.0, return_detail=True)
        )
        yield f"{head}/overlap_defect", repr(mg.compatibility_defect(mean.pieces, atlas))
        grid = atlas.manifold_grid(64)
        yield f"{head}/partition_weights", atlas.partition_weights(grid)
        yield f"{head}/bump_values", atlas.bump_values(points)
        yield f"{head}/validate_atlas", repr(mg.validate_atlas(atlas))
        yield from su2_round_trip_rows(atlas, np.random.default_rng(seed), head)
    rng = np.random.default_rng(seed)
    field = mg.random_field(2, 12, 2, rng)
    for convention in mg.CONVENTIONS:
        for order in (0.0, 1.0, 2.0, 4.0):
            name = f"s{seed}/hs_norm/{convention}/s{order:g}"
            yield name, repr(mg.hs_norm(field, order, convention))
    full = mg.GridDomain.full_torus(2, 129)
    window = mg.builtin_atlas("torus4").charts[0].window
    for name, grid in (("full", full), ("window", window)):
        yield f"s{seed}/sample/{name}", mg.sample(field, grid).values
    for name in ("circle2", "torus4"):
        sec = mg.random_section(mg.builtin_atlas(name), 3, np.random.default_rng(seed))
        for j, p in enumerate(sec.pieces):
            yield f"s{seed}/{name}/random_section/piece{j}", p.values
    coords = np.random.default_rng(seed).standard_normal((4900, 3))
    coords[::7] = 0.0
    coords[3::11, 1] = 0.0
    yield f"s{seed}/su2_exp", mg.su2_real().exp(coords)
    yield from group_rows(seed)
    for name in DOMAINS:
        domain = mg.domain_by_name(name)
        samples = mg.boundary_samples(domain, 200, np.random.default_rng(seed))
        yield f"s{seed}/{name}/boundary_samples", samples
        lows, highs = np.transpose(domain.bbox)
        pts = np.random.default_rng(seed).uniform(lows, highs, size=(200, 2))
        pts = np.vstack([pts, domain.anchors])
        yield f"s{seed}/{name}/flow", mg.flow(domain, pts, 0.25, 16)
        offset = mg.domains.DESCENT_OFFSET
        mixed = np.vstack([pts, pts[:40], pts[:40]])
        times = np.repeat([0.025, offset, -offset], [len(pts), 40, 40])
        yield f"s{seed}/{name}/flow_mixed_times", mg.flow(domain, mixed, times, 64)
        chained = pts
        for t, steps in ((0.025, 64), (0.05, 128), (0.025, 64)):
            chained = mg.flow(domain, chained, t, steps)
        yield f"s{seed}/{name}/flow_chained", chained
    for m, modes in ((1, 12), (2, 6)):
        h = mg.SmoothCutoff(np.full(m, np.pi), np.full(m, 2.0))
        field = mg.random_field(m, modes, 3, np.random.default_rng(seed))
        yield f"s{seed}/cutoff_multiply/m{m}", mg.cutoff_multiply(h, field).coeffs
    rng = np.random.default_rng(seed)
    for m, modes, resolution in ((1, 20, 129), (2, 4, 33)):
        lows = rng.uniform(0.1, 2.5, size=m)
        window = [(lo, lo + w) for lo, w in zip(lows, rng.uniform(1.0, 1.5, size=m))]
        grid = mg.GridDomain.box(window, resolution)
        s = float(rng.uniform(0.5, 3.0))
        for convention in mg.CONVENTIONS:
            kernel = mg.restriction_kernel_basis(grid, s, modes, convention)
            yield f"s{seed}/restriction_kernel_basis/m{m}/{convention}", kernel.coeffs
    rng = np.random.default_rng(seed)
    for m in (1, 2):
        points = rng.uniform(-1.0, 2.0 * np.pi + 1.0, size=(300, m))
        for components in (1, 2, 3):
            field = mg.random_field(m, 6, components, rng)
            yield f"s{seed}/evaluate/m{m}/n{components}", field.evaluate(points)
    window = mg.GridDomain.box(((0.7, 3.9),), 129)
    grids = (("circle-window", window), *(
        (f"full-m{m}", mg.GridDomain.full_torus(m, 129)) for m in (1, 2)
    ))
    for name, grid in grids:
        values = mg.sample(mg.random_field(grid.m, 8, 2, rng), grid)
        lows, highs = np.transpose(grid.window)
        points = rng.uniform(lows + 0.05, highs - 0.05, size=(300, grid.m))
        yield f"s{seed}/interpolate/{name}", values.interpolate(points)
    rng = np.random.default_rng(seed)
    window = mg.builtin_atlas("torus4").charts[0].window
    lows, highs = np.transpose(window.window)
    # A third of the points lie within one stencil width of a window corner,
    # some of them outside the outermost nodes.
    edge = mg.fields.INTERP_POINTS * 2.0 * np.pi / window.resolution[0]
    near = rng.uniform(1e-3, 1.0, size=(100, 2)) * edge
    points = np.vstack(
        [rng.uniform(lows, highs, size=(200, 2)), lows + near[:50], highs - near[50:]]
    )
    for components in (1, 2, 3):
        values = mg.sample(mg.random_field(2, 8, components, rng), window)
        yield f"s{seed}/interpolate/torus4-window/n{components}", values.interpolate(points)
    rng = np.random.default_rng(seed)
    torus4 = mg.builtin_atlas("torus4")
    for components in (1, 2, 3):
        field = mg.random_field(2, 6, components, rng)
        for j, c in enumerate(torus4.charts):
            yield f"s{seed}/evaluate/torus4-window{j}/n{components}", field.evaluate(
                c.window_points
            )
    nodes = mg.GridDomain.full_torus(2, 129).nodes()
    yield f"s{seed}/evaluate/full-m2", field.evaluate(nodes)
    window = torus4.charts[0].window_points
    repeated = np.vstack([window, window[: len(window) // 3]])
    yield f"s{seed}/evaluate/shuffled-window", field.evaluate(rng.permutation(repeated))
    x0, x1 = torus4.charts[0].window_angles()
    xx, yy = np.meshgrid(x0, x1, indexing="xy")
    point_sets = {
        "f-order-window": np.column_stack([xx.ravel(), yy.ravel()]),
        "window-last-point-twice": np.vstack([window, window[-1:]]),
        "window-last-row-twice": np.vstack([window, window[-x1.size:]]),
        "1xn-grid": mg.fields.tensor_points([x0[:1], x1]),
        "nx1-grid": mg.fields.tensor_points([x0, x1[:1]]),
        "single-point": rng.uniform(0.0, 2.0 * np.pi, size=(1, 2)),
    }
    for name, points in point_sets.items():
        yield f"s{seed}/evaluate/{name}", field.evaluate(points)


def atlas_rows():
    for name in ("circle2", "torus4"):
        atlas = mg.builtin_atlas(name)
        yield f"{name}/atlas_hash", serialize.atlas_hash(atlas)
        ops = [(f"overlap_transfers/{op.i}-{op.j}", op) for op in atlas.overlap_transfers]
        ops += [
            (f"partition_transfers/{target}/{op.source}", op)
            for target, table in enumerate(atlas.partition_transfers)
            for op in table
        ]
        for label, op in ops:
            for field in dataclasses.fields(op):
                value = getattr(op, field.name)
                if isinstance(value, np.ndarray):
                    yield f"{name}/{label}/{field.name}", value
                elif isinstance(value, tuple):
                    for d, arr in enumerate(value):
                        yield f"{name}/{label}/{field.name}{d}", arr


def ladder_rows():
    cuts = [mg.limits.RATIO_START * 2**j for j in range(mg.limits.RATIO_WINDOW + 1)]
    for convention in mg.CONVENTIONS:
        for alpha in (1.0, 1.5, 2.0):
            head = f"{convention}/alpha{alpha:g}"
            yield f"{head}/critical_order_estimate", repr(
                mg.critical_order_estimate(alpha, convention)
            )
            for s in (0.5, 1.0, 2.5):
                sums = [mg.decay_partial_norm_sq(alpha, s, n, convention) for n in cuts]
                yield f"{head}/decay_partial_norm_sq/s{s:g}", repr(sums)


def row_text(name: str, value, values: Path | None) -> str:
    """The printed value of a row: the digest of an array or of a file's
    bytes, kept under ``values`` when given, or the text itself."""
    if isinstance(value, str):
        return value
    if values is not None:
        kept = values / name
        kept.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(value, bytes):
            kept.write_bytes(value)
        else:
            np.save(kept.with_name(kept.name + ".npy"), np.ascontiguousarray(value))
    return digest(value) if isinstance(value, bytes) else array_digest(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--values", type=Path, help="keep each digested array and file here")
    values = parser.parse_args(argv).values
    lines = []
    with tempfile.TemporaryDirectory(prefix="same-answers-") as tmp:
        work = Path(tmp)
        # CLI rows first: cli.main sets the process profile that pins BLAS
        # threads before any library row sums anything.
        rows = itertools.chain(
            *(itertools.chain(cli_rows(seed, work), library_rows(seed)) for seed in SEEDS),
            atlas_rows(),
            ladder_rows(),
        )
        for name, value in rows:
            line = f"{name} {row_text(name, value, values)}"
            print(line)
            lines.append(line)
    if values is not None:
        (values / "answers.txt").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
