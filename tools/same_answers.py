"""Print a digest of every output of a fixed run matrix, one row per output.

Usage::

    python3 tools/same_answers.py [--values DIR] > answers.txt

The program is imported from this checkout's ``src/``.  Each row is
``name value``: a sha256 of an output file or array, an exit code, a
stderr line, or the repr of a number.  Temporary paths never appear, so
running the script on two checkouts and diffing the outputs shows
whether a change keeps every answer.  Run both sides with the same BLAS
thread count (``OPENBLAS_NUM_THREADS=1``): a threaded BLAS changes the
last digits of some sums.

With ``--values DIR`` the script also keeps what it digests, so that
``tools/answer_moves.py`` can say by how much a moved row moved: each
output file as ``DIR/<row name>``, each array as ``DIR/<row name>.npy``,
and the rows themselves as ``DIR/answers.txt``.  The matrix, at seeds 0
and 1:

* every circle2 subcommand, with shrink-domain on disc, ellipse and peanut;
* group-demo and evolve on circle2 and torus4 for SO3, SU2 and UT2;
* evolve on two curve files: the SO3 circle2 test curve and a seeded
  9-sample UT2 curve on torus4;
* glue, point_eval, hilbert_inner, the worst overlap defect, the partition
  weights, the bumps and validate_atlas on both builtin atlases;
* hs_norm of a seeded surface field at orders 0, 1, 2 and 4 in both weight
  conventions, and sample on the full 129-node torus grid and on a torus4
  chart window;
* the chart pieces of a seeded random_section on both builtin atlases, and
  the SU2 exp of a seeded coordinate stack with zero rows and zero entries;
* flow on each domain of a seeded point stack over its bounding box, which
  spans the flow field's core, transition, plateau and outside, plus the
  anchors; and cutoff_multiply of a seeded 3-component field on the
  circle and on the torus;
* the restriction_kernel_basis coefficients of a seeded circle window and
  a seeded torus window, each with a nonempty kernel, in both weight
  conventions;
* BandlimitedField.evaluate at seeded scattered points on curves and
  surfaces with 1 to 3 components, and SampledField.interpolate at seeded
  points of a circle window and of the full 129-node circle and torus.

Then, once, each builtin atlas's file hash and every array of its overlap
and partition transfers.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import inspect
import io
import itertools
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


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def array_digest(arr) -> str:
    arr = np.ascontiguousarray(arr)
    return digest(f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes())


def worst_overlap(pieces, atlas):
    """``compatibility_defect``'s defect and where it lies, also from a
    checkout whose function returns the pair only when given
    ``return_worst=True``."""
    if "return_worst" in inspect.signature(mg.compatibility_defect).parameters:
        return mg.compatibility_defect(pieces, atlas, return_worst=True)
    return mg.compatibility_defect(pieces, atlas)


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
        yield f"{head}/overlap_defect", repr(
            worst_overlap(mean.pieces, atlas)
        )
        grid = atlas.manifold_grid(64)
        yield f"{head}/partition_weights", atlas.partition_weights(grid)
        yield f"{head}/bump_values", atlas.bump_values(points)
        yield f"{head}/validate_atlas", repr(mg.validate_atlas(atlas))
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
    for name in DOMAINS:
        domain = mg.domain_by_name(name)
        lows, highs = np.transpose(domain.bbox)
        pts = np.random.default_rng(seed).uniform(lows, highs, size=(200, 2))
        pts = np.vstack([pts, domain.anchors])
        moved = mg.flow(mg.FlowField(domain), pts, 0.25, 16)
        yield f"s{seed}/{name}/flow", moved
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
        rows = itertools.chain(
            *(itertools.chain(cli_rows(seed, work), library_rows(seed)) for seed in SEEDS),
            atlas_rows(),
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
