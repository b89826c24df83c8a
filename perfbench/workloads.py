"""The benchmark's workloads: seeded inputs, timed ops and output checks.

Each workload turns a seed into input files (run configs, a curve file) or
in-memory inputs (fields, sample points), and into a list of ops.  One pass
runs every op once, in order, from one client in a closed loop.  An op's
``execute`` is the timed part; its ``check`` runs afterwards, untimed, and
raises ``CheckFailed`` when an output is wrong.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import mapgroups as mg
from mapgroups import cli, serialize

# The one known defect.  On torus4, sections built from random algebra
# sections by group-demo miss the fixed 1e-9 overlap tolerance by a small
# factor (1.0-2.3e-9), and `group-demo` exits 2.  SO3 hits it on most
# seeds, SU2 on a few (seed 1).  Such attempts are counted and reported,
# never timed: the SO3 attempt is made once per pass and kept out of every
# timing metric; the timed SU2 group-demo is retried on the next config
# seed, so each pass times one complete run.  A fix then reads as fewer
# known-defect failures, not as a slowdown.
KNOWN_DEFECT = (
    "torus4 group-demo exits 2: overlap defect of 1.0-2.3e-9 exceeds the "
    "fixed 1.0e-9 section tolerance (SO3 on most seeds, SU2 on some)"
)
_KNOWN_DEFECT_ERROR = re.compile(
    r"^error: (group section )?overlap defect \S+ exceeds (tolerance )?1\.0e-09 "
    r"near charts"
)
# Config seed of retry k is seed + k * RETRY_SEED_STRIDE.
RETRY_SEED_STRIDE = 1_000_000
SU2_ATTEMPTS = 4

POINT_EVAL_TOL = 1e-9
SYNTHESIS_TOL = 1e-12
SYMMETRY_TOL = 1e-12


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


class KnownDefect(Exception):
    """An op failed exactly as the documented defect says it does."""


@dataclass
class Op:
    name: str
    # Breakdown metric this op's wall time adds to.
    metric: str
    # execute(ctx) is timed; ctx holds the op's output "dir", the "attempt"
    # number and state shared by the ops of one pass.
    execute: Callable[[dict], object]
    check: Callable[[dict, object], None]
    # Attempts ending in KnownDefect are counted, never timed, and the op
    # moves on to its next attempt, if it has one.
    attempts: int = 1
    # An untimed op is made every pass but kept out of every timing.
    timed: bool = True
    # Whether a KnownDefect outcome is the documented defect (else a failure).
    defect_tolerant: bool = False


@dataclass
class Plan:
    """A prepared workload: its ops, warm-up ops and generated inputs."""

    ops: list[Op]
    # Ops run once, untimed, before timing; their output trees must match
    # the first timed pass byte for byte.
    warmup: tuple[str, ...]
    inputs: list[Path] = field(default_factory=list)

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for path in self.inputs:
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()


# --- CLI ops -------------------------------------------------------------


def cli_op(name: str, metric: str, attempts: list[list[str]], report: str,
           timed: bool = True, defect_tolerant: bool = False) -> Op:
    """In-process `mapgroups` invocations, one argv per attempt, each
    writing its reports into the op's directory."""

    def execute(ctx):
        err = io.StringIO()
        argv = attempts[ctx["attempt"]]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out", str(ctx["dir"])])
        return code, err.getvalue()

    def check(ctx, result):
        code, err = result
        if defect_tolerant and code == 2 and _KNOWN_DEFECT_ERROR.match(err):
            raise KnownDefect(err.strip())
        if code != 0:
            raise CheckFailed(f"exit {code}: {err.strip()}")
        doc = json.loads((ctx["dir"] / report).read_text())
        if doc.get("passed") is not True:
            raise CheckFailed(f"{report} has passed={doc.get('passed')!r}")

    return Op(name, metric, execute, check, len(attempts), timed, defect_tolerant)


def _write_config(work: Path, seed: int, atlas: str, group: str) -> Path:
    path = work / f"config_{atlas}_{group}_{seed}.json"
    serialize.write_json(path, {"seed": seed, "atlas": atlas, "group": group})
    return path


def circle_reports(work: Path, seed: int) -> Plan:
    """All 13 circle2 CLI invocations: every module, cheap 1-D overlaps."""
    configs = {g: _write_config(work, seed, "circle2", g) for g in ("SO3", "SU2", "UT2")}
    base = ["--config", str(configs["SO3"])]
    ops = [
        cli_op("verify-axioms", "verify_axioms_s", [[*base, "verify-axioms"]], "axioms.json"),
        cli_op("norms", "norms_s", [[*base, "norms"]], "norms.json"),
        cli_op("extend", "extend_s", [[*base, "extend"]], "extend.json"),
        cli_op("ladder", "ladder_s", [[*base, "ladder"]], "ladder.json"),
    ]
    for domain in ("disc", "ellipse", "peanut"):
        ops.append(cli_op(f"shrink-domain/{domain}", "shrink_domain_s",
                          [[*base, "shrink-domain", domain]], f"shrink_{domain}.json"))
    for group, path in configs.items():
        ops.append(cli_op(f"group-demo/{group}", "group_demo_s",
                          [["--config", str(path), "group-demo"]], "group_demo.json"))
        ops.append(cli_op(f"evolve/{group}", "evolve_s",
                          [["--config", str(path), "evolve"]], "evolve.json"))
    return Plan(ops, ("verify-axioms",), list(configs.values()))


CURVE_SAMPLES = 9


def torus_groups(work: Path, seed: int) -> Plan:
    """torus4 group ops, dominated by construction-time overlap checks."""
    atlas = mg.builtin_atlas("torus4")
    su2 = [_write_config(work, seed + k * RETRY_SEED_STRIDE, "torus4", "SU2")
           for k in range(SU2_ATTEMPTS)]
    ut2 = _write_config(work, seed, "torus4", "UT2")
    so3 = _write_config(work, seed, "torus4", "SO3")
    rng = np.random.default_rng(seed)
    group = mg.group_by_name("UT2")
    sections = [mg.random_algebra_section(atlas, group, rng) for _ in range(CURVE_SAMPLES)]
    curve = mg.TimeSampledCurve(np.linspace(0.0, 1.0, CURVE_SAMPLES), sections)
    curve_path = work / "curve_ut2_torus4.json"
    serialize.write_json(curve_path, serialize.dump_curve(curve))
    ops = [
        cli_op("group-demo/SU2", "group_demo_s",
               [["--config", str(p), "group-demo"] for p in su2], "group_demo.json",
               defect_tolerant=True),
        cli_op("evolve/SU2", "evolve_s", [["--config", str(su2[0]), "evolve"]], "evolve.json"),
        cli_op("evolve-file/UT2", "evolve_file_s",
               [["--config", str(ut2), "evolve", str(curve_path)]], "evolve.json"),
        cli_op("group-demo/SO3", "group_demo_s", [["--config", str(so3), "group-demo"]],
               "group_demo.json", timed=False, defect_tolerant=True),
    ]
    return Plan(ops, ("evolve-file/UT2",), [*su2, ut2, so3, curve_path])


# --- torus section pipeline ----------------------------------------------

LOW_ORDER = 3
SAMPLE_MODES = 32
SAMPLE_RESOLUTION = 129
POINTS = 2000


def torus_sections(work: Path, seed: int) -> Plan:
    """One library pipeline instance per pass on torus4 sections."""
    atlas = mg.builtin_atlas("torus4")
    rng = np.random.default_rng(seed)
    f1 = mg.random_field(2, LOW_ORDER, 2, rng)
    f2 = mg.random_field(2, LOW_ORDER, 2, rng)
    wide = mg.random_field(2, SAMPLE_MODES, 2, rng)
    points = rng.uniform(0.0, 2.0 * np.pi, size=(POINTS, 2))
    grid = mg.GridDomain.full_torus(2, SAMPLE_RESOLUTION)
    target = (f1 + f2).scaled(0.5)
    inputs = []
    for name, array in (("f1", f1.coeffs), ("f2", f2.coeffs),
                        ("wide", wide.coeffs), ("points", points)):
        inputs.append(work / f"section_input_{name}.npy")
        np.save(inputs[-1], array)

    def build(ctx):
        s1 = mg.section_from_function(atlas, f1.evaluate)
        s2 = mg.section_from_function(atlas, f2.evaluate)
        ctx["s1"], ctx["s2"] = s1, s2
        ctx["mean"] = (s1 + s2).scaled(0.5)

    def check_build(ctx, _):
        # Construction enforces overlap compatibility; the values are
        # checked against the fields once point_eval reads them back.
        pass

    def do_glue(ctx):
        ctx["glued"] = mg.glue(ctx["mean"].pieces, atlas)

    def check_glue(ctx, _):
        gap = max(float(np.abs(a.values - b.values).max())
                  for a, b in zip(ctx["glued"].pieces, ctx["mean"].pieces))
        if gap > ctx["glued"].tolerance:
            raise CheckFailed(f"glue moved node values by {gap:.3e}")

    def do_point_eval(ctx):
        return mg.point_eval(ctx["glued"], points)

    def check_point_eval(ctx, values):
        gap = float(np.abs(values - target.evaluate(points)).max())
        if gap > POINT_EVAL_TOL:
            raise CheckFailed(f"point_eval differs from evaluate by {gap:.3e}")

    def do_inner(ctx):
        return (mg.hilbert_inner(ctx["s1"], ctx["s2"], 1.0),
                mg.hilbert_inner(ctx["s2"], ctx["s1"], 1.0))

    def check_inner(ctx, pair):
        ab, ba = pair
        if abs(ab - ba) > SYMMETRY_TOL * max(1.0, abs(ab)):
            raise CheckFailed(f"hilbert_inner asymmetric: {ab!r} vs {ba!r}")

    def do_fourier(ctx):
        return mg.synthesize(mg.sample(wide, grid), SAMPLE_MODES)

    def check_fourier(ctx, back):
        gap = float(np.abs(back.coeffs - wide.coeffs).max())
        if gap > SYNTHESIS_TOL:
            raise CheckFailed(f"synthesize(sample(f)) off by {gap:.3e}")

    def do_round_trip(ctx):
        path = ctx["dir"] / "section.json"
        serialize.write_json(path, serialize.dump_section(ctx["glued"]))
        return serialize.load_section(serialize.read_json(path))

    def check_round_trip(ctx, loaded):
        for a, b in zip(ctx["glued"].pieces, loaded.pieces):
            if a.values.dtype != b.values.dtype or a.values.tobytes() != b.values.tobytes():
                raise CheckFailed("load_section(dump_section(s)) is not bitwise equal")

    metric = "section_pipeline_s"
    ops = [
        Op("section-from-function", metric, build, check_build),
        Op("glue", metric, do_glue, check_glue),
        Op("point-eval", metric, do_point_eval, check_point_eval),
        Op("hilbert-inner", metric, do_inner, check_inner),
        Op("sample-synthesize", metric, do_fourier, check_fourier),
        Op("dump-load", metric, do_round_trip, check_round_trip),
    ]
    return Plan(ops, tuple(op.name for op in ops), inputs)


WORKLOADS = {
    "circle-reports": circle_reports,
    "torus-groups": torus_groups,
    "torus-sections": torus_sections,
}

# Breakdown metrics: the summed wall time of one pass's ops, by kind.
BREAKDOWN = (
    "verify_axioms_s",
    "norms_s",
    "extend_s",
    "ladder_s",
    "shrink_domain_s",
    "group_demo_s",
    "evolve_s",
    "evolve_file_s",
    "section_pipeline_s",
)
