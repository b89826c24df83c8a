"""Benchmark for mapgroups.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload circle-reports --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py): circle-reports, torus-groups, torus-sections.
One client drives the program in a closed loop from this process: it calls
``mapgroups.cli.main`` in process for the report workloads and the library
API for the section pipeline.  Passes over the workload's ops repeat for
``--seconds`` (at least one pass; with ``--trace 1``, half the time
untraced and half traced).  Every op's output is checked.

``--trace 0`` reports the end-to-end metrics: setup_s (median of fresh
set-up processes), pass_vs_ref and peak_rss_mb.  pass_vs_ref is the mean
time of an untraced pass divided by the mean time of a fixed reference
kernel (reference.py), timed every quarter second while those ops run.  A
shared 2-core VM runs 10-60% slower for stretches of a second to minutes,
long enough to slow a whole run; the ratio cancels what slows both.  In 10
runs per workload on such a VM, the ratio spread (quartile distance over
median) by 0.025-0.061 where the raw pass floor spread by 0.12-0.18.  The
summary line still gives the pass time in seconds (median, tail, sample
count) and the pass floor: one pass's ops, each at its fastest time in the
run.

``--trace 1`` times half the passes untraced and half with every listed
layer call wrapped (tracer.py), reports per-layer calls, self time and
counters, the breakdown of a pass by op kind and the tracing overhead,
writes the spans to ``.perfbench_out/trace-<workload>-seed<n>.json`` and
times the tier-1 suite.

The last line of stdout is the result object; lines before it hold the
machine fingerprint and a summary with medians, tail percentiles and sample
counts.  Exit status: 0 when every check passed, 1 otherwise (also when the
program's sources are missing).
"""

from __future__ import annotations

import os
import sys

# Pin BLAS threads before numpy is first imported, here and in children.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fresh set-up processes per run: at least SETUP_MIN, and more, up to
# SETUP_MAX, while they have taken under SETUP_BUDGET_S in all.
SETUP_MIN = 3
SETUP_MAX = 7
SETUP_BUDGET_S = 6.0
TIER1_TIMEOUT_S = 120

# Wall time between two timings of the reference kernel.
REFERENCE_EVERY_S = 0.25

END_TO_END = {"setup_s": "s", "pass_vs_ref": "ratio", "peak_rss_mb": "MB"}


def import_program():
    """Import mapgroups from this checkout's sources, never from elsewhere."""
    if not (SRC / "mapgroups" / "__init__.py").is_file():
        sys.exit(f"error: mapgroups sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import mapgroups

    if Path(mapgroups.__file__).resolve().parent != (SRC / "mapgroups").resolve():
        sys.exit(f"error: imported mapgroups from {mapgroups.__file__}, not {SRC}")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of a traced run, with its unit."""
    import tracer
    import workloads as wl

    units = {name: "s" for name in wl.BREAKDOWN}
    units["failed_ops"] = "ratio"
    units["known_defect_failures"] = "count"
    units["trace_overhead_s"] = "s"
    for span, _, _ in tracer.TRACED:
        units[f"{span}.calls"] = "count"
        units[f"{span}.self_s"] = "s"
    for name in tracer.counter_names():
        suffix = name.rsplit(".", 1)[1]
        units[name] = {"distinct_ratio": "ratio", "bytes": "B"}.get(suffix, "count")
    return units


@dataclass
class PassResult:
    # Wall time of each timed op's passing attempt.
    op_s: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    known_defect: int = 0
    # Op ids whose layer spans count towards per-layer metrics.
    layer_ops: list[int] = field(default_factory=list)

    @property
    def pass_s(self) -> float:
        return sum(self.op_s.values())


class Runner:
    """Runs ops of a prepared plan and keeps the run's failure log."""

    def __init__(self, plan):
        self.plan = plan
        # Set to a tracer.Tracer while traced passes run.
        self.tracer = None
        # Set to a reference.Sampler while untraced passes run.
        self.sampler = None
        self.next_op = 0
        self.errors: list[str] = []
        self.defects: list[str] = []

    def run_pass(self, directory: Path, names=None) -> PassResult:
        import workloads as wl

        res = PassResult()
        ctx: dict = {}
        for op in self.plan.ops:
            if names is not None and op.name not in names:
                continue
            for attempt in range(op.attempts):
                ctx["dir"] = directory / op.name.replace("/", "_") / str(attempt)
                ctx["dir"].mkdir(parents=True)
                ctx["attempt"] = attempt
                op_id = self.next_op
                self.next_op += 1
                res.attempted += 1
                try:
                    paused = self.paused_s()
                    self.count_reference(op.timed)
                    start = time.perf_counter()
                    try:
                        if self.tracer is None:
                            result = op.execute(ctx)
                        else:
                            with self.tracer.op_span(op_id, f"op.{op.name}"):
                                result = op.execute(ctx)
                    finally:
                        self.count_reference(False)
                    elapsed = time.perf_counter() - start - (self.paused_s() - paused)
                    op.check(ctx, result)
                except wl.KnownDefect as exc:
                    res.known_defect += 1
                    self.defects.append(f"{op.name} attempt {attempt}: {exc}")
                    continue
                except wl.CheckFailed as exc:
                    res.failed += 1
                    self.errors.append(f"{op.name}: {exc}")
                    break
                except Exception:  # an op that raises is a failed op; keep going
                    res.failed += 1
                    self.errors.append(f"{op.name}: {traceback.format_exc()}")
                    break
                if op.timed:
                    res.op_s[op.name] = elapsed
                    res.layer_ops.append(op_id)
                break
            else:
                if op.timed:
                    res.failed += 1
                    self.errors.append(f"{op.name}: every attempt hit the known defect")
        return res

    def paused_s(self) -> float:
        """Wall time spent so far in the reference sampler."""
        return self.sampler.paused_s if self.sampler is not None else 0.0

    def count_reference(self, on: bool) -> None:
        """Sample the reference kernel only while a timed op runs."""
        if self.sampler is not None:
            self.sampler.counting = on

    def run_passes(self, work: Path, tag: str, seconds: float, reference: Path | None):
        """One pass, then more while the next one, taking as long as the
        last, still ends within ``seconds``.  The first pass's report
        tree is compared with ``reference`` (the warm-up tree)."""
        passes = []
        deadline = time.perf_counter() + seconds
        last = 0.0
        while not passes or time.perf_counter() + last <= deadline:
            start = time.perf_counter()
            directory = work / f"{tag}-{len(passes)}"
            passes.append(self.run_pass(directory))
            if reference is not None and len(passes) == 1:
                self.compare_trees(reference, directory)
            shutil.rmtree(directory)
            last = time.perf_counter() - start
        return passes

    def compare_trees(self, warm: Path, first: Path) -> None:
        """Same seed, same inputs: the report trees must be byte-identical."""
        for name in self.plan.warmup:
            sub = name.replace("/", "_")
            a = {p.relative_to(warm / sub): p for p in (warm / sub).rglob("*") if p.is_file()}
            b = {p.relative_to(first / sub): p for p in (first / sub).rglob("*") if p.is_file()}
            if a.keys() != b.keys():
                self.errors.append(f"{name}: report trees list different files")
            for rel in sorted(a.keys() & b.keys()):
                if a[rel].read_bytes() != b[rel].read_bytes():
                    self.errors.append(f"{name}: {rel} differs between two runs of one seed")


def prepare(workload: str, work: Path, seed: int):
    import workloads as wl

    work.mkdir(parents=True, exist_ok=True)
    return wl.WORKLOADS[workload](work, seed)


def setup_probe(args, work: Path) -> int:
    """Child process: import, build atlas/group, generate inputs, run the
    warm-up ops once; print the input digest."""
    plan = prepare(args.workload, work / "inputs", args.seed)
    runner = Runner(plan)
    runner.run_pass(work / "warm", set(plan.warmup))
    print(json.dumps({"digest": plan.input_digest(), "errors": runner.errors}))
    return 0 if not runner.errors else 1


def measure_setup(args, work: Path, digest: str, errors: list[str]) -> list[float]:
    times = []
    while len(times) < SETUP_MIN or (len(times) < SETUP_MAX and sum(times) < SETUP_BUDGET_S):
        k = len(times)
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe", str(work / f"probe-{k}")]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            errors.append(f"setup probe {k} exited {proc.returncode}: {proc.stderr.strip()}")
            continue
        child = json.loads(lines[-1])
        errors.extend(f"setup probe {k}: {e}" for e in child["errors"])
        if child["digest"] != digest:
            errors.append(f"setup probe {k}: inputs differ for the same seed")
    return times


def tail(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(values), "min": min(values), "count": len(values)}
    n = len(values)
    if n > 10:
        rank = n - 10
        out[f"p{100.0 * rank / n:.1f}"] = sorted(values)[rank - 1]
    return out


def breakdown(plan, passes) -> dict[str, list[float]]:
    """Summed wall time per breakdown metric, one value per pass."""
    kinds = {op.name: op.metric for op in plan.ops}
    out: dict[str, list[float]] = {}
    for p in passes:
        sums: dict[str, float] = {}
        for name, seconds in p.op_s.items():
            sums[kinds[name]] = sums.get(kinds[name], 0.0) + seconds
        for metric, value in sums.items():
            out.setdefault(metric, []).append(value)
    return out


def pass_floor(passes) -> float:
    """Sum over ops of each op's fastest time in the run."""
    fastest: dict[str, float] = {}
    for p in passes:
        for name, seconds in p.op_s.items():
            fastest[name] = min(seconds, fastest.get(name, seconds))
    return sum(fastest.values())


def failure_share(passes) -> float:
    attempted = sum(p.attempted for p in passes)
    return (sum(p.failed + p.known_defect for p in passes)) / attempted


def fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def time_tier1(work: Path) -> dict:
    """Wall time of the repository's own test suite (ungated)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", f"--basetemp={work / 'pytest'}"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIER1_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"wall_s": None, "result": f"timed out after {TIER1_TIMEOUT_S} s"}
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    passed = re.search(r"(\d+) passed", summary)
    return {"wall_s": wall, "passed": int(passed.group(1)) if passed else 0,
            "exit": proc.returncode, "result": summary}


def run(args, work: Path) -> int:
    import reference
    import tracer
    import workloads as wl

    errors: list[str] = []
    plan = prepare(args.workload, work / "inputs", args.seed)
    setup_times = [] if args.trace else measure_setup(args, work, plan.input_digest(), errors)
    runner = Runner(plan)
    warm = work / "warm"
    runner.run_pass(warm, set(plan.warmup))
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    runner.sampler = reference.Sampler(REFERENCE_EVERY_S)
    with runner.sampler.running():
        untraced = runner.run_passes(work, "pass", seconds, warm)
    reference_s = runner.sampler.times
    runner.sampler = None
    traced = []
    if args.trace:
        runner.tracer = tracer.Tracer()
        with runner.tracer.installed():
            traced = runner.run_passes(work, "traced", seconds, None)
    shutil.rmtree(warm)
    errors += runner.errors
    for line in errors:
        print(f"check failed: {line}", file=sys.stderr)
    passes = untraced + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s = [p.pass_s for p in untraced]
    split = breakdown(plan, untraced)

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "known_defect": wl.KNOWN_DEFECT,
        "known_defect_failures": sum(p.known_defect for p in passes),
        "known_defect_errors": sorted(set(runner.defects)),
        "metrics": {
            "pass_s": dict(tail(pass_s), unit="s"),
            "failed_ops": {"value": failure_share(passes), "unit": "ratio",
                           "attempted": sum(p.attempted for p in passes)},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            **{name: dict(tail(values), unit="s") for name, values in split.items()},
        },
    }
    fp = fingerprint()
    if args.trace:
        layers = [runner.tracer.layer_totals(p.layer_ops) for p in traced]
        values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        values.update({name: statistics.median(split.get(name, [0.0])) for name in wl.BREAKDOWN})
        values["failed_ops"] = failure_share(passes)
        values["known_defect_failures"] = statistics.median(p.known_defect for p in passes)
        traced_pass_s = statistics.median(p.pass_s for p in traced)
        values["trace_overhead_s"] = traced_pass_s - statistics.median(pass_s)
        summary["metrics"]["traced_pass_s"] = {"value": traced_pass_s, "unit": "s"}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_units().items()}
        fp["tier1"] = time_tier1(work)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "fingerprint": fp,
            "summary": summary,
            "per_layer": metrics,
            "predictions": json.loads((BENCH / "predictions.json").read_text()),
            "traced_ops": [p.layer_ops for p in traced],
            **runner.tracer.dump(),
        }))
        summary["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "pass_vs_ref": statistics.fmean(pass_s) / statistics.fmean(reference_s),
                  "peak_rss_mb": peak_rss_mb}
        summary["metrics"]["setup_s"] = dict(tail(setup_times), unit="s")
        summary["metrics"]["pass_floor_s"] = {"value": pass_floor(untraced), "unit": "s"}
        summary["metrics"]["reference_s"] = dict(tail(reference_s), unit="s")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"fingerprint": fp}))
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="mapgroups benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("circle-reports", "torus-groups", "torus-sections"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    work = args.setup_probe or OUT / f"work-{os.getpid()}"
    try:
        if args.setup_probe is not None:
            return setup_probe(args, work)
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
