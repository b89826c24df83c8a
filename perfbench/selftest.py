"""Self-test of the benchmark at a minimal run length.

    python3 perfbench/selftest.py

Runs every workload in BENCHMARK.json once untraced and once traced with
``--seconds 1`` (seed 0) and checks that:

- every run exits 0 with ``correct: true`` and no failed op;
- the untraced run emits exactly the end-to-end metrics, the traced run
  exactly the per-layer metrics, each with the unit BENCHMARK.json gives;
- failures outside the counted ones show only on torus-groups, and there
  only as the known defect, once per pass, from the SO3 group-demo attempt;
- without the program's sources the benchmark exits non-zero and prints no
  result.

It takes about three minutes, mostly torus-groups passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".perfbench_out" / "selftest"


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(lines[-1])
    summary = json.loads(lines[-2])["summary"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{where}: metrics differ from BENCHMARK.json {key}: "
                        f"missing {sorted(want.keys() - got.keys())}, "
                        f"extra {sorted(got.keys() - want.keys())}, "
                        f"units {[n for n in want.keys() & got.keys() if want[n] != got[n]]}")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} is not a finite number")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end metric {name} reads {value}")
    defects = summary["known_defect_errors"]
    if workload == "torus-groups":
        if summary["known_defect_failures"] != summary["passes"]:
            problems.append(f"{where}: {summary['known_defect_failures']} known-defect "
                            f"failures in {summary['passes']} passes, want one per pass")
        if any(not d.startswith("group-demo/SO3 ") for d in defects):
            problems.append(f"{where}: known defect outside the SO3 attempt: {defects}")
        if not summary["metrics"]["failed_ops"]["value"] > 0:
            problems.append(f"{where}: failed_ops does not show the SO3 attempt")
    elif summary["known_defect_failures"] or summary["metrics"]["failed_ops"]["value"]:
        problems.append(f"{where}: failures on a workload that should have none")
    if trace and workload == "torus-groups":
        layer = result["metrics"]
        self_times = {n: m["value"] for n, m in layer.items() if n.endswith(".self_s")}
        top = max(self_times, key=self_times.get)
        if top != "fields.SampledField.interpolate.self_s":
            problems.append(f"{where}: largest self time is {top}")
    return problems


def check_without_sources() -> list[str]:
    """A directory holding only BENCHMARK.json and perfbench/ must fail."""
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", SCRATCH)
        shutil.copytree(BENCH, SCRATCH / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SCRATCH, "circle-reports", 0)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_without_sources()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problems += check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: checked", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAIL" if problems else "pass"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
