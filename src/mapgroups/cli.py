"""Command-line front end for reproducible experiment runs.

Subcommands: verify-axioms, norms, extend, group-demo, evolve, ladder,
shrink-domain.  Every run writes UTF-8 JSON (and CSV where noted) into the
output directory; with a fixed seed the bytes are identical between runs.
Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad input
or configuration.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

from .atlas import BUILTIN_ATLASES, builtin_atlas
from .axioms import TOLERANCE_KEYWORDS, run_axiom_suite
from .domains import (
    DOMAIN_BUILDERS,
    boundary_samples,
    descent_and_shrink,
    domain_by_name,
)
from .errors import InputError, NumericError, SolverError, check_count, check_name, check_real
from .fields import random_field
from .groups import (
    GROUP_BUILDERS,
    adjoint_operator,
    bch_order2_probe,
    bracket,
    bracket_from_products,
    exp_section,
    group_by_name,
    group_invert,
    group_multiply,
    identity_group_section,
    log_section,
    random_algebra_section,
)
from .limits import (
    constant_curve,
    critical_order_estimate,
    evolve,
    ladder,
    rung_compactness_probe,
    sup_entry_gap,
)
from .serialize import (
    MAX_LATTICE_RESOLUTION,
    convention_tag,
    dump_group_section,
    json_is,
    load_curve,
    read_json,
    write_json,
    write_weighted_csv,
)
from .sobolev import CONVENTIONS, extension_probe, hs_norms, weight_exponent

# Config file keys and the JSON type of each value.
CONFIG_KEYS = {
    "seed": int,
    "modes": int,
    "grid_factor": int,
    "tolerances": dict,
    "atlas": str,
    "group": str,
    "convention": str,
    "out": str,
}

# Tolerance names the subcommands read, with their defaults.  The axiom
# ids are read by ``run_axiom_suite``, which keeps their defaults.
TOLERANCES = {
    "norm-monotonicity": 1e-12,
    "extension-residual": 1e-8,
    "kernel-orthogonality": 1e-8,
    "group-identities": 1e-12,
    "exp-log": 1e-9,
    "conjugation": 1e-10,
    "bracket": 1e-6,
    "bch-slope": 2.9,
    "evolve-gap": 1e-8,
    "rung-monotonicity": 1e-12,
    "descent-slope": 1e-4,
}
TOLERANCE_NAMES = sorted([*TOLERANCES, *TOLERANCE_KEYWORDS])


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters; file values are overridden by flags."""

    seed: int = 0
    modes: int = 32
    grid_factor: int = 4
    tolerances: dict = field(default_factory=dict)
    atlas: str = "circle2"
    group: str = "SO3"
    convention: str = "paper"
    out: Path = Path("out")

    def __post_init__(self):
        check_count(self.modes, "modes", 1)
        check_count(self.grid_factor, "grid_factor", 2)
        if self.resolution > MAX_LATTICE_RESOLUTION:
            raise InputError(
                f"grid_factor * modes + 1 must be at most {MAX_LATTICE_RESOLUTION}, "
                f"got {self.resolution}"
            )
        check_name(self.atlas, BUILTIN_ATLASES, "atlas")
        check_name(self.group, GROUP_BUILDERS, "group")
        check_name(self.convention, CONVENTIONS, "weight convention")
        for name, value in self.tolerances.items():
            check_name(name, TOLERANCE_NAMES, "tolerance")
            check_real(value, f"tolerance {name!r}", 0.0)

    @property
    def resolution(self) -> int:
        return self.grid_factor * self.modes + 1

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, TOLERANCES[name]))

    def rng_for(self, suite: str) -> np.random.Generator:
        """Independent substream per suite name: adding a suite never
        perturbs the draws of another."""
        digest = hashlib.sha256(f"{self.seed}:{suite}".encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def load_config_file(path: Path) -> dict:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: config must be a JSON object")
    try:
        for key, value in doc.items():
            kind = CONFIG_KEYS[check_name(key, CONFIG_KEYS, "config key")]
            if not json_is(value, kind):
                raise InputError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
        RunConfig(**{k: v for k, v in doc.items() if k != "out"})
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    return doc


def resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = load_config_file(args.config) if args.config else {}
    for key in ("seed", "modes", "convention", "out"):
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    if "out" in merged:
        merged["out"] = Path(merged["out"])
    return RunConfig(**merged)


def _record(check_id: str, passed, **measures) -> dict:
    """One check of a report: its id, its verdict and what it measured."""
    return {"check_id": check_id, "passed": bool(passed), "measures": measures}


def _at_most(check_id: str, value: float, tolerance: float) -> dict:
    return _record(check_id, value <= tolerance, value=value, tolerance=tolerance)


def _out_path(config: RunConfig, name: str) -> Path:
    config.out.mkdir(parents=True, exist_ok=True)
    return config.out / name


def _finish(config: RunConfig, name: str, report: dict, checks: list) -> int:
    """Write the report with its seed, its check records and their verdict."""
    failing = sorted(c["check_id"] for c in checks if not c["passed"])
    report.update(seed=config.seed, checks=checks, failing=failing, passed=not failing)
    path = _out_path(config, f"{name}.json")
    write_json(path, report)
    print(f"{name}: {'FAIL' if failing else 'pass'} ({path})")
    if failing:
        print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
    return 1 if failing else 0


def cmd_verify_axioms(config: RunConfig, args: argparse.Namespace) -> int:
    checks = sorted(
        run_axiom_suite(config.rng_for, config.tolerances),
        key=lambda c: c.check_id,
    )
    records = [_record(c.check_id, c.passed, **c.measures) for c in checks]
    report = {"suite": "verify-axioms"}
    return _finish(config, "axioms", report, records)


def cmd_norms(config: RunConfig, args: argparse.Namespace) -> int:
    rng = config.rng_for("norms")
    tol = config.tol("norm-monotonicity")
    fields = 200
    pairs = 10
    worst = 0.0
    for _ in range(fields):
        gamma = random_field(1, config.modes, 2, rng)
        # Each row is a pair (t, s) with t <= s.
        orders = np.sort(rng.uniform(0.0, 4.0, size=(pairs, 2)), axis=1)
        norms = hs_norms(gamma, orders.ravel(), config.convention)
        for nt, ns in zip(norms[0::2], norms[1::2]):
            worst = max(worst, (nt - ns) / max(ns, 1e-300))
    exponents = [round(0.25 * j, 2) for j in range(17)]
    probe = random_field(1, config.modes, 1, rng)
    rows = list(zip(exponents, hs_norms(probe, exponents, config.convention)))
    csv_path = _out_path(config, "norms.csv")
    write_weighted_csv(csv_path, ("s", "norm"), rows, config.convention)
    report = {
        "suite": "norms",
        "weight_exponent_convention": convention_tag(config.convention),
        "fields": fields,
        "pairs_per_field": pairs,
        "max_relative_violation": worst,
        "tolerance": tol,
        "norm_table": csv_path.name,
    }
    checks = [_at_most("norm_monotonicity", worst, tol)]
    return _finish(config, "norms", report, checks)


def cmd_extend(config: RunConfig, args: argparse.Namespace) -> int:
    measures = extension_probe(
        config.rng_for("extend"),
        instances=8,
        competitors=50,
        modes=config.modes,
        resolution=config.resolution,
        convention=config.convention,
    )
    tol_interp = config.tol("extension-residual")
    tol_kernel = config.tol("kernel-orthogonality")
    report = {
        "suite": "extend",
        "weight_exponent_convention": convention_tag(config.convention),
        **measures,
        "interp_tolerance": tol_interp,
        "kernel_tolerance": tol_kernel,
    }
    margin = measures["min_minimality_margin"]
    floor = -1e-12
    checks = [
        _at_most("extension_residual", measures["max_interp_residual"], tol_interp),
        _at_most("kernel_orthogonality", measures["max_kernel_overlap"], tol_kernel),
        _record("minimality", margin >= floor, value=margin, minimum=floor),
    ]
    return _finish(config, "extend", report, checks)


def cmd_group_demo(config: RunConfig, args: argparse.Namespace) -> int:
    rng = config.rng_for("group-demo")
    atlas = builtin_atlas(config.atlas)
    group = group_by_name(config.group)
    ident = identity_group_section(atlas, group)

    def sup_gap(a, b):
        return sup_entry_gap(a.pieces, b.pieces)

    def pair_gaps():
        """Associativity, identity, inverse, exp/log and conjugation gaps of
        one random triple; its sections are freed before the next is drawn."""
        xi = random_algebra_section(atlas, group, rng)
        eta = random_algebra_section(atlas, group, rng)
        zeta = random_algebra_section(atlas, group, rng)
        g, h, k = exp_section(xi), exp_section(eta), exp_section(zeta)
        gh = group_multiply(g, h)
        g_inv = group_invert(g)
        return (
            sup_gap(group_multiply(gh, k), group_multiply(g, group_multiply(h, k))),
            sup_gap(group_multiply(g, ident), g),
            sup_gap(group_multiply(g, g_inv), ident),
            (log_section(g) - xi).section.sup_norm(),
            sup_gap(group_multiply(gh, g_inv), exp_section(adjoint_operator(g, eta))),
        )

    pairs = 5
    gaps = [0.0] * 5
    for _ in range(pairs):
        gaps = [max(a, b) for a, b in zip(gaps, pair_gaps())]
    assoc, ident_gap, inverse, explog, conj = gaps
    xi = random_algebra_section(atlas, group, rng)
    eta = random_algebra_section(atlas, group, rng)
    slope = bch_order2_probe(xi, eta)
    bracket_gap = (
        bracket_from_products(xi, eta) - bracket(xi, eta)
    ).section.sup_norm()

    identities = config.tol("group-identities")
    min_slope = config.tol("bch-slope")
    checks = [
        _at_most("associativity", assoc, identities),
        _at_most("identity", ident_gap, identities),
        _at_most("inverse", inverse, identities),
        _at_most("exp_log_round_trip", explog, config.tol("exp-log")),
        _at_most("conjugation_adjoint", conj, config.tol("conjugation")),
        _at_most("bracket_extraction", bracket_gap, config.tol("bracket")),
        _record("bch_order2_slope", slope >= min_slope, value=slope, minimum=min_slope),
    ]
    report = {
        "suite": "group-demo",
        "group": group.name,
        "atlas": atlas.name,
        "random_pairs": pairs,
    }
    return _finish(config, "group_demo", report, checks)


def cmd_evolve(config: RunConfig, args: argparse.Namespace) -> int:
    steps = 64
    if args.curve is None:
        xi = random_algebra_section(
            builtin_atlas(config.atlas),
            group_by_name(config.group),
            config.rng_for("evolve"),
        )
        curve = constant_curve(xi)
        mode = "constant"
    else:
        doc = read_json(args.curve)
        try:
            curve = load_curve(doc)
        except InputError as exc:
            raise InputError(f"{args.curve}: {exc}") from exc
        mode = "file"
        steps = max(steps, curve.resolution)
    eta1 = evolve(curve, steps)
    final_defect = max(eta1.relation_defects)
    report = {
        "suite": "evolve",
        "check_id": "eq-inival",
        "mode": mode,
        "steps": steps,
        "final_relation_defect": final_defect,
    }
    tol = config.tol("evolve-gap")
    checks = [_at_most("relation_defect", final_defect, tol)]
    if mode == "constant":
        target = exp_section(curve.sections[0])
        gap = sup_entry_gap(eta1.pieces, target.pieces)
        err_coarse = sup_entry_gap(evolve(curve, steps // 2).pieces, target.pieces)
        ratio = err_coarse / max(gap, 1e-300)
        report["constant_curve_gap"] = gap
        report["halving_error_ratio"] = ratio
        checks.append(_at_most("constant_curve_gap", gap, tol))
    eta_path = _out_path(config, "evolve_eta1.json")
    write_json(eta_path, dump_group_section(eta1, config.convention))
    report["eta1_file"] = eta_path.name
    return _finish(config, "evolve", report, checks)


def cmd_ladder(config: RunConfig, args: argparse.Namespace) -> int:
    rng = config.rng_for("ladder")
    lad = ladder(0.5, 4)
    tol_mono = config.tol("rung-monotonicity")
    estimates = []
    for alpha in (1.0, 1.5, 2.0):
        est = critical_order_estimate(alpha, convention=config.convention)
        # The decay field lies in H^s exactly while the weight exponent of s
        # stays below alpha - 1/2.
        target = (alpha - 0.5) / weight_exponent(1.0, config.convention)
        estimates.append({"alpha": alpha, "estimate": est, "target": target})
    max_err = max(abs(e["estimate"] - e["target"]) for e in estimates)
    worst_mono = 0.0
    for _ in range(20):
        gamma = random_field(1, config.modes, 1, rng)
        norms = hs_norms(gamma, lad.rungs, config.convention)
        for coarse, fine in zip(norms[1:], norms[:-1]):
            worst_mono = max(worst_mono, (coarse - fine) / max(fine, 1e-300))
    spectra_files = []
    for j in range(1, lad.count):
        probe = rung_compactness_probe(
            lad, j, config.modes, convention=config.convention
        )
        path = _out_path(config, f"spectrum_rung_{j}.csv")
        write_weighted_csv(
            path, ("k_index", "sigma"), enumerate(probe.spectrum), config.convention
        )
        spectra_files.append(
            {
                "rung": j,
                "s_fine": probe.s_fine,
                "s_coarse": probe.s_coarse,
                "sigma_max": probe.sigma_max,
                "sigma_min": probe.sigma_min,
                "file": path.name,
            }
        )
    report = {
        "suite": "ladder",
        "weight_exponent_convention": convention_tag(config.convention),
        "s0": lad.s0,
        "rungs": list(lad.rungs),
        "critical_orders": estimates,
        "max_order_error": max_err,
        "rung_monotonicity_violation": worst_mono,
        "spectra": spectra_files,
    }
    checks = [
        _at_most("critical_order", max_err, 0.1),
        _at_most("rung_monotonicity", worst_mono, tol_mono),
    ]
    return _finish(config, "ladder", report, checks)


def cmd_shrink(config: RunConfig, args: argparse.Namespace) -> int:
    domain = domain_by_name(args.domain)
    rng = config.rng_for("shrink-domain")
    descent, cert = descent_and_shrink(
        domain, boundary_samples(domain, 40, rng), t0=0.1, samples=200, rng=rng
    )
    slope_tol = config.tol("descent-slope")
    report = {
        "suite": "shrink-domain",
        "domain": domain.name,
        "t0": cert.t0,
        "steps": cert.steps,
        "sample_count": cert.sample_count,
        "margin": cert.margin,
        "anchor_fixed_defect": cert.fixed_defect,
        "worst_points": [list(p) for p in cert.worst_points],
        "descent_slope_error": descent.max_abs_error,
        "descent_slope_tolerance": slope_tol,
    }
    checks = [
        _record("descent_direction", descent.all_descending,
                max_slope=float(descent.slopes.max())),
        _at_most("descent_slope", descent.max_abs_error, slope_tol),
        # The certificate passes a margin strictly above the minimum.
        _record("shrink_margin", cert.passed, value=cert.margin, minimum=0.0),
    ]
    return _finish(config, f"shrink_{domain.name}", report, checks)


def _add_run_flags(parser: argparse.ArgumentParser, top: bool) -> None:
    # Subparsers use SUPPRESS so a flag given after the subcommand
    # overrides one given before it instead of resetting it to None.
    d = None if top else argparse.SUPPRESS
    parser.add_argument("--config", type=Path, default=d, help="JSON config file")
    parser.add_argument("--out", type=Path, default=d, help="output directory")
    parser.add_argument("--seed", type=int, default=d, help="random seed")
    parser.add_argument("--modes", type=int, default=d, help="mode cutoff N")
    parser.add_argument(
        "--convention",
        choices=CONVENTIONS,
        default=d,
        help="Sobolev weight exponent convention",
    )


# One parser serves every call in a process; parse_args keeps no state.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapgroups",
        description="Sobolev mapping-group experiment runner",
    )
    _add_run_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, run) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _add_run_flags(p, top=False)
        p.set_defaults(run=run)
        return p

    add("verify-axioms", "run the four closure-axiom probes", cmd_verify_axioms)
    add("norms", "norm monotonicity audit and norm table", cmd_norms)
    add("extend", "minimum-norm extension audit", cmd_extend)
    add("group-demo", "pointwise group identity checks", cmd_group_demo)
    p_evolve = add("evolve", "integrate a product ODE curve", cmd_evolve)
    p_evolve.add_argument(
        "curve", nargs="?", type=Path, default=None,
        help="curve JSON (default: random constant curve)",
    )
    add("ladder", "rung spectra and critical-order fits", cmd_ladder)
    p_shrink = add("shrink-domain", "inner-flow certificate", cmd_shrink)
    p_shrink.add_argument(
        "domain", nargs="?", default="disc",
        help=f"domain name, one of {sorted(DOMAIN_BUILDERS)}",
    )
    return parser


# glibc's mallopt parameters (malloc.h), and the size both are set to.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
HEAP_KEEP_BYTES = 256 << 20


def _native_function(library, name: str, argtypes: tuple):
    """The C function ``name`` of the shared ``library`` (None: the
    process's own symbols), returning int, or None where it is missing."""
    try:
        fn = getattr(ctypes.CDLL(library), name)
    except (OSError, AttributeError, TypeError):  # TypeError: no process handle on Windows
        return None
    fn.argtypes = argtypes
    fn.restype = ctypes.c_int
    return fn


# Process state, so set once per process.
@functools.cache
def set_process_profile() -> None:
    """Keep freed heap in the process and run numpy's BLAS on one thread.

    glibc then trims the heap only when more than ``HEAP_KEEP_BYTES`` lie
    free at its top, and maps a block of its own only for an allocation of
    that size or more, so a freed ``(4, 4, 4900)`` group stack's pages serve
    the next stack instead of being faulted in again; up to that much freed
    heap stays with the process.  One OpenBLAS thread
    makes every sum the same whatever ``OPENBLAS_NUM_THREADS`` says.  Each
    setting is skipped where its symbol is missing (another libc, another
    BLAS build).
    """
    mallopt = _native_function(None, "mallopt", (ctypes.c_int, ctypes.c_int))
    if mallopt is not None:
        mallopt(M_TRIM_THRESHOLD, HEAP_KEEP_BYTES)
        mallopt(M_MMAP_THRESHOLD, HEAP_KEEP_BYTES)
    # numpy's bundled OpenBLAS is a dependency of its linalg extension.
    set_threads = _native_function(
        _umath_linalg.__file__, "scipy_openblas_set_num_threads64_", (ctypes.c_int,)
    )
    if set_threads is not None:
        set_threads(1)


def main(argv=None) -> int:
    set_process_profile()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        return args.run(config, args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, NumericError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
