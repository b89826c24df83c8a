"""Command-line front end for reproducible experiment runs.

Subcommands: verify-axioms, norms, extend, group-demo, evolve, ladder,
shrink-domain.  Every run writes UTF-8 JSON (and CSV where noted) into the
output directory; with a fixed seed the bytes are identical between runs.
Exit codes: 0 all checks passed, 1 at least one check failed, 2 bad input
or configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .atlas import BUILTIN_ATLASES, builtin_atlas
from .axioms import run_axiom_suite
from .domains import (
    DOMAIN_BUILDERS,
    FlowField,
    boundary_samples,
    domain_by_name,
    monotone_descent_check,
    shrink_domain,
)
from .errors import InputError, NumericError, SolverError
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
    convention_tag,
    dump_group_section,
    json_is,
    load_curve,
    read_json,
    write_json,
    write_spectrum_csv,
)
from .sobolev import CONVENTIONS, extension_probe, hs_norm

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
        if self.modes < 1:
            raise InputError(f"mode cutoff must be >= 1, got {self.modes}")
        if self.grid_factor < 2:
            raise InputError(
                f"grid factor must be >= 2, got {self.grid_factor}"
            )
        if self.atlas not in BUILTIN_ATLASES:
            raise InputError(
                f"unknown atlas {self.atlas!r}; "
                f"choose from {sorted(BUILTIN_ATLASES)}"
            )
        if self.group not in GROUP_BUILDERS:
            raise InputError(
                f"unknown group {self.group!r}; "
                f"choose from {sorted(GROUP_BUILDERS)}"
            )
        if self.convention not in CONVENTIONS:
            raise InputError(f"unknown convention {self.convention!r}")
        for name, value in self.tolerances.items():
            if not np.isfinite(value) or value < 0:
                raise InputError(f"tolerance {name!r} must be finite and >= 0")

    @property
    def resolution(self) -> int:
        return self.grid_factor * self.modes + 1

    def tol(self, name: str, default: float) -> float:
        return float(self.tolerances.get(name, default))

    def rng_for(self, suite: str) -> np.random.Generator:
        """Independent substream per suite name: adding a suite never
        perturbs the draws of another."""
        digest = hashlib.sha256(f"{self.seed}:{suite}".encode()).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def load_config_file(path: Path) -> dict:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: config must be a JSON object")
    unknown = sorted(set(doc) - set(CONFIG_KEYS))
    if unknown:
        raise InputError(f"{path}: unknown config keys {unknown}")
    for key, kind in CONFIG_KEYS.items():
        if key in doc and not json_is(doc[key], kind):
            raise InputError(
                f"{path}: config key {key!r} must be {kind.__name__}, got {doc[key]!r}"
            )
    for name, value in doc.get("tolerances", {}).items():
        if not json_is(value, (int, float)):
            raise InputError(
                f"{path}: tolerance {name!r} must be a number, got {value!r}"
            )
    return doc


def resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = load_config_file(args.config) if args.config else {}
    for key in ("seed", "modes", "convention", "out"):
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    if "out" in merged:
        merged["out"] = Path(merged["out"])
    return RunConfig(**merged)


def _finish(config: RunConfig, name: str, report: dict) -> int:
    passed = bool(report["passed"])
    config.out.mkdir(parents=True, exist_ok=True)
    path = config.out / f"{name}.json"
    write_json(path, report)
    print(f"{name}: {'pass' if passed else 'FAIL'} ({path})")
    if not passed:
        failing = report.get("failing", [])
        if failing:
            print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
    return 0 if passed else 1


def cmd_verify_axioms(config: RunConfig) -> int:
    checks = sorted(
        run_axiom_suite(config.rng_for, config.tolerances),
        key=lambda c: c.check_id,
    )
    report = {
        "suite": "verify-axioms",
        "seed": config.seed,
        "checks": [
            {"check_id": c.check_id, "passed": c.passed, "measures": c.measures}
            for c in checks
        ],
        "failing": [c.check_id for c in checks if not c.passed],
        "passed": all(c.passed for c in checks),
    }
    return _finish(config, "axioms", report)


def cmd_norms(config: RunConfig) -> int:
    rng = config.rng_for("norms")
    tol = config.tol("norm-monotonicity", 1e-12)
    fields = 200
    pairs = 10
    worst = 0.0
    for _ in range(fields):
        gamma = random_field(1, config.modes, 2, rng)
        for _ in range(pairs):
            t, s = np.sort(rng.uniform(0.0, 4.0, size=2))
            ns = hs_norm(gamma, float(s), config.convention)
            nt = hs_norm(gamma, float(t), config.convention)
            worst = max(worst, (nt - ns) / max(ns, 1e-300))
    exponents = [round(0.25 * j, 2) for j in range(17)]
    probe = random_field(1, config.modes, 1, rng)
    rows = [(s, hs_norm(probe, s, config.convention)) for s in exponents]
    config.out.mkdir(parents=True, exist_ok=True)
    csv_path = config.out / "norms.csv"
    lines = [f"# weight_exponent_convention={convention_tag(config.convention)}"]
    lines.append("s,norm")
    lines.extend(f"{s},{n!r}" for s, n in rows)
    csv_path.write_text("\n".join(lines) + "\n")
    report = {
        "suite": "norms",
        "seed": config.seed,
        "weight_exponent_convention": convention_tag(config.convention),
        "fields": fields,
        "pairs_per_field": pairs,
        "max_relative_violation": worst,
        "tolerance": tol,
        "norm_table": csv_path.name,
        "passed": worst <= tol,
    }
    return _finish(config, "norms", report)


def cmd_extend(config: RunConfig) -> int:
    measures = extension_probe(
        config.rng_for("extend"),
        instances=8,
        competitors=50,
        modes=config.modes,
        resolution=config.resolution,
        convention=config.convention,
    )
    tol_interp = config.tol("extension-residual", 1e-8)
    tol_kernel = config.tol("kernel-orthogonality", 1e-8)
    report = {
        "suite": "extend",
        "seed": config.seed,
        "weight_exponent_convention": convention_tag(config.convention),
        **measures,
        "interp_tolerance": tol_interp,
        "kernel_tolerance": tol_kernel,
        "passed": (
            measures["max_interp_residual"] <= tol_interp
            and measures["max_kernel_overlap"] <= tol_kernel
            and measures["min_minimality_margin"] >= -1e-12
        ),
    }
    return _finish(config, "extend", report)


def cmd_group_demo(config: RunConfig) -> int:
    rng = config.rng_for("group-demo")
    atlas = builtin_atlas(config.atlas)
    group = group_by_name(config.group)
    ident = identity_group_section(atlas, group)

    def sup_gap(a, b):
        return sup_entry_gap(a.pieces, b.pieces)

    assoc = ident_gap = inverse = explog = conj = 0.0
    pairs = 5
    for _ in range(pairs):
        xi = random_algebra_section(atlas, group, rng)
        eta = random_algebra_section(atlas, group, rng)
        zeta = random_algebra_section(atlas, group, rng)
        g, h, k = exp_section(xi), exp_section(eta), exp_section(zeta)
        assoc = max(
            assoc,
            sup_gap(group_multiply(group_multiply(g, h), k),
                    group_multiply(g, group_multiply(h, k))),
        )
        ident_gap = max(ident_gap, sup_gap(group_multiply(g, ident), g))
        inverse = max(inverse, sup_gap(group_multiply(g, group_invert(g)), ident))
        explog = max(explog, (log_section(g) - xi).sup_coord_norm())
        conj = max(
            conj,
            sup_gap(
                group_multiply(group_multiply(g, h), group_invert(g)),
                exp_section(adjoint_operator(g, eta)),
            ),
        )
    xi = random_algebra_section(atlas, group, rng)
    eta = random_algebra_section(atlas, group, rng)
    slope = bch_order2_probe(xi, eta)
    bracket_gap = (
        bracket_from_products(xi, eta) - bracket(xi, eta)
    ).sup_coord_norm()

    checks = {
        "associativity": (assoc, config.tol("group-identities", 1e-12)),
        "identity": (ident_gap, config.tol("group-identities", 1e-12)),
        "inverse": (inverse, config.tol("group-identities", 1e-12)),
        "exp_log_round_trip": (explog, config.tol("exp-log", 1e-9)),
        "conjugation_adjoint": (conj, config.tol("conjugation", 1e-10)),
        "bracket_extraction": (bracket_gap, config.tol("bracket", 1e-6)),
    }
    failing = [name for name, (v, tol) in checks.items() if v > tol]
    min_slope = config.tol("bch-slope", 2.9)
    if slope < min_slope:
        failing.append("bch_order2_slope")
    report = {
        "suite": "group-demo",
        "seed": config.seed,
        "group": group.name,
        "atlas": atlas.name,
        "random_pairs": pairs,
        "checks": {
            name: {"value": v, "tolerance": tol, "passed": v <= tol}
            for name, (v, tol) in checks.items()
        },
        "bch_order2_slope": {
            "value": slope,
            "minimum": min_slope,
            "passed": slope >= min_slope,
        },
        "failing": sorted(failing),
        "passed": not failing,
    }
    return _finish(config, "group_demo", report)


def cmd_evolve(config: RunConfig, curve_path: Path | None) -> int:
    steps = 64
    if curve_path is None:
        xi = random_algebra_section(
            builtin_atlas(config.atlas),
            group_by_name(config.group),
            config.rng_for("evolve"),
        )
        curve = constant_curve(xi)
        mode = "constant"
    else:
        doc = read_json(curve_path)
        try:
            curve = load_curve(doc)
        except InputError as exc:
            raise InputError(f"{curve_path}: {exc}") from exc
        mode = "file"
        steps = max(steps, curve.resolution)
    eta1 = evolve(curve, steps)
    final_defect = max(eta1.relation_defects)
    report = {
        "suite": "evolve",
        "check_id": "eq-inival",
        "seed": config.seed,
        "mode": mode,
        "steps": steps,
        "final_relation_defect": final_defect,
    }
    tol = config.tol("evolve-gap", 1e-8)
    failing = []
    if final_defect > tol:
        failing.append("relation_defect")
    if mode == "constant":
        target = exp_section(curve.sections[0])
        gap = sup_entry_gap(eta1.pieces, target.pieces)
        err_coarse = sup_entry_gap(evolve(curve, steps // 2).pieces, target.pieces)
        ratio = err_coarse / max(gap, 1e-300)
        report["constant_curve_gap"] = gap
        report["halving_error_ratio"] = ratio
        if gap > tol:
            failing.append("constant_curve_gap")
    config.out.mkdir(parents=True, exist_ok=True)
    eta_path = config.out / "evolve_eta1.json"
    write_json(eta_path, dump_group_section(eta1, config.convention))
    report["eta1_file"] = eta_path.name
    report["failing"] = failing
    report["passed"] = not failing
    return _finish(config, "evolve", report)


def cmd_ladder(config: RunConfig) -> int:
    rng = config.rng_for("ladder")
    lad = ladder(0.5, 4)
    tol_mono = config.tol("rung-monotonicity", 1e-12)
    estimates = []
    for alpha in (1.0, 1.5, 2.0):
        est = critical_order_estimate(alpha, convention=config.convention)
        estimates.append(
            {"alpha": alpha, "estimate": est, "target": 2.0 * alpha - 1.0}
        )
    max_err = max(abs(e["estimate"] - e["target"]) for e in estimates)
    worst_mono = 0.0
    for _ in range(20):
        gamma = random_field(1, config.modes, 1, rng)
        norms = [
            hs_norm(gamma, s, config.convention) for s in lad.rungs
        ]
        for coarse, fine in zip(norms[1:], norms[:-1]):
            worst_mono = max(worst_mono, (coarse - fine) / max(fine, 1e-300))
    config.out.mkdir(parents=True, exist_ok=True)
    spectra_files = []
    for j in range(1, lad.count):
        probe = rung_compactness_probe(
            lad, j, config.modes, convention=config.convention
        )
        path = config.out / f"spectrum_rung_{j}.csv"
        write_spectrum_csv(path, probe.spectrum, config.convention)
        spectra_files.append(
            {
                "rung": j,
                "s_fine": probe.s_fine,
                "s_coarse": probe.s_coarse,
                "sigma_max": probe.sigma_max,
                "sigma_min": probe.sigma_min,
                "decreasing": probe.decreasing,
                "file": path.name,
            }
        )
    failing = []
    if max_err > 0.1:
        failing.append("critical_order")
    if worst_mono > tol_mono:
        failing.append("rung_monotonicity")
    report = {
        "suite": "ladder",
        "seed": config.seed,
        "weight_exponent_convention": convention_tag(config.convention),
        "s0": lad.s0,
        "rungs": list(lad.rungs),
        "critical_orders": estimates,
        "max_order_error": max_err,
        "rung_monotonicity_violation": worst_mono,
        "spectra": spectra_files,
        "failing": failing,
        "passed": not failing,
    }
    return _finish(config, "ladder", report)


def cmd_shrink(config: RunConfig, domain_name: str) -> int:
    domain = domain_by_name(domain_name)
    flow_field = FlowField(domain)
    rng = config.rng_for("shrink-domain")
    descent = monotone_descent_check(
        flow_field, boundary_samples(domain, 40, rng)
    )
    cert = shrink_domain(flow_field, t0=0.1, samples=200, rng=rng)
    slope_tol = config.tol("descent-slope", 1e-4)
    failing = []
    if not descent.all_descending:
        failing.append("descent_direction")
    if descent.max_abs_error > slope_tol:
        failing.append("descent_slope")
    if not cert.passed:
        failing.append("shrink_margin")
    report = {
        "suite": "shrink-domain",
        "seed": config.seed,
        "domain": domain.name,
        "t0": cert.t0,
        "steps": cert.steps,
        "sample_count": cert.sample_count,
        "margin": cert.margin,
        "anchor_fixed_defect": cert.fixed_defect,
        "worst_points": [list(p) for p in cert.worst_points],
        "descent_slope_error": descent.max_abs_error,
        "descent_slope_tolerance": slope_tol,
        "failing": failing,
        "passed": not failing,
    }
    return _finish(config, f"shrink_{domain.name}", report)


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapgroups",
        description="Sobolev mapping-group experiment runner",
    )
    _add_run_flags(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        _add_run_flags(p, top=False)
        return p

    add("verify-axioms", "run the four closure-axiom probes")
    add("norms", "norm monotonicity audit and norm table")
    add("extend", "minimum-norm extension audit")
    add("group-demo", "pointwise group identity checks")
    p_evolve = add("evolve", "integrate a product ODE curve")
    p_evolve.add_argument(
        "curve", nargs="?", type=Path, default=None,
        help="curve JSON (default: random constant curve)",
    )
    add("ladder", "rung spectra and critical-order fits")
    p_shrink = add("shrink-domain", "inner-flow certificate")
    p_shrink.add_argument(
        "domain", nargs="?", default="disc",
        help=f"domain name, one of {sorted(DOMAIN_BUILDERS)}",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        if args.command == "verify-axioms":
            return cmd_verify_axioms(config)
        if args.command == "norms":
            return cmd_norms(config)
        if args.command == "extend":
            return cmd_extend(config)
        if args.command == "group-demo":
            return cmd_group_demo(config)
        if args.command == "evolve":
            return cmd_evolve(config, args.curve)
        if args.command == "ladder":
            return cmd_ladder(config)
        if args.command == "shrink-domain":
            return cmd_shrink(config, args.domain)
        raise InputError(f"unknown command {args.command!r}")
    except (InputError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, NumericError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
