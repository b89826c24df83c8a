"""Acceptance gate: twelve desk-scale property checks, one test each.

Every test prints a single pass/FAIL line with the measured quantity and
its pinned tolerance (visible with ``pytest -s``; the test outcome itself
carries the same information in ``-v`` listings).  Tolerances here are
fixed and must not be loosened to make a failing build green.
"""

import json

import numpy as np
import pytest

from mapgroups.atlas import circle_two_charts, torus_four_charts
from mapgroups.axioms import run_axiom_suite
from mapgroups.cli import RunConfig, main
from mapgroups.domains import (
    FlowField,
    boundary_samples,
    disc,
    ellipse,
    flow,
    monotone_descent_check,
    shrink_domain,
)
from mapgroups.fields import random_field
from mapgroups.groups import (
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
    so3,
)
from mapgroups.limits import (
    constant_curve,
    critical_order_estimate,
    evolution_smoothness_probe,
    evolve,
    ladder,
)
from mapgroups.sections import (
    Section,
    glue,
    pushforward,
    pushforward_derivative,
    random_section,
    theta_embed,
)
from mapgroups.sobolev import extension_probe, hs_norm, rellich_spectrum
from mapgroups.fields import SampledField

MODES = 32
GRID = 129
SAMPLES = 200


def verdict(num: int, name: str, passed: bool, detail: str) -> str:
    line = f"criterion {num:2d} {name}: {'pass' if passed else 'FAIL'} ({detail})"
    print(line)
    return line


def test_criterion_01_norm_monotonicity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        gamma = random_field(1, MODES, 2, rng)
        for _ in range(10):
            t, s = np.sort(rng.uniform(0.0, 4.0, size=2))
            ns = hs_norm(gamma, float(s))
            nt = hs_norm(gamma, float(t))
            worst = max(worst, (nt - ns) / max(ns, 1e-300))
    ok = worst <= 1e-12
    line = verdict(1, "norm monotonicity", ok, f"worst relative violation {worst:.3e}, tol 1e-12")
    assert ok, line


def test_criterion_02_extension_operator():
    out = extension_probe(
        np.random.default_rng(202),
        instances=20,
        competitors=50,
        modes=MODES,
        resolution=GRID,
    )
    ok = (
        out["max_interp_residual"] <= 1e-8
        and out["max_kernel_overlap"] <= 1e-8
        and out["min_minimality_margin"] >= -1e-12
    )
    line = verdict(
        2,
        "extension operator",
        ok,
        f"interp {out['max_interp_residual']:.3e} <= 1e-8, "
        f"kernel {out['max_kernel_overlap']:.3e} <= 1e-8, "
        f"minimality margin {out['min_minimality_margin']:.3e} >= -1e-12",
    )
    assert ok, line


def test_criterion_03_axiom_suite():
    checks = run_axiom_suite(RunConfig(seed=0).rng_for)
    bad = [c.check_id for c in checks if not c.passed]
    ok = not bad
    summary = ", ".join(
        f"{c.check_id}={'ok' if c.passed else 'FAIL'}" for c in checks
    )
    line = verdict(3, "closure axiom suite", ok, summary)
    assert ok, line


def test_criterion_04_theta_embedding_round_trip():
    rng = np.random.default_rng(404)
    worst = 0.0
    for atlas in (circle_two_charts(), torus_four_charts()):
        for _ in range(50):
            sec = random_section(atlas, 1, rng)
            back = glue(theta_embed(sec), atlas)
            gap = max(
                float(np.abs(p.values - q.values).max())
                for p, q in zip(back.pieces, sec.pieces)
            )
            worst = max(worst, gap)
    ok = worst <= 1e-10
    line = verdict(4, "chart embedding round trip", ok, f"worst node gap {worst:.3e}, tol 1e-10")
    assert ok, line


def test_criterion_05_pushforward_derivative_slope():
    rng = np.random.default_rng(505)
    atlas = circle_two_charts()
    eps = np.array([0.04, 0.02, 0.01])
    slopes = []
    for _ in range(10):
        a = float(rng.uniform(0.8, 1.6))
        b = float(rng.uniform(0.0, 2 * np.pi))
        f = lambda p, y, a=a, b=b: np.sin(a * y + b)
        d2f = lambda p, g, e, a=a, b=b: a * np.cos(a * g + b) * e
        gamma = random_section(atlas, 1, rng)
        eta = random_section(atlas, 1, rng)
        exact = pushforward_derivative(d2f, gamma, eta)
        errs = []
        for e in eps:
            up = Section(
                atlas,
                tuple(
                    SampledField(p.domain, p.values + e * q.values)
                    for p, q in zip(gamma.pieces, eta.pieces)
                ),
            )
            dn = Section(
                atlas,
                tuple(
                    SampledField(p.domain, p.values - e * q.values)
                    for p, q in zip(gamma.pieces, eta.pieces)
                ),
            )
            diff = [
                (pu.values - pd.values) / (2.0 * e)
                for pu, pd in zip(pushforward(f, up).pieces, pushforward(f, dn).pieces)
            ]
            errs.append(
                max(
                    float(np.abs(d - x.values).max())
                    for d, x in zip(diff, exact.pieces)
                )
            )
        slopes.append(float(np.polyfit(np.log(eps), np.log(errs), 1)[0]))
    lo, hi = min(slopes), max(slopes)
    ok = all(abs(s - 2.0) <= 0.2 for s in slopes)
    line = verdict(5, "fiber derivative slope", ok, f"slopes in [{lo:.3f}, {hi:.3f}], target 2.0 +- 0.2")
    assert ok, line


def test_criterion_06_group_identities():
    rng = np.random.default_rng(606)
    atlas = circle_two_charts()
    group = so3()
    ident = identity_group_section(atlas, group)

    def sup_gap(a, b):
        return max(float(np.abs(p - q).max()) for p, q in zip(a.pieces, b.pieces))

    assoc = ident_gap = inverse = explog = 0.0
    for _ in range(20):
        xi = random_algebra_section(atlas, group, rng)
        eta = random_algebra_section(atlas, group, rng)
        zeta = random_algebra_section(atlas, group, rng)
        g, h, k = exp_section(xi), exp_section(eta), exp_section(zeta)
        assoc = max(assoc, sup_gap(group_multiply(group_multiply(g, h), k),
                                   group_multiply(g, group_multiply(h, k))))
        ident_gap = max(ident_gap, sup_gap(group_multiply(g, ident), g))
        inverse = max(inverse, sup_gap(group_multiply(g, group_invert(g)), ident))
        explog = max(explog, (log_section(g) - xi).section.sup_norm())
    conj = 0.0
    for _ in range(100):
        xi = random_algebra_section(atlas, group, rng)
        eta = random_algebra_section(atlas, group, rng)
        g = exp_section(xi)
        lhs = group_multiply(group_multiply(g, exp_section(eta)), group_invert(g))
        rhs = exp_section(adjoint_operator(g, eta))
        conj = max(conj, sup_gap(lhs, rhs))
    slope = bch_order2_probe(
        random_algebra_section(atlas, group, rng),
        random_algebra_section(atlas, group, rng),
    )
    ok = (
        assoc <= 1e-12
        and ident_gap <= 1e-12
        and inverse <= 1e-12
        and explog <= 1e-9
        and conj <= 1e-10
        and slope >= 2.9
    )
    line = verdict(
        6,
        "group identities",
        ok,
        f"assoc {assoc:.2e}, ident {ident_gap:.2e}, inv {inverse:.2e} <= 1e-12; "
        f"exp/log {explog:.2e} <= 1e-9; conj {conj:.2e} <= 1e-10 over 100 pairs; "
        f"order-2 slope {slope:.3f} >= 2.9",
    )
    assert ok, line


def test_criterion_07_pointwise_bracket():
    rng = np.random.default_rng(707)
    atlas = circle_two_charts()
    worst = 0.0
    for name in ("SO3", "SU2", "UT2"):
        group = group_by_name(name)
        xi = random_algebra_section(atlas, group, rng)
        eta = random_algebra_section(atlas, group, rng)
        probed = bracket_from_products(xi, eta, t=1e-3)
        gap = (probed - bracket(xi, eta)).section.sup_norm()
        worst = max(worst, gap)
    ok = worst <= 1e-6
    line = verdict(7, "pointwise bracket", ok, f"worst extraction gap {worst:.3e} at t=1e-3, tol 1e-6")
    assert ok, line


def test_criterion_08_compact_inclusion_spectrum():
    worst = 0.0
    for s, t, n in ((2.0, 1.0, 8), (1.5, 0.5, 16), (3.0, 1.0, 64)):
        k = np.arange(-n, n + 1, dtype=float)
        for conv, quarter in (("paper", 4.0), ("standard", 2.0)):
            want = np.sort((1.0 + k**2) ** ((t - s) / quarter))[::-1]
            got = rellich_spectrum(s, t, n, convention=conv)
            worst = max(worst, float(np.abs(got - want).max()))
    # decay witness with gap >= 1 at cutoff 64: sigma_min = 1/(1+64^2)
    sig = rellich_spectrum(4.5, 0.5, 64)
    tail = float(sig[-1])
    ok = worst <= 1e-12 and tail < 1e-3
    line = verdict(
        8,
        "compact inclusion spectrum",
        ok,
        f"closed-form gap {worst:.3e} <= 1e-12; tail {tail:.3e} < 1e-3 at s-t=4, N=64",
    )
    assert ok, line


def test_criterion_09_direct_limit_witnesses():
    max_err = 0.0
    for alpha in (1.0, 1.5, 2.0):
        est = critical_order_estimate(alpha)
        max_err = max(max_err, abs(est - (2.0 * alpha - 1.0)))
    rng = np.random.default_rng(909)
    lad = ladder(0.5, 4)
    worst_mono = 0.0
    for _ in range(20):
        gamma = random_field(1, MODES, 1, rng)
        norms = [hs_norm(gamma, s) for s in lad.rungs]
        for coarse, fine in zip(norms[1:], norms[:-1]):
            worst_mono = max(worst_mono, (coarse - fine) / max(fine, 1e-300))
    ok = max_err <= 0.1 and worst_mono <= 1e-12
    line = verdict(
        9,
        "direct limit witnesses",
        ok,
        f"critical-order error {max_err:.4f} <= 0.1; rung monotonicity violation "
        f"{worst_mono:.3e} <= 1e-12",
    )
    assert ok, line


def test_criterion_10_evolution():
    rng = np.random.default_rng(1010)
    atlas = circle_two_charts()
    xi = random_algebra_section(atlas, so3(), rng)
    curve = constant_curve(xi)
    want = exp_section(xi)

    def err(steps):
        got = evolve(curve, steps)
        return max(float(np.abs(p - q).max()) for p, q in zip(got.pieces, want.pieces))

    ratio = err(32) / err(64)
    eta = random_algebra_section(atlas, so3(), rng, amplitude=0.5)
    slope = evolution_smoothness_probe(curve, eta, steps=64)
    ok = abs(ratio - 16.0) <= 4.0 and abs(slope - 2.0) <= 0.2
    line = verdict(
        10,
        "evolution",
        ok,
        f"step-halving ratio {ratio:.2f} in 16 +- 4; smoothness slope {slope:.3f} in 2.0 +- 0.2",
    )
    assert ok, line


def test_criterion_11_domain_flow():
    rng = np.random.default_rng(1111)
    slope_err = 0.0
    for d in (disc(), ellipse()):
        f = FlowField(d)
        rep = monotone_descent_check(f, boundary_samples(d, 40, rng))
        assert rep.all_descending
        slope_err = max(slope_err, rep.max_abs_error)
    cert = shrink_domain(FlowField(disc()), 0.1, samples=SAMPLES, rng=rng)
    f = FlowField(ellipse())
    pts = boundary_samples(ellipse(), 40, rng)
    group_law = float(
        np.abs(flow(f, pts, 0.12) - flow(f, flow(f, pts, 0.05), 0.07)).max()
    )
    ok = slope_err <= 1e-4 and cert.margin > 0.0 and group_law <= 1e-8
    line = verdict(
        11,
        "domain flow",
        ok,
        f"descent slope error {slope_err:.3e} <= 1e-4; shrink margin {cert.margin:.4f} > 0 "
        f"({SAMPLES} samples, t0=0.1); group-law residual {group_law:.3e} <= 1e-8",
    )
    assert ok, line


def test_criterion_12_determinism(tmp_path):
    mismatched = []
    for cmd in (["evolve"], ["ladder"]):
        a = tmp_path / f"{cmd[0]}_a"
        b = tmp_path / f"{cmd[0]}_b"
        assert main(cmd + ["--out", str(a), "--seed", "5"]) == 0
        assert main(cmd + ["--out", str(b), "--seed", "5"]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir())
        for name in names:
            if (a / name).read_bytes() != (b / name).read_bytes():
                mismatched.append(f"{cmd[0]}/{name}")
    ok = not mismatched
    line = verdict(
        12,
        "determinism",
        ok,
        "evolve and ladder reports byte-identical across reruns"
        if ok
        else f"mismatched: {', '.join(mismatched)}",
    )
    assert ok, line
