"""End-to-end runs of the command-line front end (in process)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mapgroups
from mapgroups.cli import main


def read(path: Path):
    return json.loads(path.read_text())


def test_group_demo_passes_and_reports(tmp_path, capsys):
    code = main(["group-demo", "--out", str(tmp_path), "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("group_demo: pass")
    rep = read(tmp_path / "group_demo.json")
    assert rep["passed"] is True
    assert rep["group"] == "SO3" and rep["atlas"] == "circle2"
    assert rep["checks"]["associativity"]["passed"]
    assert rep["bch_order2_slope"]["value"] >= 2.9


def test_verify_axioms_writes_all_four_checks(tmp_path):
    code = main(["verify-axioms", "--out", str(tmp_path)])
    assert code == 0
    rep = read(tmp_path / "axioms.json")
    ids = [c["check_id"] for c in rep["checks"]]
    assert ids == ["axiom-GL", "axiom-MU", "axiom-PB", "axiom-PF"]
    assert rep["failing"] == []


def test_norms_emits_table_and_respects_convention(tmp_path):
    code = main(
        ["norms", "--out", str(tmp_path), "--modes", "16", "--convention", "standard"]
    )
    assert code == 0
    rep = read(tmp_path / "norms.json")
    assert rep["weight_exponent_convention"] == "standard-s"
    assert rep["max_relative_violation"] <= 1e-12
    assert rep["norm_table"] == "norms.csv"
    csv = (tmp_path / "norms.csv").read_text()
    assert csv.startswith("# weight_exponent_convention=standard-s\n")
    assert csv.splitlines()[1] == "s,norm"


def test_evolve_constant_curve_and_artifact(tmp_path):
    code = main(["evolve", "--out", str(tmp_path), "--seed", "3"])
    assert code == 0
    rep = read(tmp_path / "evolve.json")
    assert rep["check_id"] == "eq-inival"
    assert rep["mode"] == "constant"
    assert rep["constant_curve_gap"] <= 1e-8
    assert 8.0 <= rep["halving_error_ratio"] <= 32.0
    assert rep["eta1_file"] == "evolve_eta1.json"
    eta = read(tmp_path / "evolve_eta1.json")
    assert eta["kind"] == "group_section"
    assert eta["group"] == "SO3"


def test_evolve_accepts_curve_file(tmp_path):
    from mapgroups.atlas import circle_two_charts
    from mapgroups.groups import random_algebra_section, so3
    from mapgroups.limits import constant_curve
    from mapgroups.serialize import dump_curve, write_json

    xi = random_algebra_section(
        circle_two_charts(), so3(), np.random.default_rng(5), amplitude=0.4
    )
    curve_path = tmp_path / "curve.json"
    write_json(curve_path, dump_curve(constant_curve(xi)))
    code = main(["evolve", str(curve_path), "--out", str(tmp_path / "run")])
    assert code == 0
    rep = read(tmp_path / "run" / "evolve.json")
    assert rep["mode"] == "file"
    assert rep["final_relation_defect"] <= 1e-8


def test_ladder_reports_orders_and_spectra(tmp_path):
    code = main(["ladder", "--out", str(tmp_path)])
    assert code == 0
    rep = read(tmp_path / "ladder.json")
    assert rep["rungs"] == [1.5, 1.0, 0.8333333333333333, 0.75]
    for entry in rep["critical_orders"]:
        assert abs(entry["estimate"] - entry["target"]) < 0.1
    assert [s["file"] for s in rep["spectra"]] == [
        "spectrum_rung_1.csv",
        "spectrum_rung_2.csv",
        "spectrum_rung_3.csv",
    ]
    for s in rep["spectra"]:
        assert (tmp_path / s["file"]).exists()
        assert s["sigma_max"] == 1.0
        assert s["decreasing"] is True


def test_extend_probe_cli(tmp_path):
    code = main(["extend", "--out", str(tmp_path), "--modes", "16"])
    assert code == 0
    rep = read(tmp_path / "extend.json")
    assert rep["max_interp_residual"] <= 1e-8
    assert rep["max_kernel_overlap"] <= 1e-8
    assert rep["min_minimality_margin"] >= -1e-12
    assert rep["weight_exponent_convention"] == "paper-s/2"


def test_shrink_domain_certificate(tmp_path):
    code = main(["shrink-domain", "--out", str(tmp_path)])
    assert code == 0
    rep = read(tmp_path / "shrink_disc.json")
    assert rep["margin"] == pytest.approx(0.19, abs=1e-6)
    assert rep["anchor_fixed_defect"] == 0.0
    code2 = main(["shrink-domain", "ellipse", "--out", str(tmp_path)])
    assert code2 == 0
    assert (tmp_path / "shrink_ellipse.json").exists()


# ---------------------------------------------------------------------------
# determinism


def test_identical_config_gives_identical_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["evolve", "--out", str(a), "--seed", "7"]) == 0
    assert main(["evolve", "--out", str(b), "--seed", "7"]) == 0
    for name in ("evolve.json", "evolve_eta1.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_seed_changes_the_report(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["group-demo", "--out", str(a), "--seed", "1"]) == 0
    assert main(["group-demo", "--out", str(b), "--seed", "2"]) == 0
    ra = read(a / "group_demo.json")
    rb = read(b / "group_demo.json")
    assert ra != rb
    assert ra["passed"] and rb["passed"]


def test_flags_work_before_and_after_the_subcommand(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--seed", "4", "--out", str(a), "evolve"]) == 0
    assert main(["evolve", "--seed", "4", "--out", str(b)]) == 0
    assert (a / "evolve.json").read_bytes() == (b / "evolve.json").read_bytes()
    # the later position wins when both are given
    c = tmp_path / "c"
    assert main(["--seed", "1", "evolve", "--seed", "4", "--out", str(c)]) == 0
    assert read(c / "evolve.json")["seed"] == 4


def test_config_file_merges_under_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, "atlas": "circle2", "group": "UT2"}))
    out = tmp_path / "out"
    code = main(["group-demo", "--config", str(cfg), "--out", str(out), "--seed", "12"])
    assert code == 0
    rep = read(out / "group_demo.json")
    assert rep["seed"] == 12  # flag beats file
    assert rep["group"] == "UT2"  # file beats default


def test_config_file_out_is_used_without_the_flag(tmp_path, capsys):
    out = tmp_path / "from_config"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out": str(out)}))
    code = main(["norms", "--config", str(cfg)])
    assert code == 0
    assert capsys.readouterr().out == f"norms: pass ({out / 'norms.json'})\n"
    assert read(out / "norms.json")["norm_table"] == "norms.csv"
    assert (out / "norms.csv").is_file()


# ---------------------------------------------------------------------------
# failure and error paths


def test_zero_tolerance_forces_check_failure(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"axiom-MU": 0.0}}))
    code = main(["verify-axioms", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert "failing checks: axiom-MU" in captured.err
    rep = read(tmp_path / "axioms.json")
    assert rep["failing"] == ["axiom-MU"]


def test_unknown_atlas_is_an_input_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"atlas": "moebius"}))
    code = main(["group-demo", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    assert "unknown atlas" in capsys.readouterr().err


def test_unknown_domain_is_an_input_error(tmp_path, capsys):
    code = main(["shrink-domain", "annulus", "--out", str(tmp_path)])
    assert code == 2
    assert "unknown domain" in capsys.readouterr().err


def test_missing_and_malformed_configs(tmp_path, capsys):
    code = main(["norms", "--config", str(tmp_path / "nope.json")])
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["norms", "--config", str(bad)]) == 2
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    assert main(["norms", "--config", str(listy)]) == 2
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"seeds": 3}))
    assert main(["norms", "--config", str(extra)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"seed": "abc"}, "'seed'"),
        ({"modes": True}, "'modes'"),
        ({"tolerances": {"x": "a"}}, "'x'"),
        ({"tolerances": [1]}, "'tolerances'"),
        ({"atlas": 4}, "'atlas'"),
    ],
    ids=["seed-str", "modes-bool", "tolerance-str", "tolerances-list", "atlas-int"],
)
def test_mistyped_config_values_are_input_errors(tmp_path, capsys, doc, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["norms", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and key in err
    assert not (tmp_path / "norms.json").exists()


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"kind": "curve"}, "'group'"),
        ({"kind": "curve", "group": "SO3", "times": [0.0]}, "'sections'"),
        ({"kind": "curve", "group": "SO3", "sections": {}, "times": []}, "'sections'"),
        ([1], "not a curve document"),
        (
            {
                "kind": "curve", "group": "SO3", "times": [0.0, 1.0],
                "sections": [{
                    "kind": "section", "atlas": "circle2",
                    "lattice_resolution": 257, "pieces": [{"kind": "sampled"}],
                }],
            },
            "'m'",
        ),
    ],
    ids=["no-group", "no-sections", "sections-object", "list", "bare-piece"],
)
def test_malformed_curve_files_are_input_errors(tmp_path, capsys, doc, key):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    assert main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and key in err


@pytest.mark.parametrize("tol", ["NaN", "Infinity", "0", "-1"])
def test_curve_file_with_a_bad_tolerance_exits_2(tmp_path, capsys, tol):
    from mapgroups.atlas import circle_two_charts
    from mapgroups.groups import random_algebra_section, so3
    from mapgroups.limits import constant_curve
    from mapgroups.serialize import dump_curve

    xi = random_algebra_section(circle_two_charts(), so3(), np.random.default_rng(5))
    doc = dump_curve(constant_curve(xi))
    doc["sections"][0]["tolerance"] = float(tol)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    assert main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: curve section 0: tolerance must be positive")
    assert not (tmp_path / "evolve.json").exists()


def test_curve_file_with_corrupt_base64_exits_2(tmp_path, capsys):
    from mapgroups.atlas import circle_two_charts
    from mapgroups.groups import random_algebra_section, so3
    from mapgroups.limits import constant_curve
    from mapgroups.serialize import dump_curve

    xi = random_algebra_section(circle_two_charts(), so3(), np.random.default_rng(5))
    doc = dump_curve(constant_curve(xi))
    values = doc["sections"][1]["pieces"][0]["values"]
    values["b64"] = values["b64"][:10] + "!" + values["b64"][11:]
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    assert main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {path}: curve section 1, piece 0: sampled key 'values' b64 is not valid base64"
    )
    assert not (tmp_path / "evolve.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("group", ["SO3", "UT2"])
def test_time1_value_failing_the_overlap_check_exits_1(tmp_path, capsys, group):
    """A valid curve whose computed time-1 value disagrees across overlaps
    is a failed check, not bad input."""
    from mapgroups.atlas import circle_two_charts
    from mapgroups.groups import group_by_name, random_algebra_section
    from mapgroups.limits import constant_curve
    from mapgroups.serialize import dump_curve, write_json

    xi = random_algebra_section(circle_two_charts(), group_by_name(group),
                                np.random.default_rng(5), amplitude=800.0)
    path = tmp_path / "curve.json"
    write_json(path, dump_curve(constant_curve(xi)))
    assert main(["evolve", str(path), "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failed: time-1 value: group section overlap defect ")
    assert not (tmp_path / "run" / "evolve.json").exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(mapgroups.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-m", "mapgroups", "ladder", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ladder: pass")
