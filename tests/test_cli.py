"""End-to-end runs of the command-line front end (in process)."""

import base64
import contextlib
import functools
import inspect
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapgroups
from mapgroups.cli import TOLERANCE_NAMES, TOLERANCES, build_parser, main
from mapgroups.serialize import MAX_LATTICE_RESOLUTION, encode_array


def read(path: Path):
    return json.loads(path.read_text())


def assert_check_records(rep: dict) -> dict:
    """The report's checks are uniform records whose verdicts give
    ``failing`` and ``passed``; returns the records by check id."""
    checks = rep["checks"]
    assert isinstance(checks, list)
    for c in checks:
        assert isinstance(c, dict) and set(c) == {"check_id", "passed", "measures"}
        assert isinstance(c["passed"], bool) and isinstance(c["measures"], dict)
    by_id = {c["check_id"]: c for c in checks}
    assert len(by_id) == len(checks)
    assert rep["failing"] == sorted(i for i, c in by_id.items() if c["passed"] is False)
    assert rep["passed"] is (rep["failing"] == [])
    return by_id


def test_group_demo_passes_and_reports(tmp_path, capsys):
    code = main(["group-demo", "--out", str(tmp_path), "--seed", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("group_demo: pass")
    rep = read(tmp_path / "group_demo.json")
    assert rep["passed"] is True
    assert rep["group"] == "SO3" and rep["atlas"] == "circle2"
    checks = assert_check_records(rep)
    assert checks["associativity"]["passed"]
    assert checks["bch_order2_slope"]["measures"]["value"] >= 2.9


def test_verify_axioms_writes_all_four_checks(tmp_path):
    code = main(["verify-axioms", "--out", str(tmp_path)])
    assert code == 0
    rep = read(tmp_path / "axioms.json")
    assert_check_records(rep)
    ids = [c["check_id"] for c in rep["checks"]]
    assert ids == ["axiom-GL", "axiom-MU", "axiom-PB", "axiom-PF"]
    assert rep["failing"] == []


def test_norms_emits_table_and_respects_convention(tmp_path):
    code = main(
        ["norms", "--out", str(tmp_path), "--modes", "16", "--convention", "standard"]
    )
    assert code == 0
    rep = read(tmp_path / "norms.json")
    assert_check_records(rep)
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
    assert_check_records(rep)
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
    assert_check_records(rep)
    assert rep["mode"] == "file"
    assert rep["final_relation_defect"] <= 1e-8


def test_ladder_reports_orders_and_spectra(tmp_path):
    code = main(["ladder", "--out", str(tmp_path)])
    assert code == 0
    rep = read(tmp_path / "ladder.json")
    assert_check_records(rep)
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


def test_standard_convention_ladder_targets_its_own_critical_orders(tmp_path):
    code = main(["ladder", "--out", str(tmp_path), "--convention", "standard"])
    assert code == 0
    rep = read(tmp_path / "ladder.json")
    assert [e["target"] for e in rep["critical_orders"]] == [0.5, 1.0, 1.5]
    assert rep["max_order_error"] < 0.1


STANDARD_RUNS = [
    *([command] for command in ("verify-axioms", "norms", "extend", "ladder")),
    *(["shrink-domain", domain] for domain in ("disc", "ellipse", "peanut")),
    *([command, group] for command in ("group-demo", "evolve") for group in ("SO3", "SU2", "UT2")),
]


@pytest.mark.parametrize("run", STANDARD_RUNS, ids="-".join)
def test_every_circle2_subcommand_passes_under_the_standard_convention(tmp_path, run):
    command, *rest = run
    argv = [command, "--out", str(tmp_path), "--convention", "standard"]
    if command in ("group-demo", "evolve"):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"atlas": "circle2", "group": rest[0]}))
        argv += ["--config", str(config)]
    else:
        argv += rest
    assert main(argv) == 0


def test_extend_probe_cli(tmp_path):
    code = main(["extend", "--out", str(tmp_path), "--modes", "16"])
    assert code == 0
    rep = read(tmp_path / "extend.json")
    assert_check_records(rep)
    assert rep["max_interp_residual"] <= 1e-8
    assert rep["max_kernel_overlap"] <= 1e-8
    assert rep["min_minimality_margin"] >= -1e-12
    assert rep["weight_exponent_convention"] == "paper-s/2"


def test_shrink_domain_certificate(tmp_path):
    code = main(["shrink-domain", "--out", str(tmp_path)])
    assert code == 0
    rep = read(tmp_path / "shrink_disc.json")
    assert_check_records(rep)
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


def test_one_parser_serves_repeated_calls(tmp_path):
    """The parser is built once per process; flags on both sides of the
    subcommand and an argparse error leave nothing behind for the next
    call, whose files are those of the same call on a fresh parser."""
    def files(out):
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    build_parser.cache_clear()
    assert main(["ladder", "--out", str(a)]) == 0
    parser = build_parser()
    flags = ["--seed", "5", "--modes", "16"]
    assert main([*flags, "ladder", *flags, "--out", str(b)]) == 0
    assert read(b / "ladder.json")["seed"] == 5
    with pytest.raises(SystemExit) as exc:
        main(["ladder", "--modes", "many"])
    assert exc.value.code == 2
    assert main(["ladder", "--out", str(c)]) == 0
    assert build_parser() is parser
    assert files(c) == files(a)
    assert files(b) != files(a)


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


@pytest.mark.parametrize(
    "command, tolerance, report, check_id",
    [
        ("verify-axioms", "axiom-MU", "axioms.json", "axiom-MU"),
        ("extend", "extension-residual", "extend.json", "extension_residual"),
    ],
    ids=["verify-axioms", "extend"],
)
def test_zero_tolerance_forces_check_failure(
    tmp_path, capsys, command, tolerance, report, check_id
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {tolerance: 0.0}}))
    code = main([command, "--config", str(cfg), "--out", str(tmp_path), "--modes", "16"])
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out
    assert f"failing checks: {check_id}\n" in captured.err
    rep = read(tmp_path / report)
    assert rep["failing"] == [check_id]


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


# Bytes that are not UTF-8, and nesting deeper than the JSON parser's
# recursion limit: each is bad input, so it exits 2 naming the file rather
# than escaping as a traceback.
UNPARSABLE_FILES = pytest.mark.parametrize(
    "content", [b"\xff\xfe{}", b"[" * 100000], ids=["not-utf8", "deep-nesting"]
)


@UNPARSABLE_FILES
def test_unparsable_config_is_an_input_error_naming_the_file(tmp_path, capsys, content):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    assert main(["norms", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid JSON (")


@UNPARSABLE_FILES
def test_unparsable_curve_file_is_an_input_error_naming_the_file(tmp_path, capsys, content):
    path = tmp_path / "curve.json"
    path.write_bytes(content)
    assert main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid JSON (")


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"seed": "abc"}, "'seed'"),
        ({"modes": True}, "'modes'"),
        ({"tolerances": {"x": "a"}}, "'x'"),
        ({"tolerances": [1]}, "'tolerances'"),
        ({"atlas": 4}, "'atlas'"),
        ({"tolerances": {"group-identities": 1e-3, "x": 1}}, "'x'"),
    ],
    ids=[
        "seed-str", "modes-bool", "tolerance-str", "tolerances-list", "atlas-int",
        "tolerance-unknown",
    ],
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
        ({"modes": 0}, "modes"),
        ({"grid_factor": 1}, "grid_factor"),
        ({"modes": 10**30}, "modes"),
        ({"tolerances": {"bracket": -1}}, "'bracket'"),
        ({"tolerances": {"bracket": 10**400}}, "'bracket'"),
    ],
    ids=["modes-zero", "grid-factor-one", "modes-huge", "tolerance-negative",
         "tolerance-beyond-float"],
)
def test_out_of_range_config_values_name_the_file_and_key(tmp_path, capsys, doc, key):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    assert main(["ladder", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and key in err.splitlines()[0]


def test_a_huge_integer_tolerance_is_accepted(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tolerances": {"rung-monotonicity": 10**30}}))
    assert main(["ladder", "--config", str(path), "--out", str(tmp_path)]) == 0


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
                    "kind": "section", "atlas": "circle2", "lattice_resolution": 257,
                    "pieces": [{"kind": "sampled"}, {"kind": "sampled"}],
                }],
            },
            "curve section 0, piece 0: values must have exactly the keys",
        ),
        (
            {
                "kind": "curve", "group": "SO3", "times": [0.0, 1.0],
                "sections": [{
                    "kind": "section", "atlas": "circle2",
                    "lattice_resolution": 257, "pieces": [[[0.0, 0.0, 0.0]]],
                }],
            },
            "curve section 0: one piece per chart required",
        ),
    ],
    ids=["no-group", "no-sections", "sections-object", "list", "bare-piece", "one-piece"],
)
def test_malformed_curve_files_are_input_errors(tmp_path, capsys, doc, key):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    assert main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err and key in err


@pytest.mark.parametrize("tol", ["NaN", "Infinity", "0", "-1", "1e-6"])
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
    assert err.startswith(
        f"error: {path}: curve section 0: section key 'tolerance' must be 1e-09, got"
    )
    assert not (tmp_path / "evolve.json").exists()


@pytest.mark.parametrize(
    "resolution", [10**19, MAX_LATTICE_RESOLUTION + 1], ids=["1e19", "limit+1"]
)
def test_curve_file_with_a_huge_lattice_resolution_exits_2(tmp_path, capsys, resolution):
    """The limit is checked before the named atlas is built."""
    from mapgroups.atlas import circle_two_charts
    from mapgroups.groups import random_algebra_section, so3
    from mapgroups.limits import constant_curve
    from mapgroups.serialize import dump_curve

    xi = random_algebra_section(circle_two_charts(), so3(), np.random.default_rng(5))
    doc = dump_curve(constant_curve(xi))
    doc["sections"][0]["lattice_resolution"] = resolution
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    assert main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: {path}: curve section 0: section key 'lattice_resolution' must be at most "
        f"{MAX_LATTICE_RESOLUTION}, got {resolution}\n"
    )
    assert not (tmp_path / "evolve.json").exists()


def test_curve_file_whose_header_names_another_atlas_exits_2(tmp_path, capsys):
    from mapgroups.atlas import circle_two_charts
    from mapgroups.groups import random_algebra_section, so3
    from mapgroups.limits import constant_curve
    from mapgroups.serialize import dump_curve

    xi = random_algebra_section(circle_two_charts(), so3(), np.random.default_rng(5))
    doc = dump_curve(constant_curve(xi))
    doc.update(atlas="torus4", atlas_hash="000000000000", lattice_resolution=7)
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    assert main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: curve key 'atlas' must be 'circle2', got 'torus4'\n"
    assert not (tmp_path / "evolve.json").exists()


def test_curve_file_with_corrupt_base64_exits_2(tmp_path, capsys):
    from mapgroups.atlas import circle_two_charts
    from mapgroups.groups import random_algebra_section, so3
    from mapgroups.limits import constant_curve
    from mapgroups.serialize import dump_curve

    xi = random_algebra_section(circle_two_charts(), so3(), np.random.default_rng(5))
    doc = dump_curve(constant_curve(xi))
    values = doc["sections"][1]["pieces"][0]
    values["b64"] = values["b64"][:10] + "!" + values["b64"][11:]
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    assert main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: curve section 1, piece 0: values b64 is not valid base64\n"
    assert not (tmp_path / "evolve.json").exists()


@pytest.mark.parametrize(
    "replace, fault",
    [
        # A piece as a sampled-field document, the form before pieces were
        # bare node values (tests/test_serialize.py builds the full form).
        (lambda piece, chart: {"kind": "sampled", "values": piece},
         "values must have exactly the keys ['b64', 'dtype', 'shape'], got ['kind', 'values']"),
        (lambda piece, chart: encode_array(np.zeros((chart.window.node_count - 1, 3))),
         "values must have shape (140, n), got (139, 3)"),
        (lambda piece, chart: [[0.0, 0.0, 0.0], [0.0]],
         "values must be a rectangular array of numbers"),
        # One-byte booleans, an encoded dtype files no longer hold.
        (lambda piece, chart: {"dtype": "|b1", "shape": [chart.window.node_count, 3],
                               "b64": base64.b64encode(b"\x01" * chart.window.node_count * 3)
                               .decode("ascii")},
         "values has dtype '|b1', expected '<f8'"),
        (lambda piece, chart: [[0.0, float("nan"), 0.0]] * chart.window.node_count,
         "nonfinite value at node 0, component 1"),
    ],
    ids=["old-form-piece", "short-piece", "ragged-piece", "boolean-piece", "nonfinite-piece"],
)
def test_curve_file_with_a_piece_not_of_its_charts_nodes_exits_2(
    tmp_path, capsys, replace, fault
):
    from mapgroups.atlas import circle_two_charts
    from mapgroups.groups import random_algebra_section, so3
    from mapgroups.limits import constant_curve
    from mapgroups.serialize import dump_curve

    a = circle_two_charts()
    doc = dump_curve(constant_curve(random_algebra_section(a, so3(), np.random.default_rng(5))))
    pieces = doc["sections"][0]["pieces"]
    pieces[0] = replace(pieces[0], a.charts[0])
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    assert main(["evolve", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: curve section 0, piece 0: {fault}")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "evolve.json").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("group, message", [
    # Finite entries up to 5e191 whose relation defect is NaN at every node:
    # re-projection cannot repair them, so the relation check fails first.
    ("SO3", "check failed: chart 0: time-1 value relation defect nan exceeds 1.0e-10 "
            "even after re-projection\n"),
    ("UT2", "check failed: time-1 value: group section overlap defect "),
], ids=["SO3", "UT2"])
def test_time1_value_failing_the_overlap_check_exits_1(tmp_path, capsys, group, message):
    """A valid curve whose computed time-1 value is off the group or
    disagrees across overlaps is a failed check, not bad input."""
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
    assert err.startswith(message)
    assert not (tmp_path / "run" / "evolve.json").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_time1_value_with_a_negative_ut2_diagonal_exits_1(tmp_path, capsys):
    """A 65-sample UT2 curve that is 0 but for a last sample of (-1000, 0, 0)
    blows up the RK4 factors, and its time-1 diagonal comes out negative.
    Re-projection zeroes only the lower entry, so the value stays off the
    group and the run fails, naming the chart."""
    from mapgroups.atlas import circle_two_charts
    from mapgroups.fields import SampledField
    from mapgroups.groups import AlgebraSection, upper_triangular2
    from mapgroups.limits import TimeSampledCurve
    from mapgroups.sections import Section
    from mapgroups.serialize import dump_curve, write_json

    atlas, group = circle_two_charts(), upper_triangular2()

    def constant(value):
        pieces = tuple(
            SampledField(c.window, np.tile(value, (c.window.node_count, 1)))
            for c in atlas.charts
        )
        return AlgebraSection(group, Section(atlas, pieces))

    sections = (constant([0.0, 0.0, 0.0]),) * 64 + (constant([-1000.0, 0.0, 0.0]),)
    path = tmp_path / "curve.json"
    write_json(path, dump_curve(TimeSampledCurve(np.linspace(0.0, 1.0, 65), sections)))
    assert main(["evolve", str(path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == (
        "check failed: chart 0: time-1 value relation defect 5.577e+01 exceeds "
        "1.0e-10 even after re-projection\n"
    )
    assert not (tmp_path / "run" / "evolve.json").exists()


@functools.cache
def three_sample_curve(group_name: str) -> str:
    """A valid circle2 curve file of three random algebra sections, as JSON."""
    from mapgroups.atlas import circle_two_charts
    from mapgroups.groups import group_by_name, random_algebra_section
    from mapgroups.limits import TimeSampledCurve
    from mapgroups.serialize import canonical_json, dump_curve

    atlas, group = circle_two_charts(), group_by_name(group_name)
    rng = np.random.default_rng(31)
    times = np.linspace(0.0, 1.0, 3)
    curve = TimeSampledCurve(
        times, tuple(random_algebra_section(atlas, group, rng) for _ in times)
    )
    return canonical_json(dump_curve(curve))


def key_paths(doc, prefix=()):
    """Paths to every object key of a JSON document, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        if isinstance(doc, dict):
            yield prefix + (k,)
        if isinstance(v, (dict, list)):
            yield from key_paths(v, prefix + (k,))


CORRUPT_BASE64 = object()
REPLACEMENTS = [
    "text", [], {}, None, True, -3, 1.5,
    float("nan"), float("inf"), float("-inf"), 10**30, CORRUPT_BASE64,
]


@settings(max_examples=30)
@given(data=st.data())
def test_mutated_curve_files_keep_the_exit_contract(tmp_path_factory, data):
    """A curve file with one key deleted or set to a wrong type, NaN, +-Inf,
    a huge integer or corrupt base64 exits 0, 1 or 2 without a traceback,
    and exit 2 prints an error line naming the file."""
    group_name = data.draw(st.sampled_from(["SO3", "SU2", "UT2"]))
    doc = json.loads(three_sample_curve(group_name))
    path = data.draw(st.sampled_from(list(key_paths(doc))))
    holder = functools.reduce(lambda node, k: node[k], path[:-1], doc)
    value = data.draw(st.sampled_from(["delete", *REPLACEMENTS]))
    if value == "delete":
        del holder[path[-1]]
    elif value is CORRUPT_BASE64:
        old = holder[path[-1]]
        holder[path[-1]] = old[:10] + "!" + old[11:] if isinstance(old, str) else "!"
    else:
        holder[path[-1]] = value
    work = tmp_path_factory.mktemp("mutated")
    curve_path = work / "curve.json"
    curve_path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["evolve", str(curve_path), "--out", str(work / "run")])
    assert code in (0, 1, 2), (path, value, code)
    if code == 2:
        first = err.getvalue().splitlines()[0]
        assert first.startswith(f"error: {curve_path}: "), (path, value, first)


def mutate(doc, data):
    """Delete one key of ``doc`` or set it to one of REPLACEMENTS, in place;
    returns the key's path and the value drawn."""
    path = data.draw(st.sampled_from(list(key_paths(doc))))
    holder = functools.reduce(lambda node, k: node[k], path[:-1], doc)
    value = data.draw(st.sampled_from(["delete", *REPLACEMENTS]))
    if value == "delete":
        del holder[path[-1]]
    elif value is CORRUPT_BASE64:
        old = holder[path[-1]]
        holder[path[-1]] = old[:10] + "!" + old[11:] if isinstance(old, str) else "!"
    else:
        holder[path[-1]] = value
    return path, value


CONFIG = {
    "seed": 3, "modes": 8, "grid_factor": 3, "atlas": "circle2", "group": "SO3",
    "convention": "paper", "out": "unused",
    "tolerances": {"evolve-gap": 1e-8, "rung-monotonicity": 1e-12},
}


@settings(max_examples=25)
@given(data=st.data(), command=st.sampled_from(["evolve", "ladder"]))
def test_mutated_config_files_keep_the_exit_contract(tmp_path_factory, data, command):
    """A circle2 config file with one key deleted or mutated exits 0, 1 or
    2, and exit 2 prints an error line naming the file and the key."""
    doc = json.loads(json.dumps(CONFIG))
    path, value = mutate(doc, data)
    work = tmp_path_factory.mktemp("mutated")
    config_path = work / "config.json"
    config_path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["--config", str(config_path), command, "--out", str(work / "run")])
    assert code in (0, 1, 2), (path, value, code)
    if code == 2:
        first = err.getvalue().splitlines()[0]
        assert first.startswith(f"error: {config_path}: "), (path, value, first)
        assert str(path[-1]) in first, (path, value, first)


@functools.cache
def section_documents() -> dict:
    """Valid circle2 section and SO3 group-section documents, as JSON."""
    from mapgroups.atlas import builtin_atlas
    from mapgroups.groups import exp_section, random_algebra_section, so3
    from mapgroups.sections import random_section
    from mapgroups.serialize import canonical_json, dump_group_section, dump_section

    atlas, rng = builtin_atlas("circle2"), np.random.default_rng(37)
    return {
        "section": canonical_json(dump_section(random_section(atlas, 2, rng))),
        "group_section": canonical_json(
            dump_group_section(exp_section(random_algebra_section(atlas, so3(), rng)))
        ),
    }


@settings(max_examples=25)
@given(data=st.data(), kind=st.sampled_from(["section", "group_section"]))
def test_mutated_section_documents_load_or_raise_input_errors(data, kind):
    from mapgroups.errors import InputError
    from mapgroups.serialize import load_group_section, load_section

    doc = json.loads(section_documents()[kind])
    mutate(doc, data)
    load = load_section if kind == "section" else load_group_section
    try:
        load(doc)
    except InputError:
        pass


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


def test_readme_tolerance_table_lists_every_accepted_name():
    from mapgroups import axioms

    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `([a-zA-Z-]+)` \| ([^ |]+) \|", readme.read_text(), re.M)
    table = {name: float(default) for name, default in rows}
    assert len(table) == len(rows)
    assert sorted(table) == TOLERANCE_NAMES
    probes = {
        "axiom-PF": axioms.probe_superposition_continuity,
        "axiom-PB": axioms.probe_pullback_functoriality,
        "axiom-MU": axioms.probe_cutoff_bound,
    }
    for name, probe in probes.items():
        keyword = axioms.TOLERANCE_KEYWORDS[name]
        assert table[name] == inspect.signature(probe).parameters[keyword].default, name
    for name, default in TOLERANCES.items():
        assert table[name] == default, name
