"""CLI contract: exit codes, artifact layout, determinism, overrides."""

import csv
import hashlib
import json
import math
import os
import re

import numpy as np
import pytest

import isoflow.flow_levelset as flow_levelset_mod
import isoflow.flow_ode as flow_ode_mod
import isoflow.mass as mass_mod
import isoflow.metric as metric_mod
import isoflow.profile as profile_mod
import isoflow.runner as runner_mod
from isoflow.cli import main
from isoflow.config import ConfigError, TimeSpec, parse_plan
from isoflow.measure import MAX_NODES, AxiGrid
from isoflow.trace import ComponentRecord, FlowTrace, RunFailure, TraceSample

TRACE_HEADER = "t,A_total,V_total,Q,ratio,n_components,n_frozen"
COMPONENTS_HEADER = "t,id,frozen,freeze_time,perimeter,volume,hawking"
MASS_TABLE_HEADER = "r,area,volume,qlm,hawking,qlm_gap_scaled"
VERDICT_RE = re.compile(r"^(PASS|FAIL) [a-z0-9@.-]+ slack=-?(\d|inf)")
ARTIFACTS = os.path.join(os.path.dirname(__file__), "data", "cli_artifacts.json")


def write_plan(tmp_path, scenarios, name="plan.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"scenarios": scenarios}), encoding="utf-8")
    return str(path)


def ode_scenario(name="ode-m1"):
    return {
        "name": name,
        "mode": "ode-flow",
        "metric": {"kind": "schwarzschild", "mass": 1.0},
        "r0": 10.0,
        "time": {"t_max": 2.0, "sample_interval": 0.5},
    }


def small_levelset_scenario(name="ball"):
    return {
        "name": name,
        "mode": "levelset-flow",
        "metric": {"kind": "euclidean"},
        "shape": {"kind": "sphere", "r0": 1.0},
        "grid": {"h": 0.05, "rho_max": 1.3, "z_min": -1.3, "z_max": 1.3},
        "time": {"t_max": 0.1, "sample_interval": 0.05},
    }


def mass_table_scenario(name="table-m1"):
    return {
        "name": name,
        "mode": "mass-table",
        "metric": {"kind": "schwarzschild", "mass": 1.0},
        "r_values": [0.6, 1.5, 4.0, 10.0, 40.0],
    }


def tree_bytes(root):
    """Map of relative path -> file bytes for a directory tree."""
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for fn in filenames:
            full = os.path.join(dirpath, fn)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, root)] = fh.read()
    return out


# ---------------------------------------------------------------------------
# exit code 2: malformed configuration


def test_broken_json_reports_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"scenarios": [\n  {"name" "x"}\n]}', encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err
    assert "line 2" in err


def test_unknown_field_is_rejected_by_name(tmp_path, capsys):
    sc = ode_scenario()
    sc["wibble"] = 3
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(tmp_path / "out")]) == 2
    assert "wibble" in capsys.readouterr().err


def test_missing_required_field(tmp_path, capsys):
    sc = ode_scenario()
    del sc["r0"]
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(tmp_path / "out")]) == 2
    assert "r0" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "bad config" in capsys.readouterr().err


def test_cfl_violating_dt_override(tmp_path, capsys):
    plan = write_plan(tmp_path, [small_levelset_scenario()])
    # h = 0.05 puts the stability bound near 5e-4; 0.05 is two orders past it
    assert main(["run", plan, "--out", str(tmp_path / "out"), "--dt", "0.05"]) == 2
    assert "bad config" in capsys.readouterr().err


def test_ode_dt_must_divide_sample_interval(tmp_path, capsys):
    sc = ode_scenario()
    sc["time"]["dt"] = 0.3  # 0.5 / 0.3 is not an integer
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(tmp_path / "out")]) == 2
    assert "sample_interval" in capsys.readouterr().err


@pytest.mark.parametrize("mass", [1e-40, 1e40])
def test_the_default_ode_step_scales_with_the_mass(mass):
    # flow time scales as m^2, so a run scaled with it takes the steps of m = 1
    def sampling(m):
        time = TimeSpec(t_max=9.5 * m * m, sample_interval=0.1 * m * m)
        dt, every = time.ode_sampling(m, "time")
        return every, round(time.t_max / dt)

    assert sampling(mass) == sampling(1.0) == (200, 19000)
    # no step at m <= 1 changes: the step is at most 1e-3 there
    assert TimeSpec(t_max=1.0, sample_interval=0.5).ode_sampling(0.5, "time") == (1e-3, 500)


def test_a_nonpositive_h_override_is_rejected_by_flag(tmp_path, capsys):
    plan = write_plan(tmp_path, [small_levelset_scenario()])
    assert main(["run", plan, "--out", str(tmp_path / "out"), "--h", "0"]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and "--h" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dt", ["0", "nan", "1e-320", "-1"])
def test_an_ode_dt_override_that_is_not_a_usable_step_is_rejected_by_flag(tmp_path, capsys, dt):
    # 0, NaN and -1 are not positive and finite; 0.5 / 1e-320 overflows
    plan = write_plan(tmp_path, [ode_scenario()])
    assert main(["run", plan, "--out", str(tmp_path / "out"), f"--dt={dt}"]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and "--dt" in err
    assert not (tmp_path / "out").exists()


def test_an_ode_dt_rule_broken_mid_plan_fails_before_any_scenario_runs(tmp_path, capsys):
    second = ode_scenario("second")
    second["time"]["dt"] = 0.3  # 0.5 / 0.3 is not an integer
    plan = write_plan(tmp_path, [ode_scenario("first"), second])
    assert main(["run", plan, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "scenarios[1].time.dt" in err and "sample_interval" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scenario", [ode_scenario, small_levelset_scenario], ids=["ode-flow", "levelset-flow"])
def test_a_sample_interval_too_long_to_count_in_steps_is_a_config_error(tmp_path, capsys, scenario):
    # finite, but the interval over one step is inf
    sc = scenario()
    sc["time"]["sample_interval"] = 1e306
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and "sample_interval" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["reinit_cadence", "sweep_cadence"])
def test_a_cadence_past_the_float_range_is_a_config_error(tmp_path, capsys, field):
    # an integer the parser takes, but the run counts its periods in floats
    sc = small_levelset_scenario()
    sc["time"][field] = 10**400
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"bad config: scenarios[0].time.{field}: must be finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    # a config built in code is checked by the same rule
    with pytest.raises(ConfigError, match=f"^{field}: must be finite"):
        TimeSpec(t_max=0.1, sample_interval=0.05, **{field: 10**400})


@pytest.mark.parametrize(
    "bad, flags, named",
    [
        ({"time": {"t_max": 0.1, "sample_interval": 1e306}}, [], "b"),  # too long for steps of the bound
        ({}, ["--dt", "0.05"], "a"),  # past the stability bound
        ({}, ["--h", "0.6"], "a"),  # too few nodes across the grid
    ],
    ids=["sample-interval", "dt-override", "h-override"],
)
def test_a_config_error_found_in_a_later_flow_leaves_no_output(tmp_path, capsys, bad, flags, named):
    plan = write_plan(tmp_path, [small_levelset_scenario("a"), {**small_levelset_scenario("b"), **bad}])
    assert main(["run", plan, "--out", str(tmp_path / "out"), *flags]) == 2
    err = capsys.readouterr().err
    assert f"bad config: {named}: " in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_stability_bound_that_underflows_exits_2_before_any_output(tmp_path, capsys):
    # h = 1e-170 on a 1e-168 grid: 200 x 100 nodes, and h^2 underflows to 0.0
    tiny = {
        "shape": {"kind": "sphere", "r0": 5e-169},
        "grid": {"h": 1e-170, "rho_max": 1e-168, "z_min": -1e-168, "z_max": 1e-168},
    }
    plan = write_plan(tmp_path, [{**small_levelset_scenario("a"), **tiny}])
    assert main(["run", plan, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad config: a: sample_interval: too long for steps of the stability bound 0.0 at h = 1e-170" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [("h", 0.0), ("dt", math.nan)])
def test_run_plan_names_the_flag_of_a_bad_override_and_creates_nothing(tmp_path, flag, value):
    plan = parse_plan(json.dumps({"scenarios": [small_levelset_scenario()]}))
    with pytest.raises(ConfigError, match=f"^--{flag}: "):
        runner_mod.run_plan(plan, str(tmp_path / "out"), **{flag: value})
    assert not (tmp_path / "out").exists()


BAD_NAMES = ["a\u0000b", "a\ud800", "x" * 300]  # a NUL byte, a lone surrogate, 300 bytes


@pytest.mark.parametrize("name", BAD_NAMES, ids=["nul", "surrogate", "too-long"])
def test_a_name_no_file_system_holds_is_rejected(name):
    sc = {**ode_scenario(), "name": name}
    with pytest.raises(ConfigError, match=r"^scenarios\[0\]\.name: must be usable as a directory name"):
        parse_plan(json.dumps({"scenarios": [sc]}))


@pytest.mark.parametrize("name", BAD_NAMES, ids=["nul", "surrogate", "too-long"])
def test_a_bad_name_in_a_later_scenario_leaves_no_output(tmp_path, capsys, name):
    plan = write_plan(tmp_path, [ode_scenario("first"), {**ode_scenario(), "name": name}])
    assert main(["run", plan, "--out", str(tmp_path / "out")]) == 2
    assert "scenarios[1].name" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_h_override_too_coarse_for_the_grid(tmp_path, capsys):
    # h = 1 leaves two nodes across the 1.3-wide grid; the parsed h was fine
    plan = write_plan(tmp_path, [small_levelset_scenario()])
    assert main(["run", plan, "--out", str(tmp_path / "out"), "--h", "1.0"]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and "h = 1.0" in err


def test_an_h_override_whose_node_count_overflows_is_rejected(tmp_path, capsys):
    # 1.3 / 1e-320 is inf: the node count is not a number to sample with
    plan = write_plan(tmp_path, [small_levelset_scenario()])
    assert main(["run", plan, "--out", str(tmp_path / "out"), "--h", "1e-320"]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and "ball" in err and "not finite" in err
    assert "Traceback" not in err


@pytest.fixture
def no_grid_sampled(monkeypatch):
    def refuse(*args):
        raise AssertionError("a grid was allocated")

    monkeypatch.setattr(AxiGrid, "sample", refuse)


def test_an_h_override_past_the_node_cap_is_rejected_before_any_grid(tmp_path, capsys, no_grid_sampled):
    # 1e-5 on the 1.3 x 2.6 grid is about 3.4e10 nodes: finite, and far past the cap
    plan = write_plan(tmp_path, [small_levelset_scenario()])
    assert main(["run", plan, "--out", str(tmp_path / "out"), "--h", "1e-5"]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and "--h: scenarios[0].grid.h" in err and "node cap" in err
    assert not (tmp_path / "out").exists()


def test_a_grid_past_the_node_cap_is_rejected_by_field(tmp_path, capsys, no_grid_sampled):
    sc = small_levelset_scenario()
    sc["grid"]["h"] = 1e-5
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and "scenarios[0].grid.h" in err and "node cap" in err
    assert not (tmp_path / "out").exists()


def test_the_node_cap_bounds_the_node_count():
    n_z = MAX_NODES // 1000
    assert AxiGrid.lattice_shape(1.0, 999.0, 0.0, n_z - 1.0) == (1000, n_z)
    with pytest.raises(ValueError, match="node cap"):
        AxiGrid.lattice_shape(1.0, 999.0, 0.0, float(n_z))  # 1000 more nodes


def test_a_value_error_mid_run_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    # a fault of the program exits 4, with its traceback, neither 2 (bad
    # config) nor 1 (some verdict failed)
    def broken_speed(*args):
        raise ValueError("fault inside the step")

    monkeypatch.setattr(flow_levelset_mod, "_speed", broken_speed)
    plan = write_plan(tmp_path, [small_levelset_scenario()])
    assert main(["run", plan, "--out", str(tmp_path / "out")]) == 4
    captured = capsys.readouterr()
    assert "bad config" not in captured.err
    assert "Traceback" in captured.err and "ValueError: fault inside the step" in captured.err
    assert captured.out == ""


def test_dumbbell_fits_a_grid_narrower_than_its_length():
    # criterion 07's coarsest grid: the dumbbell is 7.7 long in z, 3.5 wide
    sc = small_levelset_scenario("dumbbell")
    sc["shape"] = {"kind": "dumbbell", "ball_radius": 3.5, "separation": 8.4, "neck_radius": 0.7}
    sc["grid"] = {"h": 0.1, "rho_max": 4.4, "z_min": -8.8, "z_max": 8.8}
    (parsed,) = parse_plan(json.dumps({"scenarios": [sc]})).scenarios
    assert parsed.name == "dumbbell" and parsed.grid.rho_max == 4.4


@pytest.mark.parametrize("field", ["z_min", "z_max", "rho_max"])
def test_sphere_outside_the_grid_is_rejected(tmp_path, capsys, field):
    sc = small_levelset_scenario()
    sc["grid"][field] = math.copysign(0.9, sc["grid"][field])  # r0 is 1
    with pytest.raises(ConfigError, match=f"grid.{field}"):
        parse_plan(json.dumps({"scenarios": [sc]}))
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and field in err


def test_ode_sphere_on_the_horizon_is_rejected(tmp_path, capsys):
    # r0 = m/2 has zero enclosed volume, which the drift verdict divides by
    sc = ode_scenario()
    sc["r0"] = 0.5
    with pytest.raises(ConfigError, match=r"scenarios\[0\]\.r0"):
        parse_plan(json.dumps({"scenarios": [sc]}))
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and "scenarios[0].r0" in err


def test_mass_table_radius_inside_the_horizon_is_rejected(tmp_path, capsys):
    # the closed forms reject r < m/2 mid-run; the parser names the entry
    sc = mass_table_scenario()
    sc["r_values"] = [0.1, 0.6]
    with pytest.raises(ConfigError, match=r"scenarios\[0\]\.r_values\[0\]"):
        parse_plan(json.dumps({"scenarios": [sc]}))
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and "scenarios[0].r_values[0]" in err


def test_lemma_suite_needs_a_positive_mass(tmp_path, capsys):
    # the suite's checks are relative to the threshold area 36 pi m^2
    sc = {"name": "lemmas", "mode": "lemma-suite", "metric": {"kind": "euclidean"}}
    with pytest.raises(ConfigError, match=r"scenarios\[0\]\.metric"):
        parse_plan(json.dumps({"scenarios": [sc]}))
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and "scenarios[0].metric" in err


def lemma_suite_scenario(mass):
    return {"name": "lemmas", "mode": "lemma-suite", "metric": {"mass": mass}}


@pytest.mark.parametrize(
    "scenario, field",
    [
        # m^3 and the volume at the suite's largest area, 1e7 m^2, overflow
        (lemma_suite_scenario(1e103), "metric.mass"),
        # the volume inside r = 1e200 overflows at any mass
        ({**mass_table_scenario(), "metric": {"mass": 1e103}, "r_values": [1e200]}, "r_values[0]"),
        # r0 > m/2 has an area past the float range
        ({**ode_scenario(), "metric": {"mass": 1e160}, "r0": 4e160}, "r0"),
    ],
    ids=["lemma-suite", "mass-table", "ode-flow"],
)
def test_a_radial_scale_past_the_float_range_is_rejected_by_field(tmp_path, capsys, scenario, field):
    path = re.escape(f"scenarios[0].{field}")
    with pytest.raises(ConfigError, match=path):
        parse_plan(json.dumps({"scenarios": [scenario]}))
    assert main(["run", write_plan(tmp_path, [scenario]), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and f"scenarios[0].{field}" in err
    assert not (tmp_path / "out").exists()


def tiny_ode_scenario(mass):
    sc = ode_scenario()
    sc["metric"]["mass"] = mass
    sc.update(r0=4.0 * mass, time={"t_max": 0.5 * mass * mass, "sample_interval": 0.1 * mass * mass})
    return sc


@pytest.mark.parametrize(
    "scenario, field",
    [
        # lemma31-decay's volumes are subnormal: it read a false FAIL
        (lemma_suite_scenario(1e-110), "metric.mass"),
        # m^3 and every volume of the suite round to 0
        (lemma_suite_scenario(1e-162), "metric.mass"),
        # the bound's rejected side: lemma53 reads m^3 = 1e-321 to 5%
        (lemma_suite_scenario(1e-107), "metric.mass"),
        # the first volume rounds to 0, and prop36 divides by it
        (tiny_ode_scenario(1e-110), "r0"),
        # the bound's rejected side: prop36 reads 1e-8 of a 5.4e-313 volume
        (tiny_ode_scenario(1e-105), "r0"),
    ],
    ids=["lemma-suite-1e-110", "lemma-suite-1e-162", "lemma-suite-1e-107", "ode-flow-1e-110", "ode-flow-1e-105"],
)
def test_a_radial_volume_that_underflows_is_rejected_by_field(tmp_path, capsys, scenario, field):
    path = re.escape(f"scenarios[0].{field}")
    with pytest.raises(ConfigError, match=path + ": .* underflows?$"):
        parse_plan(json.dumps({"scenarios": [scenario]}))
    assert main(["run", write_plan(tmp_path, [scenario]), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "bad config" in err and f"scenarios[0].{field}" in err
    assert not (tmp_path / "out").exists()


def test_the_smallest_radial_volumes_accepted_still_pass(tmp_path, capsys):
    # the accepted side of both lower bounds; their volumes are subnormal
    plan = write_plan(tmp_path, [lemma_suite_scenario(1e-106), tiny_ode_scenario(1e-104)])
    assert main(["run", plan, "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 8 and all(": PASS " in line for line in lines), lines


@pytest.mark.parametrize(
    "shape",
    [
        {"kind": "sphere", "r0": 0.5},
        {"kind": "oval", "a": 2.0, "b": 0.4},
        {"kind": "dumbbell", "ball_radius": 1.0, "separation": 3.0, "neck_radius": 0.3},
    ],
    ids=["sphere", "oval", "dumbbell"],
)
def test_a_levelset_shape_within_the_horizon_is_rejected(tmp_path, capsys, shape):
    # at m = 1 the horizon radius is 0.5; each zero set comes that close
    # to the origin (the dumbbell's neck at 0.3)
    sc = small_levelset_scenario()
    sc["metric"] = {"mass": 1.0}
    sc["shape"] = shape
    sc["grid"] = {"h": 0.1, "rho_max": 3.0, "z_min": -3.0, "z_max": 3.0}
    with pytest.raises(ConfigError, match=r"scenarios\[0\]\.shape"):
        parse_plan(json.dumps({"scenarios": [sc]}))
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(tmp_path / "out")]) == 2
    assert "scenarios[0].shape" in capsys.readouterr().err
    # just outside the horizon the shape runs
    sc["shape"] = {"kind": "sphere", "r0": 0.5 + 1e-9}
    parse_plan(json.dumps({"scenarios": [sc]}))


def full_scenarios():
    """One scenario per mode, carrying every field that mode reads."""
    levelset = small_levelset_scenario()
    levelset["time"].update(dt=1e-4, sweep_cadence=5, reinit_cadence=100)
    levelset["threshold_mass"] = 1.0
    ode = ode_scenario()
    ode["time"]["dt"] = 0.01
    suite = {"name": "lemmas", "mode": "lemma-suite", "metric": {"kind": "schwarzschild", "mass": 1.0}}
    return {
        "lemma-suite": suite,
        "ode-flow": ode,
        "levelset-flow": levelset,
        "mass-table": mass_table_scenario(),
    }


def unread_fields():
    """(mode, dotted field, value) for every field a mode does not read."""
    full = full_scenarios()
    donors = {k: v for sc in full.values() for k, v in sc.items() if k not in ("name", "mode", "metric")}
    cases = [
        (mode, key, value)
        for mode, sc in full.items()
        for key, value in donors.items()
        if key not in sc
    ]
    cases += [("ode-flow", "time.sweep_cadence", 5), ("ode-flow", "time.reinit_cadence", 100)]
    return [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in cases]


@pytest.mark.parametrize("mode", sorted(full_scenarios()))
def test_every_field_a_mode_reads_parses(mode):
    (parsed,) = parse_plan(json.dumps({"scenarios": [full_scenarios()[mode]]})).scenarios
    assert parsed.mode == mode


@pytest.mark.parametrize("mode,field,value", unread_fields())
def test_a_field_the_mode_does_not_read_is_rejected_by_name(mode, field, value):
    sc = full_scenarios()[mode]
    *parents, key = field.split(".")
    target = sc
    for name in parents:
        target = target[name]
    target[key] = value
    with pytest.raises(ConfigError, match=re.escape(f"scenarios[0].{field}: not used by {mode}")):
        parse_plan(json.dumps({"scenarios": [sc]}))


@pytest.mark.parametrize("mode", sorted(full_scenarios()))
def test_q_slack_is_an_unknown_field(mode):
    # prop74's slack is the grid spacing h; no mode reads a q_slack
    sc = full_scenarios()[mode]
    sc["q_slack"] = 0.05
    with pytest.raises(ConfigError, match=re.escape("scenarios[0]: unknown field(s) ['q_slack']")):
        parse_plan(json.dumps({"scenarios": [sc]}))


# ---------------------------------------------------------------------------
# exit code 0 paths and artifact layout


def test_empty_scenario_list_is_a_noop(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", write_plan(tmp_path, []), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_ode_run_artifacts_and_verdicts(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", write_plan(tmp_path, [ode_scenario()]), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "ode-m1: PASS prop36" in stdout
    assert "PASS cor75" in stdout  # starts on the profile, ratio stays put

    scen_dir = out / "ode-m1"
    trace = (scen_dir / "trace.csv").read_text(encoding="utf-8").splitlines()
    comps = (scen_dir / "components.csv").read_text(encoding="utf-8").splitlines()
    assert trace[0] == TRACE_HEADER
    assert comps[0] == COMPONENTS_HEADER
    assert len(trace) >= 4  # header + initial + interior + final samples
    for line in (scen_dir / "verdicts.txt").read_text(encoding="utf-8").splitlines():
        assert VERDICT_RE.match(line), line


def test_levelset_run_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    plan = write_plan(tmp_path, [small_levelset_scenario()])
    assert main(["run", plan, "--out", str(out)]) == 0
    scen_dir = out / "ball"
    trace = (scen_dir / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert trace[0] == TRACE_HEADER
    # one live component throughout, never frozen (no threshold mass)
    for line in trace[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        assert fields[5] == "1" and fields[6] == "0"
    stdout = capsys.readouterr().out
    assert "ball: PASS prop74" in stdout


@pytest.mark.parametrize("mass", [5e-324, 1e-310])
def test_a_mass_table_at_a_subnormal_mass_runs(tmp_path, capsys, mass):
    # m / 2 rounds to 0 at 5e-324, and r / (m / 2) overflows at 1e-310
    sc = mass_table_scenario()
    sc["metric"]["mass"] = mass
    out = tmp_path / "out"
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(out)]) == 0
    rows = (out / "table-m1" / "mass_table.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0] == MASS_TABLE_HEADER and len(rows) == 1 + len(sc["r_values"])
    assert all(math.isfinite(float(x)) for row in rows[1:] for x in row.split(","))
    assert "Traceback" not in capsys.readouterr().err


def test_an_ode_flow_at_a_subnormal_mass_stops_at_the_extinction_guard(tmp_path, capsys):
    # m / 2 rounds to 0 at 5e-324, so the sphere shrinks to extinction as at m = 0
    runs = {}
    for mass in (5e-324, 0.0):
        sc = ode_scenario()
        sc["metric"] = {"kind": "schwarzschild", "mass": mass} if mass else {"kind": "euclidean"}
        sc.update(r0=1.0, time={"t_max": 1.0, "sample_interval": 0.1})
        out = tmp_path / f"out-{mass}"
        status = main(["run", write_plan(tmp_path, [sc]), "--out", str(out)])
        rows = (out / "ode-m1" / "trace.csv").read_text(encoding="utf-8").splitlines()
        runs[mass] = status, len(rows)
        assert (out / "ode-m1" / "verdicts.txt").exists()
    assert "Traceback" not in capsys.readouterr().err
    assert runs[5e-324] == runs[0.0]


def test_an_ode_flow_at_m_0_and_5e_324_writes_the_same_verdicts(tmp_path):
    # both start on the profile; their first gaps are round-off of opposite signs
    names = {}
    for mass in (5e-324, 0.0):
        sc = ode_scenario()
        sc["metric"] = {"kind": "schwarzschild", "mass": mass} if mass else {"kind": "euclidean"}
        sc.update(r0=1.0, time={"t_max": 1.0, "sample_interval": 0.1})
        out = tmp_path / f"out-{mass}"
        main(["run", write_plan(tmp_path, [sc]), "--out", str(out)])
        lines = (out / "ode-m1" / "verdicts.txt").read_text(encoding="utf-8").splitlines()
        names[mass] = [line.split()[1] for line in lines]
    assert names[5e-324] == names[0.0]
    assert "cor75" in names[0.0]


@pytest.mark.parametrize("mass", [1e-60, 1e60])
def test_the_radial_modes_pass_at_far_mass_scales(tmp_path, capsys, mass):
    # the lemma suite, a mass table and an ode-flow (its default step), all
    # scaled with the mass: V ~ m^3, A ~ m^2 and flow time ~ m^2
    suite = {"name": "suite", "mode": "lemma-suite", "metric": {"kind": "schwarzschild", "mass": mass}}
    table = mass_table_scenario()
    table["metric"]["mass"] = mass
    table["r_values"] = [r * mass for r in table["r_values"]]
    ode = ode_scenario()
    ode["metric"]["mass"] = mass
    ode.update(r0=4.0 * mass, time={"t_max": 9.5 * mass * mass, "sample_interval": 0.1 * mass * mass})
    plan = write_plan(tmp_path, [suite, table, ode])
    assert main(["run", plan, "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {line.split(":")[0] for line in lines} == {"suite", "table-m1", "ode-m1"}
    assert all(": PASS " in line for line in lines), lines


@pytest.mark.parametrize(
    "metric, r_values",
    [
        # at m = 0 the bound C m^2 is 0, and the overshoot reads exactly 0
        ({"kind": "euclidean"}, [0.010034598491478393, 1.0, 998.2745514810883]),
        # far out qlm and the Hawking mass's 1 - A H^2 / 16 pi are formed
        # without their cancellations
        ({"kind": "schwarzschild", "mass": 1.0}, [10.0**k for k in range(3, 96, 4)]),
    ],
    ids=["m0", "m1-far"],
)
def test_a_mass_table_passes_within_round_off(tmp_path, capsys, metric, r_values):
    sc = {**mass_table_scenario(), "metric": metric, "r_values": r_values}
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1:3] for line in lines] == [["PASS", "thm14"], ["PASS", "def34-hawking"]]


def test_thm14_binds_at_every_radius(tmp_path, capsys, monkeypatch):
    # from r = 1e3 to 1e95 at m = 1 the overshoot reads its limit 3 sqrt(4 pi)
    # = 10.635 (to 1.1% at 1e3), so a constant of 10 fails there
    r_values = [10.0**k for k in range(3, 96, 4)]
    sc = {**mass_table_scenario(), "r_values": r_values}
    out = tmp_path / "out"
    monkeypatch.setattr(runner_mod, "ISO_ADM_FIT_C", 10.0)
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(out)]) == 1
    assert "table-m1: FAIL thm14" in capsys.readouterr().out
    with open(out / "table-m1" / "mass_table.csv", encoding="utf-8") as f:
        gaps = [float(row["qlm_gap_scaled"]) for row in csv.DictReader(f)]
    assert gaps == pytest.approx([3.0 * math.sqrt(4.0 * math.pi)] * len(r_values), rel=0.011)


def test_thm14_still_fails_a_constant_below_the_overshoot(tmp_path, capsys, monkeypatch):
    # the table's r = 10 overshoots by 13.35 m^2 at m = 1
    monkeypatch.setattr(runner_mod, "ISO_ADM_FIT_C", 13.0)
    assert main(["run", write_plan(tmp_path, [mass_table_scenario()]), "--out", str(tmp_path / "out")]) == 1
    assert "table-m1: FAIL thm14 slack=-0.34" in capsys.readouterr().out


@pytest.mark.parametrize("mass", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("r0_scale", [3.96, 3.98, 3.99, 4.0, 4.01, 4.02, 4.04])
def test_every_radial_oracle_ode_flow_passes_cor75(tmp_path, mass, r0_scale):
    # the ode-flows of the benchmark's radial-oracle workload: r0 = 4m within 1%
    interval = 0.1 * mass * mass
    sc = ode_scenario()
    sc["metric"]["mass"] = mass
    sc.update(r0=r0_scale * mass, time={"t_max": 9.5 * mass * mass, "sample_interval": interval, "dt": interval / 10})
    (parsed,) = parse_plan(json.dumps({"scenarios": [sc]})).scenarios
    sampling = parsed.time.ode_sampling(mass, "time")
    verdicts = {v.anchor: v for v in runner_mod._run_ode_flow(parsed, str(tmp_path), sampling)}
    assert verdicts["cor75"].passed


@pytest.mark.parametrize("r0, cor75", [(4.0, ["PASS cor75 slack=0.029999999999999999"]), (1.0, []), (0.6, [])])
def test_cor75_binds_only_from_the_convexity_threshold(tmp_path, r0, cor75):
    # at m = 1 the ratio is monotone only for A >= 36 pi, r >= 1 + sqrt(3)/2;
    # inside, cor75 read FAIL at slack -0.0302 (r0 = 1) and -0.0967 (r0 = 0.6)
    sc = {**ode_scenario(), "r0": r0, "time": {"t_max": 0.5, "sample_interval": 0.1}}
    out = tmp_path / "out"
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(out)]) == 0
    lines = (out / "ode-m1" / "verdicts.txt").read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if " cor75 " in line] == cor75


def test_an_ode_flow_evaluates_each_closed_form_once(tmp_path, monkeypatch):
    # one array call over the run's radii, wherever each closed form is bound
    owners = {"sphere_area": metric_mod, "sphere_hawking_mass": metric_mod, "profile_volume": profile_mod}
    calls = {name: [] for name in owners}
    for name, owner in owners.items():

        def counting(*args, _wrapped=getattr(owner, name), _seen=calls[name]):
            _seen.append(np.size(args[-1]))
            return _wrapped(*args)

        for mod in (metric_mod, profile_mod, flow_ode_mod, runner_mod):
            monkeypatch.setattr(mod, name, counting, raising=False)
    (sc,) = parse_plan(json.dumps({"scenarios": [ode_scenario()]})).scenarios
    runner_mod._run_ode_flow(sc, str(tmp_path), sc.time.ode_sampling(sc.mass, "time"))
    n = len((tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()) - 1
    assert calls == {name: [n] for name in calls}


def test_run_plan_hands_each_run_what_its_check_pass_built(tmp_path, monkeypatch):
    # one stability bound per level set and one sampling per ode-flow: the
    # runs take the config and (dt, every) that the check pass built
    plan = parse_plan(json.dumps({"scenarios": [ode_scenario(), small_levelset_scenario()]}))
    calls = []
    for owner, name in ((flow_levelset_mod, "cfl_time_step"), (TimeSpec, "ode_sampling")):

        def counting(*args, _wrapped=getattr(owner, name), _name=name):
            calls.append(_name)
            return _wrapped(*args)

        monkeypatch.setattr(owner, name, counting)
    runner_mod.run_plan(plan, str(tmp_path / "out"))
    assert sorted(calls) == ["cfl_time_step", "ode_sampling"]


def test_the_mass_table_evaluates_each_closed_form_once(tmp_path, monkeypatch):
    # one array call over the table's radii, wherever sphere_area is bound
    calls = []
    wrapped = metric_mod.sphere_area

    def counting(metric, r):
        calls.append(np.size(r))
        return wrapped(metric, r)

    for mod in (metric_mod, mass_mod, runner_mod):
        monkeypatch.setattr(mod, "sphere_area", counting, raising=False)
    (sc,) = parse_plan(json.dumps({"scenarios": [mass_table_scenario()]})).scenarios
    runner_mod._run_mass_table(sc, str(tmp_path))
    assert calls == [len(sc.r_values)]


def test_values_use_17_significant_digits(tmp_path):
    out = tmp_path / "out"
    main(["run", write_plan(tmp_path, [ode_scenario()]), "--out", str(out)])
    rows = (out / "ode-m1" / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    area = rows[0].split(",")[1]
    digits = re.sub(r"[-.e+]", "", area)
    assert len(digits) >= 16  # shortest-roundtrip would print far fewer


def test_two_runs_are_byte_identical(tmp_path):
    plan = write_plan(tmp_path, [ode_scenario(), small_levelset_scenario()])
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", plan, "--out", out_a]) == 0
    assert main(["run", plan, "--out", out_b]) == 0
    bytes_a, bytes_b = tree_bytes(out_a), tree_bytes(out_b)
    assert bytes_a.keys() == bytes_b.keys()
    for rel, blob in bytes_a.items():
        assert blob == bytes_b[rel], rel


def test_scenario_outputs_are_isolated(tmp_path):
    plan = write_plan(
        tmp_path, [ode_scenario("first"), ode_scenario("second")]
    )
    out = tmp_path / "out"
    assert main(["run", plan, "--out", str(out)]) == 0
    assert (out / "first" / "trace.csv").exists()
    assert (out / "second" / "trace.csv").exists()


def artifact_digests(tmp_path):
    """sha256 of every file ``isoflow run`` (one scenario per mode that
    writes flow or table files) and ``isoflow suite`` write, keyed
    ``run/<scenario>/<file>`` and ``suite/<scenario>/<file>``."""
    plan = write_plan(tmp_path, [ode_scenario(), small_levelset_scenario(), mass_table_scenario()])
    roots = {"run": str(tmp_path / "run"), "suite": str(tmp_path / "suite")}
    assert main(["run", plan, "--out", roots["run"]]) == 0
    assert main(["suite", "--out", roots["suite"]]) == 0
    return {
        f"{cmd}/{rel.replace(os.sep, '/')}": hashlib.sha256(blob).hexdigest()
        for cmd, root in roots.items()
        for rel, blob in sorted(tree_bytes(root).items())
    }


def test_artifacts_match_the_recorded_bytes(tmp_path, capsys):
    # recorded in tests/data/cli_artifacts.json; any change to a written
    # byte, file name or file count shows here
    with open(ARTIFACTS, encoding="utf-8") as f:
        recorded = json.load(f)
    assert artifact_digests(tmp_path) == recorded
    capsys.readouterr()


# ---------------------------------------------------------------------------
# output-root resolution and overrides


def test_env_var_out_root(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ISOFLOW_OUT", str(tmp_path / "env-out"))
    assert main(["run", write_plan(tmp_path, [ode_scenario()])]) == 0
    capsys.readouterr()
    assert (tmp_path / "env-out" / "ode-m1" / "verdicts.txt").exists()


def test_out_flag_beats_env_var(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ISOFLOW_OUT", str(tmp_path / "env-out"))
    out = tmp_path / "flag-out"
    assert main(["run", write_plan(tmp_path, [ode_scenario()]), "--out", str(out)]) == 0
    capsys.readouterr()
    assert (out / "ode-m1").exists()
    assert not (tmp_path / "env-out").exists()


def test_h_override_changes_grid(tmp_path, capsys):
    out = tmp_path / "out"
    plan = write_plan(tmp_path, [small_levelset_scenario()])
    assert main(["run", plan, "--out", str(out), "--h", "0.1"]) == 0
    capsys.readouterr()
    # coarser grid -> fewer steps; the run must still complete and verdict
    assert (out / "ball" / "verdicts.txt").exists()


# ---------------------------------------------------------------------------
# built-in suite


def test_suite_passes_and_names_anchors(tmp_path, capsys):
    assert main(["suite", "--out", str(tmp_path / "out")]) == 0
    stdout = capsys.readouterr().out
    assert "lemma-suite-m1: PASS lemma53@36pi" in stdout
    for mass_tag in ("m05", "m1", "m2"):
        assert f"lemma-suite-{mass_tag}:" in stdout


# ---------------------------------------------------------------------------
# exit code 3: non-finite samples


def test_blowup_exits_3_with_last_good_time(tmp_path, monkeypatch, capsys):
    good = TraceSample(
        t=0.0, area=12.0, volume=4.0, profile_gap=0.5, ratio=10.0,
        n_components=1, n_frozen=0,
        components=[ComponentRecord(1, False, math.nan, 12.0, 4.0, 0.0, 16.0)],
    )
    bad = TraceSample(
        t=0.05, area=math.nan, volume=4.0, profile_gap=math.nan, ratio=math.nan,
        n_components=1, n_frozen=0,
        components=[ComponentRecord(1, False, math.nan, math.nan, 4.0, 0.0, math.nan)],
    )
    broken = FlowTrace(samples=[good, bad], arrival_time=None)

    def fake_run(config):
        return broken

    monkeypatch.setattr(flow_levelset_mod, "run_modified_flow", fake_run)
    plan = write_plan(tmp_path, [small_levelset_scenario()])
    assert main(["run", plan, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "blow-up" in err
    assert "t=0" in err


def test_blowup_writes_its_verdict_and_reports_the_latest_finite_sample(tmp_path, monkeypatch, capsys):
    def sample(t, area):
        return TraceSample(
            t=t, area=area, volume=4.0, profile_gap=0.5, ratio=10.0,
            n_components=1, n_frozen=0,
            components=[ComponentRecord(1, False, math.nan, area, 4.0, 0.0, 16.0)],
        )

    # finite, non-finite, finite again: the last good time is the latest finite one
    broken = FlowTrace(samples=[sample(0.0, 12.0), sample(0.05, math.nan), sample(0.1, 11.0)])
    monkeypatch.setattr(flow_levelset_mod, "run_modified_flow", lambda config: broken)
    out = tmp_path / "out"
    assert main(["run", write_plan(tmp_path, [small_levelset_scenario()]), "--out", str(out)]) == 3
    assert "last good sample t=0.10000000000000001" in capsys.readouterr().err
    assert (out / "ball" / "verdicts.txt").read_text(encoding="utf-8") == "FAIL blow-up slack=-inf\n"
    assert len((out / "ball" / "trace.csv").read_text(encoding="utf-8").splitlines()) == 4


def test_a_nan_in_the_real_loop_exits_3_with_the_last_finite_sample(tmp_path, monkeypatch, capsys):
    # one NaN in the 30th kernel call's speeds, while the third sample interval runs
    speed, calls = flow_levelset_mod._speed, []

    def poisoned(*args):
        calls.append(None)
        out = speed(*args)
        if len(calls) == 30:
            out[0] = math.nan
        return out

    monkeypatch.setattr(flow_levelset_mod, "_speed", poisoned)
    sc = small_levelset_scenario()
    sc["time"] = {"t_max": 0.15, "sample_interval": 0.01}
    out = tmp_path / "out"
    assert main(["run", write_plan(tmp_path, [sc]), "--out", str(out)]) == 3
    shown = re.search(r"\(non-finite field\); last good sample t=(\S+)", capsys.readouterr().err).group(1)
    assert (out / "ball" / "verdicts.txt").read_text(encoding="utf-8") == "FAIL blow-up slack=-inf\n"
    # the run stops at the next check, within the sample interval of the
    # NaN (20 steps at the bound), not at t_max; its trace holds the
    # finite samples taken before, the last of them the one shown
    assert 30 <= len(calls) <= 30 + 20
    rows = (out / "ball" / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))
    assert float(shown) == float(rows[-1].split(",")[0]) < 0.05


def test_a_region_reaching_the_outer_edge_mid_run_exits_3(tmp_path, monkeypatch, capsys):
    # the 10th kernel call pulls every band node 0.5 down: the ball's
    # region reaches the grid's outer edge, 6 cells out
    speed, calls = flow_levelset_mod._speed, []
    rebuild, rebuilt_edges = flow_levelset_mod.reinitialize, []

    def pulled(*args):
        calls.append(None)
        out = speed(*args)
        if len(calls) == 10:
            out[:] = -1e3
        return out

    def spied_rebuild(u, *args):
        rebuilt_edges.append(bool((np.concatenate([u[-1, :], u[:, 0], u[:, -1]]) < 0.0).any()))
        return rebuild(u, *args)

    monkeypatch.setattr(flow_levelset_mod, "_speed", pulled)
    monkeypatch.setattr(flow_levelset_mod, "reinitialize", spied_rebuild)
    # the default cadences; then a rebuild due after the 10th step, before the next check
    for case, cadences in enumerate([{}, {"reinit_cadence": 5, "sweep_cadence": 50}]):
        calls.clear()
        scenario = small_levelset_scenario()
        scenario["time"].update(cadences)
        out = tmp_path / f"out{case}"
        assert main(["run", write_plan(tmp_path, [scenario]), "--out", str(out)]) == 3
        assert "(region touches the outer domain boundary); last good sample t=0\n" in capsys.readouterr().err
        assert (out / "ball" / "verdicts.txt").read_text(encoding="utf-8") == "FAIL blow-up slack=-inf\n"
        assert len((out / "ball" / "trace.csv").read_text(encoding="utf-8").splitlines()) == 2
    # the outer edge is checked before every rebuild, so none reads such a field
    assert rebuilt_edges and not any(rebuilt_edges)


def test_a_blow_up_mid_plan_leaves_the_other_scenarios_lines(tmp_path, monkeypatch, capsys):
    # ode-flow, blow-up, ode-flow, blow-up: every scenario runs and prints its
    # lines, in plan order, each blow-up goes to stderr, and the plan exits 3
    def blown(sc, out_dir, built):
        raise RunFailure("non-finite sample", [])

    monkeypatch.setitem(runner_mod._MODE_RUNNERS, "mass-table", blown)
    names = ["ode-a", "table-b", "ode-c", "table-d"]
    plan = [ode_scenario(names[0]), mass_table_scenario(names[1])]
    plan += [ode_scenario(names[2]), mass_table_scenario(names[3])]
    out = tmp_path / "out"
    assert main(["run", write_plan(tmp_path, plan), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "".join(
        f"{name}: {line}\n"
        for name in names
        for line in (out / name / "verdicts.txt").read_text(encoding="utf-8").splitlines()
    )
    assert "ode-c: PASS prop36" in captured.out and "table-d: FAIL blow-up slack=-inf" in captured.out
    blowups = [line for line in captured.err.splitlines() if "numerical blow-up" in line]
    assert blowups == [
        f"isoflow: {name}: numerical blow-up (non-finite sample); last good sample t=none" for name in names[1::2]
    ]


def test_a_fault_mid_plan_prints_the_finished_scenarios_lines(tmp_path, monkeypatch, capsys):
    # ode-flow, fault, ode-flow: the first scenario's lines, then the
    # fault's traceback; exit 4, and the third scenario never runs
    def broken(sc, out_dir, built):
        raise KeyError("fault inside the table")

    monkeypatch.setitem(runner_mod._MODE_RUNNERS, "mass-table", broken)
    plan = [ode_scenario("a"), mass_table_scenario("b"), ode_scenario("c")]
    out = tmp_path / "out"
    assert main(["run", write_plan(tmp_path, plan), "--out", str(out)]) == 4
    captured = capsys.readouterr()
    lines = (out / "a" / "verdicts.txt").read_text(encoding="utf-8").splitlines()
    assert lines and captured.out == "".join(f"a: {line}\n" for line in lines)
    assert "Traceback" in captured.err and "KeyError: 'fault inside the table'" in captured.err
    assert not (out / "c").exists()


@pytest.mark.parametrize("blocked", ["b", "b/verdicts.txt"], ids=["scenario-dir", "verdicts-file"])
def test_a_fault_making_a_scenarios_files_prints_the_finished_scenarios_lines(tmp_path, capsys, blocked):
    # b's directory is a file, or its verdicts.txt a directory: the OSError
    # is a fault of b's run, so a's lines print before its traceback
    out = tmp_path / "out"
    (out / blocked).parent.mkdir(parents=True, exist_ok=True)
    if blocked == "b":
        (out / blocked).write_text("", encoding="utf-8")
    else:
        (out / blocked).mkdir()
    plan = [mass_table_scenario("a"), mass_table_scenario("b")]
    assert main(["run", write_plan(tmp_path, plan), "--out", str(out)]) == 4
    captured = capsys.readouterr()
    lines = (out / "a" / "verdicts.txt").read_text(encoding="utf-8").splitlines()
    assert lines and captured.out == "".join(f"a: {line}\n" for line in lines)
    assert "Traceback" in captured.err and "Error: [Errno" in captured.err


# ---------------------------------------------------------------------------
# row formats: one %-format a CSV row, the bytes of the per-value fmt join

ODD_FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308,
    np.float64(0.1), np.float64(-math.inf), 1.0 / 3.0,
]


@pytest.mark.parametrize("shift", range(len(ODD_FLOATS)))
@pytest.mark.parametrize("frozen", [False, True])
def test_each_row_format_writes_the_per_value_fmt_join(shift, frozen):
    fmt = runner_mod.fmt
    x = ODD_FLOATS[shift:] + ODD_FLOATS[:shift]  # every value in every column
    assert runner_mod.TRACE_ROW % (*x[:5], 2, 1) == ",".join([*map(fmt, x[:5]), "2", "1"])
    assert runner_mod.COMPONENTS_ROW % (x[0], 7, frozen, *x[1:5]) == ",".join(
        [fmt(x[0]), "7", str(int(frozen)), *map(fmt, x[1:5])]
    )
    assert runner_mod.MASS_TABLE_ROW % tuple(x[:6]) == ",".join(map(fmt, x[:6]))
