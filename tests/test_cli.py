import collections
import enum
import json
import math
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from herglotz import cli, expr
from herglotz.checks import (
    CheckReport, PointRecord, SamplePlan, Tolerances, error_report, sample_states,
)
from herglotz.cli import main
from herglotz.contact import ContactHamiltonianSystem
from herglotz.expr import StatePoint
from herglotz.fixtures import builtin_plans, builtin_systems
from herglotz.inverse import SODESystem
from herglotz.lagrangian import ContactLagrangianSystem


def run_cli(args, tmp_path, name="r"):
    report_path = tmp_path / f"{name}.json"
    code = main(["--out", str(tmp_path), "--report", str(report_path), *args])
    data = json.loads(report_path.read_text()) if report_path.exists() else None
    return code, data


def strip_metadata(data):
    data = dict(data)
    data.pop("metadata", None)
    return data


# ---------------------------------------------------------------------------
# Exit codes


def test_exit_zero_on_pass(tmp_path):
    code, data = run_cli(["check-eq", "--lagrangian", "power_gauge_base",
                          "--lagrangian-bar", "power_gauge_bar1",
                          "--zeta", "zeta_v1"], tmp_path)
    assert code == 0
    assert data["verdict"] == "pass"


def test_exit_one_on_fail(tmp_path):
    code, data = run_cli(["check-eq", "--lagrangian", "power_gauge_base",
                          "--lagrangian-bar", "power_gauge_bar3",
                          "--zeta", "zeta_v3"], tmp_path)
    assert code == 1
    assert data["verdict"] == "fail"


def test_exit_two_on_singular_instance(tmp_path):
    code, data = run_cli(["check-eq", "--lagrangian", "power_gauge_base_g05",
                          "--lagrangian-bar", "power_gauge_bar2",
                          "--zeta", "zeta_v2"], tmp_path)
    assert code == 2
    assert data["verdict"] == "error"
    assert any("regularity" in d for d in data["diagnostics"])


def test_exit_three_on_unknown_name(tmp_path):
    code, _ = run_cli(["check-inverse", "--sode", "no_such_system"], tmp_path)
    assert code == 3


def test_exit_three_on_broken_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"systems": {"bad": {"kind": "lagrangian", "n": 1, "L": "q1 +"}}}))
    code = main(["--config", str(cfg), "--out", str(tmp_path),
                 "herglotz", "--lagrangian", "bad"])
    assert code == 3


# ---------------------------------------------------------------------------
# Report schema


def test_report_schema_keys(tmp_path):
    _, data = run_cli(["check-dynamical", "--system", "saddle",
                       "--system-b", "saddle_flipped", "--plan", "box1"],
                      tmp_path)
    assert set(data.keys()) == {"task", "verdict", "max_residual", "tolerances",
                                "sample_plan", "residuals", "diagnostics",
                                "metadata"}
    assert set(data["sample_plan"].keys()) == {"mode", "seed", "bounds", "count"}
    assert set(data["tolerances"].keys()) == {"pass_tol", "fail_tol", "det_tol"}
    record = data["residuals"][0]
    assert set(record.keys()) == {"point", "values"}
    assert set(record["point"].keys()) == {"q", "v", "z"}
    assert "timestamp" in data["metadata"]


def test_reports_byte_identical_modulo_metadata(tmp_path):
    args = ["check-eq", "--lagrangian", "power_gauge_base",
            "--lagrangian-bar", "power_gauge_bar2", "--zeta", "zeta_v2",
            "--plan", "box1_200"]
    _, first = run_cli(args, tmp_path, "a")
    _, second = run_cli(args, tmp_path, "b")
    assert json.dumps(strip_metadata(first)) == json.dumps(strip_metadata(second))


def test_seed_env_override(tmp_path, monkeypatch):
    args = ["check-dynamical", "--system", "saddle",
            "--system-b", "saddle_flipped", "--plan", "box1"]
    _, baseline = run_cli(args, tmp_path, "base")
    monkeypatch.setenv("HERGLOTZ_SEED", "99")
    _, overridden = run_cli(args, tmp_path, "over")
    assert overridden["sample_plan"]["seed"] == 99
    assert baseline["sample_plan"]["seed"] != 99
    first_base = baseline["residuals"][0]["point"]
    first_over = overridden["residuals"][0]["point"]
    assert first_base != first_over
    _, again = run_cli(args, tmp_path, "again")
    assert json.dumps(strip_metadata(again)) == json.dumps(strip_metadata(overridden))


# ---------------------------------------------------------------------------
# Subcommands


def test_simulate_writes_pinned_csv(tmp_path):
    code = main(["--out", str(tmp_path), "--tag", "sim", "simulate",
                 "--system", "parachute", "--initial", "0,2,0",
                 "--t", "1.0", "--dt", "0.001",
                 "--accel-residual", "gam*v1^2 - g"])
    assert code == 0
    csv_lines = (tmp_path / "sim.csv").read_text().splitlines()
    assert csv_lines[0] == "t,q1,v1,z"
    assert len(csv_lines) == 1002
    data = json.loads((tmp_path / "sim.json").read_text())
    assert data["verdict"] == "pass"
    assert data["max_residual"] <= 1e-9


def test_herglotz_emits_field_components(tmp_path):
    _, data = run_cli(["herglotz", "--lagrangian", "linear_drag"], tmp_path)
    joined = "\n".join(data["diagnostics"])
    assert "dq1/dt = v1" in joined
    assert "dz/dt = 0.5*v1^2 - gam*z" in joined


def test_herglotz_with_zeta_chart(tmp_path):
    code, data = run_cli(["herglotz", "--lagrangian", "linear_drag",
                          "--zeta", "zeta_sin_q"], tmp_path)
    assert code == 0
    assert any(d.startswith("dq1/dt") for d in data["diagnostics"])


def test_legendre_subcommand(tmp_path):
    code, data = run_cli(["legendre", "--lagrangian", "parachute",
                          "--plan", "box1"], tmp_path)
    assert code == 0
    assert data["max_residual"] <= 1e-8


def test_stationarity_subcommand(tmp_path):
    code, data = run_cli(["stationarity", "--lagrangian", "linear_drag",
                          "--initial", "0,2,0", "--grid", "120",
                          "--perturbations", "4"], tmp_path)
    assert code == 0
    assert data["verdict"] == "pass"


def test_stationarity_random_curve_fails(tmp_path):
    code, data = run_cli(["stationarity", "--lagrangian", "parachute",
                          "--initial", "0,2,0", "--grid", "120",
                          "--perturbations", "4", "--random-curve",
                          "--curve-seed", "5"], tmp_path)
    assert code == 1
    assert data["verdict"] == "fail"


def test_check_conformal_vs_dynamical_on_pair(tmp_path):
    code_dyn, _ = run_cli(["check-dynamical", "--system", "saddle",
                           "--system-b", "saddle_flipped"], tmp_path, "dyn")
    code_conf, _ = run_cli(["check-conformal", "--system", "saddle",
                            "--system-b", "saddle_flipped"], tmp_path, "conf")
    assert code_dyn == 0
    assert code_conf == 1


def test_zero_set_summary_in_dynamical_report(tmp_path):
    _, data = run_cli(["check-dynamical", "--system", "saddle",
                       "--system-b", "saddle_flipped", "--plan", "box1"],
                      tmp_path)
    assert any("zero-set mismatches" in d for d in data["diagnostics"])


# ---------------------------------------------------------------------------
# Config-driven runs


CONFIG = {
    "systems": {
        "myosc": {"kind": "lagrangian", "n": 1,
                  "L": "0.5*v1^2 - 0.5*q1^2 - gam*z", "params": {"gam": 0.2}},
        "mybar": {"kind": "bar_lagrangian", "n": 1,
                  "L": "0.5*v1^2 - 0.5*q1^2 - gam*(zeta - sin(q1)) + cos(q1)*v1",
                  "params": {}},
        "myzeta": {"kind": "action", "n": 1, "zeta": "z + sin(q1)"},
        "mysode": {"kind": "sode", "n": 1, "accelerations": ["-q1"],
                   "z_rate": "0.5*v1^2 - 0.5*q1^2", "params": {}},
        "myham": {"kind": "hamiltonian", "n": 1, "H": "q1*v1 + z"},
    },
    "plans": {
        "tight": {"mode": "random", "bounds": [[-0.5, 0.5]] * 3,
                  "count": 60, "seed": 17},
    },
    "tolerances": {"pass_tol": 1e-8, "fail_tol": 1e-4, "det_tol": 1e-10},
    "tasks": [
        {"command": "check-strong-eq", "tag": "osc",
         "args": {"lagrangian": "myosc", "lagrangian_bar": "mybar",
                  "zeta": "myzeta", "plan": "tight"}},
        {"command": "check-inverse", "tag": "osc",
         "args": {"sode": "mysode", "plan": "tight"}},
    ],
}


def test_config_defined_systems_and_batch(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    out = tmp_path / "out"
    CONFIG["output_dir"] = str(out)
    cfg_path.write_text(json.dumps(CONFIG))
    code = main(["--config", str(cfg_path), "batch"])
    assert code == 0
    reports = sorted(p.name for p in out.glob("*.json"))
    assert reports == ["check-inverse_osc.json", "check-strong-eq_osc.json"]
    for name in reports:
        data = json.loads((out / name).read_text())
        assert data["verdict"] == "pass"
        assert data["sample_plan"]["seed"] == 17


def test_config_zeta_ident_normalization(tmp_path):
    # the bar text above uses the ident zeta; the loader folds it into the
    # action slot so the strong check passes (checked in the batch test);
    # a plain z spelling must behave identically
    cfg = dict(CONFIG)
    cfg["systems"] = dict(CONFIG["systems"])
    cfg["systems"]["mybar2"] = {
        "kind": "bar_lagrangian", "n": 1,
        "L": "0.5*v1^2 - 0.5*q1^2 - gam*(z - sin(q1)) + cos(q1)*v1"}
    cfg["tasks"] = [{"command": "check-strong-eq", "tag": "osc2",
                     "args": {"lagrangian": "myosc", "lagrangian_bar": "mybar2",
                              "zeta": "myzeta", "plan": "tight"}}]
    cfg["output_dir"] = str(tmp_path / "out2")
    cfg_path = tmp_path / "cfg2.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["--config", str(cfg_path), "batch"]) == 0


def test_config_schema_violation_paths(tmp_path, capsys):
    bad_configs = [
        ({"systems": {"s": {"n": 1}}}, "kind"),
        ({"systems": {"s": {"kind": "lagrangian", "n": 0, "L": "z"}}}, "n"),
        ({"tolerances": {"pass_tol": 1.0, "fail_tol": 0.5}}, "pass_tol"),
        ({"plans": {"p": {"mode": "fancy"}}}, "plan"),
        ({"tolerances": {"pass_tol": None}}, "config path: tolerances"),
        ({"tolerances": [1]}, "config path: tolerances"),
    ]
    for raw, needle in bad_configs:
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(raw))
        code = main(["--config", str(cfg_path), "--out", str(tmp_path),
                     "herglotz", "--lagrangian", "linear_drag"])
        assert code == 3, raw
        assert needle in capsys.readouterr().err, raw


@pytest.mark.parametrize("system, argv, name", [
    ({"kind": "lagrangian", "L": "0.5*v1^2 + k*q1"}, ["simulate", "--system", "s"], "k"),
    ({"kind": "lagrangian", "L": "0.5*v1^2 + k*q1"}, ["herglotz", "--lagrangian", "s"], "k"),
    ({"kind": "lagrangian", "L": "0.5*v1^2 + nan", "params": {"k": 1}},
     ["herglotz", "--lagrangian", "s"], "nan"),
    ({"kind": "hamiltonian", "H": "v1^2 + c*z"},
     ["check-dynamical", "--system", "s", "--system-b", "saddle"], "c"),
    ({"kind": "hamiltonian", "H": "v1^2 + z", "eta": ["-v1", "0", "a"], "params": {"c": 1}},
     ["check-dynamical", "--system", "s", "--system-b", "saddle"], "a"),
    ({"kind": "sode", "accelerations": ["-w*q1"], "z_rate": "0.5*v1^2"},
     ["check-inverse", "--sode", "s"], "w"),
    ({"kind": "sode", "accelerations": ["-q1"], "z_rate": "b*v1^2", "params": {"w": 2}},
     ["simulate", "--system", "s"], "b"),
], ids=["simulate", "herglotz", "nan", "hamiltonian", "eta", "sode", "sode-z-rate"])
def test_an_unbound_parameter_is_a_config_error_at_the_systems_params(system, argv, name,
                                                                      tmp_path, capsys):
    """A parameter read by a lagrangian, hamiltonian or sode system and bound
    by none of its params stops the run before any task, with exit code 3."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"systems": {"s": {"n": 1, **system}}}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), *argv]) == 3
    assert capsys.readouterr().err == (f"config error: unbound parameter {name!r} "
                                       "(config path: systems.s.params)\n")
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_every_builtin_system_binds_the_parameters_it_reads():
    read = {ContactLagrangianSystem: lambda s: [s.L],
            ContactHamiltonianSystem: lambda s: [s.H, *s.eta.components],
            SODESystem: lambda s: [*s.accelerations, s.z_rate]}
    kinds = collections.Counter()
    for name, make in builtin_systems().items():
        system = make()
        if type(system) in read:
            assert cli._bound(system, read[type(system)](system), name) is system
            kinds[type(system)] += 1
    assert kinds == {ContactLagrangianSystem: 9, SODESystem: 6, ContactHamiltonianSystem: 3}


_TASK_SYSTEMS = {
    "bar_k": {"kind": "bar_lagrangian", "L": "0.5*v1^2 + k*q1"},
    "zeta_k": {"kind": "action", "zeta": "z + k*q1"},
    "bar_gam": {"kind": "bar_lagrangian", "L": "0.5*v1^2 - gam*z", "params": {"gam": 0.5}},
    "zeta_gam": {"kind": "action", "zeta": "z + q1", "params": {"gam": 0.5}},
    "sode_gam": {"kind": "sode", "accelerations": ["-gam*v1"], "z_rate": "0",
                 "params": {"gam": 0.5}},
}


@pytest.mark.parametrize("argv, name, message", [
    (["check-eq", "--lagrangian", "oscillator", "--lagrangian-bar", "bar_k",
      "--zeta", "zeta_identity"], "bar_k", "unbound parameter 'k'"),
    (["check-strong-eq", "--lagrangian", "oscillator", "--lagrangian-bar",
      "oscillator_scaled_bar", "--zeta", "zeta_k"], "zeta_k", "unbound parameter 'k'"),
    (["check-eq", "--lagrangian", "free_particle", "--lagrangian-bar", "power_gauge_bar1",
      "--zeta", "zeta_v1"], "power_gauge_bar1", "unbound parameter 'gam'"),
    (["check-eq", "--lagrangian", "power_gauge_base", "--lagrangian-bar", "bar_gam",
      "--zeta", "zeta_v1"], "bar_gam", "parameter 'gam' bound to conflicting values"),
    (["check-eq", "--lagrangian", "power_gauge_base", "--lagrangian-bar",
      "power_gauge_bar1", "--zeta", "zeta_gam"], "zeta_gam",
     "parameter 'gam' bound to conflicting values"),
    (["check-horizontal", "--xi", "sode_shear", "--xi-bar", "sode_shear_projected",
      "--zeta", "zeta_k"], "zeta_k", "unbound parameter 'k'"),
    (["check-horizontal", "--xi", "sode_shear", "--xi-bar", "sode_gam",
      "--zeta", "zeta_shear"], "sode_gam", "parameter 'gam' bound to conflicting values"),
    (["check-inverse-ext", "--sode", "sode_linear_drag", "--zeta", "zeta_k"], "zeta_k",
     "unbound parameter 'k'"),
    (["herglotz", "--lagrangian", "oscillator", "--zeta", "zeta_k"], "zeta_k",
     "unbound parameter 'k'"),
    (["legendre", "--lagrangian", "oscillator", "--zeta", "zeta_k"], "zeta_k",
     "unbound parameter 'k'"),
], ids=["bar", "zeta", "builtin-bar", "bar-conflict", "zeta-conflict", "horizontal-zeta",
        "horizontal-conflict", "inverse-ext", "herglotz", "legendre"])
def test_bar_and_action_parameters_are_bound_at_task_time(argv, name, message, tmp_path,
                                                          capsys):
    """A bar-Lagrangian, an action function or a second field is lowered with
    the task's merged parameters: one that they leave unbound or bind twice
    to different values stops the run at its own systems entry, exit 3."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"systems": _TASK_SYSTEMS}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), *argv]) == 3
    assert capsys.readouterr().err == (f"config error: {message} "
                                       f"(config path: systems.{name}.params)\n")
    assert list((tmp_path / "out").iterdir()) == []


def test_parameters_a_task_binds_together_pass(tmp_path):
    """An action function may read a parameter that only its Lagrangian binds."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"systems": {
        "zeta_gam": {"kind": "action", "zeta": "z + gam*q1"}}}))
    code, data = run_cli(["--config", str(cfg_path), "legendre", "--lagrangian",
                          "linear_drag", "--zeta", "zeta_gam"], tmp_path)
    assert code == 0 and data["verdict"] == "pass"


def test_without_a_plan_a_check_samples_the_unit_box_of_its_chart(tmp_path):
    code, data = run_cli(["check-strong-eq", "--lagrangian", "charged_drag",
                          "--lagrangian-bar", "charged_drag_gauge_bar",
                          "--zeta", "zeta_charged_gauge"], tmp_path)
    assert code == 0 and data["verdict"] == "pass"
    assert data["sample_plan"] == {"mode": "random", "seed": 20260810,
                                   "bounds": [[-1.0, 1.0]] * 7, "count": 200}
    # on an n = 1 chart the default is box1_200, point for point
    argv = ["check-inverse", "--sode", "sode_parachute"]
    _, default = run_cli(argv, tmp_path, "default")
    _, named = run_cli([*argv, "--plan", "box1_200"], tmp_path, "named")
    assert strip_metadata(default) == strip_metadata(named)


@pytest.mark.parametrize("argv, plan", [
    (["check-dynamical", "--system", "saddle", "--system-b", "saddle_flipped"], "box3"),
    (["check-strong-eq", "--lagrangian", "charged_drag", "--lagrangian-bar",
      "charged_drag_gauge_bar", "--zeta", "zeta_charged_gauge"], "box1"),
    (["legendre", "--lagrangian", "parachute"], "wide"),
], ids=["n1-plan-box3", "n3-plan-box1", "config-plan"])
def test_a_plan_for_another_chart_is_a_config_error_at_args_plan(argv, plan, tmp_path,
                                                                 capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"plans": {"wide": {"bounds": [[0, 1]] * 5}}}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), *argv, "--plan", plan]) == 3
    assert "(config path: args.plan)" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    args = {a[2:].replace("-", "_"): b for a, b in zip(argv[1::2], argv[2::2])}
    task = {"command": argv[0], "args": {**args, "plan": plan}}
    cfg_path.write_text(json.dumps({"plans": {"wide": {"bounds": [[0, 1]] * 5}},
                                    "tasks": [FIRST_TASK, task]}))
    assert main(["--config", str(cfg_path), "--out", str(out), "batch"]) == 3
    assert "(config path: tasks[1].args.plan)" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["check-inverse_first.json"]


_SINGULAR = {"lv": {"kind": "lagrangian", "L": "v1"},
             "lq": {"kind": "lagrangian", "L": "q1*v1 + z"},
             "l0": {"kind": "lagrangian", "L": "0*v1^2 + q1"}}


@pytest.mark.parametrize("argv", [
    ["herglotz", "--lagrangian", "lv"], ["herglotz", "--lagrangian", "lq"],
    ["herglotz", "--lagrangian", "l0"], ["simulate", "--system", "lv", "--initial", "0,1,0"],
    ["stationarity", "--lagrangian", "lv"],
    ["check-eq", "--lagrangian", "lv", "--lagrangian-bar", "oscillator_scaled_bar",
     "--zeta", "zeta_scaled"],
], ids=["herglotz-v1", "herglotz-q1v1", "herglotz-0v1", "simulate", "stationarity",
        "check-eq"])
def test_an_identically_singular_w_has_no_herglotz_field(argv, tmp_path):
    """W = 0 for every point: no field is built, and the run is an error."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"systems": _SINGULAR}))
    code, data = run_cli(["--config", str(cfg_path), *argv], tmp_path)
    assert code == 2 and data["verdict"] == "error"
    assert data["diagnostics"] == [
        "ExprError: singular matrix: its determinant is identically 0"]


# |det W| = 2e-12 everywhere; W = 1e-9 q1^2 is below det_tol for |q1| < 0.32 only
_NEAR_SINGULAR = {"tiny": {"kind": "lagrangian", "L": "1e-12*v1^2 + q1"},
                  "part": {"kind": "lagrangian", "L": "5e-10*q1^2*v1^2 + q1"},
                  "zeta_q": {"kind": "action", "zeta": "z + q1"}}


def _first_singular(name):
    """The index of the first default plan point of system ``name`` where
    |det W| <= det_tol, the point and det W there."""
    sys_l = ContactLagrangianSystem(1, expr.parse(_NEAR_SINGULAR[name]["L"], 1))
    points = sample_states(replace(builtin_plans()["box1_200"], bounds=()), 1)
    for k, p in enumerate(points):
        (det,) = sys_l._extended._hessian_tape(p)
        if not abs(det) > Tolerances().det_tol:
            return k, p, det


@pytest.mark.parametrize("argv, where, name", [
    (["herglotz", "--lagrangian", "tiny"], "plan", "det W"),
    (["herglotz", "--lagrangian", "part"], "plan", "det W"),
    (["herglotz", "--lagrangian", "part", "--zeta", "zeta_q"], "plan", "det W^zeta"),
    (["simulate", "--system", "tiny", "--initial", "0,1,0", "--t", "0.01"], "t = 0.0", "det W"),
    (["stationarity", "--lagrangian", "tiny", "--initial", "0,1,0", "--grid", "50"],
     "t = 0.0", "det W"),
], ids=["herglotz", "herglotz-part", "herglotz-zeta", "simulate", "stationarity"])
def test_a_w_singular_at_sampled_points_is_an_error(argv, where, name, tmp_path,
                                                     monkeypatch):
    """The tasks that solve with W gate it where they solve: herglotz at its
    default plan's points, simulate and stationarity along the trajectory.
    A point where |det W| is not above det_tol is an error naming it."""
    monkeypatch.delenv("HERGLOTZ_SEED", raising=False)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"systems": _NEAR_SINGULAR}))
    out = tmp_path / "out"
    code, data = run_cli(["--config", str(cfg_path), "--out", str(out), *argv], tmp_path)
    if where == "plan":
        k, p, det = _first_singular(argv[2])
        assert (k > 0) == (argv[2] == "part")
        where = str(p)
    else:
        det = 2e-12
    assert code == 2 and data["verdict"] == "error"
    assert data["diagnostics"] == [
        f"SingularLagrangianError: velocity Hessian singular at {where}: {name} = {det:.3e}"]
    assert list(out.iterdir()) == []


def test_a_w_singular_away_from_the_trajectory_passes(tmp_path):
    """W = 1e-9 q1^2 is singular only near q1 = 0: a trajectory that stays
    away from it passes."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"systems": _NEAR_SINGULAR}))
    code, data = run_cli(["--config", str(cfg_path), "simulate", "--system", "part",
                          "--initial", "1,0,0", "--t", "1e-6", "--dt", "1e-7"], tmp_path)
    assert code == 0 and data["verdict"] == "pass"


@pytest.mark.parametrize("systems, factor, message", [
    ({}, "k*z", "unbound parameter 'k'"),
    ({"saddle_c1": {"kind": "hamiltonian", "H": "v1*q1 - c*z^2", "params": {"c": 1}},
      "saddle_c2": {"kind": "hamiltonian", "H": "v1*q1 - c*z^2", "params": {"c": 2}}},
     "1", "parameter 'c' bound to conflicting values"),
], ids=["unbound", "conflict"])
def test_a_conformal_factor_is_bound_at_task_time(systems, factor, message, tmp_path, capsys):
    """The factor is lowered with the two systems' merged parameters when
    the task starts: an unbound name, or a name the two bind differently,
    is a config error at args.factor, before any report is written."""
    pair = list(systems) or ["saddle", "saddle_flipped"]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"systems": systems}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg_path), "--out", str(out), "check-conformal",
                 "--system", pair[0], "--system-b", pair[1], "--factor", factor]) == 3
    assert capsys.readouterr().err == f"config error: {message} (config path: args.factor)\n"
    assert list(out.iterdir()) == []
    task = {"command": "check-conformal",
            "args": {"system": pair[0], "system_b": pair[1], "factor": factor}}
    cfg_path.write_text(json.dumps({"systems": systems, "tasks": [FIRST_TASK, task]}))
    assert main(["--config", str(cfg_path), "--out", str(out), "batch"]) == 3
    assert capsys.readouterr().err.endswith("(config path: tasks[1].args.factor)\n")


@pytest.mark.parametrize("residuals, message", [
    (["gam*v1^2 - kk"], "unbound parameter 'kk'"),
    (["gam*v1^2 - g", "0"], "need 1 acceleration expressions"),
], ids=["unbound", "count"])
def test_acceleration_residuals_are_checked_before_integrating(residuals, message, tmp_path,
                                                               capsys):
    """--accel-residual is parsed, counted and bound with the system's
    parameters before the run: a bad one is a config error and no CSV is
    written."""
    argv = ["simulate", "--system", "parachute", "--initial", "0,2,0"]
    for text in residuals:
        argv += ["--accel-residual", text]
    assert main(["--out", str(tmp_path), *argv]) == 3
    assert capsys.readouterr().err == \
        f"config error: {message} (config path: args.accel_residual)\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("task, path, message", [
    ({"command": "check-dynamical",
      "args": {"hamiltonian": "saddle", "hamiltonian_bar": "saddle_flipped"}},
     "tasks[1].args.system", "check-dynamical needs the argument 'system'"),
    ({"command": "check-dynamical", "args": {"system": "saddle", "plan": "box1"}},
     "tasks[1].args.system_b", "check-dynamical needs the argument 'system_b'"),
    ({"command": "herglotz"}, "tasks[1].args.lagrangian",
     "herglotz needs the argument 'lagrangian'"),
    ({"command": "check-inverse", "args": {"sode": "sode_parachute", "plann": "box1"}},
     "tasks[1].args.plann", "check-inverse takes no argument 'plann'"),
    ({"command": "simulate", "args": ["system", "parachute"]}, "tasks[1].args",
     "args must be an object"),
    ({"command": "bogus", "args": {"x": 1}}, "tasks[1].command", "unknown command 'bogus'"),
    ({"command": ["check-inverse"]}, "tasks[1].command", "unknown command ['check-inverse']"),
], ids=["wrong-names", "missing-system-b", "no-args", "unknown-name", "args-not-object",
        "unknown-command", "unhashable-command"])
def test_task_arguments_outside_the_command_table_are_config_errors(task, path, message,
                                                                     tmp_path, capsys):
    """A batch task's command and args are checked against the command table
    when the config loads, before any task runs; an error names its task."""
    assert_batch_refused([FIRST_TASK, task], path, message, tmp_path, capsys)


FIRST_TASK = {"command": "check-inverse", "tag": "first",
              "args": {"sode": "sode_parachute", "plan": "box1"}}


def assert_batch_refused(tasks, path, message, tmp_path, capsys):
    """A batch over ``tasks`` exits 3 with ``message`` at ``path`` and
    writes no report."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tasks": tasks}))
    code = main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "batch"])
    assert code == 3
    assert f"config error: {message} (config path: {path})" in capsys.readouterr().err
    assert list((tmp_path / "out").glob("*")) == []


_BAD_TAG = "tag must be a non-empty string of letters, digits, '_', '-' and '.', got "


@pytest.mark.parametrize("tag, message", [
    ("first", "report check-inverse_first.json is also written by tasks[0]"),
    ("../escaped", _BAD_TAG + "'../escaped'"),
    (["x"], _BAD_TAG + "['x']"),
    ("", _BAD_TAG + "''"),
    (None, _BAD_TAG + "None"),
], ids=["duplicate", "path", "list", "empty", "null"])
def test_bad_or_repeated_batch_tags_are_config_errors(tag, message, tmp_path, capsys):
    """A tag names its task's report file, so it must be a plain file name
    part and give each task its own file."""
    task = {**FIRST_TASK, "tag": tag}
    assert_batch_refused([FIRST_TASK, task], "tasks[1].tag", message, tmp_path, capsys)


def test_a_tag_may_not_take_an_untagged_tasks_stem(tmp_path, capsys):
    untagged = {key: value for key, value in FIRST_TASK.items() if key != "tag"}
    assert_batch_refused([{**FIRST_TASK, "tag": "task1"}, untagged], "tasks[1].tag",
                         "report check-inverse_task1.json is also written by tasks[0]",
                         tmp_path, capsys)


def test_tags_of_letters_digits_dots_and_dashes_name_their_reports(tmp_path):
    tasks = [{**FIRST_TASK, "tag": tag} for tag in ("a.b-c_1", "..")]
    tasks.append({key: value for key, value in FIRST_TASK.items() if key != "tag"})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"tasks": tasks}))
    assert main(["--config", str(cfg_path), "--out", str(tmp_path / "out"), "batch"]) == 0
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "check-inverse_...json", "check-inverse_a.b-c_1.json", "check-inverse_task2.json"]


_SINGLE = ["herglotz", "--lagrangian", "parachute"]


@pytest.mark.parametrize("tag", ["../escaped", "", "a/b"], ids=["parent", "empty", "subdir"])
def test_a_single_commands_tag_is_checked_like_a_batch_tag(tag, tmp_path, capsys):
    """The tag names the report, so it may not leave the output directory,
    and an empty one does not fall back to the command name."""
    code = main(["--out", str(tmp_path / "o"), "--tag", tag, *_SINGLE])
    assert code == 3
    assert capsys.readouterr().err == f"config error: {_BAD_TAG}{tag!r} (config path: tag)\n"
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == []


@pytest.mark.parametrize("argv, option", [
    (["--tag", "../x", "--report", "{tmp}/r.json", "batch"], "tag"),
    (["batch", "--tag", "t"], "tag"),
    (["--report", "{tmp}/r.json", "batch"], "report"),
    (["batch", "--report", "{tmp}/r.json"], "report"),
], ids=["tag-and-report", "tag-after", "report", "report-after"])
def test_batch_refuses_a_tag_or_a_report_path(argv, option, tmp_path, capsys):
    """Each batch task names its own report, so --tag and --report have
    nothing to name: refused before any task runs or anything is made."""
    code = main(["--out", str(tmp_path / "o"), *(a.format(tmp=tmp_path) for a in argv)])
    assert code == 3
    assert capsys.readouterr() == ("", f"config error: batch takes no --{option} "
                                       f"(config path: {option})\n")
    assert list(tmp_path.iterdir()) == []


# argv, the config path of the error, and the number of tasks run before it:
# none when a directory cannot be made, one when its report cannot be written
@pytest.mark.parametrize("argv, path, ran_tasks", [
    (["--out", "{file}", "batch"], "output_dir", 0),
    (["--config", "{config}", "batch"], "output_dir", 0),
    (["--out", "{out}", "batch"], "output_dir", 1),
    (["--out", "{file}", *_SINGLE], "output_dir", 0),
    (["--out", "{out}", *_SINGLE], "output_dir", 1),
    (["--out", "{out}", "--report", "{file}/r.json", *_SINGLE], "report", 0),
    (["--out", "{out}", "--report", "{out}", *_SINGLE], "report", 1),
], ids=["batch-out-is-a-file", "batch-output-dir-is-a-file", "batch-report-is-a-directory",
        "single-out-is-a-file", "single-report-is-a-directory", "report-parent-is-a-file",
        "report-is-a-directory"])
def test_unwritable_output_is_a_config_error(argv, path, ran_tasks, tmp_path, capsys,
                                             monkeypatch):
    """An output directory that cannot be made is refused before any task
    runs, and a report that cannot be written after its task ran; both exit
    3 at the config path that names the output, without a traceback."""
    a_file, out = tmp_path / "a_file", tmp_path / "out"
    a_file.write_text("")
    # directories where the first report of the default batch and the
    # herglotz task's report go
    (out / "check-dynamical_saddle_pair.json").mkdir(parents=True)
    (out / "herglotz.json").mkdir()
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"output_dir": str(a_file)}))
    ran, run_task = [], cli.run_task
    monkeypatch.setattr(cli, "run_task", lambda *args: ran.append(args) or run_task(*args))
    code = main([arg.format(file=a_file, out=out, config=config) for arg in argv])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("config error: cannot write output: ")
    assert err.endswith(f"(config path: {path})\n")
    assert len(ran) == ran_tasks


# ---------------------------------------------------------------------------
# Run arguments: values with a leading minus, and malformed runs


def test_simulate_initial_with_leading_minus(tmp_path):
    code, data = run_cli(["simulate", "--system", "parachute",
                          "--initial", "-1,1,0", "--t", "0.1"], tmp_path)
    assert code == 0
    assert data["verdict"] == "pass"


def test_accel_residual_with_leading_minus(tmp_path):
    code, data = run_cli(["simulate", "--system", "linear_drag",
                          "--initial", "0,2,0", "--t", "0.1",
                          "--accel-residual", "-gam*v1"], tmp_path)
    assert code == 0
    assert data["max_residual"] <= 1e-12


def test_stationarity_initial_with_leading_minus(tmp_path):
    code, data = run_cli(["stationarity", "--lagrangian", "linear_drag",
                          "--initial", "-0.5,2,0", "--grid", "60",
                          "--perturbations", "2"], tmp_path)
    assert code == 0
    assert data["verdict"] == "pass"


def test_nonpositive_dt_is_config_error(tmp_path, capsys):
    code, _ = run_cli(["simulate", "--system", "parachute",
                       "--initial", "0,2,0", "--dt", "0"], tmp_path)
    assert code == 3
    assert "config path: args.dt" in capsys.readouterr().err


def batch_reports(out):
    """The reports a batch wrote into ``out``, which also holds its config."""
    return sorted(p.name for p in out.glob("*.json") if p.name != "cfg.json")


def _second_task(command, **args):
    """A batch config whose tasks[1], after a passing FIRST_TASK, is ``command``."""
    return {"tasks": [FIRST_TASK, {"command": command, "args": args}]}


_SIMULATE = {"system": "parachute", "initial": [0, 2, 0]}


@pytest.mark.parametrize("config, argv, path", [
    (None, ["stationarity", "--lagrangian", "linear_drag", "--grid", "1"], "args.grid"),
    (None, ["stationarity", "--lagrangian", "linear_drag", "--perturbations", "0"],
     "args.perturbations"),
    (None, ["stationarity", "--lagrangian", "linear_drag", "--amplitude", "0"],
     "args.amplitude"),
    (None, ["stationarity", "--lagrangian", "linear_drag", "--amplitude", "inf"],
     "args.amplitude"),
    # a batch task's run argument is named under its task
    ({"tasks": [{"command": "simulate", "args": {**_SIMULATE, "t": "abc"}}]}, ["batch"],
     "tasks[0].args.t"),
    ({"tasks": [{"command": "stationarity", "args": {
        "lagrangian": "linear_drag", "perturbations": 1.7}}]}, ["batch"],
     "tasks[0].args.perturbations"),
    (_second_task("simulate", **_SIMULATE, t=-1), ["batch"], "tasks[1].args.t"),
    (_second_task("simulate", system="parachute", initial=[0, 2]), ["batch"],
     "tasks[1].args.initial"),
    (_second_task("simulate", **_SIMULATE, t=1e300, dt=1e-300), ["batch"], "tasks[1].args.dt"),
    (_second_task("check-eq", lagrangian="power_gauge_base", lagrangian_bar="power_gauge_bar1",
                  zeta="zeta_charged_gauge"), ["batch"], "tasks[1].args.zeta"),
    (_second_task("check-conformal", system="saddle", system_b="saddle_flipped", factor="1 +"),
     ["batch"], "tasks[1].args.factor"),
    (_second_task("simulate", **_SIMULATE, accel_residual=["gam*v1^2 -"]), ["batch"],
     "tasks[1].args.accel_residual"),
    ({**_second_task("check-dynamical", system="saddle", system_b="wide"),
      "systems": {"wide": {"kind": "hamiltonian", "n": 2, "H": "q1*v1 + z"}}}, ["batch"],
     "tasks[1].args"),
    # a flag value is converted like a config value, not by argparse (exit 2)
    (None, ["simulate", "--system", "parachute", "--initial", "0,2,0", "--t", "abc"],
     "args.t"),
    (None, ["stationarity", "--lagrangian", "linear_drag", "--grid", "1.5"], "args.grid"),
    (None, ["stationarity", "--lagrangian", "linear_drag", "--stat-tol=0"], "args.stat_tol"),
    (None, ["stationarity", "--lagrangian", "linear_drag", "--stat-tol=-1"], "args.stat_tol"),
], ids=["grid", "perturbations", "amplitude", "amplitude-inf", "config-task-t",
        "config-task-fractional-perturbations", "second-task-negative-t",
        "second-task-initial", "second-task-steps", "second-task-zeta-chart",
        "second-task-factor", "second-task-accel-residual", "second-task-charts", "flag-t",
        "flag-fractional-grid", "stat-tol-zero", "stat-tol-negative"])
def test_bad_run_argument_is_config_error(config, argv, path, tmp_path, capsys):
    if config is None:
        code, data = run_cli(argv, tmp_path)
        assert data is None
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["--config", str(cfg_path), "--out", str(tmp_path), *argv])
        assert batch_reports(tmp_path) == (["check-inverse_first.json"]
                                           if path.startswith("tasks[1]") else [])
    assert code == 3
    assert capsys.readouterr().err.endswith(f"(config path: {path})\n")


@pytest.mark.parametrize("command", ["herglotz", "legendre"])
def test_action_function_on_a_wider_chart_is_config_error(command, tmp_path, capsys):
    """zeta_charged_gauge reads q3, past parachute's n = 1 chart: refused at
    args.zeta before any field is built, as check-eq refuses it."""
    code, data = run_cli([command, "--lagrangian", "parachute",
                          "--zeta", "zeta_charged_gauge"], tmp_path)
    assert code == 3 and data is None
    err = capsys.readouterr().err
    assert "config path: args.zeta" in err and "coordinate index 3" in err


def test_overflowing_stationarity_bound_is_an_error_report(tmp_path):
    code, data = run_cli(["stationarity", "--lagrangian", "parachute",
                          "--stat-tol=1e308"], tmp_path)
    assert code == 2
    assert data["verdict"] == "error"
    assert data["diagnostics"][0] == "non-finite stationarity bound = inf"
    assert data["diagnostics"][1].startswith("action = ")
    assert data["diagnostics"][2] == "stationarity bound = inf"


def test_overflowing_stationarity_fail_bound_is_an_error_report(tmp_path):
    # the bound stays finite, ten times it does not
    code, _ = run_cli(["stationarity", "--lagrangian", "parachute",
                       "--stat-tol=5e307"], tmp_path)
    text = (tmp_path / "r.json").read_text()
    assert "Infinity" not in text
    data = json.loads(text)
    assert code == 2
    assert data["verdict"] == "error"
    assert data["diagnostics"][0] == "non-finite fail bound = inf"
    assert data["diagnostics"][1].startswith("action = ")
    assert data["diagnostics"][2].startswith("stationarity bound = 1.")


def test_nonpositive_t_is_config_error(tmp_path, capsys):
    code, _ = run_cli(["simulate", "--system", "parachute",
                       "--initial", "0,2,0", "--t", "-1"], tmp_path)
    assert code == 3
    assert "config path: args.t" in capsys.readouterr().err


def test_wrong_length_initial_is_config_error(tmp_path, capsys):
    code, _ = run_cli(["simulate", "--system", "parachute",
                       "--initial", "0,2"], tmp_path)
    assert code == 3
    assert "config path: args.initial" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["check-conformal", "check-dynamical"])
def test_contact_pair_on_different_charts_is_config_error(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": {
        "wide": {"kind": "hamiltonian", "n": 2, "H": "q1*v1 + z"},
        "narrow": {"kind": "hamiltonian", "n": 1, "H": "q1*v1 + z"}}}))
    for pair in (("wide", "narrow"), ("narrow", "wide")):
        code, data = run_cli(["--config", str(cfg), command, "--system", pair[0],
                              "--system-b", pair[1]], tmp_path)
        assert code == 3 and data is None
        assert "config path: args" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-3, 1.5, "abc", True, None])
def test_malformed_plan_seed_is_config_error(seed, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"plans": {"seeded": {"count": 5, "seed": seed}}}))
    code, data = run_cli(["--config", str(cfg), "check-dynamical", "--system", "saddle",
                          "--system-b", "saddle_flipped", "--plan", "seeded"], tmp_path)
    assert code == 3 and data is None
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer" in err
    assert "config path: plans.seeded" in err


LAGRANGIAN = {"kind": "lagrangian", "n": 1, "L": "0.5*v1^2 - gam*z"}


@pytest.mark.parametrize("raw, path", [
    ({"plans": {"p": {"count": 2.5}}}, "plans.p"),
    ({"plans": {"p": {"count": True}}}, "plans.p"),
    ({"systems": {"s": {**LAGRANGIAN, "n": True}}}, "systems.s.n"),
    ({"systems": {"s": {**LAGRANGIAN, "params": {"gam": True}}}}, "systems.s.params.gam"),
    ({"systems": {"s": {**LAGRANGIAN, "params": {"gam": math.nan}}}},
     "systems.s.params.gam"),
    ({"tolerances": {"fail_tol": True}}, "tolerances.fail_tol"),
], ids=["fractional-count", "bool-count", "bool-n", "bool-param", "nan-param",
        "bool-tolerance"])
def test_malformed_config_number_is_config_error_at_its_path(raw, path, tmp_path, capsys):
    """A config number is a finite number of the right kind and not a bool,
    like a run argument, or the run ends with exit 3 at its path."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code, data = run_cli(["--config", str(cfg), "herglotz", "--lagrangian", "linear_drag"],
                         tmp_path)
    assert code == 3 and data is None
    assert capsys.readouterr().err.rstrip().endswith(f"(config path: {path})")


@pytest.mark.parametrize("seed", ["-1", "abc", "1.5"])
def test_malformed_seed_env_is_config_error(seed, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HERGLOTZ_SEED", seed)
    code, data = run_cli(["check-dynamical", "--system", "saddle",
                          "--system-b", "saddle_flipped", "--plan", "box1"], tmp_path)
    assert code == 3 and data is None
    assert "config path: env" in capsys.readouterr().err


@pytest.mark.parametrize("config, argv", [
    (None, ["--curve-seed", "-1"]),
    ({"tasks": [{"command": "stationarity", "args": {
        "lagrangian": "linear_drag", "random_curve": True, "curve_seed": True}}]}, []),
], ids=["flag-negative", "config-task-bool"])
def test_malformed_curve_seed_is_config_error(config, argv, tmp_path, capsys):
    if config is None:
        argv = ["stationarity", "--lagrangian", "linear_drag", "--grid", "20",
                "--perturbations", "1", "--random-curve", *argv]
        code, data = run_cli(argv, tmp_path)
        assert data is None
    else:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["--config", str(cfg_path), "--out", str(tmp_path), "batch"])
        assert batch_reports(tmp_path) == []
    assert code == 3
    path = "args.curve_seed" if config is None else "tasks[0].args.curve_seed"
    assert capsys.readouterr().err.endswith(f"(config path: {path})\n")


DEEP_INPUTS = {
    "parentheses": ({"kind": "lagrangian", "L": "(" * 150 + "0.5*v1^2 - q1^2" + ")" * 150},
                    ["herglotz", "--lagrangian", "deep"]),
    "long-sum": ({"kind": "bar_lagrangian", "L": " + ".join(["0.5*v1^2"] + ["q1"] * 4999)},
                 ["check-eq", "--lagrangian", "power_gauge_base", "--lagrangian-bar", "deep",
                  "--zeta", "zeta_v1"]),
}


@pytest.mark.parametrize("name", sorted(DEEP_INPUTS))
def test_deep_expression_is_config_error_at_its_path(name, tmp_path, capsys):
    """Past the parser's nesting or depth limit an expression is refused
    with exit 3 at its config path, not with a RecursionError."""
    system, argv = DEEP_INPUTS[name]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": {"deep": {**system, "n": 1}}}))
    code, data = run_cli(["--config", str(cfg), *argv], tmp_path)
    assert code == 3 and data is None
    err = capsys.readouterr().err
    assert re.search(r"(nested|deeper) than \d+", err)
    assert "config path: systems.deep.L" in err


@pytest.mark.parametrize("L, message", [
    ("q" + "0" * 4400 + "1", "coordinate index longer than 4300 digits"),
    ("0.5*v1^2 - q1^" + "1" * 4400, "exponent longer than 4300 digits"),
], ids=["index", "exponent"])
def test_digit_run_past_int_limit_is_config_error_at_its_path(L, message, tmp_path, capsys):
    """A digit run that int() refuses is a ParseError, not a ValueError
    traceback with exit 1."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": {"long": {"kind": "lagrangian", "n": 1, "L": L}}}))
    code, data = run_cli(["--config", str(cfg), "herglotz", "--lagrangian", "long"], tmp_path)
    assert code == 3 and data is None
    err = capsys.readouterr().err
    assert message in err and "config path: systems.long.L" in err


def test_dimension_past_the_bound_is_config_error_at_its_path(tmp_path, capsys):
    """A huge n is refused before its Darboux form is built, whichever task
    runs; n = MAX_N itself loads."""
    cfg = tmp_path / "cfg.json"
    system = {"kind": "hamiltonian", "H": "v1"}
    cfg.write_text(json.dumps({"systems": {"big": {**system, "n": 300000}}}))
    start = time.perf_counter()
    code, data = run_cli(["--config", str(cfg), "herglotz", "--lagrangian", "linear_drag"],
                         tmp_path)
    assert code == 3 and data is None and time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"'n' must be at most {cli.MAX_N}" in err and "config path: systems.big.n" in err
    cfg.write_text(json.dumps({"systems": {"big": {**system, "n": cli.MAX_N}}}))
    assert cli.load_config(str(cfg)).systems["big"].n_dim == cli.MAX_N


def test_count_past_the_bound_is_config_error_at_its_path(tmp_path, capsys):
    """A huge plan count is refused before a random plan draws count x
    (2n + 1) doubles in one generator call; count = MAX_COUNT itself loads."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"plans": {"huge": {"count": 100_000_000, "seed": 1}}}))
    with pytest.raises(cli.ConfigError) as info:    # refused before anything is drawn
        cli.load_config(str(cfg))
    assert info.value.path == "plans.huge.count"
    start = time.perf_counter()
    code, data = run_cli(["--config", str(cfg), "check-dynamical", "--system", "saddle",
                          "--system-b", "saddle_flipped", "--plan", "huge"], tmp_path)
    assert code == 3 and data is None and time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"'count' must be at most {cli.MAX_COUNT}" in err and "config path: plans.huge.count" in err
    cfg.write_text(json.dumps({"plans": {"huge": {"count": cli.MAX_COUNT}}}))
    assert cli.load_config(str(cfg)).plans["huge"].count == cli.MAX_COUNT


@pytest.mark.parametrize("argv, path", [
    (["simulate", "--system", "parachute", "--initial", "0,2,0", "--t", "1e18", "--dt", "1"],
     "args.dt"),
    (["simulate", "--system", "parachute", "--initial", "0,2,0", "--t", "1e300",
      "--dt", "1e-300"], "args.dt"),
    (["stationarity", "--lagrangian", "parachute", "--grid", "1000002"], "args.grid"),
])
def test_steps_past_the_bound_are_config_error_at_their_path(argv, path, tmp_path, capsys,
                                                              monkeypatch):
    """A run of more than MAX_STEPS RK4 steps is refused before anything
    integrates; exactly MAX_STEPS steps get past the check."""
    def refuse(*args):
        raise AssertionError("integrate called")

    monkeypatch.setattr(cli, "integrate", refuse)
    code, data = run_cli(argv, tmp_path)
    assert code == 3 and data is None
    err = capsys.readouterr().err
    assert f"more than {cli.MAX_STEPS} steps" in err and f"config path: {path}" in err
    at_bound = {"args.dt": ["--t", "1000000", "--dt", "1"], "args.grid": ["--grid", "1000001"]}
    code, data = run_cli(argv[:3] + ["--initial", "0,2,0"] * (path == "args.dt")
                         + at_bound[path], tmp_path)
    assert code == 2 and data["diagnostics"] == ["AssertionError: integrate called"]


@pytest.mark.parametrize("L", [
    "-" * 3000 + "0.5*v1^2 - q1^2",
    "0.5*v1^2" + "".join(f" + {0.001 * (k % 7 + 1)!r}*q1^{k % 4 + 1}*v1^{k % 2}*z^{k % 3}"
                         for k in range(299)),
], ids=["minus-chain", "300-term-polynomial"])
def test_long_expression_within_the_limits_runs(L, tmp_path):
    """A chain of minus signs is parsed by a loop, and a 300-term
    polynomial Lagrangian stays below the depth limit."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"systems": {"long": {"kind": "lagrangian", "n": 1, "L": L}}}))
    code, data = run_cli(["--config", str(cfg), "herglotz", "--lagrangian", "long"], tmp_path)
    assert code == 0 and data["verdict"] == "pass"


# Config fragments: some well formed, most not.  A system's n is drawn on
# both sides of MAX_N, past which it is refused before a Hamiltonian without
# eta builds its Darboux form of 2n + 1 components, and a plan's count on both
# sides of MAX_COUNT, past which it is refused before a sample is drawn.
FUZZ_ODD = st.sampled_from([None, True, False, 0, -1, 3, 2.5, -0.0, 1e300, 10**400, math.nan,
                       math.inf, "", "abc", "2", [], [1, "a"], {}, {"a": None}])
FUZZ_NUMBER = st.integers() | st.floats() | FUZZ_ODD
FUZZ_EXPR_TEXT = st.sampled_from(["0.5*v1^2 - q1^2", "z + sin(q1)", "q1 +", "q9", "zeta - v1",
                             "(" * 120 + "z" + ")" * 120]) | st.text(max_size=8) | FUZZ_ODD
FUZZ_SYSTEM = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["lagrangian", "bar_lagrangian", "hamiltonian", "sode",
                             "action", "other"]) | FUZZ_ODD,
    "n": st.integers(-1, 4) | st.integers(cli.MAX_N - 1, cli.MAX_N + 1)
    | st.sampled_from([300000, 2.5, True, "2", None, math.nan, [1]]),
    "params": st.dictionaries(st.text(max_size=3), FUZZ_NUMBER, max_size=2) | FUZZ_ODD,
    **{key: FUZZ_EXPR_TEXT for key in ("L", "H", "zeta", "z_rate")},
    **{key: st.lists(FUZZ_EXPR_TEXT, max_size=4) | FUZZ_ODD for key in ("eta", "accelerations")},
}) | FUZZ_ODD
FUZZ_PLAN = st.fixed_dictionaries({}, optional={
    "mode": st.sampled_from(["random", "grid"]) | FUZZ_ODD,
    "bounds": st.lists(st.lists(FUZZ_NUMBER, max_size=3), max_size=3) | FUZZ_ODD,
    "count": FUZZ_NUMBER | st.integers(cli.MAX_COUNT - 1, cli.MAX_COUNT + 1)
    | st.sampled_from([100_000_000, float(cli.MAX_COUNT + 1)]),
    "seed": FUZZ_NUMBER,
}) | FUZZ_ODD
# Task arguments: names from the command table, misspelt ones, and values
# of any kind; the table itself checks only the names.
FUZZ_ARG_NAMES = sorted({name for _, flags in cli._TASKS.values() for name in flags}
                        | {"plann", "hamiltonian", "system-b", ""})
FUZZ_TASK = st.fixed_dictionaries(
    {"command": st.sampled_from(sorted(cli._TASKS)) | FUZZ_NUMBER},
    optional={"args": st.dictionaries(st.sampled_from(FUZZ_ARG_NAMES), FUZZ_EXPR_TEXT,
                                      max_size=4) | FUZZ_ODD,
              "tag": st.sampled_from(["a", "task1", "a.b-c_1", "a/b", ".."]) | FUZZ_ODD})
FUZZ_CONFIG = st.fixed_dictionaries({}, optional={
    "systems": st.dictionaries(st.text(max_size=3), FUZZ_SYSTEM, max_size=2) | FUZZ_ODD,
    "plans": st.dictionaries(st.text(max_size=3), FUZZ_PLAN, max_size=2) | FUZZ_ODD,
    "tolerances": st.fixed_dictionaries({}, optional={
        key: FUZZ_NUMBER for key in ("pass_tol", "fail_tol", "det_tol")}) | FUZZ_ODD,
    "tasks": st.lists(FUZZ_TASK | FUZZ_ODD, max_size=2) | FUZZ_ODD,
    "output_dir": st.text(max_size=3) | FUZZ_ODD,
}) | FUZZ_ODD


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=FUZZ_CONFIG)
@example(raw={"plans": {"p": {"count": cli.MAX_COUNT + 1}}})
def test_load_config_returns_a_config_or_raises_config_error(raw, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    try:
        cfg = cli.load_config(str(path))
    except cli.ConfigError:
        return
    assert isinstance(cfg, cli.RunConfig)
    assert all(plan.count <= cli.MAX_COUNT for plan in cfg.plans.values())
    for task in cfg.tasks:
        flags, args = cli._TASKS[task["command"]][1], task.get("args", {})
        assert set(args) <= set(flags)
        assert all(name in args for name, kwargs in flags.items() if kwargs.get("required"))
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", task.get("tag", "task"))
    stems = [cli._task_stem(task, k) for k, task in enumerate(cfg.tasks)]
    assert len(set(stems)) == len(stems)


def test_legendre_task_lowers_once_per_check(tmp_path, monkeypatch):
    lower, lowered = expr._lower, []
    monkeypatch.setattr(expr, "_lower", lambda *args: lowered.append(args) or lower(*args))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"plans": {"few": {"count": 20, "seed": 4},
                                         "many": {"count": 200, "seed": 4}}}))
    counts = []
    for plan in ("few", "many"):
        del lowered[:]
        code, data = run_cli(["--config", str(cfg), "legendre", "--lagrangian", "parachute",
                              "--zeta", "zeta_v1", "--plan", plan], tmp_path, plan)
        assert code == 0 and len(data["residuals"]) > 0
        counts.append(len(lowered))
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# The report writer: json.dumps(indent=2), byte for byte


class _Float(float):
    def __repr__(self):
        return "not a JSON number"


_point = StatePoint.from_coords([0.5, -0.0, 1e-310], 1)
_Level = enum.IntEnum("_Level", "LOW HIGH")   # json writes int.__repr__ of it
_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2e-308,
                   1.7976931348623157e308, 1e16, 0.1]


@pytest.mark.parametrize("key", [1, 2 ** 70, 1.5, math.nan, True, None, _Level.LOW],
                         ids=["int", "big-int", "float", "nan", "bool", "none", "int-enum"])
def test_json_text_rejects_a_key_that_is_not_a_str(key, tmp_path):
    # json.dumps would write these keys as strings; a report has none, and
    # write_report refuses one before its file is opened
    report = CheckReport("pass", 1.0, [PointRecord(_point, {"a": 0.5, key: 1.0})])
    path = tmp_path / "r.json"
    with pytest.raises(TypeError):
        cli.write_report(report, path)
    assert not path.exists()


@pytest.mark.parametrize("obj", [
    object(), [1.0, {1j}], {(1, 2): 0.0}, {"a": {b"k": 1}}, [np.float32(1.0)],
    {"n": np.int64(3)}])
def test_json_text_rejects_what_json_rejects(obj, tmp_path):
    report = error_report("unwritable", Tolerances())
    report.diagnostics.append(obj)
    path = tmp_path / "r.json"
    with pytest.raises(TypeError):
        cli.write_report(report, path)
    assert not path.exists()


def test_a_report_json_cannot_hold_is_refused_before_its_file_is_written(tmp_path):
    report = error_report("unwritable", Tolerances())
    report.diagnostics.append(np.float32(1.0))
    path = tmp_path / "r.json"
    with pytest.raises(TypeError):
        cli.write_report(report, path)
    assert not path.exists()


def test_a_cyclic_report_is_a_value_error_before_its_file_is_written(tmp_path):
    report = error_report("cyclic", Tolerances())
    report.diagnostics.append(report.diagnostics)
    path = tmp_path / "r.json"
    with pytest.raises(ValueError, match="Circular reference"):
        cli.write_report(report, path)
    assert not path.exists()


def _assert_written_as_json_dumps(report, path):
    """The file at ``path`` holds json.dumps(indent=2) of the report's dict
    with the file's own metadata."""
    text = path.read_text()
    data = report.to_dict()
    data["metadata"] = json.loads(text)["metadata"]
    assert text == json.dumps(data, indent=2) + "\n", path.name


_KEY_TEXT = "%r%%\"\\\x00\x1fé\u2028\U0001f600 az"
_NOT_STR_KEYS = [1, 2 ** 70, 1.5, math.nan, True, None, _Level.LOW]
# every kind of value a record may hold; all but the first are dumped whole
_record_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.floats(), st.integers(),
    st.booleans(), st.sampled_from(_SPECIAL_FLOATS), st.floats().map(np.float64),
    st.floats().map(_Float))
_coordinates = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 2.2e-308, 1.7976931348623157e308, 1e16, 0.1])


@st.composite
def _reports(draw):
    """A CheckReport of 0 to 6 records in up to 3 shapes: point dimensions 0
    to 3 and key lists, one in eight with a key that is not a str."""
    shapes = draw(st.lists(st.tuples(
        st.integers(0, 3), st.lists(st.text(_KEY_TEXT, max_size=4), max_size=3, unique=True)),
        min_size=1, max_size=3))
    if draw(st.integers(0, 7)) == 0:
        n, keys = shapes[0]
        shapes[0] = (n, [*keys, draw(st.sampled_from(_NOT_STR_KEYS))])
    records = []
    for n, keys in draw(st.lists(st.sampled_from(shapes), max_size=6)):
        flat = draw(st.lists(_coordinates, min_size=2 * n + 1, max_size=2 * n + 1))
        records.append(PointRecord(StatePoint.from_coords(flat, n),
                                   {key: draw(_record_values) for key in keys}))
    return CheckReport(
        draw(st.sampled_from(["pass", "fail", "error", "inconclusive"])), draw(st.floats()),
        records, draw(st.lists(st.text(_KEY_TEXT, max_size=4), max_size=2)),
        plan=draw(st.none() | st.just(SamplePlan("random", ((-1.0, 1.0),) * 3, 8, 1))),
        task=draw(st.text(_KEY_TEXT, max_size=4)))



@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(report=_reports())
@example(report=CheckReport("pass", records=[]))
@example(report=CheckReport("fail", 0.5, [
    PointRecord(_point, {"\0": 0.5, "b": 1.0}), PointRecord(_point, {"\"\0": 0.25}),
    PointRecord(_point, {"\0": 0.5, "b": math.nan})], ['"residuals": []'],
    task='"residuals": [] %r \0'))
@example(report=CheckReport("fail", 1.5, [
    PointRecord(_point, {"a%r": 0.5, "%%b": -0.0, "\"c\x00é": 1e300}),
    PointRecord(_point, {"a%r": 1, "%%b": True, "\"c\x00é": np.float64(0.1)}),
    PointRecord(_point, {"a%r": _Float(2.5), "%%b": math.nan, "\"c\x00é": -math.inf}),
    PointRecord(StatePoint.from_coords([2.0], 0), {}),
    PointRecord(_point, {"a%r": 0.25, "%%b": 5e-324, "\"c\x00é": -1.0})]))
def test_write_report_is_json_dumps_indent_2_of_every_record(report, tmp_path):
    """Records of one shape share a template, filled with their floats; a
    record with any other value is dumped whole.  Either way the
    file is json.dumps(indent=2) of the report's dict, and a key that is not
    a str refuses the report before its file is written."""
    path = tmp_path / "r.json"
    path.unlink(missing_ok=True)
    if any(not isinstance(key, str) for rec in report.records for key in rec.values):
        with pytest.raises(TypeError):
            cli.write_report(report, path)
        assert not path.exists()
    else:
        cli.write_report(report, path)
        _assert_written_as_json_dumps(report, path)


def test_json_text_calls_do_not_grow_with_the_record_count(tmp_path, monkeypatch):
    """Each default-batch report is written in a bounded number of json.dumps
    calls: one for the report's body and one per record shape.  Doubling
    every random plan's count doubles the records and leaves the calls as
    they were."""
    calls, stem, records = collections.Counter(), [None], collections.Counter()
    dumps, write_report, plans = json.dumps, cli.write_report, cli.builtin_plans

    def counted(*args, **kwargs):
        calls[stem[0]] += 1
        return dumps(*args, **kwargs)

    def write(report, path):
        stem[0] = path.stem
        records[path.stem] += len(report.records)
        write_report(report, path)

    monkeypatch.setattr(cli.json, "dumps", counted)
    monkeypatch.setattr(cli, "write_report", write)
    main(["batch", "--out", str(tmp_path / "x1")])
    once, records_once = dict(calls), sum(records.values())
    calls.clear()
    records.clear()
    monkeypatch.setattr(cli, "builtin_plans", lambda: {
        name: replace(plan, count=2 * plan.count) if plan.mode == "random" else plan
        for name, plan in plans().items()})
    main(["batch", "--out", str(tmp_path / "x2")])
    assert len(once) == 16 and dict(calls) == once
    assert max(once.values()) <= 40
    assert sum(records.values()) > 1.9 * records_once


@pytest.mark.parametrize("seed", [None, "7", "123"])
def test_batch_reports_are_json_dumps_indent_2(seed, tmp_path, monkeypatch):
    if seed is None:
        monkeypatch.delenv("HERGLOTZ_SEED", raising=False)
    else:
        monkeypatch.setenv("HERGLOTZ_SEED", seed)
    written, write_report = [], cli.write_report

    def write(report, path):
        write_report(report, path)
        written.append((report, path))

    monkeypatch.setattr(cli, "write_report", write)
    main(["batch", "--out", str(tmp_path)])
    assert len(written) == 16
    for report, path in written:
        _assert_written_as_json_dumps(report, path)


def test_error_report_with_nan_residual_is_json_dumps_indent_2(tmp_path):
    records = [PointRecord(StatePoint.from_coords([0.5, -0.0, 1e-310], 1),
                           {"defect": math.nan, "other": -math.inf})]
    report = error_report("singular é \x00 point", Tolerances(),
                          SamplePlan("grid", ((0.0, 1.0),) * 3, 8, 0), records)
    assert math.isnan(report.max_residual)
    cli.write_report(report, tmp_path / "error.json")
    _assert_written_as_json_dumps(report, tmp_path / "error.json")
