"""Tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import activech as ac
from activech import cli, model, solver
from activech.cli import main


@pytest.fixture(autouse=True)
def _quiet_resolution_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ac.ResolutionWarning)
        yield


def write_cfg(tmp_path, body, name="run.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


SIM_CFG = """
[domain]
dim = 1
lengths = 1

[discretization]
epsilon = 1/(4*pi)
tau = 1e-3
t_end = 0.02

[physics]
beta = 0.1
s_plus = -1
s_minus = 4
rho_plus = 1
rho_minus = 0.1
l_coef = -1

[initial]
kind = flat_front
q0 = 0.3

[output]
stride = 10
"""


def test_unknown_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--bogus"])
    assert exc.value.code == 1


def test_no_subcommand_exits_1(capsys):
    assert main([]) == 1


def test_simulate_and_files(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM_CFG)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "diag.csv").exists()
    assert (tmp_path / "out" / "manifest.json").exists()
    out = capsys.readouterr().out
    assert "q_h=" in out


def test_simulate_config_error_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM_CFG.replace("kind = flat_front", "kind = bogus"))
    assert main(["simulate", "--config", cfg]) == 1
    assert main(["simulate", "--config", str(tmp_path / "missing.cfg")]) == 1


def test_simulate_numerical_failure_exit_code(tmp_path):
    cfg = write_cfg(tmp_path, SIM_CFG)
    # an absurd time step cannot converge within one Newton iteration
    code = main(["simulate", "--config", cfg,
                 "--set", "discretization.tau=1e6",
                 "--set", "discretization.t_end=2e6"])
    assert code == 2


def test_simulate_linear_solve_failure_names_its_step(tmp_path, monkeypatch, capsys):
    # the Schur solve fails from step 3 on: the manifest names that step and
    # its Newton residuals, and simulate exits 2 with the solver's message
    steps = []
    step, solve = solver.Stepper.step, solver.SchurOperator.solve
    message = "linear solver stalled at relative residual 1.000e-07 (target 1.0e-10)"

    def tracked_step(self, phi, mu, step_index=0):
        steps.append(step_index)
        return step(self, phi, mu, step_index)

    def failing_solve(self, rhs):
        if steps[-1] >= 3:
            raise ac.NumericalError(message)
        return solve(self, rhs)

    monkeypatch.setattr(solver.Stepper, "step", tracked_step)
    monkeypatch.setattr(solver.SchurOperator, "solve", failing_solve)
    cfg = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert f"numerical failure: {message}" in capsys.readouterr().err
    failure = json.loads((tmp_path / "out" / "manifest.json").read_text())["failure"]
    assert failure["step"] == 3 and failure["error"] == message
    assert len(failure["residuals"]) >= 1


def test_simulate_nonfinite_parameter_exit_code(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", cfg, "--set", "physics.beta=nan"]) == 1
    k_cfg = write_cfg(tmp_path, SIM_CFG.replace("rho_plus = 1", "k_plus = 0.2")
                      .replace("rho_minus = 0.1", "k_minus = 0.02"), name="k.cfg")
    assert main(["simulate", "--config", k_cfg, "--set", "physics.k_plus=nan"]) == 1
    for override in ("discretization.h=nan", "domain.lengths=inf",
                     "discretization.t_end=nan", "discretization.t_end=inf"):
        capsys.readouterr()
        assert main(["simulate", "--config", cfg, "--set", override]) == 1, override
        assert "configuration error" in capsys.readouterr().err, override
    assert main(["simulate", "--config", cfg, "--set", "discretization.tau=nan"]) == 1
    assert "configuration error: [discretization] tau" in capsys.readouterr().err
    cfg_2d = write_cfg(tmp_path, SIM_CFG.replace("dim = 1", "dim = 2")
                       .replace("lengths = 1", "lengths = 1, 1"), name="2d.cfg")
    assert main(["simulate", "--config", cfg_2d, "--set", "output.track_line=nan"]) == 1
    assert "configuration error" in capsys.readouterr().err


def _k_pair_cfg(tmp_path):
    return write_cfg(tmp_path, SIM_CFG.replace("rho_plus = 1", "k_plus = 0.2")
                     .replace("rho_minus = 0.1", "k_minus = 0.02"), name="k.cfg")


def test_simulate_zero_beta_with_k_pair_exit_code(tmp_path, capsys):
    # beta = 0 with a K pair is a configuration error, never a ZeroDivisionError
    assert main(["simulate", "--config", _k_pair_cfg(tmp_path), "--set", "physics.beta=0",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "configuration error: beta must be positive and finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_simulate_manifest_holds_the_parsed_params(tmp_path):
    cfg_path = _k_pair_cfg(tmp_path)
    assert main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["config"]["params"]["reaction"]["k_plus"] == 0.2
    assert manifest["config"]["params"]["reaction"]["k_minus"] == 0.02
    cfg = ac.parse_config(Path(cfg_path).read_text())
    assert cfg.phase_field_params() is cfg.params


def test_simulate_out_on_an_existing_file_exit_code(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep")
    cfg = write_cfg(tmp_path, SIM_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err
    assert taken.read_text() == "keep"


@pytest.mark.parametrize("override", [
    "discretization.tau=abc", "domain.lengths=1, abc", "output.stride=nan",
    "output.stride=inf", "output.modes_lmax=nan", "converge.dim=nan", "domain.dim=1.7",
    "output.stride=2.5", "initial.seed=1.5", "output.vtk=maybe", "initial.q0=abc",
    "initial.q0=yes", "initial.n_random_modes=2.7", "initial.modes=1.5",
    "initial.amplitudes=abc",
])
def test_simulate_malformed_field_exit_code(tmp_path, capsys, override):
    # a value of the wrong type is rejected, never truncated or coerced
    cfg = write_cfg(tmp_path, SIM_CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--set", override, "--out", str(out)]) == 1
    section, key = override.split("=")[0].split(".")
    assert f"configuration error: [{section}] {key}: expected" in capsys.readouterr().err
    assert not out.exists()


SIM_2D = {"dim = 1": "dim = 2", "lengths = 1\n": "lengths = 1, 1\n"}
DISK_2D = {**SIM_2D,
           "kind = flat_front\nq0 = 0.3": "kind = disk\ncenter = 0.5, 0.5\nr0 = 0.2"}


@pytest.mark.parametrize("command, edits, override", [
    ("simulate", {}, "initial.amplitude=0.3"),
    ("simulate", DISK_2D, "initial.center=0.5"),
    ("simulate", DISK_2D, "initial.center=0.5, 0.5, 0.5"),
    ("simulate", {"kind = flat_front\nq0 = 0.3": "kind = random_spinodal\nbound = 0.05"},
     "initial.bound=inf"),
    ("simulate", {}, "output.modes_lmax=-3"),
    ("modes", SIM_2D, "output.modes_lmax=0"),
    ("simulate", SIM_2D, "output.track_line=5"),
])
def test_invalid_field_is_a_configuration_error(tmp_path, capsys, command, edits, override):
    body = SIM_CFG
    for old, new in edits.items():
        body = body.replace(old, new)
    cfg = write_cfg(tmp_path, body)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--set", override, "--out", str(out)]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("edits, message", [
    # ';' separates points, so two centers do not match one radius
    ({**SIM_2D, "kind = flat_front\nq0 = 0.3":
      "kind = three_disks\ncenters = 0.25, 0.25 ; 0.75, 0.75\nradii = 0.1"},
     "configuration error"),
    # ';' starts no comment, so a note after a number is a malformed number
    ({"q0 = 0.3": "q0 = 0.5 ; note"}, "configuration error: [initial] q0: expected"),
], ids=["points", "number"])
def test_semicolon_in_a_config_file_is_never_a_comment(tmp_path, capsys, edits, message):
    body = SIM_CFG
    for old, new in edits.items():
        body = body.replace(old, new)
    out = tmp_path / "out"
    assert main(["simulate", "--config", write_cfg(tmp_path, body), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, edits, message", [
    (["simulate", "--set", "physics.beta"], {},
     "--set expects section.key=value, got 'physics.beta'"),
    (["converge"], {}, "[converge] epsilons: required for the converge command"),
    (["converge"], {"kind = flat_front\nq0 = 0.3": "kind = constant\nvalue = 0",
                    "[output]": "[converge]\nepsilons = 1/(4*pi)\n\n[output]"},
     "[initial] kind: converge needs a flat_front initial front"),
    (["modes"], {}, "modes requires a 2D configuration"),
], ids=["set-without-equals", "converge-without-epsilons", "converge-without-front",
        "modes-in-1d"])
def test_command_preconditions_are_configuration_errors(tmp_path, capsys, argv, edits, message):
    body = SIM_CFG
    for old, new in edits.items():
        body = body.replace(old, new)
    out = tmp_path / "out"
    assert main([*argv, "--config", write_cfg(tmp_path, body), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


SHARP_FLAGS = ["--beta", "0.1", "--splus", "-1", "--sminus", "1"]


def test_sharp_ode_without_a_stationary_front_names_q0(tmp_path, capsys):
    # S+ = S- = -1 with S_I = 0: H < 0 on all of (0, L)
    code = main(["sharp-ode", "--beta", "0.1", "--splus", "-1", "--sminus", "-1",
                 "--t-end", "0.01", "--out", str(tmp_path / "ode.csv")])
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: no stationary front exists; give --q0 explicitly\n")
    assert not any(tmp_path.iterdir())


def test_sharp_ode_takes_no_transverse_width(tmp_path, capsys):
    # the front ODE does not depend on Lt, so only stability takes --Lt
    with pytest.raises(SystemExit) as exc:
        main(["sharp-ode", *SHARP_FLAGS, "--Lt", "2", "--out", str(tmp_path / "ode.csv")])
    assert exc.value.code == 1
    assert "unrecognized arguments: --Lt 2" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [["--dt", "nan"], ["--t-end", "inf"]])
def test_sharp_ode_nonfinite_input_exit_code(tmp_path, capsys, flags):
    out = tmp_path / "ode.csv"
    assert main(["sharp-ode", *SHARP_FLAGS, "--q0", "0.3", *flags, "--out", str(out)]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_sharp_ode_negative_t_end_exit_code(tmp_path, capsys):
    out = tmp_path / "ode.csv"
    assert main(["sharp-ode", *SHARP_FLAGS, "--q0", "0.3", "--t-end", "-1",
                 "--out", str(out)]) == 1
    assert "t_end must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_sharp_ode_out_in_a_missing_directory_exit_code(tmp_path, capsys):
    out = tmp_path / "missing" / "ode.csv"
    assert main(["sharp-ode", *SHARP_FLAGS, "--q0", "0.3", "--t-end", "0.01",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing" in err
    assert "ode.csv" in err and ".tmp" not in err
    assert not out.parent.exists()


def test_sharp_ode_out_on_an_existing_directory_leaves_no_temporary_file(tmp_path, capsys):
    out = tmp_path / "taken"
    out.mkdir()
    assert main(["sharp-ode", *SHARP_FLAGS, "--q0", "0.3", "--t-end", "0.01",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and ".tmp" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert not any(out.iterdir())


@pytest.mark.parametrize("flags", [["--Lt", "0"], ["--Lt", "nan"], ["--lmax", "-3"]])
def test_stability_invalid_input_exit_code(capsys, flags):
    assert main(["stability", *SHARP_FLAGS, *flags]) == 1
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("stability", "--rhoplus"),
                                           ("sharp-ode", "--rhominus")])
def test_zero_rho_exit_code(tmp_path, capsys, command, flag):
    assert main([command, *SHARP_FLAGS, flag, "0", "--out", str(tmp_path / "x.csv")]) == 1
    assert "require rho_plus > 0 and rho_minus > 0" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", ["stability", "sharp-ode"])
@pytest.mark.parametrize("flag, value, condition", [
    ("--beta", "nan", "positive and finite"), ("--beta", "inf", "positive and finite"),
    ("--beta", "0", "positive and finite"), ("--rhoplus", "nan", "finite"),
    ("--rhominus", "-inf", "finite")])
def test_nonfinite_physics_flag_is_named(tmp_path, capsys, command, flag, value, condition):
    # beta and rho are checked before K+- = 2 beta rho+- is formed, so the error names the flag
    out = tmp_path / "x.csv"
    flags = {"--beta": "0.1", "--splus": "-1", "--sminus": "1", flag: value}
    assert main([command, *(f"{k}={v}" for k, v in flags.items()), "--out", str(out)]) == 1
    assert f"configuration error: {flag} must be {condition}, got" in capsys.readouterr().err
    assert not out.exists()


def test_sharp_ode_stationary_is_constant(tmp_path):
    out = tmp_path / "ode.csv"
    code = main(["sharp-ode", "--beta", "0.1", "--splus", "-1", "--sminus", "1",
                 "--t-end", "0.5", "--out", str(out)])
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    qs = np.array([float(r.split(",")[1]) for r in rows])
    assert np.max(np.abs(qs - 0.5)) < 1e-10


def test_stability_marks_mode_two(tmp_path, capsys):
    out = tmp_path / "stab.csv"
    code = main(["stability", "--beta", "0.1", "--splus", "-8", "--sminus", "8",
                 "--L", "1", "--Lt", "1", "--lmax", "10", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "most amplified: |l|^2=4 (l=(2,))" in text
    header = out.read_text().splitlines()[0]
    assert header == "l_sq,gamma_plus,gamma_minus,a_plus,a_minus,factor,beta_crit"


def test_stability_prints_beta_crit_for_every_mode_off_the_normalized_setting(capsys):
    assert main(["stability", "--beta", "0.1", "--splus", "-1", "--sminus", "2", "--mplus", "2",
                 "--mminus", "0.5", "--rc", "0.7", "--lmax", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    modes = [line for line in lines if line.startswith("l_sq=") and "l_sq=   0 " not in line]
    assert len(modes) == 3 and all(" beta_crit=" in line for line in modes)


def test_converge_command(tmp_path, capsys):
    body = SIM_CFG + """
[converge]
epsilons = 1/(4*pi), 1/(8*pi)
dim = 1
"""
    body = body.replace("t_end = 0.02", "t_end = 0.2")
    cfg = write_cfg(tmp_path, body)
    code = main(["converge", "--config", cfg, "--out", str(tmp_path / "conv")])
    assert code == 0
    csv = (tmp_path / "conv" / "convergence.csv").read_text().splitlines()
    assert csv[0] == "epsilon,h,error,eoc"
    assert len(csv) == 3
    assert [f.name for f in (tmp_path / "conv").iterdir()] == ["convergence.csv"]


def test_converge_rejects_dim_3(tmp_path, capsys):
    body = SIM_CFG + """
[converge]
epsilons = 1/(4*pi), 1/(8*pi)
dim = 3
"""
    cfg = write_cfg(tmp_path, body)
    code = main(["converge", "--config", cfg, "--out", str(tmp_path / "conv")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "conv" / "convergence.csv").exists()


@pytest.mark.parametrize("bad", ["0", "nan", "-0.01"])
def test_converge_rejects_bad_epsilons_without_traceback(tmp_path, capsys, bad):
    body = SIM_CFG + f"""
[converge]
epsilons = 1/(4*pi), {bad}
"""
    cfg = write_cfg(tmp_path, body)
    code = main(["converge", "--config", cfg, "--out", str(tmp_path / "conv")])
    err = capsys.readouterr().err
    assert code == 1
    assert "configuration error: [converge] epsilons" in err and "Traceback" not in err
    assert not (tmp_path / "conv").exists()


def test_si_table(tmp_path):
    out = tmp_path / "si.csv"
    code = main(["si-table", "--kplus", "1,2", "--kminus", "0",
                 "--lcoef", "0,1", "--rc", "1", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k_plus,k_minus,l_coef,r_c,s_i"
    assert len(lines) == 5
    value = float(lines[1].split(",")[-1])
    assert value == pytest.approx(math.sqrt(2) / 2, abs=1e-9)


def test_si_table_rejects_malformed_sweep(tmp_path, capsys):
    out = tmp_path / "si.csv"
    assert main(["si-table", "--kplus", "abc", "--out", str(out)]) == 1
    assert "configuration error: --kplus" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--rc", "--kplus", "--kminus", "--lcoef"])
@pytest.mark.parametrize("value", ["nan", "0.5,inf", "-inf"])
def test_si_table_rejects_a_nonfinite_sweep_value(tmp_path, capsys, flag, value):
    out = tmp_path / "si.csv"
    assert main(["si-table", f"{flag}={value}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"configuration error: {flag}: expected comma-separated numbers, got {value!r}" in err
    assert not any(tmp_path.iterdir())   # no table and no temporary file


def test_si_table_builds_one_rule_per_r_c(tmp_path, monkeypatch):
    calls = []
    gauss_rule = model._gauss_rule

    def counting_gauss_rule(breaks):
        calls.append(len(breaks))
        return gauss_rule(breaks)

    monkeypatch.setattr(model, "_gauss_rule", counting_gauss_rule)
    model._profile_rule.cache_clear()
    out = tmp_path / "si.csv"
    assert main(["si-table", "--rc", "0.5,0.6,0.7,0.8,0.9,1", "--kplus", "0.1,0.5,1,2",
                 "--kminus", "0.1,0.5,1,2", "--lcoef", "0,0.5", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 192
    assert calls == [4, 4, 4, 4, 4, 2]


def test_si_table_parses_each_sweep_once(tmp_path, capsys, monkeypatch):
    flags = []
    parse_sweep = cli._parse_sweep

    def counting_parse_sweep(flag, text):
        flags.append(flag)
        return parse_sweep(flag, text)

    monkeypatch.setattr(cli, "_parse_sweep", counting_parse_sweep)
    out = tmp_path / "si.csv"
    assert main(["si-table", "--rc", "0.5,1", "--kplus", "0.5,1", "--kminus", "0.5,1",
                 "--lcoef", "0,0.5", "--out", str(out)]) == 0
    assert sorted(flags) == ["--kminus", "--kplus", "--lcoef", "--rc"]
    # a malformed list fails even where an empty one leaves no row to compute
    assert main(["si-table", "--kminus", "", "--lcoef", "0,x", "--out", str(out)]) == 1
    assert "configuration error: --lcoef" in capsys.readouterr().err


MODES_CFG = """
[domain]
dim = 2
lengths = 1, 1

[discretization]
epsilon = 1/(4*pi)
tau = 1e-3
t_end = 0.02

[physics]
beta = 0.1
s_plus = -8
s_minus = 8

[initial]
kind = flat_front
q0 = 0.5
modes = 2
amplitudes = 0.02

[output]
stride = 5
modes_lmax = 6
vtk = false
"""


def test_modes_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MODES_CFG)
    code = main(["modes", "--config", cfg, "--out", str(tmp_path / "m")])
    assert code == 0
    out = capsys.readouterr().out
    assert "dominant mode l=2" in out
    lines = (tmp_path / "m" / "modes.csv").read_text().splitlines()
    assert lines[0] == "t,A0,A1,A2,A3,A4,A5,A6"
    # the prediction is taken at the mean height A0(0), not at the tracking
    # line's crossing 0.52, which includes the amplitude 0.02
    mean_height = float(lines[1].split(",")[1])
    assert mean_height == pytest.approx(0.5, abs=1e-3)
    sharp = ac.derive_sharp_params(
        ac.PhaseFieldParams(0.1, 1 / (4 * math.pi), ac.DoubleWellPotential.quartic(),
                            ac.ReactionSpec(-8.0, 8.0, 0.2, 0.2), ac.MobilitySpec(1.0, 1.0)),
        1.0, 1.0)
    row = ac.amplification(sharp, 0.1, mean_height, ac.ModeIndex.of(2))
    assert f"vs predicted {row.growth_rate:.4g} at q={mean_height:.4g}, " in out
    assert f"{row.growth_rate:.3g}" == "3.64"
    assert f"beta_crit={row.beta_crit:.4g} " in out


def test_modes_warns_without_takeoff(tmp_path, capsys, monkeypatch):
    # with modes_lmax = 4 no mode takes off before t_end, so the fit falls
    # back to the whole run
    cfg = write_cfg(tmp_path, MODES_CFG.replace("modes_lmax = 6", "modes_lmax = 4"))
    code = main(["modes", "--config", cfg, "--out", str(tmp_path / "m")])
    assert code == 0
    captured = capsys.readouterr()
    assert "fitted rate" in captured.out
    dominant = captured.out.split("dominant mode l=")[1].split(";")[0]
    window = captured.out.split("(window ")[1].split(")")[0]
    assert f"warning: mode l={dominant} " in captured.err
    assert f"the fit window {window} is not the linear regime" in captured.err
    lines = (tmp_path / "m" / "modes.csv").read_text().splitlines()
    assert lines[0] == "t,A0,A1,A2,A3,A4"
    # a mode that takes off at its last sample only also gets the whole run as its
    # window, but it did take off, so there is no warning
    amplitudes = iter([1e-3, 1e-3, 1e-3, 1e-3, 5e-3])
    monkeypatch.setattr(ac.analysis, "mode_amplitudes",
                        lambda field, l_max: np.array([0.5, 0.0, next(amplitudes), 0.0, 0.0]))
    assert main(["modes", "--config", cfg, "--out", str(tmp_path / "late")]) == 0
    captured = capsys.readouterr()
    assert "dominant mode l=2;" in captured.out and "(window t=[0, 0.02])" in captured.out
    assert "take-off" not in captured.err
    # a mode that passes GROWTH_SATURATION * Lt = 0.1 without taking off gets the
    # window (0, 2), not the whole run, and the warning names that window
    amplitudes = iter([0.05, 0.05, 0.12, 0.12, 0.12])
    assert main(["modes", "--config", cfg, "--out", str(tmp_path / "saturated")]) == 0
    captured = capsys.readouterr()
    assert "(window t=[0, 0.005])" in captured.out
    assert ("warning: mode l=2 shows no take-off; the fit window t=[0, 0.005] is not the "
            "linear regime") in captured.err


def test_modes_without_a_measurable_front_reports_the_mode_extraction_failure(tmp_path, capsys):
    # a disk crosses no lattice row exactly once, so every mode row is NaN
    body = (MODES_CFG.replace("t_end = 0.02", "t_end = 0.005")
            .replace("kind = flat_front\nq0 = 0.5\nmodes = 2\namplitudes = 0.02",
                     "kind = disk\ncenter = 0.5, 0.5\nr0 = 0.25"))
    code = main(["modes", "--config", write_cfg(tmp_path, body), "--out", str(tmp_path / "m")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: mode extraction: rows without a unique")
    assert "dominant" not in err and "take-off" not in err and "growth-rate" not in err


def test_modes_picks_the_dominant_mode_from_the_last_measured_record(tmp_path, capsys,
                                                                     monkeypatch):
    # the last of the five records fails to extract its modes; a NaN row must neither
    # win the dominant-mode pick (as l=1) nor enter the fit
    real, calls = ac.analysis.mode_amplitudes, []

    def fails_last(field, l_max):
        calls.append(1)
        if len(calls) == 5:
            raise ac.MeasurementError("no front on the last record")
        return real(field, l_max)

    monkeypatch.setattr(ac.analysis, "mode_amplitudes", fails_last)
    cfg = write_cfg(tmp_path, MODES_CFG)
    code = main(["modes", "--config", cfg, "--out", str(tmp_path / "m")])
    assert len(calls) == 5
    assert code == 0
    out = capsys.readouterr().out
    assert "dominant mode l=2;" in out and "(window t=[0, 0.015])" in out
    rows = (tmp_path / "m" / "modes.csv").read_text().splitlines()[1:]
    assert len(rows) == 5 and rows[-1].endswith(",nan")


def test_modes_rejects_zero_rate_before_simulating(tmp_path, capsys):
    cfg = write_cfg(tmp_path, MODES_CFG.replace("s_minus = 8", "s_minus = 8\nk_plus = 0"))
    assert main(["modes", "--config", cfg, "--out", str(tmp_path / "m")]) == 1
    assert "require rho_plus > 0 and rho_minus > 0" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_check_passes():
    assert main(["check"]) == 0


def test_check_fails_on_an_s_i_quadrature_off_by_1e_9(monkeypatch, capsys):
    # the quadrature agrees with the closed form to ~1e-14, so 1e-9 is a broken rule
    real = model.si_quadrature
    monkeypatch.setattr(cli, "si_quadrature", lambda spec: real(spec) + 1e-9)
    assert main(["check"]) == 2
    assert "[FAIL] interfacial reaction quadrature" in capsys.readouterr().out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_python_dash_m_runs_the_cli():
    # ``python -m activech`` from a source tree, with src/ on PYTHONPATH
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(ac.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "activech", "--version"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == f"activech {ac.__version__}"


_SHARP_ONLY = """
import contextlib, io, json, sys
import numpy
random_with_numpy = {m for m in sys.modules if m.startswith("numpy.random")}
import activech
from activech import cli
loaded = {"import": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
flags, out = ["--beta", "0.1", "--splus", "-1", "--sminus", "1"], sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["check"]), cli.main(["si-table", "--out", out + "/si.csv"]),
             cli.main(["stability", *flags, "--lmax", "3"]),
             cli.main(["sharp-ode", *flags, "--t-end", "0.01", "--out", out + "/ode.csv"])]
loaded["commands"] = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded["random"] = sorted(m for m in sys.modules
                          if m.startswith("numpy.random") and m not in random_with_numpy)
mesh = activech.build_mesh(1, (1.0,), 1 / 16)
p = activech.PhaseFieldParams(0.1, 1 / (2 * 3.141592653589793),
                              activech.DoubleWellPotential.quartic(),
                              activech.ReactionSpec(-1.0, 1.0, 0.2, 0.2),
                              activech.MobilitySpec(1.0, 1.0))
phi = activech.init_field(mesh, "flat_front", {"q0": 0.3}, p.epsilon).values
stepper = activech.Stepper(mesh, p, activech.SolverConfig())
stepper.step(phi, stepper.initial_mu(phi))
loaded["step"] = "scipy.sparse.linalg" in sys.modules
print(json.dumps({"codes": codes, **loaded}))
"""


def test_sharp_commands_run_without_scipy_or_numpy_random(tmp_path):
    # the sharp engine is closed forms and one Gauss rule: neither importing the
    # package nor check, si-table, stability and sharp-ode may load SciPy, and
    # check draws its parameter sets without numpy.random; one time step does
    # load SciPy's sparse LU (the positive control)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(ac.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _SHARP_ONLY, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got == {"codes": [0, 0, 0, 0], "import": [], "commands": [], "random": [],
                   "step": True}
