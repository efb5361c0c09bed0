"""Tests for the command-line interface."""

import math
import warnings

import numpy as np
import pytest

import activech as ac
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
    cfg_2d = write_cfg(tmp_path, SIM_CFG.replace("dim = 1", "dim = 2")
                       .replace("lengths = 1", "lengths = 1, 1"), name="2d.cfg")
    assert main(["simulate", "--config", cfg_2d, "--set", "output.track_line=nan"]) == 1
    assert "configuration error" in capsys.readouterr().err


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


SHARP_FLAGS = ["--beta", "0.1", "--splus", "-1", "--sminus", "1"]


@pytest.mark.parametrize("flags", [["--dt", "nan"], ["--t-end", "inf"]])
def test_sharp_ode_nonfinite_input_exit_code(tmp_path, capsys, flags):
    out = tmp_path / "ode.csv"
    assert main(["sharp-ode", *SHARP_FLAGS, "--q0", "0.3", *flags, "--out", str(out)]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--Lt", "0"], ["--Lt", "nan"], ["--lmax", "-3"]])
def test_stability_invalid_input_exit_code(capsys, flags):
    assert main(["stability", *SHARP_FLAGS, *flags]) == 1
    assert "configuration error" in capsys.readouterr().err


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
    assert (tmp_path / "conv" / "convergence_loglog.dat").exists()


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


def test_modes_warns_without_takeoff(tmp_path, capsys):
    # with modes_lmax = 4 no mode takes off before t_end, so the fit falls
    # back to the whole run
    cfg = write_cfg(tmp_path, MODES_CFG.replace("modes_lmax = 6", "modes_lmax = 4"))
    code = main(["modes", "--config", cfg, "--out", str(tmp_path / "m")])
    assert code == 0
    captured = capsys.readouterr()
    assert "fitted rate" in captured.out
    dominant = captured.out.split("dominant mode l=")[1].split(";")[0]
    assert f"warning: mode l={dominant} " in captured.err
    assert "not the linear regime" in captured.err
    lines = (tmp_path / "m" / "modes.csv").read_text().splitlines()
    assert lines[0] == "t,A0,A1,A2,A3,A4"


def test_check_passes():
    assert main(["check"]) == 0


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
