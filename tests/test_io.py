"""Tests for file emission: VTK, checkpoints, CSV, manifests."""

import json
import math
import warnings

import numpy as np
import pytest

import activech as ac
from activech import solver
from activech.output import (
    OutputOptions,
    RunWriter,
    read_checkpoint,
    table_text,
    write_checkpoint,
    write_vtk,
)


@pytest.fixture(autouse=True)
def _quiet_resolution_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ac.ResolutionWarning)
        yield


@pytest.fixture(scope="module")
def quartic():
    return ac.DoubleWellPotential.quartic()


def small_params(quartic):
    reaction = ac.ReactionSpec(-1.0, 4.0, 0.2, 0.02, -1.0)
    return ac.PhaseFieldParams(0.1, 1 / (4 * math.pi), quartic, reaction,
                               ac.MobilitySpec(1.0, 1.0))


# ---------------------------------------------------------------------------
# VTK
# ---------------------------------------------------------------------------

def test_vtk_structure(tmp_path):
    mesh = ac.build_mesh(2, (1.0, 0.5), 0.25)
    phi = np.linspace(-1, 1, mesh.n_nodes)
    mu = np.zeros(mesh.n_nodes)
    path = tmp_path / "snap.vtk"
    write_vtk(path, mesh, {"phi": phi, "mu": mu})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "DATASET STRUCTURED_POINTS" in lines
    assert f"DIMENSIONS {mesh.cells[0] + 1} {mesh.cells[1] + 1} 1" in lines
    assert f"POINT_DATA {mesh.n_nodes}" in lines
    phi_at = lines.index("SCALARS phi double 1")
    assert lines[phi_at + 1] == "LOOKUP_TABLE default"
    values = lines[phi_at + 2: phi_at + 2 + mesh.n_nodes]
    assert len(values) == mesh.n_nodes
    assert float(values[0]) == pytest.approx(phi[0])
    mu_at = lines.index("SCALARS mu double 1")
    assert len(lines[mu_at + 2:]) >= mesh.n_nodes


def test_vtk_1d(tmp_path):
    mesh = ac.build_mesh(1, (1.0,), 0.125)
    path = tmp_path / "snap.vtk"
    write_vtk(path, mesh, {"phi": np.zeros(mesh.n_nodes)})
    assert f"DIMENSIONS {mesh.n_nodes} 1 1" in path.read_text()


def test_vtk_values_are_the_17_digit_format_of_each_float(tmp_path):
    mesh = ac.build_mesh(1, (1.0,), 1 / 16)
    values = np.array([0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, np.nextafter(1.0, 2.0),
                       np.nextafter(-1.0, 0.0), 1 - 2**-53, 0.1, -1 / 3, 5e-324,
                       1.7976931348623157e308, np.nan, np.inf, -np.inf, 2.5])
    path = tmp_path / "snap.vtk"
    write_vtk(path, mesh, {"phi": values})
    lines = path.read_bytes().decode("ascii").split("\n")
    at = lines.index("LOOKUP_TABLE default") + 1
    assert lines[at:] == [format(float(v), ".17g") for v in values] + [""]
    assert lines[at:at + 2] == ["0", "-0"] and lines[at + 13:at + 16] == ["nan", "inf", "-inf"]


def test_vtk_size_mismatch(tmp_path):
    mesh = ac.build_mesh(1, (1.0,), 0.25)
    with pytest.raises(ac.ConfigurationError):
        write_vtk(tmp_path / "bad.vtk", mesh, {"phi": np.zeros(3)})


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip_bitwise(tmp_path):
    mesh = ac.build_mesh(2, (1.0, 1.0), 0.25)
    rng = np.random.default_rng(5)
    phi = rng.standard_normal(mesh.n_nodes)
    mu = rng.standard_normal(mesh.n_nodes)
    path = tmp_path / "state.bin"
    write_checkpoint(path, mesh, t=0.123, step=7, phi=phi, mu=mu)
    ckpt = read_checkpoint(path)
    assert ckpt.dim == 2 and ckpt.n1 == 4 and ckpt.n2 == 4
    assert ckpt.t == 0.123 and ckpt.step == 7
    assert ckpt.phi.tobytes() == phi.tobytes()
    assert ckpt.mu.tobytes() == mu.tobytes()


def test_checkpoint_header_is_64_bytes(tmp_path):
    mesh = ac.build_mesh(1, (1.0,), 0.5)
    path = tmp_path / "state.bin"
    write_checkpoint(path, mesh, 0.0, 0, np.zeros(3), np.zeros(3))
    raw = path.read_bytes()
    assert len(raw) == 64 + 2 * 3 * 8
    assert raw[:8] == b"ACHCKPT1"


def test_checkpoint_rejects_corruption(tmp_path):
    path = tmp_path / "state.bin"
    path.write_bytes(b"garbage!" + bytes(64))
    with pytest.raises(ac.NumericalError):
        read_checkpoint(path)
    write_checkpoint(path, ac.build_mesh(1, (1.0,), 0.5), 0.0, 0, np.zeros(3), np.zeros(3))
    whole = path.read_bytes()
    dim3 = whole[:8] + (3).to_bytes(4, "little") + whole[12:]   # sized as 1D, as the values are
    n2_in_1d = whole[:16] + (2).to_bytes(4, "little") + whole[20:]
    for raw, message in ((whole[:63], "is truncated"),
                         (whole[:-8], "holds 5 values, expected 6"),
                         (whole + bytes(8), "holds 7 values, expected 6"),
                         (dim3, "bad lattice: dim=3, n1=2, n2=0"),
                         (n2_in_1d, "bad lattice: dim=1, n1=2, n2=2")):
        path.write_bytes(raw)
        with pytest.raises(ac.NumericalError, match=message):
            read_checkpoint(path)


# ---------------------------------------------------------------------------
# tables and the diagnostics CSV
# ---------------------------------------------------------------------------

def test_table_text_cells_and_line_endings():
    rng = np.random.default_rng(3)
    floats = [0.1 + 0.2, math.pi, -1e-300, 5e-324, *rng.standard_normal(4) * 1e7]
    text = table_text(["a", "b", "c"], [(None, 4, x) for x in floats])
    assert "\r" not in text and text.endswith("\n")
    lines = text.split("\n")[:-1]
    assert lines[0] == "a,b,c"
    for line, x in zip(lines[1:], floats, strict=True):
        empty, four, cell = line.split(",")
        assert empty == "" and four == "4"
        assert float(cell) == x


def diagnostics_csv(tmp_path, rows, modes_lmax=None) -> str:
    """The diag.csv of a record with ``rows`` and the columns a run with ``modes_lmax`` records."""
    mesh = ac.build_mesh(1, (1.0,), 0.5)
    opts = OutputOptions(directory=str(tmp_path), modes_lmax=modes_lmax)
    columns = solver._Series(None, mesh, opts).columns
    record = solver.RunRecord(columns=columns,
                              table=np.array(rows, dtype=float).reshape(-1, len(columns)),
                              newton_iters=[], max_abs_phi=0.0)
    RunWriter(opts, mesh).finish(record)
    return (tmp_path / "diag.csv").read_text()


def test_empty_diagnostics_header_only(tmp_path):
    text = diagnostics_csv(tmp_path, [])
    assert text == "t,mass,energy,q_h\n"


def test_diagnostics_with_modes(tmp_path):
    text = diagnostics_csv(tmp_path, [[0.0, 1.0, 2.0, 0.5, 0.1, 0.2]], modes_lmax=1)
    lines = text.splitlines()
    assert lines[0] == "t,mass,energy,q_h,mode_0,mode_1"
    assert lines[1].split(",")[-1] == "0.20000000000000001"


@pytest.mark.parametrize("options", [
    {"stride": math.nan}, {"stride": 2.5}, {"stride": 10.0}, {"stride": 0},
    {"modes_lmax": math.nan}, {"modes_lmax": 1.5}, {"modes_lmax": -1},
])
def test_output_options_reject_a_count_that_is_not_an_integer_in_range(options):
    with pytest.raises(ac.ConfigurationError, match="must be an integer >="):
        OutputOptions(**options)


def test_csv_uses_lf_and_dot(tmp_path, quartic):
    p = small_params(quartic)
    opts = OutputOptions(directory=str(tmp_path / "run"), stride=5, vtk=False,
                         checkpoint=False)
    ac.run_simulation(p, (1, (1.0,), 1 / 32), ("flat_front", {"q0": 0.3}),
                      ac.SolverConfig(), 0.01, outputs=opts)
    raw = (tmp_path / "run" / "diag.csv").read_bytes()
    assert b"\r" not in raw
    assert b";" not in raw


# ---------------------------------------------------------------------------
# run output orchestration
# ---------------------------------------------------------------------------

def test_run_emits_expected_files(tmp_path, quartic):
    p = small_params(quartic)
    out = tmp_path / "run"
    opts = OutputOptions(directory=str(out), stride=10,
                         manifest_extra={"label": "smoke"})
    ac.run_simulation(p, (1, (1.0,), 1 / 32), ("flat_front", {"q0": 0.3}),
                      ac.SolverConfig(), 0.02, outputs=opts)
    assert (out / "diag.csv").exists()
    assert (out / "manifest.json").exists()
    assert (out / "checkpoint.bin").exists()
    assert (out / "snap_000000.vtk").exists()
    assert (out / "snap_000020.vtk").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["end_time"] is not None
    assert manifest["config"]["label"] == "smoke"
    assert len(manifest["newton_iterations"]) == 20
    assert manifest["checks"]["bounded"] is True
    ckpt = read_checkpoint(out / "checkpoint.bin")
    assert ckpt.step == 20


def test_manifest_written_before_compute_and_on_crash(tmp_path, quartic, monkeypatch):
    monkeypatch.setattr(solver, "NEWTON_MAX", 1)
    monkeypatch.setattr(solver, "NEWTON_TOL", 1e-15)
    p = small_params(quartic)
    out = tmp_path / "crash"
    opts = OutputOptions(directory=str(out), stride=10)
    with pytest.raises(ac.StepFailureError):
        ac.run_simulation(p, (1, (1.0,), 1 / 32), ("flat_front", {"q0": 0.3}),
                          ac.SolverConfig(),
                          0.02, outputs=opts)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["end_time"] is None
    assert manifest["failure"]["step"] == 1
    assert len(manifest["failure"]["residuals"]) > 0
    assert "Newton failed" in manifest["failure"]["error"]


def test_manifest_holds_the_solver_counts_of_the_record(tmp_path, quartic):
    out = tmp_path / "run"
    opts = OutputOptions(directory=str(out), stride=10, vtk=False, checkpoint=False)
    record = ac.run_simulation(
        small_params(quartic), (2, (1.0, 1.0), 1 / 32),
        ("flat_front", {"q0": 0.5, "modes": [2], "amplitudes": [0.02]}),
        ac.SolverConfig(), 0.005, outputs=opts)
    assert record.state.phi.mesh.n_nodes == 1089
    counts = record.solver_counts
    factors = counts["factor_float32"] + counts["factor_float64"]
    assert counts["backsolve"] >= sum(record.newton_iters) >= factors >= 1
    assert json.loads((out / "manifest.json").read_text())["solver"] == counts


def test_manifest_bounded_follows_phi_bound(tmp_path, quartic, monkeypatch):
    p = small_params(quartic)

    def bounded(limit):
        monkeypatch.setattr(solver, "PHI_BOUND_WARN", limit)
        out = tmp_path / f"run_{limit}"
        opts = OutputOptions(directory=str(out), stride=10, vtk=False, checkpoint=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            record = ac.run_simulation(p, (1, (1.0,), 1 / 32), ("flat_front", {"q0": 0.3}),
                                       ac.SolverConfig(), 0.01, outputs=opts)
        assert 0.5 < record.max_abs_phi < 1.1
        return json.loads((out / "manifest.json").read_text())["checks"]["bounded"]

    assert bounded(1.1) is True
    assert bounded(0.5) is False


def test_deterministic_diagnostics_bytes(tmp_path, quartic):
    p = small_params(quartic)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        opts = OutputOptions(directory=str(out), stride=5, vtk=False)
        ac.run_simulation(
            p, (2, (1.0, 1.0), 1 / 16),
            ("flat_front", {"q0": 0.5, "n_random_modes": 4, "bound": 0.05,
                            "seed": 42}),
            ac.SolverConfig(), 0.01, outputs=opts)
        blobs.append((out / "diag.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_snapshot_node_count_matches_mesh(tmp_path, quartic):
    p = small_params(quartic)
    out = tmp_path / "run"
    opts = OutputOptions(directory=str(out), stride=50)
    ac.run_simulation(p, (2, (1.0, 1.0), 1 / 8), ("constant", {"value": 0.0}),
                      ac.SolverConfig(), 0.005, outputs=opts)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 8)
    text = (out / "snap_000000.vtk").read_text().splitlines()
    at = text.index("SCALARS phi double 1")
    count = 0
    for line in text[at + 2:]:
        if line.startswith("SCALARS"):
            break
        count += 1
    assert count == mesh.n_nodes
