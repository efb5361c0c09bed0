"""Tests for interface tracking, mode extraction, growth fits and EOC."""

import math
import warnings

import numpy as np
import pytest

import activech as ac
from activech import solver
from activech.analysis import zero_crossings

SQRT2 = math.sqrt(2.0)


@pytest.fixture(autouse=True)
def _quiet_resolution_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ac.ResolutionWarning)
        yield


@pytest.fixture(scope="module")
def quartic():
    return ac.DoubleWellPotential.quartic()


# ---------------------------------------------------------------------------
# interface tracking
# ---------------------------------------------------------------------------

def test_crossing_linear_interpolation():
    values = np.array([0.2, -0.2])
    coords = np.array([0.4, 0.5])
    assert zero_crossings(values, coords) == [pytest.approx(0.45)]


def test_track_interface_on_tanh(quartic):
    eps = 1 / (16 * math.pi)
    mesh = ac.build_mesh(1, (1.0,), 1 / 128)
    rng = np.random.default_rng(17)
    for _ in range(10):
        q0 = rng.uniform(0.2, 0.8)
        fld = ac.init_field(mesh, "flat_front", {"q0": q0}, eps)
        q_h = ac.track_interface(fld)
        assert abs(q_h - q0) <= 2.0 * mesh.h**2 / eps


def test_track_interface_constant_errors():
    mesh = ac.build_mesh(1, (1.0,), 0.125)
    fld = ac.init_field(mesh, "constant", {"value": 0.5}, 0.1)
    with pytest.raises(ac.TrackingError):
        ac.track_interface(fld)


def test_track_interface_multiple_crossings():
    mesh = ac.build_mesh(1, (1.0,), 1 / 16)
    values = np.cos(3 * math.pi * mesh.coords[:, 0])  # three crossings
    fld = ac.NodalField(values, mesh)
    crossings = ac.interface_crossings(fld)
    assert len(crossings) == 3
    with pytest.raises(ac.TrackingError):
        ac.track_interface(fld)
    near = ac.track_interface(fld, prev=0.2)
    assert near == pytest.approx(crossings[0], abs=1e-12)


def test_track_interface_2d_line_selection(quartic):
    eps = 1 / (8 * math.pi)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 32)
    fld = ac.init_field(mesh, "flat_front",
                        {"q0": 0.5, "modes": [1], "amplitudes": [0.1]}, eps)
    q_bottom = ac.track_interface(fld, line_x2=0.0)
    q_top = ac.track_interface(fld, line_x2=1.0)
    assert q_bottom == pytest.approx(0.6, abs=0.01)
    assert q_top == pytest.approx(0.4, abs=0.01)


# ---------------------------------------------------------------------------
# mode amplitudes
# ---------------------------------------------------------------------------

def _synthetic_front(mesh, eps, q0, components):
    x1 = mesh.coords[:, 0]
    x2 = mesh.coords[:, 1]
    width = mesh.lengths[1]
    d0 = q0 - x1
    for l, amp in components:
        d0 = d0 + amp * np.cos(math.pi * l * x2 / width)
    return ac.NodalField(np.tanh(d0 / (eps * SQRT2)), mesh)


def test_mode_amplitudes_flat(quartic):
    eps = 1 / (16 * math.pi)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 64)
    fld = _synthetic_front(mesh, eps, 0.5, [])
    spec = ac.mode_amplitudes(fld, 6)
    assert spec.amplitudes[0] == pytest.approx(0.5, abs=1e-6)
    assert np.max(np.abs(spec.amplitudes[1:])) < 1e-10


def test_mode_amplitudes_single_mode(quartic):
    eps = 1 / (16 * math.pi)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 128)
    fld = _synthetic_front(mesh, eps, 0.5, [(2, 0.01)])
    spec = ac.mode_amplitudes(fld, 8)
    assert spec.amplitudes[2] == pytest.approx(0.01, rel=0.02)
    others = np.delete(spec.amplitudes, [0, 2])
    assert np.max(np.abs(others)) < 1e-4
    assert spec.dominant() == 2


def test_mode_amplitudes_three_modes(quartic):
    eps = 1 / (16 * math.pi)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 128)
    injected = [(1, 0.012), (3, -0.008), (5, 0.005)]
    fld = _synthetic_front(mesh, eps, 0.5, injected)
    spec = ac.mode_amplitudes(fld, 8)
    for l, amp in injected:
        assert spec.amplitudes[l] == pytest.approx(amp, rel=0.02)


def test_mode_amplitudes_requires_crossings(quartic):
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 16)
    fld = ac.init_field(mesh, "constant", {"value": 1.0}, 0.1)
    with pytest.raises(ac.MeasurementError):
        ac.mode_amplitudes(fld, 4)


# ---------------------------------------------------------------------------
# growth-rate fitting
# ---------------------------------------------------------------------------

def test_fit_growth_rate_exact():
    t = np.linspace(0.0, 1.0, 10)
    amps = 0.01 * np.exp(2.0 * t)
    assert ac.fit_growth_rate(t, amps) == pytest.approx(2.0, abs=1e-12)


def test_fit_growth_rate_noisy():
    rng = np.random.default_rng(23)
    t = np.linspace(0.0, 1.0, 50)
    amps = 0.01 * np.exp(2.0 * t) * (1.0 + 0.01 * rng.standard_normal(50))
    assert ac.fit_growth_rate(t, amps) == pytest.approx(2.0, abs=0.05)


def test_fit_growth_rate_constant():
    t = np.linspace(0.0, 1.0, 10)
    assert ac.fit_growth_rate(t, np.full(10, 0.3)) == pytest.approx(0.0, abs=1e-12)


def test_fit_growth_rate_rejects_nonpositive():
    t = np.linspace(0.0, 1.0, 5)
    with pytest.raises(ac.MeasurementError):
        ac.fit_growth_rate(t, np.array([0.1, 0.2, 0.0, 0.4, 0.5]))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["times", "amplitudes"])
def test_fit_growth_rate_rejects_nonfinite(where, bad):
    # a failed mode extraction leaves NaN rows, which must not become a NaN rate
    samples = {"times": [0.0, 1.0, 2.0], "amplitudes": [1.0, 1.5, 2.0]}
    samples[where][1] = bad
    with pytest.raises(ac.MeasurementError, match="finite"):
        ac.fit_growth_rate(samples["times"], samples["amplitudes"])


def test_growth_window():
    t = np.linspace(0.0, 3.0, 31)
    amps = 1e-3 * np.exp(2.0 * t)
    start, stop = ac.growth_window(t, amps, width_Lt=1.0)
    assert amps[start] > 3e-3 or start == 0
    assert np.all(amps[start:stop] <= 0.1)
    rate = ac.fit_growth_rate(t[start:stop], amps[start:stop])
    assert rate == pytest.approx(2.0, abs=1e-9)


# ---------------------------------------------------------------------------
# EOC arithmetic and the convergence study
# ---------------------------------------------------------------------------

def test_eoc_matches_reference_table():
    eps = [1 / (4 * math.pi), 1 / (8 * math.pi), 1 / (16 * math.pi),
           1 / (32 * math.pi), 1 / (64 * math.pi)]
    errors = [7.2539e-2, 1.9990e-2, 6.0682e-3, 1.4667e-3, 3.3276e-4]
    eocs = ac.eoc_sequence(eps, errors)
    assert eocs[0] is None
    assert round(eocs[1], 2) == 1.86
    assert round(eocs[2], 2) == 1.72
    assert round(eocs[3], 2) == 2.05
    assert round(eocs[4], 2) == 2.14


def test_eoc_degenerate_spacing_guarded():
    eocs = ac.eoc_sequence([0.1, 0.1], [1e-2, 5e-3])
    assert eocs == [None, None]


def test_auto_mesh_size():
    assert ac.auto_mesh_size(1 / (4 * math.pi)) == pytest.approx(1 / 32)
    assert ac.auto_mesh_size(1 / (16 * math.pi)) == pytest.approx(1 / 128)
    with pytest.raises(ac.ConfigurationError):
        ac.auto_mesh_size(0.02)
    for eps in (0.0, -1 / (4 * math.pi), math.nan, math.inf):
        with pytest.raises(ac.ConfigurationError, match="positive and finite"):
            ac.auto_mesh_size(eps)


@pytest.mark.parametrize("bad", [0.0, -0.01, math.nan])
def test_convergence_study_rejects_bad_epsilon_before_any_rung(quartic, monkeypatch, bad):
    def no_rung(*args, **kwargs):
        raise AssertionError("a rung ran")

    monkeypatch.setattr("activech.analysis.run_simulation", no_rung)
    reaction = ac.ReactionSpec(-1.0, 4.0, 0.2, 0.02, -1.0)
    p = ac.PhaseFieldParams(0.1, 1 / (4 * math.pi), quartic, reaction,
                            ac.MobilitySpec(1.0, 1.0))
    with pytest.raises(ac.ConfigurationError, match="positive, finite"):
        ac.convergence_study(p, [1 / (4 * math.pi), bad], 0.01, q0=0.3, dim=1)


def test_convergence_study_micro(quartic):
    # two-rung ladder over a short horizon: errors decrease, EOC is sane
    # (the full-horizon quadratic EOC is covered by the acceptance ladder;
    # at T=0.5 the initial profile transient still depresses the order)
    reaction = ac.ReactionSpec(-1.0, 4.0, 0.2, 0.02, -1.0)
    p = ac.PhaseFieldParams(0.1, 1 / (4 * math.pi), quartic, reaction,
                            ac.MobilitySpec(1.0, 1.0))
    table = ac.convergence_study(p, [1 / (4 * math.pi), 1 / (8 * math.pi)],
                                 0.5, q0=0.3, dim=1)
    assert len(table.rows) == 2
    assert table.rows[0].error > table.rows[1].error > 0
    assert table.rows[0].eoc is None
    assert 1.0 < table.rows[1].eoc < 3.0
    assert table.rows[0].h == pytest.approx(1 / 32)


def test_convergence_study_annotates_failures(quartic, monkeypatch):
    reaction = ac.ReactionSpec(-1.0, 4.0, 0.2, 0.02, -1.0)
    p = ac.PhaseFieldParams(0.1, 1 / (4 * math.pi), quartic, reaction,
                            ac.MobilitySpec(1.0, 1.0))
    # sabotage: one Newton iteration cannot converge, rows must be annotated
    monkeypatch.setattr(solver, "NEWTON_MAX", 1)
    monkeypatch.setattr(solver, "NEWTON_TOL", 1e-14)
    table = ac.convergence_study(p, [1 / (4 * math.pi)], 0.01, q0=0.3, dim=1)
    assert math.isnan(table.rows[0].error)
    assert "StepFailure" in table.rows[0].note


def test_convergence_study_annotates_tracking_failures(quartic, monkeypatch):
    reaction = ac.ReactionSpec(-1.0, 4.0, 0.2, 0.02, -1.0)
    p = ac.PhaseFieldParams(0.1, 1 / (4 * math.pi), quartic, reaction,
                            ac.MobilitySpec(1.0, 1.0))

    def lost(*args, **kwargs):
        raise ac.TrackingError("no sign change along the tracking line")

    monkeypatch.setattr("activech.analysis.track_interface", lost)
    table = ac.convergence_study(p, [1 / (4 * math.pi)], 0.01, q0=0.3, dim=1)
    assert math.isnan(table.rows[0].error)
    assert "tracking" in table.rows[0].note.lower()


def test_convergence_study_propagates_configuration_errors(quartic):
    reaction = ac.ReactionSpec(-1.0, 4.0, 0.2, 0.02, -1.0)
    p = ac.PhaseFieldParams(0.1, 1 / (4 * math.pi), quartic, reaction,
                            ac.MobilitySpec(1.0, 1.0))
    # h = 0.3 does not divide L = 1: an input error, not a failed rung
    with pytest.raises(ac.ConfigurationError, match="does not divide"):
        ac.convergence_study(p, [1 / (4 * math.pi)], 0.01, q0=0.3, dim=1, h=0.3)


def test_convergence_study_rejects_increasing_ladder(quartic):
    reaction = ac.ReactionSpec(-1.0, 4.0, 0.2, 0.02, -1.0)
    p = ac.PhaseFieldParams(0.1, 0.05, quartic, reaction, ac.MobilitySpec(1.0, 1.0))
    with pytest.raises(ac.ConfigurationError):
        ac.convergence_study(p, [0.01, 0.02], 0.1, dim=1)
    with pytest.raises(ac.ConfigurationError, match="max_workers"):
        ac.convergence_study(p, [0.02, 0.01], 0.1, dim=1, max_workers=2)
