"""Tests for interface tracking, mode extraction, growth fits and EOC."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

import activech as ac
from activech import solver
from activech.analysis import _row_crossings

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
# reference: the per-node loop the vectorized crossing routine replaced
# ---------------------------------------------------------------------------

def reference_zero_crossings(values, coords):
    """Linear-interpolation zeros of a nodal profile, left to right."""
    out = []
    v = np.asarray(values, dtype=float)
    for i in range(len(v) - 1):
        a, b = v[i], v[i + 1]
        if a == 0.0:
            if not out or out[-1] != coords[i]:
                out.append(float(coords[i]))
        elif a * b < 0.0:
            out.append(float(coords[i] + (coords[i + 1] - coords[i]) * a / (a - b)))
    if v[-1] == 0.0:
        out.append(float(coords[-1]))
    return out


def reference_track_interface(field, line_x2=0.0, prev=None):
    mesh = field.mesh
    if mesh.dim == 1:
        values, coords = field.values, mesh.coords[:, 0]
    else:
        j = min(max(int(round(line_x2 / mesh.h)), 0), mesh.cells[1])
        idx = slice(j * (mesh.cells[0] + 1), (j + 1) * (mesh.cells[0] + 1))
        values, coords = field.values[idx], mesh.coords[idx, 0]
    crossings = reference_zero_crossings(values, coords)
    if not crossings:
        raise ac.TrackingError("no sign change along the tracking line")
    if len(crossings) == 1:
        return crossings[0]
    if prev is None or not math.isfinite(prev):
        raise ac.TrackingError(
            f"{len(crossings)} crossings at {[f'{c:.4f}' for c in crossings]} "
            "and no previous position to disambiguate")
    return min(crossings, key=lambda c: abs(c - prev))


def reference_mode_amplitudes(field, l_max):
    mesh = field.mesh
    if mesh.dim != 2:
        raise ac.MeasurementError("mode extraction requires a 2D mesh")
    grid = mesh.grid_view(field.values)
    x1 = mesh.coords[: mesh.cells[0] + 1, 0]
    heights = np.empty(grid.shape[0])
    bad = []
    for j in range(grid.shape[0]):
        crossings = reference_zero_crossings(grid[j], x1)
        if len(crossings) != 1:
            bad.append((j, len(crossings)))
        else:
            heights[j] = crossings[0]
    if bad:
        raise ac.MeasurementError(
            "rows without a unique interface crossing (row, count): " + repr(bad[:12]))
    width = mesh.lengths[1]
    x2 = np.arange(len(heights)) * mesh.h
    trap = np.full(len(heights), mesh.h)
    trap[0] = trap[-1] = 0.5 * mesh.h
    amps = np.empty(l_max + 1)
    for l in range(l_max + 1):
        basis = np.cos(math.pi * l * x2 / width)
        amps[l] = (2.0 - (l == 0)) / width * float(np.sum(trap * heights * basis))
    return amps


def _outcome(measure, *args, **kwargs):
    """The value ``measure`` returns, or the type and text of the error it raises."""
    try:
        return measure(*args, **kwargs)
    except ac.NumericalError as exc:
        return type(exc), str(exc)


def _random_fields(rng, dim, count):
    """Seeded random fields: fronts rounded to 0.1, noise and one-signed values.

    The rounding and the noise put exact zeros on some nodes.
    """
    lengths = (1.0, 1.0)[:dim]
    for n in range(count):
        mesh = ac.build_mesh(dim, lengths, 1 / int(rng.choice([4, 8, 16])))
        if n % 3 == 0:
            q = rng.uniform(0.1, 0.9)
            if dim == 2:
                q = q + 0.05 * np.cos(math.pi * rng.integers(1, 4) * mesh.coords[:, 1])
            values = np.round(np.tanh((q - mesh.coords[:, 0]) / rng.uniform(0.05, 0.3)), 1)
        elif n % 3 == 1:
            values = rng.uniform(-1.0, 1.0, mesh.n_nodes)
            values[rng.random(mesh.n_nodes) < 0.1] = 0.0
        else:
            values = rng.uniform(0.1, 1.0, mesh.n_nodes) * rng.choice([-1.0, 1.0])
        yield ac.NodalField(values, mesh)


# ---------------------------------------------------------------------------
# interface tracking
# ---------------------------------------------------------------------------

def test_crossing_linear_interpolation():
    row, pos = _row_crossings(np.array([[0.2, -0.2]]), np.array([0.4, 0.5]))
    assert row.tolist() == [0]
    assert pos.tolist() == [pytest.approx(0.45)]


def test_row_crossings_matches_reference_loop_on_every_row():
    rng = np.random.default_rng(5)
    x = np.cumsum(rng.uniform(0.1, 0.3, 9))  # uneven spacing: the rounding order shows
    rows = rng.integers(-1, 2, (40, 9)) * rng.uniform(0.1, 1.0, (40, 9))
    row, pos = _row_crossings(rows, x)
    assert np.all(np.diff(row) >= 0)
    for j in range(rows.shape[0]):
        assert pos[row == j].tolist() == reference_zero_crossings(rows[j], x)


@pytest.mark.parametrize("dim", [1, 2])
def test_track_interface_matches_reference_loop(dim):
    rng = np.random.default_rng(100 + dim)
    outcomes = set()
    for fld in _random_fields(rng, dim, 150):
        for line_x2 in ((0.0, 0.3, 1.0, 1.7) if dim == 2 else (0.0,)):  # 1.7: top row
            for prev in (None, rng.uniform(0.0, 1.0), math.nan):
                got = _outcome(ac.track_interface, fld, line_x2=line_x2, prev=prev)
                want = _outcome(reference_track_interface, fld, line_x2=line_x2, prev=prev)
                assert type(got) is type(want) and got == want
                outcomes.add(got[1].split()[1] if isinstance(got, tuple) else "position")
    # returned positions, a missing crossing and an ambiguous profile were all compared
    assert outcomes == {"position", "sign", "crossings"}


def test_mode_amplitudes_match_reference_loop():
    rng = np.random.default_rng(7)
    failed = passed = 0
    for fld in itertools.chain(_random_fields(rng, 2, 150), _random_fields(rng, 1, 2)):
        got = _outcome(ac.mode_amplitudes, fld, 5)
        want = _outcome(reference_mode_amplitudes, fld, 5)
        if isinstance(want, tuple):
            assert got == want
            failed += 1
        else:
            assert got.tobytes() == want.tobytes()
            passed += 1
    assert failed > 10 and passed > 10


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
    _, crossings = _row_crossings(values[None, :], mesh.coords[:, 0])
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


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("line_x2", [math.nan, math.inf, -math.inf])
def test_track_interface_rejects_a_non_finite_line(quartic, dim, line_x2):
    mesh = ac.build_mesh(dim, (1.0,) * dim, 1 / 16)
    fld = ac.init_field(mesh, "flat_front", {"q0": 0.5}, 1 / (8 * math.pi))
    with pytest.raises(ac.ConfigurationError, match="line_x2 must be finite"):
        ac.track_interface(fld, line_x2=line_x2)


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
    amps = ac.mode_amplitudes(fld, 6)
    assert amps[0] == pytest.approx(0.5, abs=1e-6)
    assert np.max(np.abs(amps[1:])) < 1e-10


def test_mode_amplitudes_single_mode(quartic):
    eps = 1 / (16 * math.pi)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 128)
    fld = _synthetic_front(mesh, eps, 0.5, [(2, 0.01)])
    amps = ac.mode_amplitudes(fld, 8)
    assert amps[2] == pytest.approx(0.01, rel=0.02)
    others = np.delete(amps, [0, 2])
    assert np.max(np.abs(others)) < 1e-4
    assert 1 + int(np.argmax(np.abs(amps[1:]))) == 2


def test_mode_amplitudes_three_modes(quartic):
    eps = 1 / (16 * math.pi)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 128)
    injected = [(1, 0.012), (3, -0.008), (5, 0.005)]
    fld = _synthetic_front(mesh, eps, 0.5, injected)
    amps = ac.mode_amplitudes(fld, 8)
    for l, amp in injected:
        assert amps[l] == pytest.approx(amp, rel=0.02)


def test_mode_amplitudes_requires_crossings(quartic):
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 16)
    fld = ac.init_field(mesh, "constant", {"value": 1.0}, 0.1)
    with pytest.raises(ac.MeasurementError):
        ac.mode_amplitudes(fld, 4)


@pytest.mark.parametrize("l_max", [-1, 1.5])
def test_mode_amplitudes_rejects_an_l_max_that_is_not_a_count(quartic, l_max):
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 16)
    fld = _synthetic_front(mesh, 1 / (8 * math.pi), 0.5, [])
    with pytest.raises(ac.ConfigurationError, match="l_max must be an integer >= 0"):
        ac.mode_amplitudes(fld, l_max)


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


@pytest.mark.parametrize("times, amps", [([0.0, 1.0, 2.0], [1.0, 2.0]), ([0.0], [1.0])])
def test_fit_growth_rate_needs_two_samples_of_equal_length(times, amps):
    with pytest.raises(ac.ConfigurationError, match="at least two .* of equal length"):
        ac.fit_growth_rate(times, amps)


@pytest.mark.parametrize("amps, window", [
    ([1e-3, 1e-3, 1e-3, 5e-3], (0, 4)),   # takes off at the last sample only
    ([0.2, 0.3, 0.4], (0, 2)),            # saturated from the first sample
])
def test_growth_window_falls_back_to_the_run_start(amps, window):
    assert ac.growth_window(0.1 * np.arange(len(amps)), amps, width_Lt=1.0) == window


def test_growth_window():
    t = np.linspace(0.0, 3.0, 31)
    amps = 1e-3 * np.exp(2.0 * t)
    start, stop = ac.growth_window(t, amps, width_Lt=1.0)
    assert amps[start] > 3e-3 or start == 0
    assert np.all(amps[start:stop] <= 0.1)
    rate = ac.fit_growth_rate(t[start:stop], amps[start:stop])
    assert rate == pytest.approx(2.0, abs=1e-9)
    # take-off is the first sample above GROWTH_TAKEOFF = 3 times the first, here 3.5 times
    assert ac.growth_window(t[:5], [1e-3, 2e-3, 3.5e-3, 5e-3, 8e-3], width_Lt=1.0) == (2, 5)


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

    monkeypatch.setattr("activech.analysis.run_members", no_rung)
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


def _ladder1d_params(quartic):
    """The benchmark ladder's physics: beta = 0.1, S+- = -+1, K+- = 0.2, m+- = 1."""
    return ac.PhaseFieldParams(0.1, 1 / (2 * math.pi), quartic,
                               ac.ReactionSpec(-1.0, 1.0, 0.2, 0.2), ac.MobilitySpec(1.0, 1.0))


def test_reference_front_position_matches_the_finest_step(quartic):
    p = _ladder1d_params(quartic)
    oracle = ac.integrate_q(ac.derive_sharp_params(p, 1.0, 1.0), 0.3, 1e-5, 0.2).q[-1]
    assert abs(ac.reference_front_position(p, 1.0, 1.0, 0.3, 0.2) - oracle) <= 1e-13


def test_reference_front_position_at_t_zero_is_q0(quartic):
    assert ac.reference_front_position(_ladder1d_params(quartic), 1.0, 1.0, 0.3, 0.0) == 0.3
    with pytest.raises(ac.ConfigurationError):
        ac.reference_front_position(_ladder1d_params(quartic), 1.0, 1.0, 1.3, 0.0)


def test_reference_front_position_raises_on_a_boundary_hit_at_the_finest_step_only(
        quartic, monkeypatch):
    from activech import analysis

    p, real, steps = _ladder1d_params(quartic), analysis.integrate_q, []

    def integrate_q(sharp, q0, dt, t_end, output_stride=1):
        steps.append(round(t_end / dt))
        traj = real(sharp, q0, dt, t_end, output_stride)
        return dataclasses.replace(traj, boundary_hit=dt > hit_above)

    monkeypatch.setattr(analysis, "integrate_q", integrate_q)
    hit_above = 0.2 / 256   # the 64- and 128-step runs leave the domain
    q = analysis.reference_front_position(p, 1.0, 1.0, 0.3, 0.2)
    assert steps == [64, 128, 256, 512]
    assert abs(q - real(ac.derive_sharp_params(p, 1.0, 1.0), 0.3, 1e-5, 0.2).q[-1]) <= 1e-13
    steps.clear()
    hit_above = 0.0   # every run does
    with pytest.raises(ac.ConfigurationError, match="left the domain"):
        analysis.reference_front_position(p, 1.0, 1.0, 0.3, 0.2)
    assert steps[-1] == 32768 and 0.2 / steps[-1] <= analysis.REFERENCE_DT < 0.2 / steps[-2]


def test_convergence_study_runs_a_horizon_off_the_reference_step(quartic):
    # 4.5e-5 is no multiple of the finest reference step 1e-5, but 3 steps of tau
    table = ac.convergence_study(_ladder1d_params(quartic), [1 / (4 * math.pi), 1 / (8 * math.pi)],
                                 4.5e-5, cfg=ac.SolverConfig(tau=1.5e-5))
    assert [row.note for row in table.rows] == ["", ""]
    assert all(0.0 < row.error < 1e-3 for row in table.rows)


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


def _solo_rung_error(p, eps, t_end, dim=1):
    """Error of one rung run alone through run_simulation, as the ladder measures it."""
    cfg = ac.SolverConfig()
    record = ac.run_simulation(
        dataclasses.replace(p, epsilon=eps), (dim, (1.0, 1.0)[:dim], ac.auto_mesh_size(eps)),
        ("flat_front", {"q0": 0.3}), cfg, t_end,
        outputs=ac.OutputOptions(stride=int(round(t_end / cfg.tau))))
    return abs(ac.reference_front_position(p, 1.0, 1.0, 0.3, t_end) - float(record.q_h[-1]))


def test_convergence_study_one_failed_rung_leaves_the_others_alone(quartic, monkeypatch):
    reaction = ac.ReactionSpec(-1.0, 4.0, 0.2, 0.02, -1.0)
    p = ac.PhaseFieldParams(0.1, 1 / (4 * math.pi), quartic, reaction,
                            ac.MobilitySpec(1.0, 1.0))
    epsilons = [1 / (4 * math.pi), 1 / (8 * math.pi)]
    solo = _solo_rung_error(p, epsilons[1], 0.01)
    real_step = solver.Stepper.step

    def step(self, phi, mu, step_index=0):
        if any(q.epsilon == epsilons[0] for q in self.params):
            raise ac.StepFailureError("sabotaged rung", step=step_index)
        return real_step(self, phi, mu, step_index)

    monkeypatch.setattr(solver.Stepper, "step", step)
    table = ac.convergence_study(p, epsilons, 0.01, q0=0.3, dim=1)
    assert math.isnan(table.rows[0].error)
    assert table.rows[0].note == "StepFailureError: sabotaged rung"
    assert table.rows[1].note == ""
    assert table.rows[1].error == solo   # bit for bit


@pytest.mark.parametrize("dim,rtol", [(1, 0.0), (2, 1e-9)])
def test_convergence_study_rungs_match_their_own_runs(quartic, dim, rtol):
    # in 1D the lock-step rungs are bit-identical to serial ones; in 2D a stale
    # float32 factor is dropped for both rungs at once, so they agree to the solve
    reaction = ac.ReactionSpec(-1.0, 4.0, 0.2, 0.02, -1.0)
    p = ac.PhaseFieldParams(0.1, 1 / (4 * math.pi), quartic, reaction,
                            ac.MobilitySpec(1.0, 1.0))
    epsilons, t_end = [1 / (4 * math.pi), 1 / (8 * math.pi)], 0.005
    table = ac.convergence_study(p, epsilons, t_end, q0=0.3, dim=dim)
    for row, eps in zip(table.rows, epsilons):
        solo = _solo_rung_error(p, eps, t_end, dim)
        assert row.note == "" and abs(row.error - solo) <= rtol * solo


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
