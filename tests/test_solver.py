"""Tests for initial data, the time-stepping scheme and the run driver."""

import math
import types
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import activech as ac
from activech import solver
from activech.mesh import band_csc, element_means, stencil_bands
from activech.solver import PHI_BOUND_WARN, Stepper

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def quartic():
    return ac.DoubleWellPotential.quartic()


def make_params(quartic, *, beta=0.1, epsilon=1 / (4 * math.pi), s_plus=-1.0,
                s_minus=4.0, rho_plus=1.0, rho_minus=0.1, l_coef=-1.0,
                m_plus=1.0, m_minus=1.0, r_c=1.0):
    k_plus, k_minus = ac.model.relaxation_rates(beta, rho_plus, rho_minus)
    reaction = ac.ReactionSpec(
        s_plus=s_plus, s_minus=s_minus, k_plus=k_plus, k_minus=k_minus,
        l_coef=l_coef, r_c=r_c)
    return ac.PhaseFieldParams(beta=beta, epsilon=epsilon, potential=quartic,
                               reaction=reaction,
                               mobility=ac.MobilitySpec(m_plus, m_minus))


@pytest.fixture(autouse=True)
def _quiet_resolution_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ac.ResolutionWarning)
        yield


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

def test_flat_front_values(quartic):
    eps = 1 / (4 * math.pi)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 16)
    fld = ac.init_field(mesh, "flat_front", {"q0": 0.3}, eps)
    expected = np.tanh((0.3 - mesh.coords[:, 0]) * 4 * math.pi / SQRT2)
    assert np.max(np.abs(fld.values - expected)) < 1e-14


def test_constant_field():
    mesh = ac.build_mesh(1, (1.0,), 0.25)
    fld = ac.init_field(mesh, "constant", {"value": 1.0}, 0.1)
    assert np.all(fld.values == 1.0)


def test_perturbed_disk_radius():
    eps = 1 / (16 * math.pi)
    mesh = ac.build_mesh(2, (2.0, 2.0), 1 / 64)
    fld = ac.init_field(mesh, "perturbed_disk",
                        {"center": (1.0, 1.0), "r0": 0.25}, eps)
    # along the ray theta = pi/9 the perturbation peaks: r = 0.27
    theta = math.pi / 9
    crossings = []
    for t in np.linspace(0.2, 0.35, 2001):
        x = (1.0 + t * math.cos(theta), 1.0 + t * math.sin(theta))
        i = np.argmin(np.hypot(mesh.coords[:, 0] - x[0], mesh.coords[:, 1] - x[1]))
        crossings.append((t, fld.values[i]))
    signs = np.sign([v for _, v in crossings])
    flip = np.nonzero(np.diff(signs))[0]
    radius = crossings[flip[0]][0]
    assert radius == pytest.approx(0.27, abs=0.02)


def test_random_spinodal_zero_mass():
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 16)
    fld = ac.init_field(mesh, "random_spinodal", {"bound": 0.1, "seed": 3}, 0.05)
    assert abs(np.dot(mesh.lumped, fld.values)) < 1e-15
    assert np.max(np.abs(fld.values)) <= 0.2
    again = ac.init_field(mesh, "random_spinodal", {"bound": 0.1, "seed": 3}, 0.05)
    assert np.array_equal(fld.values, again.values)


def test_three_disks():
    eps = 1 / (16 * math.pi)
    mesh = ac.build_mesh(2, (4.0, 4.0), 1 / 32)
    fld = ac.init_field(mesh, "three_disks", {
        "centers": [(1.0, 1.0), (3.0, 1.0), (2.0, 3.0)],
        "radii": [0.29, 0.3, 0.31]}, eps)
    grid = mesh.grid_view(fld.values)
    for cx, cy in ((1.0, 1.0), (3.0, 1.0), (2.0, 3.0)):
        assert grid[int(cy * 32), int(cx * 32)] > 0.99
    assert grid[0, 0] < -0.99


def test_init_field_errors():
    mesh = ac.build_mesh(2, (1.0, 1.0), 0.25)
    with pytest.raises(ac.ConfigurationError):
        ac.init_field(mesh, "nope", {}, 0.1)
    with pytest.raises(ac.ConfigurationError):
        ac.init_field(mesh, "disk", {"center": (0.1, 0.5), "r0": 0.3}, 0.1)
    with pytest.raises(ac.ConfigurationError):
        ac.init_field(mesh, "flat_front", {"q0": 1.5}, 0.1)
    # the kind table's checks apply to Python callers too
    for kind, params in (("flat_front", {"q0": 0.5, "amplitude": 0.1}), ("disk", {"r0": 0.2}),
                         ("random_spinodal", {"bound": math.inf}),
                         ("three_disks", {"centers": [(0.5, math.nan)], "radii": [0.1]})):
        with pytest.raises(ac.ConfigurationError, match=r"\[initial\]"):
            ac.init_field(mesh, kind, params, 0.1)
    mesh1 = ac.build_mesh(1, (1.0,), 0.25)
    with pytest.raises(ac.ConfigurationError):
        ac.init_field(mesh1, "flat_front",
                      {"q0": 0.5, "modes": [1], "amplitudes": [0.1]}, 0.1)
    for field_mesh, kind, params, message in (
            (mesh1, "disk", {"center": (0.5, 0.5), "r0": 0.2}, "requires a 2D mesh"),
            (mesh, "disk", {"center": (0.5, 0.5), "r0": 0.0}, "radius must be positive"),
            (mesh, "flat_front", {"q0": 0.5, "n_random_modes": -1},
             "n_random_modes: must be >= 0"),
            (mesh, "flat_front", {"q0": 0.5, "modes": [1], "amplitudes": [0.1],
                                  "n_random_modes": 2}, "either explicit modes or n_random_modes"),
            (mesh, "flat_front", {"q0": 0.5, "modes": [1, 2], "amplitudes": [0.1]},
             "modes and amplitudes must have equal length")):
        with pytest.raises(ac.ConfigurationError, match=message):
            ac.init_field(field_mesh, kind, params, 0.1)


def test_front_perturbation_bound():
    from activech.initial import front_perturbation_coefficients
    coeffs = front_perturbation_coefficients(20, 0.1, seed=5)
    assert np.sum(np.abs(coeffs)) == pytest.approx(0.1, rel=1e-12)


# ---------------------------------------------------------------------------
# single-step identities
# ---------------------------------------------------------------------------

def test_uniform_state_closed_form(quartic):
    p = make_params(quartic)
    cfg = ac.SolverConfig()
    for dim, lengths in ((1, (1.0,)), (2, (1.0, 1.0))):
        mesh = ac.build_mesh(dim, lengths, 1 / 16)
        c = 0.3
        phi, mu, _ = Stepper(mesh, p, cfg).step(np.full(mesh.n_nodes, c),
                                                np.zeros(mesh.n_nodes))
        s_c = ac.source_S(p.reaction, p.epsilon, c)
        phi_exact = c + cfg.tau * s_c
        mu_exact = (p.beta / p.epsilon) * float(ac.dpsi(phi_exact))
        assert np.max(np.abs(phi - phi_exact)) < 1e-12
        assert np.max(np.abs(mu - mu_exact)) < 1e-12


def test_pure_phase_fixed_point(quartic):
    p = make_params(quartic, s_plus=0.0, l_coef=0.0)
    cfg = ac.SolverConfig()
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 8)
    phi, mu, _ = Stepper(mesh, p, cfg).step(np.ones(mesh.n_nodes), np.zeros(mesh.n_nodes))
    assert np.max(np.abs(phi - 1.0)) < 1e-13
    assert np.max(np.abs(mu)) < 1e-13


def test_discrete_mass_balance(quartic):
    p = make_params(quartic, epsilon=1 / (8 * math.pi))
    cfg = ac.SolverConfig()
    mesh = ac.build_mesh(1, (1.0,), 1 / 64)
    stepper = Stepper(mesh, p, cfg)
    phi = ac.init_field(mesh, "flat_front", {"q0": 0.3}, p.epsilon).values.copy()
    mu = stepper.initial_mu(phi)
    w = mesh.lumped
    for n in range(100):
        svec = stepper.source_nodal(phi)
        phi_new, mu_new, _ = stepper.step(phi, mu, n)
        drift = abs(np.dot(w, phi_new - phi) - cfg.tau * np.dot(w, svec))
        assert drift <= 10 * solver.LINEAR_TOL * np.linalg.norm(phi)
        phi, mu = phi_new, mu_new


def test_zero_source_mass_conservation(quartic):
    p = ac.PhaseFieldParams(
        beta=0.1, epsilon=1 / (8 * math.pi), potential=quartic,
        reaction=ac.ReactionSpec(0.0, 0.0, 0.0, 0.0, 0.0),
        mobility=ac.MobilitySpec(1.0, 1.0))
    cfg = ac.SolverConfig()
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 32)
    stepper = Stepper(mesh, p, cfg)
    phi = ac.init_field(mesh, "disk", {"center": (0.5, 0.5), "r0": 0.25},
                        p.epsilon).values.copy()
    mu = stepper.initial_mu(phi)
    mass0 = np.dot(mesh.lumped, phi)
    for n in range(100):
        phi, mu, _ = stepper.step(phi, mu, n)
    assert abs(np.dot(mesh.lumped, phi) - mass0) <= solver.LINEAR_TOL


def test_newton_quadratic_convergence(quartic, monkeypatch):
    monkeypatch.setattr(solver, "NEWTON_TOL", 1e-12)
    p = make_params(quartic, epsilon=1 / (8 * math.pi))
    cfg = ac.SolverConfig()
    mesh = ac.build_mesh(1, (1.0,), 1 / 64)
    stepper = Stepper(mesh, p, cfg)
    phi = ac.init_field(mesh, "flat_front", {"q0": 0.3}, p.epsilon).values.copy()
    mu = stepper.initial_mu(phi)
    _, _, report = stepper.step(phi, mu, 0)
    res = report.histories[0]
    quadratic_checked = 0
    for r_k, r_next in zip(res, res[1:]):
        # below ~1e-13 the residual evaluation itself is rounding-limited
        if r_k < 1e-3 and r_next > 1e-13:
            assert r_next <= 10.0 * r_k**2
            quadratic_checked += 1
    assert quadratic_checked >= 1


def test_newton_failure_diagnostics(quartic, monkeypatch):
    monkeypatch.setattr(solver, "NEWTON_MAX", 1)
    monkeypatch.setattr(solver, "NEWTON_TOL", 1e-14)
    p = make_params(quartic)
    cfg = ac.SolverConfig()
    mesh = ac.build_mesh(1, (1.0,), 1 / 32)
    stepper = Stepper(mesh, p, cfg)
    phi = ac.init_field(mesh, "flat_front", {"q0": 0.3}, p.epsilon).values.copy()
    mu = stepper.initial_mu(phi)
    with pytest.raises(ac.StepFailureError) as err:
        stepper.step(phi, mu, step_index=7)
    assert err.value.step == 7
    assert len(err.value.residuals) >= 1


def test_resolution_warning(quartic):
    p = make_params(quartic, epsilon=1 / (4 * math.pi))
    mesh = ac.build_mesh(1, (1.0,), 1 / 16)  # h=0.0625 > eps*sqrt(2)/4
    with pytest.warns(ac.ResolutionWarning):
        Stepper(mesh, p, ac.SolverConfig())


@pytest.mark.parametrize("factor, converges", [(0.2, True), (0.5, False)])
def test_newton_fails_after_exactly_newton_max_solves(quartic, monkeypatch, factor, converges):
    # each solve returns (1 - factor) times the Newton update, so the residual falls by
    # ``factor`` per iteration: from 3.0 to NEWTON_TOL in 14 iterations at 0.2, within
    # NEWTON_MAX = 20, and in 32 at 0.5, beyond it
    p = make_params(quartic, epsilon=1 / (8 * math.pi))
    mesh = ac.build_mesh(1, (1.0,), 1 / 64)
    stepper = Stepper(mesh, p, ac.SolverConfig())
    real, solves = stepper.schur.solve, []

    def contracting(rhs):
        solves.append(1)
        return (1.0 - factor) * real(rhs)

    monkeypatch.setattr(stepper.schur, "solve", contracting)
    phi = ac.init_field(mesh, "flat_front", {"q0": 0.3}, p.epsilon).values.copy()
    mu = stepper.initial_mu(phi)
    if converges:
        _, _, report = stepper.step(phi, mu, 1)
        assert report.histories[0][0] == pytest.approx(3.0, rel=0.02)
        assert report.iterations == len(solves) == 14
    else:
        with pytest.raises(ac.StepFailureError, match=f"within {solver.NEWTON_MAX} iter"):
            stepper.step(phi, mu, 1)
        assert len(solves) == solver.NEWTON_MAX


@pytest.mark.parametrize("scale, warns", [(1.0, False), (1.0 - 1e-9, True)])
def test_resolution_warning_starts_just_above_pi_eps_over_8(quartic, scale, warns):
    # h = 1/32 is pi eps / 8 at eps = 1/(4 pi), and just above it at a smaller eps
    p = make_params(quartic, epsilon=scale / (4 * math.pi))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ac.ResolutionWarning)
        Stepper(ac.build_mesh(1, (1.0,), 1 / 32), p, ac.SolverConfig())
    assert [w.category for w in caught] == ([ac.ResolutionWarning] if warns else [])


def test_auto_mesh_size_is_resolved(quartic):
    eps = 1 / (8 * math.pi)
    p = make_params(quartic, epsilon=eps)
    mesh = ac.build_mesh(2, (1.0, 1.0), ac.auto_mesh_size(eps))
    with warnings.catch_warnings():
        warnings.simplefilter("error", ac.ResolutionWarning)
        Stepper(mesh, p, ac.SolverConfig())


@pytest.mark.parametrize("field", ["tau"])
def test_solver_config_rejects_nonfinite(field):
    with pytest.raises(ac.ConfigurationError, match=f"{field} must be positive and finite"):
        ac.SolverConfig(**{field: math.nan})


@pytest.mark.parametrize("dim,lengths,h", [
    (1, (1.0,), 1 / 32), (2, (1.0, 1.0), 1 / 16), (2, (2.0, 1.0), 1 / 8),
])
def test_schur_operator_matches_sparse_products(quartic, dim, lengths, h):
    p = make_params(quartic, m_plus=2.0, m_minus=0.5)
    beta, eps, tau = p.beta, p.epsilon, 1e-3
    mesh = ac.build_mesh(dim, lengths, h)
    rng = np.random.default_rng(11)
    phi = rng.uniform(-1.2, 1.2, mesh.n_nodes)
    ddpsi = rng.uniform(-2.0, 2.0, mesh.n_nodes)
    coeff = np.asarray(ac.mobility_m(p.mobility, element_means(mesh, phi)))
    op = solver.SchurOperator(mesh, p)
    op.set_mobility(np.ones(mesh.n_elements))
    op.assemble(np.zeros(mesh.n_nodes), mesh.lumped)   # values are rewritten, not accumulated
    Km = op.set_mobility(coeff)
    S = op.assemble(ddpsi, mesh.lumped / tau)
    # the sparse-product assembly the operator replaces
    Km_ref = band_csc(*stencil_bands(mesh, coeff))
    K, w = ac.stiffness_matrix(mesh), mesh.lumped
    S_ref = (sparse.diags(w / tau) + beta * eps * (Km_ref @ sparse.diags(1.0 / w) @ K)
             + (beta / eps) * (Km_ref @ sparse.diags(ddpsi))).tocsc()
    for got, ref in ((S, S_ref), (Km, Km_ref)):
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.max(np.abs(got.data - ref.data)) <= 1e-14 * np.max(np.abs(ref.data))
    assert S.format == "csc" and S.nnz == S_ref.nnz


@pytest.mark.parametrize("dim,lengths,h", [(1, (1.0,), 1 / 32), (2, (1.0, 1.0), 1 / 16)])
def test_schur_assembly_is_bit_identical_to_the_band_assembly(quartic, dim, lengths, h):
    # the oracle is the band-array assembly: base bands, W/tau on the diagonal
    # row, the psi'' column scaling of Km as a band product, one gather
    p = make_params(quartic, m_plus=2.0, m_minus=0.5)
    mesh = ac.build_mesh(dim, lengths, h)
    op = solver.SchurOperator(mesh, p)
    offs, k = stencil_bands(mesh)
    rng = np.random.default_rng(12)
    for _ in range(2):   # across a mobility change
        coeff = np.asarray(ac.mobility_m(p.mobility, element_means(
            mesh, rng.uniform(-1.2, 1.2, mesh.n_nodes))))
        op.set_mobility(coeff)
        _, km = stencil_bands(mesh, coeff)
        km_w = solver._band_product(offs, km, (0,), (1.0 / mesh.lumped)[None], offs)
        block = op._blocks[0]
        base = p.beta * p.epsilon * solver._band_product(offs, km_w, offs, k, block.offsets)
        diag, km_rows = block.offsets.index(0), [block.offsets.index(q) for q in offs]
        for tau in (1e-3, 0.5):
            ddpsi = rng.uniform(-2.0, 2.0, mesh.n_nodes)
            vals = base.copy()
            vals[diag] = mesh.lumped / tau + vals[diag]
            vals[km_rows] += (p.beta / p.epsilon) * solver._band_product(
                offs, km, (0,), ddpsi[None], offs)
            S = op.assemble(ddpsi, mesh.lumped / tau)
            assert np.array_equal(S.data, vals.ravel()[block.gather])


def test_step_builds_no_sparse_matrix_after_the_first(quartic, monkeypatch):
    p = make_params(quartic, m_plus=2.0, m_minus=0.5)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 32)
    stepper = Stepper(mesh, p, ac.SolverConfig())
    phi = ac.init_field(mesh, "flat_front", {"q0": 0.5, "modes": [2], "amplitudes": [0.02]},
                        p.epsilon).values.copy()
    mu = stepper.initial_mu(phi)
    phi, mu, _ = stepper.step(phi, mu, 1)

    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    cs_matrix = sparse._compressed._cs_matrix
    monkeypatch.setattr(sparse, "diags", counted("diags", sparse.diags))
    monkeypatch.setattr(solver, "stiffness_matrix",
                        counted("stiffness_matrix", solver.stiffness_matrix))
    monkeypatch.setattr(cs_matrix, "__init__", counted("construction", cs_matrix.__init__))
    monkeypatch.setattr(cs_matrix, "_matmul_sparse",
                        counted("sparse product", cs_matrix._matmul_sparse))
    for n in range(2, 5):
        phi, mu, _ = stepper.step(phi, mu, n)
    assert calls == {}
    # the counters see what the parent's per-step assembly did
    sparse.diags(np.ones(3), format="csr") @ stepper.K[:3, :3]
    assert set(calls) == {"diags", "construction", "sparse product"}


def _reference_step(op, stepper, phi_old, mu_old):
    """Stepper.step's Newton loop with each factor formed where it is used, on operator ``op``."""
    p, tau, w, K = stepper.params[0], stepper.cfg.tau, stepper.w, stepper.K
    beta, eps = p.beta, p.epsilon
    Km = op.set_mobility(
        np.asarray(ac.mobility_m(p.mobility, element_means(stepper.meshes[0], phi_old))))
    rhs_mass = w * (phi_old / tau + stepper.source_nodal(phi_old))
    phi, mu, residuals = phi_old.copy(), mu_old.copy(), []
    while True:
        r1 = (w / tau) * phi + Km @ mu - rhs_mass
        r2 = beta * eps * (K @ phi) + (beta / eps) * w * ac.dpsi(phi) - w * mu
        # the solver's member-norm rule: a sequential sum of squares from the first node
        residuals.append(math.hypot(*(math.sqrt(np.add.reduceat(r * r, [0])[0]) for r in (r1, r2))))
        if residuals[-1] < solver.NEWTON_TOL:
            return phi, mu, residuals
        assert len(residuals) <= solver.NEWTON_MAX
        ddpsi = ac.ddpsi(phi)
        op.assemble(ddpsi, w / tau)
        dphi = op.solve(-(r1 + Km @ (r2 / w)))
        dmu = (beta * eps * (K @ dphi) + (beta / eps) * w * ddpsi * dphi + r2) / w
        phi, mu = phi + dphi, mu + dmu


@pytest.mark.parametrize("dim,m_plus,m_minus", [(1, 1.0, 1.0), (2, 1.0, 1.0), (2, 2.0, 0.5)])
def test_step_is_bit_identical_to_the_reference_newton_loop(quartic, dim, m_plus, m_minus):
    p = make_params(quartic, epsilon=1 / (8 * math.pi), m_plus=m_plus, m_minus=m_minus)
    mesh = ac.build_mesh(dim, (1.0, 1.0)[:dim], 1 / 64 if dim == 1 else 1 / 16)
    stepper = Stepper(mesh, p, ac.SolverConfig())
    op = solver.SchurOperator(mesh, p)
    spec = {"q0": 0.3} if dim == 1 else {"q0": 0.5, "modes": [2], "amplitudes": [0.02]}
    phi = ac.init_field(mesh, "flat_front", spec, p.epsilon).values.copy()
    mu = ref_mu = stepper.initial_mu(phi)
    ref_phi = phi
    for n in range(1, 5):
        phi, mu, report = stepper.step(phi, mu, n)
        ref_phi, ref_mu, ref_residuals = _reference_step(op, stepper, ref_phi, ref_mu)
        assert np.array_equal(phi, ref_phi) and np.array_equal(mu, ref_mu)
        assert report.histories[0] == ref_residuals
    assert stepper.schur.counts == op.counts


def test_lock_step_members_are_bit_identical_to_their_own_steps(quartic):
    # 1D members of different sizes, epsilons and fields: each keeps its own iterates
    # and Newton count, and the joint step solves as often as its slowest member
    cases = [(make_params(quartic, epsilon=1 / (4 * math.pi)), ac.build_mesh(1, (1.0,), 1 / 32),
              ("flat_front", {"q0": 0.3})),
             (make_params(quartic, epsilon=1 / (8 * math.pi)), ac.build_mesh(1, (1.0,), 1 / 64),
              ("random_spinodal", {"bound": 0.05, "seed": 2}))]
    joint = Stepper([m for _, m, _ in cases], [p for p, _, _ in cases], ac.SolverConfig())
    alone = [Stepper(m, p, ac.SolverConfig()) for p, m, _ in cases]
    fields = []
    for stepper, (p, m, (kind, spec)) in zip(alone, cases):
        phi = ac.init_field(m, kind, spec, p.epsilon).values
        fields.append((phi, stepper.initial_mu(phi)))
    phi, mu = (np.concatenate(v) for v in zip(*fields))
    assert np.array_equal(mu, joint.initial_mu(phi))
    unequal_counts = 0
    for n in range(1, 6):
        phi, mu, report = joint.step(phi, mu, n)
        solo = [stepper.step(*f, n) for stepper, f in zip(alone, fields)]
        fields = [(a, b) for a, b, _ in solo]
        for s, (a, b, rep), history in zip(joint.slices, solo, report.histories):
            assert np.array_equal(phi[s], a) and np.array_equal(mu[s], b)
            assert history == rep.histories[0]
        assert report.iterations == max(rep.iterations for *_, rep in solo)
        unequal_counts += len({rep.iterations for *_, rep in solo}) > 1
    assert unequal_counts >= 1   # a converged member was frozen while the other iterated
    counts = joint.schur.counts
    assert counts["factor_float64"] == counts["backsolve"] < sum(
        stepper.schur.counts["backsolve"] for stepper in alone)


def test_the_w1d_ladder_factors_once_per_joint_newton_iteration():
    # the five-rung ladder of tests/golden/converge_w1d.cfg, the ladder1d benchmark's
    # setting: 200 lock-step steps, each one fresh float64 factor and one back-solve per
    # joint Newton iteration, never float32 and never GMRES
    cfg = ac.parse_config((Path(__file__).parent / "golden" / "converge_w1d.cfg").read_text())
    rungs = [(replace(cfg.params, epsilon=eps), (1, cfg.lengths, ac.auto_mesh_size(eps)),
              (cfg.init_kind, cfg.init_params)) for eps in cfg.converge_epsilons]
    records = solver.run_members(rungs, ac.SolverConfig(tau=cfg.tau), cfg.t_end)
    assert [len(r.newton_iters) for r in records] == [200] * 5
    assert records[0].solver_counts == {"factor_float32": 0, "factor_float64": 401,
                                        "backsolve": 401, "given_up": 0}


def test_joint_solve_stops_each_member_at_its_own_target(quartic):
    # member 1 is ill-conditioned (a large tau on its diagonal) and its right-hand
    # side is 1e-6 of member 0's: a norm over both members stops after one sweep,
    # with member 1's residual still three times its own target
    p = make_params(quartic)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 16)
    op = solver.SchurOperator([mesh, mesh], [p, p])
    op.set_mobility(np.ones(2 * mesh.n_elements))
    S = op.assemble(np.full(2 * mesh.n_nodes, 2.0),
                    np.concatenate([mesh.lumped / 1e-3, mesh.lumped / 10.0]))
    rng = np.random.default_rng(6)
    rhs = np.concatenate([rng.standard_normal(mesh.n_nodes),
                          1e-6 * rng.standard_normal(mesh.n_nodes)])
    x = op.solve(rhs)
    for s in op.slices:
        assert np.linalg.norm(rhs[s] - (S @ x)[s]) <= max(
            solver.LINEAR_TOL * np.linalg.norm(rhs[s]), solver.NEWTON_TOL / 10)


def test_members_must_share_the_physics_and_write_no_files_together(quartic, tmp_path):
    mesh = ac.build_mesh(1, (1.0,), 1 / 32)
    with pytest.raises(ac.ConfigurationError, match="must share beta"):
        Stepper([mesh, mesh], [make_params(quartic), make_params(quartic, beta=0.2)],
                ac.SolverConfig())
    with pytest.raises(ac.ConfigurationError, match="one mesh each"):
        solver.SchurOperator([mesh], [make_params(quartic)] * 2)
    member = (make_params(quartic), mesh, ("flat_front", {"q0": 0.3}))
    with pytest.raises(ac.ConfigurationError, match="single member"):
        solver.run_members([member, member], ac.SolverConfig(), 0.01,
                           ac.OutputOptions(directory=str(tmp_path / "run")))
    assert not (tmp_path / "run").exists()


def _singular_schur_solve(quartic, monkeypatch, dim, lengths):
    """Factor dtypes of a solve with S = 0, which must raise a NumericalError."""
    dtypes = _spy_factor_dtypes(monkeypatch)
    mesh = ac.build_mesh(dim, lengths, 1 / 8)
    schur = solver.SchurOperator(mesh, make_params(quartic))
    schur.set_mobility(np.ones(mesh.n_elements))
    schur.assemble(np.full(mesh.n_nodes, 2.0), mesh.lumped / 1e-3)
    schur.S.data[:] = 0.0
    n = mesh.n_nodes
    with pytest.raises(ac.NumericalError, match=f"{n}x{n}"):
        schur.solve(np.ones(n))
    return dtypes


def test_singular_schur_raises_numerical_error(quartic, monkeypatch):
    # in 2D a singular S fails in float32, then in float64, and only that is an error
    dtypes = _singular_schur_solve(quartic, monkeypatch, 2, (1.0, 1.0))
    assert dtypes == [np.float32, np.float64]


def test_singular_schur_raises_numerical_error_1d(quartic, monkeypatch):
    # in 1D the only factorization is in float64
    assert _singular_schur_solve(quartic, monkeypatch, 1, (1.0,)) == [np.float64]


@pytest.mark.parametrize("dim,lengths,backsolves", [(1, (1.0,), 1), (2, (1.0, 1.0), 2)],
                         ids=("1d", "2d"))
def test_nan_right_hand_side_raises_numerical_error(quartic, dim, lengths, backsolves):
    # a NaN residual is a stall, never a converged solve, and it ends refinement at
    # once; in 2D the float32 factor's NaN escalates to float64 once, as a stall does
    op = solver.SchurOperator(ac.build_mesh(dim, lengths, 1 / 8), make_params(quartic))
    op.set_mobility(np.ones(op.meshes[0].n_elements))
    op.assemble(np.full(op.meshes[0].n_nodes, 2.0), op.meshes[0].lumped / 1e-3)
    rhs = np.ones(op.meshes[0].n_nodes)
    rhs[3] = np.nan
    with pytest.raises(ac.NumericalError, match="relative residual nan"):
        op.solve(rhs)
    assert op.counts["backsolve"] == backsolves


def test_zero_right_hand_side_returns_zeros_without_factoring(quartic):
    op = solver.SchurOperator(ac.build_mesh(2, (1.0, 1.0), 1 / 8), make_params(quartic))
    op.set_mobility(np.ones(op.meshes[0].n_elements))
    op.assemble(np.full(op.meshes[0].n_nodes, 2.0), op.meshes[0].lumped / 1e-3)
    x = op.solve(np.zeros(op.meshes[0].n_nodes))
    assert np.array_equal(x, np.zeros(op.meshes[0].n_nodes))
    assert op._lu is None and not any(op.counts.values())


def _stale_front_operator(quartic):
    """2D operator whose float32 factor is of a front shifted by 0.005 from its S."""
    p = make_params(quartic, epsilon=1 / (8 * math.pi), s_plus=-1.0, s_minus=1.0,
                    rho_plus=1.0, rho_minus=1.0, l_coef=0.0)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 32)
    op = solver.SchurOperator(mesh, p)
    op.set_mobility(np.ones(mesh.n_elements))
    rng = np.random.default_rng(3)

    def ddpsi(q0):
        spec = {"q0": q0, "modes": [2], "amplitudes": [0.02]}
        return ac.ddpsi(ac.init_field(mesh, "flat_front", spec, p.epsilon).values)

    op.assemble(ddpsi(0.5), mesh.lumped / 1e-3)
    op.solve(rng.standard_normal(mesh.n_nodes))
    S = op.assemble(ddpsi(0.505), mesh.lumped / 1e-3)
    rhs = rng.standard_normal(mesh.n_nodes)
    return op, S, 1e-3 * rhs / np.linalg.norm(rhs)


def test_refinement_stops_at_a_tenth_of_newton_tol(quartic, monkeypatch):
    # after the Newton update r1 = -(rhs - S x), so a residual below NEWTON_TOL/10
    # is work Newton cannot use; |rhs| = 1e-3 puts LINEAR_TOL * |rhs| at 1e-13
    op, S, rhs = _stale_front_operator(quartic)
    x = op.solve(rhs)
    assert np.linalg.norm(rhs - S @ x) <= solver.NEWTON_TOL / 10
    # under a tight NEWTON_TOL the same solve still reaches LINEAR_TOL, at more cost
    monkeypatch.setattr(solver, "NEWTON_TOL", 1e-14)
    to_linear_tol, S, rhs = _stale_front_operator(quartic)
    x = to_linear_tol.solve(rhs)
    assert np.linalg.norm(rhs - S @ x) <= solver.LINEAR_TOL * np.linalg.norm(rhs)
    assert op.counts["backsolve"] < to_linear_tol.counts["backsolve"]
    assert op.counts["factor_float32"] == to_linear_tol.counts["factor_float32"] == 1


def test_stale_factor_that_would_miss_the_budget_is_dropped_early(quartic):
    # against the factor of S at psi'' = 2, S at a spread random psi'' in [-2, 2]
    # leaves a GMRES residual that contracts by about 0.21 in its first iteration:
    # reaching LINEAR_TOL at that rate takes about 14 iterations, and the budget is 12
    op = solver.SchurOperator(ac.build_mesh(2, (1.0, 1.0), 1 / 16), make_params(quartic))
    n = op.meshes[0].n_nodes
    op.set_mobility(np.ones(op.meshes[0].n_elements))
    op.assemble(np.full(n, 2.0), op.meshes[0].lumped / 1e-3)
    rhs = np.random.default_rng(4).standard_normal(n)
    op.solve(rhs)
    S = op.assemble(np.random.default_rng(0).uniform(-2.0, 2.0, n), op.meshes[0].lumped / 1e-3)
    start, stale = op.counts["backsolve"], []
    factor = op._factor
    op._factor = lambda: (stale.append(op.counts["backsolve"] - start), factor())
    x = op.solve(rhs)
    assert stale == [2]
    assert op.counts["given_up"] == 1 and op.counts["factor_float64"] == 0
    assert np.linalg.norm(rhs - S @ x) <= solver.LINEAR_TOL * np.linalg.norm(rhs)


def test_gmres_refinement_beats_richardson_on_a_stale_factor(quartic):
    # the oracle is plain iterative refinement, x += M^-1 (rhs - S x), against the
    # same stale float32 factor M; both must reach the target, which GMRES does in
    # 6 back-solves and the oracle in 7
    op, S, rhs = _stale_front_operator(quartic)
    lu, start = op._lu, op.counts["backsolve"]
    target = max(solver.LINEAR_TOL * np.linalg.norm(rhs), solver.NEWTON_TOL / 10)
    x = op.solve(rhs)
    assert op._lu is lu and op.counts["given_up"] == 0
    gmres_solves = op.counts["backsolve"] - start
    assert np.linalg.norm(rhs - S @ x) <= target

    def back_solve(v):
        return lu.solve(v.astype(np.float32)).astype(np.float64)

    richardson, r = back_solve(rhs), rhs
    for richardson_solves in range(1, 100):
        r = rhs - S @ richardson
        if np.linalg.norm(r) <= target:
            break
        richardson += back_solve(r)
    assert np.linalg.norm(r) <= target
    assert gmres_solves < richardson_solves


def test_gmres_stops_on_a_happy_breakdown(quartic):
    # with S = 2 I and M = I the first Krylov vector is e_1 and S M^-1 e_1 = 2 e_1
    # exactly, so h_{2,1} = 0: the estimate is zero and the solve is exact, with
    # no division by h_{2,1} and no singular triangular solve
    op = solver.SchurOperator(ac.build_mesh(2, (1.0, 1.0), 1 / 4), make_params(quartic))
    n = op.meshes[0].n_nodes
    op.S = 2.0 * sparse.identity(n, format="csc")
    solves = []
    op._lu = _CountingLU(types.SimpleNamespace(solve=lambda v: v.copy()), solves)
    rhs = np.zeros(n)
    rhs[0] = 3.0
    x = op.solve(rhs)
    assert np.array_equal(x, rhs / 2.0)
    assert len(solves) == op.counts["backsolve"] == 2
    assert op.counts["given_up"] == op.counts["factor_float32"] == 0


def test_spinodal_newton_counts_and_float32_factors(quartic):
    # psi'' changes sign, so factors go stale and are dropped for their rate; every
    # step keeps the Newton count it had when each solve was refined to LINEAR_TOL
    p = make_params(quartic, epsilon=1 / (8 * math.pi), s_plus=-1.0, s_minus=1.0,
                    rho_plus=1.0, rho_minus=1.0, l_coef=0.0)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 32)
    stepper = Stepper(mesh, p, ac.SolverConfig())
    phi = ac.init_field(mesh, "random_spinodal", {"bound": 0.05, "seed": 0}, p.epsilon).values
    mu = stepper.initial_mu(phi)
    iterations = []
    for n in range(1, 21):
        phi, mu, report = stepper.step(phi, mu, n)
        iterations.append(report.iterations)
    assert iterations == [2] * 4 + [3] * 16
    counts = stepper.schur.counts
    assert counts["given_up"] >= 1 and counts["factor_float64"] == 0


def test_schur_lu_ordering_limits_fill(quartic, monkeypatch):
    # 2D front at 4 225 nodes: COLAMD fills L+U to ~610k nonzeros, minimum
    # degree on A^T + A to ~427k
    eps = 1 / (8 * math.pi)
    p = make_params(quartic, epsilon=eps, s_plus=-1.0, s_minus=1.0,
                    rho_plus=1.0, rho_minus=1.0, l_coef=0.0)
    mesh = ac.build_mesh(2, (1.0, 1.0), 2.0 ** -6)
    fills = []
    real = solver.splu

    def spy(A, *args, **kwargs):
        lu = real(A, *args, **kwargs)
        fills.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(solver, "splu", spy)
    stepper = Stepper(mesh, p, ac.SolverConfig())
    phi = ac.init_field(mesh, "flat_front",
                        {"q0": 0.5, "modes": [2], "amplitudes": [0.02]}, eps).values
    _, _, report = stepper.step(phi, stepper.initial_mu(phi))
    assert fills and fills[0] < 500_000
    assert report.histories[0][-1] < solver.NEWTON_TOL


def _spy_factors(monkeypatch):
    """Record every SuperLU factor the solver computes."""
    factors = []
    real = solver.splu

    def spy(A, *args, **kwargs):
        factors.append(real(A, *args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(solver, "splu", spy)
    return factors


def test_1d_factors_in_natural_order_within_the_band(quartic, monkeypatch):
    # a pentadiagonal LU with partial pivoting keeps 2 subdiagonals in L and
    # 4 superdiagonals in U, so L + U holds at most 8 n nonzeros
    factors = _spy_factors(monkeypatch)
    p = make_params(quartic, epsilon=1 / (32 * math.pi))
    mesh = ac.build_mesh(1, (1.0,), 1 / 256)
    n = mesh.n_nodes
    assert n == 257
    stepper = Stepper(mesh, p, ac.SolverConfig())
    phi = ac.init_field(mesh, "flat_front", {"q0": 0.3}, p.epsilon).values
    stepper.step(phi, stepper.initial_mu(phi), 1)
    assert factors
    for lu in factors:
        assert np.array_equal(lu.perm_c, np.arange(n))
        assert lu.L.nnz + lu.U.nnz <= 8 * n


def test_2d_factors_under_a_fill_reducing_order(quartic, monkeypatch):
    factors = _spy_factors(monkeypatch)
    stepper, phi, mu = _front_stepper(quartic, 1 / 16)
    stepper.step(phi, mu, 1)
    assert factors
    for lu in factors:
        assert not np.array_equal(lu.perm_c, np.arange(stepper.meshes[0].n_nodes))


def _front_stepper(quartic, h, tau=1e-3):
    """Stepper and initial (phi, mu) of a mode-2 front at eps = 1/(8 pi)."""
    eps = 1 / (8 * math.pi)
    p = make_params(quartic, epsilon=eps, s_plus=-1.0, s_minus=1.0,
                    rho_plus=1.0, rho_minus=1.0, l_coef=0.0)
    mesh = ac.build_mesh(2, (1.0, 1.0), h)
    stepper = Stepper(mesh, p, ac.SolverConfig(tau=tau))
    phi = ac.init_field(mesh, "flat_front",
                        {"q0": 0.5, "modes": [2], "amplitudes": [0.02]}, eps).values.copy()
    return stepper, phi, stepper.initial_mu(phi)


class _CountingLU:
    """A SuperLU factor that appends to ``solves`` on each back-solve."""

    def __init__(self, lu, solves):
        self._lu, self._solves = lu, solves

    def solve(self, v):
        self._solves.append(v.dtype.type)
        return self._lu.solve(v)


def _spy_factor_dtypes(monkeypatch, solves=None):
    """Record the dtype of every matrix handed to SuperLU, and each back-solve in ``solves``."""
    dtypes = []
    real = solver.splu

    def spy(A, *args, **kwargs):
        dtypes.append(A.dtype.type)
        lu = real(A, *args, **kwargs)
        return lu if solves is None else _CountingLU(lu, solves)

    monkeypatch.setattr(solver, "splu", spy)
    return dtypes


def test_1d_factors_fresh_in_float64_on_every_newton_iteration(quartic):
    p = make_params(quartic)
    mesh = ac.build_mesh(1, (1.0,), 1 / 64)
    stepper = Stepper(mesh, p, ac.SolverConfig())
    phi = ac.init_field(mesh, "flat_front", {"q0": 0.3}, p.epsilon).values.copy()
    mu = stepper.initial_mu(phi)
    iterations = 0
    for n in range(1, 6):
        phi, mu, report = stepper.step(phi, mu, n)
        iterations += report.iterations
    assert iterations >= 5
    assert stepper.schur.counts == {"factor_float32": 0, "factor_float64": iterations,
                                    "backsolve": iterations, "given_up": 0}


def test_1d_operator_holds_no_float32_copy(quartic):
    for dim, lengths, has_float32 in ((1, (1.0,), False), (2, (1.0, 1.0), True)):
        op = solver.SchurOperator(ac.build_mesh(dim, lengths, 1 / 16), make_params(quartic))
        op.set_mobility(np.ones(op.meshes[0].n_elements))
        dtypes = {getattr(value, "dtype", None) for value in vars(op).values()}
        assert (np.dtype(np.float32) in dtypes) == has_float32


def test_2d_reuses_a_float32_factor_across_newton_iterations(quartic, monkeypatch):
    solves = []
    dtypes = _spy_factor_dtypes(monkeypatch, solves)
    stepper, phi, mu = _front_stepper(quartic, 1 / 16)
    iterations = 0
    for n in range(1, 6):
        phi, mu, report = stepper.step(phi, mu, n)
        iterations += report.iterations
    assert 1 <= len(dtypes) < iterations <= len(solves)
    assert dtypes[0] == np.float32
    # the operator's own counts are what SuperLU sees
    counts = stepper.schur.counts
    assert (counts["factor_float32"], counts["factor_float64"], counts["backsolve"]) == (
        dtypes.count(np.float32), dtypes.count(np.float64), len(solves))


def _count_weighted_stencils(monkeypatch):
    """Count the mobility-weighted stencil builds of the solver."""
    weighted = []
    real = solver.stencil_bands

    def spy(mesh, coeff=None):
        if coeff is not None:
            weighted.append(1)
        return real(mesh, coeff)

    monkeypatch.setattr(solver, "stencil_bands", spy)
    return weighted


@pytest.mark.parametrize("m_plus,m_minus,rebuilds", [(1.0, 1.0, 1), (2.0, 0.5, 4)])
def test_set_mobility_rebuilds_km_only_when_the_mobility_changes(
        quartic, monkeypatch, m_plus, m_minus, rebuilds):
    # with m+ = m- the mobility is not even evaluated after the first step
    weighted = _count_weighted_stencils(monkeypatch)
    evaluated = []
    real = solver.mobility_m
    monkeypatch.setattr(solver, "mobility_m", lambda *args: evaluated.append(1) or real(*args))
    p = make_params(quartic, m_plus=m_plus, m_minus=m_minus)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 16)
    stepper = Stepper(mesh, p, ac.SolverConfig())
    assert stepper.schur.S is None   # construction builds no Schur pattern
    phi = ac.init_field(mesh, "flat_front", {"q0": 0.5, "modes": [2], "amplitudes": [0.02]},
                        p.epsilon).values.copy()
    mu = stepper.initial_mu(phi)
    for n in range(1, 5):
        phi, mu, _ = stepper.step(phi, mu, n)
    assert len(weighted) == len(evaluated) == rebuilds


@pytest.mark.parametrize("dim,lengths", [(1, (1.0,)), (2, (1.0, 1.0))])
def test_set_mobility_twice_with_one_coefficient_gives_the_same_s(quartic, dim, lengths):
    p = make_params(quartic)
    mesh = ac.build_mesh(dim, lengths, 1 / 16)
    rng = np.random.default_rng(5)
    coeff, ddpsi = rng.uniform(0.5, 2.0, mesh.n_elements), rng.uniform(-2.0, 2.0, mesh.n_nodes)
    op = solver.SchurOperator(mesh, p)
    op.set_mobility(coeff)
    op.assemble(np.zeros(mesh.n_nodes), mesh.lumped)
    op.set_mobility(coeff.copy())
    S = op.assemble(ddpsi, mesh.lumped / 1e-3)
    fresh = solver.SchurOperator(mesh, p)
    fresh.set_mobility(coeff)
    assert np.array_equal(S.data, fresh.assemble(ddpsi, mesh.lumped / 1e-3).data)
    assert np.array_equal(op.Km.data, fresh.Km.data)


def test_schur_factor_is_single_precision(quartic, monkeypatch):
    dtypes = _spy_factor_dtypes(monkeypatch)
    stepper, phi, mu = _front_stepper(quartic, 1 / 32)
    phi, mu, report = stepper.step(phi, mu, 1)
    assert dtypes and set(dtypes) == {np.float32}
    assert phi.dtype == mu.dtype == np.float64
    assert report.histories[0][-1] < solver.NEWTON_TOL


def test_float32_stall_escalates_to_float64_for_good(quartic, monkeypatch):
    # at tau = 100 the condition number of S (~ beta eps tau / h^4) is beyond
    # float32: refinement against a fresh float32 factor stalls near 1e-5
    dtypes = _spy_factor_dtypes(monkeypatch)
    stepper, phi, mu = _front_stepper(quartic, 2.0 ** -6, tau=100.0)
    for n in range(1, 4):
        phi, mu, report = stepper.step(phi, mu, n)
        assert report.histories[0][-1] < solver.NEWTON_TOL
    first64 = dtypes.index(np.float64)
    assert first64 >= 1 and set(dtypes[:first64]) == {np.float32}
    assert set(dtypes[first64:]) == {np.float64}


def test_float32_factorization_failure_escalates_to_float64_for_good(quartic, monkeypatch):
    # SuperLU failing on the float32 twin is handled as a stall of its refinement is
    real, dtypes = solver.splu, []

    def fails_first_in_float32(A, **options):
        dtypes.append(A.dtype.type)
        if dtypes == [np.float32]:
            raise RuntimeError("Factor is exactly singular")
        return real(A, **options)

    monkeypatch.setattr(solver, "splu", fails_first_in_float32)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 8)
    op = solver.SchurOperator(mesh, make_params(quartic))
    op.set_mobility(np.ones(mesh.n_elements))
    rhs = np.ones(mesh.n_nodes)
    S = op.assemble(np.full(mesh.n_nodes, 2.0), mesh.lumped / 1e-3)
    x = op.solve(rhs)
    assert np.linalg.norm(rhs - S @ x) <= solver.NEWTON_TOL / 10
    assert (op.counts["factor_float32"], op.counts["factor_float64"]) == (1, 1)
    S = op.assemble(np.full(mesh.n_nodes, -1.0), mesh.lumped / 1e-3)
    op._lu = None   # force the next solve to factor
    x = op.solve(rhs)
    assert np.linalg.norm(rhs - S @ x) <= solver.NEWTON_TOL / 10
    assert dtypes == [np.float32, np.float64, np.float64]
    assert (op.counts["factor_float32"], op.counts["factor_float64"]) == (1, 2)


def test_step_builds_no_sparse_matrix_on_a_refactorization(quartic, monkeypatch):
    stepper, phi, mu = _front_stepper(quartic, 1 / 32)
    phi, mu, _ = stepper.step(phi, mu, 1)
    dtypes = _spy_factor_dtypes(monkeypatch)
    constructions = []
    cs_matrix = sparse._compressed._cs_matrix
    real_init = cs_matrix.__init__

    def counted(*args, **kwargs):
        constructions.append(1)
        return real_init(*args, **kwargs)

    monkeypatch.setattr(cs_matrix, "__init__", counted)
    for n in range(2, 5):
        stepper.schur._lu = None
        phi, mu, _ = stepper.step(phi, mu, n)
    # each forced factorization reads the float32 twin of S in place
    assert len(dtypes) >= 3 and set(dtypes) == {np.float32}
    assert constructions == []


# ---------------------------------------------------------------------------
# symmetry and dimensional consistency
# ---------------------------------------------------------------------------

def test_mirror_symmetry_resolved_front(quartic):
    # Even-mode perturbed front, constant mobility, well-resolved interface.
    # Exact mirror symmetry is limited by the corner lumped weights of the
    # one-diagonal split (h^2/3 vs h^2/6), a localized O(h^2) artifact; the
    # assembled operators themselves are exactly symmetric (see test below).
    eps = 1 / (16 * math.pi)
    p = make_params(quartic, epsilon=eps, s_plus=-1.0, s_minus=1.0,
                    rho_plus=1.0, rho_minus=1.0, l_coef=0.0)
    cfg = ac.SolverConfig()
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 128)
    phi = ac.init_field(mesh, "flat_front",
                        {"q0": 0.5, "modes": [2], "amplitudes": [0.02]},
                        eps).values.copy()
    stepper = Stepper(mesh, p, cfg)
    mu = stepper.initial_mu(phi)
    for n in range(3):
        phi, mu, _ = stepper.step(phi, mu, n)
    grid = mesh.grid_view(phi)
    assert np.max(np.abs(grid - grid[::-1, :])) < 1e-5


def _simulate_2d_physics():
    """simulate_2d.cfg's parameters: eps = 1/(4 pi), m+ = 2, m- = 1/2, r_c = 0.7."""
    cfg = ac.parse_config((Path(__file__).parent / "golden" / "simulate_2d.cfg").read_text())
    assert cfg.params.epsilon == 1 / (4 * math.pi)
    assert cfg.params.mobility == ac.MobilitySpec(2.0, 0.5)
    return cfg.params


def _run_20_steps(mesh, p, phi):
    stepper = Stepper(mesh, p, ac.SolverConfig(tau=1e-3))
    mu = stepper.initial_mu(phi)
    for n in range(1, 21):
        phi, mu, _ = stepper.step(phi, mu, n)
    return phi


def _equivariance_tolerance(mesh) -> float:
    """Two runs' gap at a node after 20 steps under the NEWTON_TOL/10 stopping rule.

    The last solve of a step meets ||rhs - S x|| <= NEWTON_TOL/10, and rhs - S x
    becomes r1, in which phi_i enters as w_i phi_i / tau; so a step fixes phi_i
    to within (tau / w_i) NEWTON_TOL/10, and each of two runs to 20 times that.
    """
    return 2.0 * 20 * (1e-3 / mesh.lumped.min()) * solver.NEWTON_TOL / 10.0


@pytest.mark.parametrize("lattice_map", [lambda grid: grid.T, lambda grid: grid[::-1, ::-1]],
                         ids=("transpose", "rotation180"))
def test_2d_run_commutes_with_the_lattice_symmetries(lattice_map):
    # the maps that keep every split diagonal; simulate_2d.cfg's physics (m+ != m-,
    # r_c = 0.7) on a random field
    p = _simulate_2d_physics()
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 32)
    phi0 = np.random.default_rng(5).uniform(-0.05, 0.05, mesh.n_nodes)

    def mapped(values):
        return lattice_map(mesh.grid_view(values)).ravel()

    gap = np.max(np.abs(mapped(_run_20_steps(mesh, p, phi0))
                        - _run_20_steps(mesh, p, mapped(phi0))))
    assert gap <= _equivariance_tolerance(mesh)


def test_1d_run_commutes_with_the_mirror():
    # x -> L - x maps the 1D mesh, with its end masses h/2, onto itself
    p = _simulate_2d_physics()
    mesh = ac.build_mesh(1, (1.0,), 1 / 64)
    phi0 = np.random.default_rng(5).uniform(-0.05, 0.05, mesh.n_nodes)
    gap = np.max(np.abs(_run_20_steps(mesh, p, phi0)[::-1]
                        - _run_20_steps(mesh, p, phi0[::-1])))
    assert gap <= _equivariance_tolerance(mesh)


def test_operator_mirror_equivariance():
    # stiffness assembly commutes with the transverse mirror exactly
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 16)
    K = ac.stiffness_matrix(mesh)
    rng = np.random.default_rng(0)
    n1, n2 = mesh.cells
    grid = rng.standard_normal((n2 + 1, n1 + 1))
    grid = 0.5 * (grid + grid[::-1, :])
    f = grid.ravel()
    lhs = mesh.grid_view(K @ f)
    rhs = mesh.grid_view(K @ grid[::-1, :].ravel())[::-1, :]
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_1d_2d_consistency(quartic):
    # the flat-front problem is genuinely one-dimensional; q_h traces agree
    # along interior tracking lines (boundary rows carry the corner artifact)
    eps = 1 / (16 * math.pi)
    p = make_params(quartic, epsilon=eps)
    cfg = ac.SolverConfig()
    traces = {}
    for dim in (1, 2):
        mesh = ac.build_mesh(dim, (1.0,) if dim == 1 else (1.0, 1.0), 1 / 128)
        phi = ac.init_field(mesh, "flat_front", {"q0": 0.3}, eps).values.copy()
        stepper = Stepper(mesh, p, cfg)
        mu = stepper.initial_mu(phi)
        trace = []
        line = 0.0 if dim == 1 else 0.5
        for n in range(1, 21):
            phi, mu, _ = stepper.step(phi, mu, n)
            trace.append(ac.track_interface(ac.NodalField(phi, mesh),
                                            line_x2=line, prev=0.3))
        traces[dim] = np.asarray(trace)
    assert np.max(np.abs(traces[1] - traces[2])) < 1e-8


# ---------------------------------------------------------------------------
# free energy
# ---------------------------------------------------------------------------

def test_free_energy_minimizer(quartic):
    p = make_params(quartic, epsilon=0.1, beta=1.0)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 8)
    fld = ac.init_field(mesh, "constant", {"value": 1.0}, 0.1)
    assert ac.free_energy(fld, p) == pytest.approx(0.0, abs=1e-15)


def test_free_energy_constant_zero_state(quartic):
    p = make_params(quartic, epsilon=0.1, beta=1.0)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 8)
    fld = ac.init_field(mesh, "constant", {"value": 0.0}, 0.1)
    assert ac.free_energy(fld, p) == pytest.approx(2.5, rel=1e-12)


def test_free_energy_front_approximates_surface_tension(quartic):
    eps = 1 / (16 * math.pi)
    p = make_params(quartic, epsilon=eps, beta=1.0)
    mesh = ac.build_mesh(1, (1.0,), 1 / 128)
    fld = ac.init_field(mesh, "flat_front", {"q0": 0.5}, eps)
    energy = ac.free_energy(fld, p)
    assert abs(energy - ac.GAMMA_QUARTIC) / ac.GAMMA_QUARTIC < 0.05


def test_free_energy_nonnegative_random(quartic):
    p = make_params(quartic, epsilon=0.05, beta=0.3)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 16)
    fld = ac.init_field(mesh, "random_spinodal", {"bound": 0.5, "seed": 9}, 0.05)
    assert ac.free_energy(fld, p) >= 0.0


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

def test_run_simulation_stationary_front(quartic):
    eps = 1 / (8 * math.pi)
    p = make_params(quartic, epsilon=eps, s_plus=-1.0, s_minus=1.0,
                    rho_plus=1.0, rho_minus=1.0, l_coef=0.0)
    record = ac.run_simulation(p, (1, (1.0,), 1 / 64), ("flat_front", {"q0": 0.5}),
                               ac.SolverConfig(), 0.05)
    assert np.all(np.isfinite(record.q_h))
    assert np.max(np.abs(record.q_h - 0.5)) < 3 * eps**2
    assert len(record.newton_iters) == 50
    assert record.state.step == 50


def test_run_record_keeps_the_solver_counts_1d(quartic):
    # in 1D every Newton iteration factors once and back-solves once
    record = ac.run_simulation(make_params(quartic), (1, (1.0,), 1 / 32),
                               ("flat_front", {"q0": 0.3}), ac.SolverConfig(), 0.01)
    counts = record.solver_counts
    assert counts["factor_float64"] == counts["backsolve"] == sum(record.newton_iters) > 0
    assert counts["factor_float32"] == 0


def test_run_simulation_rejects_bad_horizon(quartic):
    p = make_params(quartic)
    with pytest.raises(ac.ConfigurationError):
        ac.run_simulation(p, (1, (1.0,), 1 / 32), ("constant", {"value": 0.0}),
                          ac.SolverConfig(), 0.0505)


def test_run_simulation_takes_a_built_mesh_and_a_nodal_field(quartic):
    # the call form of the benchmark's simulation workloads
    p = make_params(quartic, m_plus=2.0, m_minus=0.5)
    spec = {"q0": 0.5, "modes": [2], "amplitudes": [0.02]}
    opts = ac.OutputOptions(stride=2, modes_lmax=3)
    by_spec = ac.run_simulation(p, (2, (1.0, 1.0), 1 / 32), ("flat_front", spec),
                                ac.SolverConfig(), 0.005, outputs=opts)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 32)
    field = ac.init_field(mesh, "flat_front", spec, p.epsilon)
    built = ac.run_simulation(p, mesh, field, ac.SolverConfig(), 0.005, outputs=opts)
    for name in ("times", "mass", "energy", "q_h", "mode_amps"):
        assert getattr(built, name).tobytes() == getattr(by_spec, name).tobytes(), name
    assert built.state.phi.values.tobytes() == by_spec.state.phi.values.tobytes()
    assert built.state.mu.values.tobytes() == by_spec.state.mu.values.tobytes()
    assert (built.newton_iters, built.max_abs_phi, built.solver_counts) == (
        by_spec.newton_iters, by_spec.max_abs_phi, by_spec.solver_counts)
    other = ac.build_mesh(2, (1.0, 1.0), 1 / 32)
    with pytest.raises(ac.ConfigurationError, match="initial field lives on a different mesh"):
        ac.run_simulation(p, other, field, ac.SolverConfig(), 0.005)


def test_run_simulation_determinism(quartic):
    p = make_params(quartic, epsilon=1 / (4 * math.pi))
    def go():
        return ac.run_simulation(
            p, (2, (1.0, 1.0), 1 / 32),
            ("flat_front", {"q0": 0.5, "n_random_modes": 5, "bound": 0.05, "seed": 11}),
            ac.SolverConfig(), 0.01)
    a, b = go(), go()
    assert np.array_equal(a.state.phi.values, b.state.phi.values)
    assert np.array_equal(a.mass, b.mass)


@pytest.fixture(scope="module")
def disk_run(quartic):
    """Runs a disk with mode extraction on: no row has a unique crossing."""
    def go(**options):
        cfg = ac.SolverConfig()
        return ac.run_simulation(make_params(quartic), (2, (1.0, 1.0), 1 / 32),
                                 ("disk", {"center": (0.5, 0.5), "r0": 0.25}), cfg,
                                 50 * cfg.tau,
                                 outputs=ac.OutputOptions(stride=1, modes_lmax=4, **options))
    return go


def test_mode_extraction_failure_records_nan_rows(disk_run):
    record = disk_run(track_interface=False)
    assert record.mode_amps.shape == (51, 5)
    assert np.all(np.isnan(record.mode_amps))
    assert record.warnings[0].startswith("mode extraction: rows without a unique")


def test_run_warns_once_per_kind(disk_run):
    # the disk shrinks, so the list of bad rows in the mode-extraction message changes
    record = disk_run()
    kinds = [message.partition(":")[0] for message in record.warnings]
    assert kinds == ["interface tracking", "mode extraction"]


def test_mode_extraction_programming_error_propagates(disk_run, monkeypatch):
    def broken(field, l_max):
        raise TypeError("broken measurement")

    monkeypatch.setattr("activech.analysis.mode_amplitudes", broken)
    with pytest.raises(TypeError, match="broken measurement"):
        disk_run()


def test_boundedness_flag_is_warning_not_error(quartic):
    assert PHI_BOUND_WARN == pytest.approx(1.1)
    # a healthy run stays bounded and flags nothing
    p = make_params(quartic, epsilon=1 / (4 * math.pi))
    record = ac.run_simulation(p, (1, (1.0,), 1 / 32), ("flat_front", {"q0": 0.3}),
                               ac.SolverConfig(), 0.02)
    assert record.max_abs_phi <= PHI_BOUND_WARN
    assert not record.warnings
