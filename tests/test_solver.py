"""Tests for initial data, the time-stepping scheme and the run driver."""

import math
import warnings

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
    reaction = ac.ReactionSpec(
        s_plus=s_plus, s_minus=s_minus,
        k_plus=beta * quartic.ddpsi_plus * rho_plus,
        k_minus=beta * quartic.ddpsi_minus * rho_minus,
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
        s_c = ac.source_S(p.reaction, quartic, p.epsilon, c)
        phi_exact = c + cfg.tau * s_c
        mu_exact = (p.beta / p.epsilon) * float(quartic.dpsi(phi_exact))
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
    res = report.residuals
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
    op.assemble(np.zeros(mesh.n_nodes), 1.0)   # values are rewritten, not accumulated
    Km = op.set_mobility(coeff)
    S = op.assemble(ddpsi, tau)
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

def _singular_schur_solve(quartic, monkeypatch, dim, lengths):
    """Factor dtypes of a solve with S = 0, which must raise a NumericalError."""
    dtypes = _spy_factor_dtypes(monkeypatch)
    mesh = ac.build_mesh(dim, lengths, 1 / 8)
    schur = solver.SchurOperator(mesh, make_params(quartic))
    schur.set_mobility(np.ones(mesh.n_elements))
    schur.assemble(np.full(mesh.n_nodes, 2.0), 1e-3)
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


def test_nan_right_hand_side_raises_numerical_error(quartic):
    # a NaN residual is a stall, never a converged solve
    mesh = ac.build_mesh(1, (1.0,), 1 / 8)
    stepper = Stepper(mesh, make_params(quartic), ac.SolverConfig())
    stepper.schur.set_mobility(np.ones(mesh.n_elements))
    stepper.schur.assemble(np.full(mesh.n_nodes, 2.0), 1e-3)
    rhs = np.ones(mesh.n_nodes)
    rhs[3] = np.nan
    with pytest.raises(ac.NumericalError, match="relative residual nan"):
        stepper.schur.solve(rhs)


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
    assert report.residuals[-1] < solver.NEWTON_TOL


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


def test_1d_factors_fresh_in_float64_on_every_newton_iteration(quartic, monkeypatch):
    solves = []
    dtypes = _spy_factor_dtypes(monkeypatch, solves)
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
    assert len(dtypes) == len(solves) == iterations
    assert set(dtypes) == set(solves) == {np.float64}


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
    weighted = _count_weighted_stencils(monkeypatch)
    p = make_params(quartic, m_plus=m_plus, m_minus=m_minus)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 16)
    stepper = Stepper(mesh, p, ac.SolverConfig())
    phi = ac.init_field(mesh, "flat_front", {"q0": 0.5, "modes": [2], "amplitudes": [0.02]},
                        p.epsilon).values.copy()
    mu = stepper.initial_mu(phi)
    for n in range(1, 5):
        phi, mu, _ = stepper.step(phi, mu, n)
    assert len(weighted) == rebuilds


@pytest.mark.parametrize("dim,lengths", [(1, (1.0,)), (2, (1.0, 1.0))])
def test_set_mobility_with_unchanged_coefficient_keeps_s(quartic, monkeypatch, dim, lengths):
    p = make_params(quartic)
    mesh = ac.build_mesh(dim, lengths, 1 / 16)
    rng = np.random.default_rng(5)
    coeff, ddpsi = rng.uniform(0.5, 2.0, mesh.n_elements), rng.uniform(-2.0, 2.0, mesh.n_nodes)
    weighted = _count_weighted_stencils(monkeypatch)
    op = solver.SchurOperator(mesh, p)
    op.set_mobility(coeff)
    op.assemble(np.zeros(mesh.n_nodes), 1.0)
    op.set_mobility(coeff.copy())
    S = op.assemble(ddpsi, 1e-3)
    assert len(weighted) == 1
    fresh = solver.SchurOperator(mesh, p)
    fresh.set_mobility(coeff)
    assert np.array_equal(S.data, fresh.assemble(ddpsi, 1e-3).data)
    assert np.array_equal(op.Km.data, fresh.Km.data)


def test_schur_factor_is_single_precision(quartic, monkeypatch):
    dtypes = _spy_factor_dtypes(monkeypatch)
    stepper, phi, mu = _front_stepper(quartic, 1 / 32)
    phi, mu, report = stepper.step(phi, mu, 1)
    assert dtypes and set(dtypes) == {np.float32}
    assert phi.dtype == mu.dtype == np.float64
    assert report.residuals[-1] < solver.NEWTON_TOL


def test_float32_stall_escalates_to_float64_for_good(quartic, monkeypatch):
    # at tau = 100 the condition number of S (~ beta eps tau / h^4) is beyond
    # float32: refinement against a fresh float32 factor stalls near 1e-5
    dtypes = _spy_factor_dtypes(monkeypatch)
    stepper, phi, mu = _front_stepper(quartic, 2.0 ** -6, tau=100.0)
    for n in range(1, 4):
        phi, mu, report = stepper.step(phi, mu, n)
        assert report.residuals[-1] < solver.NEWTON_TOL
    first64 = dtypes.index(np.float64)
    assert first64 >= 1 and set(dtypes[:first64]) == {np.float32}
    assert set(dtypes[first64:]) == {np.float64}


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


def test_operator_mirror_equivariance():
    # stiffness assembly commutes with the transverse mirror exactly
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 16)
    K = ac.stiffness_matrix(mesh)
    rng = np.random.default_rng(0)
    grid = rng.standard_normal(mesh.node_shape[::-1])
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
            trace.append(ac.track_interface(ac.NodalField(phi, mesh), mesh,
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
    assert ac.free_energy(fld, mesh, p) == pytest.approx(0.0, abs=1e-15)


def test_free_energy_constant_zero_state(quartic):
    p = make_params(quartic, epsilon=0.1, beta=1.0)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 8)
    fld = ac.init_field(mesh, "constant", {"value": 0.0}, 0.1)
    assert ac.free_energy(fld, mesh, p) == pytest.approx(2.5, rel=1e-12)


def test_free_energy_front_approximates_surface_tension(quartic):
    eps = 1 / (16 * math.pi)
    p = make_params(quartic, epsilon=eps, beta=1.0)
    mesh = ac.build_mesh(1, (1.0,), 1 / 128)
    fld = ac.init_field(mesh, "flat_front", {"q0": 0.5}, eps)
    energy = ac.free_energy(fld, mesh, p)
    assert abs(energy - ac.GAMMA_QUARTIC) / ac.GAMMA_QUARTIC < 0.05


def test_free_energy_nonnegative_random(quartic):
    p = make_params(quartic, epsilon=0.05, beta=0.3)
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 16)
    fld = ac.init_field(mesh, "random_spinodal", {"bound": 0.5, "seed": 9}, 0.05)
    assert ac.free_energy(fld, mesh, p) >= 0.0


def test_free_energy_size_mismatch(quartic):
    p = make_params(quartic)
    mesh = ac.build_mesh(1, (1.0,), 0.25)
    other = ac.build_mesh(1, (1.0,), 0.125)
    fld = ac.init_field(other, "constant", {"value": 0.0}, 0.1)
    with pytest.raises(ac.ConfigurationError):
        ac.free_energy(fld, mesh, p)


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


def test_run_simulation_rejects_bad_horizon(quartic):
    p = make_params(quartic)
    with pytest.raises(ac.ConfigurationError):
        ac.run_simulation(p, (1, (1.0,), 1 / 32), ("constant", {"value": 0.0}),
                          ac.SolverConfig(), 0.0505)


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


def test_boundedness_flag_is_warning_not_error(quartic):
    assert PHI_BOUND_WARN == pytest.approx(1.1)
    # a healthy run stays bounded and flags nothing
    p = make_params(quartic, epsilon=1 / (4 * math.pi))
    record = ac.run_simulation(p, (1, (1.0,), 1 / 32), ("flat_front", {"q0": 0.3}),
                               ac.SolverConfig(), 0.02)
    assert record.max_abs_phi <= PHI_BOUND_WARN
    assert not record.warnings
