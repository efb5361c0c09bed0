"""Tests for the continuous model layer."""

import math

import numpy as np
import pytest
from scipy import integrate

import activech as ac
from activech import model

SQRT2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def quartic():
    return ac.DoubleWellPotential.quartic()


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def test_quartic_roots_and_curvature(quartic):
    assert ac.eval_potential(quartic, 1.0) == (0.0, 0.0, 2.0)
    assert ac.eval_potential(quartic, -1.0) == (0.0, 0.0, 2.0)


def test_quartic_at_origin(quartic):
    psi, dpsi, ddpsi = ac.eval_potential(quartic, 0.0)
    assert psi == pytest.approx(0.25, abs=0)
    assert dpsi == 0.0
    assert ddpsi == pytest.approx(-1.0, abs=0)


def test_potential_even_symmetry(quartic):
    r = np.linspace(-2.0, 2.0, 41)
    assert np.max(np.abs(quartic.psi(r) - quartic.psi(-r))) < 1e-12


def test_potential_nonnegative_and_critical_points(quartic):
    r = np.linspace(-1.5, 1.5, 301)
    assert np.all(quartic.psi(r) >= 0.0)
    for point in (-1.0, 0.0, 1.0):
        assert abs(float(quartic.dpsi(point))) < 1e-12


def test_dpsi_finite_difference_consistency(quartic):
    # centered differences of psi converge to dpsi at second order
    r = np.linspace(-1.2, 1.2, 17)
    errs = []
    for h in (1e-3, 5e-4):
        fd = (quartic.psi(r + h) - quartic.psi(r - h)) / (2 * h)
        errs.append(np.max(np.abs(fd - quartic.dpsi(r))))
    assert errs[0] < 5e-6
    # halving h shrinks the error by ~4
    assert errs[1] < 0.3 * errs[0]


def test_quartic_dpsi_matches_power_form(quartic):
    # r * r * r - r and r ** 3 - r differ only in rounding: at most 3 ulps of the terms
    r = np.random.default_rng(3).uniform(-3.0, 3.0, 1000)
    ulp = np.spacing(np.abs(r) ** 3) + np.spacing(np.abs(r))
    assert np.max(np.abs(quartic.dpsi(r) - (r ** 3 - r)) / ulp) <= 3.0
    assert quartic.dpsi([0.5, -2.0]).tolist() == [-0.375, -6.0]


def test_validate_potential_clean(quartic):
    assert ac.validate_potential(quartic) == []


def test_validate_potential_flags_bad_curvature():
    with pytest.raises(ac.ConfigurationError):
        ac.DoubleWellPotential(
            psi=lambda r: 0.25 * (1 - np.asarray(r) ** 2) ** 2,
            dpsi=lambda r: np.asarray(r) ** 3 - np.asarray(r),
            ddpsi=lambda r: 3.0 * np.asarray(r) ** 2 - 1.0,
            ddpsi_plus=0.0,
            ddpsi_minus=2.0,
        )


# ---------------------------------------------------------------------------
# interpolation functions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r_c", [1.0, 0.5, 0.25])
def test_interp_endpoint_conditions(quartic, r_c):
    assert ac.interp_G(1, r_c, r_c, quartic) == pytest.approx(1.0, abs=1e-14)
    assert ac.interp_G(1, -r_c, r_c, quartic) == pytest.approx(0.0, abs=1e-14)
    for k in (2, 3, 4):
        assert ac.interp_G(k, r_c, r_c, quartic) == pytest.approx(0.0, abs=1e-14)
        assert ac.interp_G(k, -r_c, r_c, quartic) == pytest.approx(0.0, abs=1e-14)


def test_g2_quartic_value(quartic):
    # quartic closed form: G2_hat(r) = -(1 - r^2)(r - 1)/4, so G2_hat(0) = 1/4
    assert ac.interp_G(2, 0.0, 1.0, quartic) == pytest.approx(0.25, abs=1e-14)


def test_g2_g3_slopes_at_crossover(quartic):
    h = 1e-7
    g2_slope = (ac.interp_G(2, -1.0 + h, 1.0, quartic) - ac.interp_G(2, -1.0, 1.0, quartic)) / h
    g3_slope = (ac.interp_G(3, 1.0, 1.0, quartic) - ac.interp_G(3, 1.0 - h, 1.0, quartic)) / h
    assert g2_slope == pytest.approx(1.0, abs=1e-3)
    assert g3_slope == pytest.approx(1.0, abs=1e-3)


def test_interp_domain_error(quartic):
    with pytest.raises(ValueError):
        ac.interp_G(1, 0.6, 0.5, quartic)


# ---------------------------------------------------------------------------
# reaction source
# ---------------------------------------------------------------------------

def test_source_pure_phase_values(quartic):
    spec = ac.ReactionSpec(s_plus=-1.0, s_minus=4.0, k_plus=2.0, k_minus=1.0, l_coef=0.5)
    assert ac.source_S(spec, quartic, 0.1, 1.0) == pytest.approx(-1.0, abs=1e-14)
    assert ac.source_S(spec, quartic, 0.1, -1.0) == pytest.approx(4.0, abs=1e-14)


def test_source_affine_branch_value(quartic):
    spec = ac.ReactionSpec(s_plus=-1.0, s_minus=4.0, k_plus=2.0, k_minus=1.0)
    # r >= r_c: S+ + (1/eps) * (-K+ (r - 1))
    assert ac.source_S(spec, quartic, 0.1, 1.5) == pytest.approx(-11.0, abs=1e-12)


@pytest.mark.parametrize("r_c", [1.0, 0.5])
def test_source_continuity_at_crossover(quartic, r_c):
    spec = ac.ReactionSpec(s_plus=-2.0, s_minus=3.0, k_plus=1.7, k_minus=0.4,
                           l_coef=-0.8, r_c=r_c)
    for r0 in (r_c, -r_c):
        jumps = []
        for h in (1e-3, 1e-5, 1e-7):
            jumps.append(abs(ac.source_S(spec, quartic, 1.0, r0 - h)
                             - ac.source_S(spec, quartic, 1.0, r0 + h)))
        assert jumps[-1] < 1e-6
        assert jumps[0] > jumps[2] or jumps[0] < 1e-12


@pytest.mark.parametrize("r_c", [1.0, 0.5])
def test_source_c1_matching_at_crossover(quartic, r_c):
    spec = ac.ReactionSpec(s_plus=-2.0, s_minus=3.0, k_plus=1.7, k_minus=0.4,
                           l_coef=-0.8, r_c=r_c)
    h = 1e-6
    for r0 in (r_c, -r_c):
        inner = (ac.source_S2(spec, quartic, r0 - h * np.sign(r0))
                 - ac.source_S2(spec, quartic, r0)) / (-h * np.sign(r0))
        outer = (ac.source_S2(spec, quartic, r0 + h * np.sign(r0))
                 - ac.source_S2(spec, quartic, r0)) / (h * np.sign(r0))
        assert inner == pytest.approx(outer, abs=2e-5)


def test_source_exactly_affine_outside(quartic):
    spec = ac.ReactionSpec(s_plus=-2.0, s_minus=3.0, k_plus=1.7, k_minus=0.4, r_c=0.5)
    eps = 0.2
    for side, k in ((1.0, spec.k_plus), (-1.0, spec.k_minus)):
        r = side * np.array([0.5, 0.8, 1.3, 2.6])
        vals = ac.source_S(spec, quartic, eps, r)
        slope = np.diff(vals) / np.diff(r)
        assert np.max(np.abs(slope + k / eps)) < 1e-10


def test_source_vectorized_matches_scalar(quartic):
    spec = ac.ReactionSpec(s_plus=-1.0, s_minus=4.0, k_plus=0.2, k_minus=0.02,
                           l_coef=-1.0)
    r = np.linspace(-1.4, 1.4, 57)
    vec = ac.source_S(spec, quartic, 0.05, r)
    scal = np.array([ac.source_S(spec, quartic, 0.05, float(x)) for x in r])
    assert np.max(np.abs(vec - scal)) < 1e-13


@pytest.mark.parametrize("r_c", [1.0, 0.7])
@pytest.mark.parametrize("l_coef", [0.0, 0.5])
def test_source_is_s1_plus_s2_over_eps_bit_for_bit(quartic, r_c, l_coef):
    spec = ac.ReactionSpec(s_plus=-1.0, s_minus=4.0, k_plus=0.2, k_minus=0.02,
                           l_coef=l_coef, r_c=r_c)
    eps = 1 / (8 * math.pi)
    r = np.concatenate([np.linspace(-1.4, 1.4, 57), [r_c, -r_c, 1.0, -1.0]])
    s1, s2 = ac.source_S1(spec, quartic, r), ac.source_S2(spec, quartic, r)
    assert np.array_equal(ac.source_S(spec, quartic, eps, r), s1 + s2 / eps)
    # the interior branches against G_k, each evaluated on its own
    g = {k: model._g_scaled(k, r, r_c, quartic) for k in (1, 2, 3, 4)}
    inside = np.abs(r) < r_c
    s1_ref = spec.s_minus + g[1] * (spec.s_plus - spec.s_minus)
    s2_ref = (-spec.k_minus * g[2] - spec.k_plus * g[3] + spec.l_coef * g[4]
              - spec.k_plus * (r_c - 1.0) * g[1] - spec.k_minus * (1.0 - r_c) * (1.0 - g[1]))
    assert np.array_equal(s1[inside], s1_ref[inside])
    assert np.array_equal(s2[inside], s2_ref[inside])
    for x in (r_c, -r_c, 1.0, -1.0, 0.3):
        got = ac.source_S(spec, quartic, eps, x)
        assert type(got) is float
        assert got == ac.source_S1(spec, quartic, x) + ac.source_S2(spec, quartic, x) / eps


@pytest.mark.parametrize("field", ["s_plus", "s_minus", "k_plus", "k_minus", "l_coef", "r_c"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_reaction_spec_rejects_nonfinite(field, value):
    fields = dict(s_plus=-1.0, s_minus=1.0, k_plus=0.2, k_minus=0.2, l_coef=0.0, r_c=1.0)
    with pytest.raises(ac.ConfigurationError, match=field):
        ac.ReactionSpec(**{**fields, field: value})


def test_reaction_spec_rejects_bad_rc():
    with pytest.raises(ac.ConfigurationError):
        ac.ReactionSpec(s_plus=1.0, s_minus=1.0, k_plus=1.0, k_minus=1.0, r_c=0.0)
    with pytest.raises(ac.ConfigurationError):
        ac.ReactionSpec(s_plus=1.0, s_minus=1.0, k_plus=1.0, k_minus=1.0, r_c=1.2)


# ---------------------------------------------------------------------------
# mobility
# ---------------------------------------------------------------------------

def test_mobility_endpoints_midpoint_clamp():
    spec = ac.MobilitySpec(m_plus=0.5, m_minus=0.2)
    assert ac.mobility_m(spec, 1.0) == pytest.approx(0.5, abs=0)
    assert ac.mobility_m(spec, -1.0) == pytest.approx(0.2, abs=0)
    assert ac.mobility_m(spec, 0.0) == pytest.approx(0.35, abs=1e-15)
    assert ac.mobility_m(spec, 3.0) == 0.5
    assert ac.mobility_m(spec, -2.5) == 0.2


@pytest.mark.parametrize("field", ["m_plus", "m_minus"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_mobility_spec_rejects_nonfinite(field, value):
    with pytest.raises(ac.ConfigurationError, match=field):
        ac.MobilitySpec(**{"m_plus": 1.0, "m_minus": 1.0, field: value})


def test_mobility_bounds_random():
    rng = np.random.default_rng(7)
    spec = ac.MobilitySpec(m_plus=1.3, m_minus=0.4)
    r = rng.uniform(-3, 3, size=200)
    m = ac.mobility_m(spec, r)
    assert np.all(m >= 0.4 - 1e-15) and np.all(m <= 1.3 + 1e-15)


# ---------------------------------------------------------------------------
# sharp-interface constants
# ---------------------------------------------------------------------------

def _params(quartic, *, beta=1.0, s_plus=-1.0, s_minus=1.0, k_plus=2.0, k_minus=2.0,
            l_coef=0.0, r_c=1.0, m_plus=1.0, m_minus=1.0, epsilon=0.05):
    return ac.PhaseFieldParams(
        beta=beta, epsilon=epsilon, potential=quartic,
        reaction=ac.ReactionSpec(s_plus, s_minus, k_plus, k_minus, l_coef, r_c),
        mobility=ac.MobilitySpec(m_plus, m_minus),
    )


def test_derive_sharp_quartic_rho(quartic):
    sharp = ac.derive_sharp_params(_params(quartic, beta=1.0, k_plus=2.0, k_minus=2.0), 1.0, 1.0)
    assert sharp.rho_plus == pytest.approx(1.0, abs=1e-15)
    assert sharp.rho_minus == pytest.approx(1.0, abs=1e-15)
    assert sharp.gamma == pytest.approx(ac.GAMMA_QUARTIC, abs=0)


def test_derive_sharp_si_values(quartic):
    sharp = ac.derive_sharp_params(_params(quartic, k_plus=2.0, k_minus=2.0, l_coef=0.0), 1.0, 1.0)
    assert sharp.s_interface == pytest.approx(0.0, abs=1e-15)
    sharp = ac.derive_sharp_params(_params(quartic, k_plus=2.0, k_minus=1.0, l_coef=0.0), 1.0, 1.0)
    assert sharp.s_interface == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_derive_sharp_zero_rho_flagged(quartic):
    sharp = ac.derive_sharp_params(_params(quartic, k_plus=0.0), 1.0, 1.0)
    assert sharp.rho_plus == 0.0
    assert sharp.d_plus is None
    assert sharp.lambda_plus is None
    with pytest.raises(ac.ConfigurationError):
        sharp.require_planar()


def test_rho_from_rates_inverts_relaxation_rates(quartic):
    k_plus, k_minus = model.relaxation_rates(0.1, quartic, 1.5, 0.25)
    assert k_plus == pytest.approx(0.3, rel=1e-15) and k_minus == pytest.approx(0.05, rel=1e-15)
    rho = model.rho_from_rates(0.1, quartic, k_plus, k_minus)
    assert rho == pytest.approx((1.5, 0.25), rel=1e-15)


@pytest.mark.parametrize("field, value", [("beta", math.nan), ("epsilon", math.inf)])
def test_params_reject_nonfinite(quartic, field, value):
    with pytest.raises(ac.ConfigurationError, match=field):
        _params(quartic, **{field: value})


# ---------------------------------------------------------------------------
# gamma quadrature
# ---------------------------------------------------------------------------

def test_gamma_quadrature_quartic(quartic):
    assert abs(ac.gamma_quadrature(quartic) - 2 * SQRT2 / 3) < 1e-8


def test_gamma_quadrature_scaling(quartic):
    scaled = ac.DoubleWellPotential(
        psi=lambda r: 4.0 * quartic.psi(r),
        dpsi=lambda r: 4.0 * quartic.dpsi(r),
        ddpsi=lambda r: 4.0 * quartic.ddpsi(r),
        ddpsi_plus=8.0, ddpsi_minus=8.0,
    )
    assert ac.gamma_quadrature(scaled) == pytest.approx(2 * ac.gamma_quadrature(quartic), rel=1e-10)


def test_gamma_quadrature_vs_midpoint_rule(quartic):
    n = 10**6
    s = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    brute = np.sum(np.sqrt(2.0 * quartic.psi(s))) * (2.0 / n)
    assert abs(ac.gamma_quadrature(quartic) - brute) < 1e-7


# ---------------------------------------------------------------------------
# interface profile
# ---------------------------------------------------------------------------

def test_profile_center_and_tails(quartic):
    assert ac.profile_Phi0(quartic, 0.0) == 0.0
    assert abs(ac.profile_Phi0(quartic, 8.0) - 1.0) < 1e-4
    assert abs(ac.profile_Phi0(quartic, -8.0) + 1.0) < 1e-4


def test_profile_ode_residual(quartic):
    # closed-form second derivative of tanh(z/sqrt(2))
    z = np.linspace(-6, 6, 101)
    phi = ac.profile_Phi0(quartic, z)
    phi_zz = -np.tanh(z / SQRT2) / np.cosh(z / SQRT2) ** 2
    assert np.max(np.abs(phi_zz - quartic.dpsi(phi))) < 1e-10


def test_profile_equipartition(quartic):
    z = np.linspace(-7, 7, 201)
    phi = ac.profile_Phi0(quartic, z)
    dphi = (1.0 / SQRT2) / np.cosh(z / SQRT2) ** 2
    assert np.max(np.abs(0.5 * dphi**2 - quartic.psi(phi))) < 1e-9


def test_profile_odd(quartic):
    z = np.linspace(0.0, 5.0, 23)
    assert np.max(np.abs(ac.profile_Phi0(quartic, -z) + ac.profile_Phi0(quartic, z))) < 1e-14


def test_profile_custom_potential_matches_closed_form(quartic):
    # same well shape, driven through the generic ODE path
    custom = ac.DoubleWellPotential(
        psi=quartic.psi, dpsi=quartic.dpsi, ddpsi=quartic.ddpsi,
        ddpsi_plus=2.0, ddpsi_minus=2.0, kind="custom",
    )
    z = np.linspace(-4, 4, 17)
    assert np.max(np.abs(ac.profile_Phi0(custom, z) - np.tanh(z / SQRT2))) < 1e-6


# ---------------------------------------------------------------------------
# interfacial reaction quadrature
# ---------------------------------------------------------------------------

def test_si_quadrature_matches_closed_form_random(quartic):
    rng = np.random.default_rng(42)
    for _ in range(100):
        k_plus, k_minus, l_coef = rng.uniform(-10, 10, size=3)
        spec = ac.ReactionSpec(s_plus=0.0, s_minus=0.0, k_plus=k_plus,
                               k_minus=k_minus, l_coef=l_coef)
        closed = (SQRT2 / 2) * (k_plus - k_minus) + (2 * SQRT2 / 3) * l_coef
        assert abs(ac.si_quadrature(spec, quartic) - closed) < 1e-6


def test_si_quadrature_zero_reaction(quartic):
    spec = ac.ReactionSpec(s_plus=1.0, s_minus=1.0, k_plus=0.0, k_minus=0.0, l_coef=0.0)
    assert ac.si_quadrature(spec, quartic) == pytest.approx(0.0, abs=1e-12)


def test_si_quadrature_small_rc_antisymmetric(quartic):
    spec = ac.ReactionSpec(s_plus=1.0, s_minus=1.0, k_plus=1.0, k_minus=1.0,
                           l_coef=0.0, r_c=0.5)
    assert abs(ac.si_quadrature(spec, quartic)) < 1e-8


def _si_adaptive(spec, pot):
    """Adaptive scalar quadrature with the kinks as break points: the oracle."""
    z_c = SQRT2 * math.atanh(spec.r_c)
    val, _ = integrate.quad(
        lambda z: float(ac.source_S2(spec, pot, ac.profile_Phi0(pot, z))),
        -model._PROFILE_Z_MAX, model._PROFILE_Z_MAX,
        epsabs=1e-13, epsrel=1e-13, limit=400, points=[-z_c, z_c],
    )
    return val


@pytest.mark.parametrize("r_c", [0.5, 0.75, 0.9])
@pytest.mark.parametrize("k_plus, k_minus, l_coef", [(1.7, 0.4, -0.8), (-3.0, 5.0, 2.5)])
def test_si_quadrature_matches_adaptive_oracle(quartic, r_c, k_plus, k_minus, l_coef):
    spec = ac.ReactionSpec(s_plus=0.0, s_minus=0.0, k_plus=k_plus, k_minus=k_minus,
                           l_coef=l_coef, r_c=r_c)
    assert abs(ac.si_quadrature(spec, quartic) - _si_adaptive(spec, quartic)) < 1e-12


@pytest.mark.parametrize("r_c", [1.0, 0.5])
def test_si_quadrature_custom_potential_keeps_kinks(quartic, r_c):
    # the quartic's callables through the generic profile and kink search
    custom = ac.DoubleWellPotential(
        psi=quartic.psi, dpsi=quartic.dpsi, ddpsi=quartic.ddpsi,
        ddpsi_plus=2.0, ddpsi_minus=2.0, kind="custom",
    )
    spec = ac.ReactionSpec(s_plus=0.0, s_minus=0.0, k_plus=1.7, k_minus=0.4,
                           l_coef=-0.8, r_c=r_c)
    assert abs(ac.si_quadrature(spec, custom) - ac.si_quadrature(spec, quartic)) < 1e-9


def test_si_quadrature_evaluates_source_once(quartic, monkeypatch):
    calls = []

    def counting_source_S2(spec, pot, r):
        calls.append(np.size(r))
        return ac.source_S2(spec, pot, r)

    monkeypatch.setattr(model, "source_S2", counting_source_S2)
    spec = ac.ReactionSpec(s_plus=0.0, s_minus=0.0, k_plus=1.7, k_minus=0.4, r_c=0.5)
    ac.si_quadrature(spec, quartic)
    assert len(calls) <= 1


def test_si_quadrature_custom_potential_solves_profile_once(quartic, monkeypatch):
    # the kink search and the quadrature nodes share one profile solve
    calls = []
    solve_ivp = integrate.solve_ivp

    def counting_solve_ivp(*args, **kwargs):
        calls.append(args[1])
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(model.integrate, "solve_ivp", counting_solve_ivp)
    custom = ac.DoubleWellPotential(
        psi=quartic.psi, dpsi=quartic.dpsi, ddpsi=quartic.ddpsi,
        ddpsi_plus=2.0, ddpsi_minus=2.0, kind="custom",
    )
    spec = ac.ReactionSpec(s_plus=0.0, s_minus=0.0, k_plus=1.7, k_minus=0.4,
                           l_coef=-0.8, r_c=0.5)
    ac.si_quadrature(spec, custom)
    assert calls == [(0.0, model._PROFILE_Z_MAX)]


def test_si_closed_form_requires_rc_one(quartic):
    spec = ac.ReactionSpec(s_plus=0.0, s_minus=0.0, k_plus=1.0, k_minus=0.0, r_c=0.5)
    with pytest.raises(ac.ConfigurationError):
        ac.si_closed_form(spec, quartic)


# ---------------------------------------------------------------------------
# nondimensionalization
# ---------------------------------------------------------------------------

def test_nondim_basic_example(quartic):
    p = _params(quartic, beta=0.1, s_minus=1.0, k_plus=0.2, k_minus=0.2)
    sharp = ac.derive_sharp_params(p, 1.0, 1.0)  # rho = K/(2 beta) = 1
    rep = ac.nondimensionalize(p, sharp)
    assert rep.c_l == pytest.approx(0.1, abs=1e-15)
    assert rep.x_tilde == pytest.approx(1.0, abs=1e-15)
    assert rep.beta_star == pytest.approx(0.1, abs=1e-15)
    assert rep.t_tilde == pytest.approx(1.0, abs=0)


def test_nondim_unit_ratios(quartic):
    p = _params(quartic, s_plus=2.0, s_minus=2.0, k_plus=1.0, k_minus=1.0)
    sharp = ac.derive_sharp_params(p, 1.0, 1.0)
    rep = ac.nondimensionalize(p, sharp)
    assert rep.m_star == 1.0 and rep.s_star == 1.0 and rep.rho_star == 1.0


def test_nondim_identity_random(quartic):
    rng = np.random.default_rng(3)
    for _ in range(50):
        beta = rng.uniform(0.01, 2.0)
        p = _params(quartic, beta=beta,
                    s_plus=rng.uniform(-5, -0.1), s_minus=rng.uniform(0.1, 5),
                    k_plus=rng.uniform(0.1, 4), k_minus=rng.uniform(0.1, 4),
                    m_plus=rng.uniform(0.1, 3), m_minus=rng.uniform(0.1, 3))
        sharp = ac.derive_sharp_params(p, 1.0, 1.0)
        rep = ac.nondimensionalize(p, sharp)
        assert abs(rep.beta_star - rep.c_l / rep.x_tilde) < 1e-14


def test_nondim_precondition(quartic):
    p = _params(quartic, s_minus=-1.0)
    sharp = ac.derive_sharp_params(p, 1.0, 1.0)
    with pytest.raises(ac.ConfigurationError):
        ac.nondimensionalize(p, sharp)
