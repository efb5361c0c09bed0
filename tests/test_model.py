"""Tests for the continuous model layer."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

import activech as ac
from activech import model

SQRT2 = math.sqrt(2.0)


def test_import_loads_no_scipy_integrate_or_optimize():
    # the model is closed-form: importing the package must not pull in these subpackages
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(ac.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, activech; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.integrate', 'scipy.optimize')))[:3])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.strip()
    assert out == "[]"


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def test_quartic_roots_and_curvature():
    for r in (1.0, -1.0):
        assert (ac.psi(r), ac.dpsi(r), ac.ddpsi(r)) == (0.0, 0.0, 2.0)


def test_quartic_at_origin():
    psi, dpsi, ddpsi = ac.psi(0.0), ac.dpsi(0.0), ac.ddpsi(0.0)
    assert psi == pytest.approx(0.25, abs=0)
    assert dpsi == 0.0
    assert ddpsi == pytest.approx(-1.0, abs=0)


def test_potential_even_symmetry():
    r = np.linspace(-2.0, 2.0, 41)
    assert np.max(np.abs(ac.psi(r) - ac.psi(-r))) < 1e-12


def test_potential_nonnegative_and_critical_points():
    r = np.linspace(-1.5, 1.5, 301)
    assert np.all(ac.psi(r) >= 0.0)
    for point in (-1.0, 0.0, 1.0):
        assert abs(float(ac.dpsi(point))) < 1e-12


def test_dpsi_finite_difference_consistency():
    # centered differences of psi converge to dpsi at second order
    r = np.linspace(-1.2, 1.2, 17)
    errs = []
    for h in (1e-3, 5e-4):
        fd = (ac.psi(r + h) - ac.psi(r - h)) / (2 * h)
        errs.append(np.max(np.abs(fd - ac.dpsi(r))))
    assert errs[0] < 5e-6
    # halving h shrinks the error by ~4
    assert errs[1] < 0.3 * errs[0]


def test_quartic_dpsi_matches_power_form():
    # r * r * r - r and r ** 3 - r differ only in rounding: at most 3 ulps of the terms
    r = np.random.default_rng(3).uniform(-3.0, 3.0, 1000)
    ulp = np.spacing(np.abs(r) ** 3) + np.spacing(np.abs(r))
    assert np.max(np.abs(ac.dpsi(r) - (r ** 3 - r)) / ulp) <= 3.0
    assert ac.dpsi([0.5, -2.0]).tolist() == [-0.375, -6.0]


# ---------------------------------------------------------------------------
# interpolation functions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r_c", [1.0, 0.5, 0.25])
def test_interp_endpoint_conditions(r_c):
    assert model._g_scaled(1, r_c, r_c) == pytest.approx(1.0, abs=1e-14)
    assert model._g_scaled(1, -r_c, r_c) == pytest.approx(0.0, abs=1e-14)
    for k in (2, 3, 4):
        assert model._g_scaled(k, r_c, r_c) == pytest.approx(0.0, abs=1e-14)
        assert model._g_scaled(k, -r_c, r_c) == pytest.approx(0.0, abs=1e-14)


def test_g2_quartic_value():
    # quartic closed form: G2_hat(r) = -(1 - r^2)(r - 1)/4, so G2_hat(0) = 1/4
    assert model._g_scaled(2, 0.0, 1.0) == pytest.approx(0.25, abs=1e-14)


def test_g2_g3_slopes_at_crossover():
    h = 1e-7
    g2_slope = (model._g_scaled(2, -1.0 + h, 1.0) - model._g_scaled(2, -1.0, 1.0)) / h
    g3_slope = (model._g_scaled(3, 1.0, 1.0) - model._g_scaled(3, 1.0 - h, 1.0)) / h
    assert g2_slope == pytest.approx(1.0, abs=1e-3)
    assert g3_slope == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# reaction source
# ---------------------------------------------------------------------------

def test_source_pure_phase_values():
    spec = ac.ReactionSpec(s_plus=-1.0, s_minus=4.0, k_plus=2.0, k_minus=1.0, l_coef=0.5)
    assert ac.source_S(spec, 0.1, 1.0) == pytest.approx(-1.0, abs=1e-14)
    assert ac.source_S(spec, 0.1, -1.0) == pytest.approx(4.0, abs=1e-14)


def test_source_affine_branch_value():
    spec = ac.ReactionSpec(s_plus=-1.0, s_minus=4.0, k_plus=2.0, k_minus=1.0)
    # r >= r_c: S+ + (1/eps) * (-K+ (r - 1))
    assert ac.source_S(spec, 0.1, 1.5) == pytest.approx(-11.0, abs=1e-12)


@pytest.mark.parametrize("r_c", [1.0, 0.5])
def test_source_continuity_at_crossover(r_c):
    spec = ac.ReactionSpec(s_plus=-2.0, s_minus=3.0, k_plus=1.7, k_minus=0.4,
                           l_coef=-0.8, r_c=r_c)
    for r0 in (r_c, -r_c):
        jumps = []
        for h in (1e-3, 1e-5, 1e-7):
            jumps.append(abs(ac.source_S(spec, 1.0, r0 - h)
                             - ac.source_S(spec, 1.0, r0 + h)))
        assert jumps[-1] < 1e-6
        assert jumps[0] > jumps[2] or jumps[0] < 1e-12


@pytest.mark.parametrize("r_c", [1.0, 0.5])
def test_source_c1_matching_at_crossover(r_c):
    spec = ac.ReactionSpec(s_plus=-2.0, s_minus=3.0, k_plus=1.7, k_minus=0.4,
                           l_coef=-0.8, r_c=r_c)
    h = 1e-6
    for r0 in (r_c, -r_c):
        inner = (ac.source_S2(spec, r0 - h * np.sign(r0))
                 - ac.source_S2(spec, r0)) / (-h * np.sign(r0))
        outer = (ac.source_S2(spec, r0 + h * np.sign(r0))
                 - ac.source_S2(spec, r0)) / (h * np.sign(r0))
        assert inner == pytest.approx(outer, abs=2e-5)


def test_source_exactly_affine_outside():
    spec = ac.ReactionSpec(s_plus=-2.0, s_minus=3.0, k_plus=1.7, k_minus=0.4, r_c=0.5)
    eps = 0.2
    for side, k in ((1.0, spec.k_plus), (-1.0, spec.k_minus)):
        r = side * np.array([0.5, 0.8, 1.3, 2.6])
        vals = ac.source_S(spec, eps, r)
        slope = np.diff(vals) / np.diff(r)
        assert np.max(np.abs(slope + k / eps)) < 1e-10


@pytest.mark.parametrize("r_c", [1.0, 0.7])
def test_source_clamp_matches_np_clip_bit_for_bit(r_c):
    spec = ac.ReactionSpec(s_plus=-1.0, s_minus=4.0, k_plus=0.2, k_minus=0.02,
                           l_coef=0.5, r_c=r_c)
    r = np.concatenate([[math.nan, math.inf, -math.inf, 0.0, -0.0, r_c, -r_c, 1.5, -1.5],
                        np.random.default_rng(3).uniform(-1.5, 1.5, 1000)])
    # _source_branches written out with np.clip
    s = np.clip(r / r_c, -1.0, 1.0)
    g1, (g4, root) = model._g1_hat(s), model._g4_hat(s)
    s2_hat = (-spec.k_minus * (r_c * model._g2_hat(s, root))
              - spec.k_plus * (-r_c * model._g2_hat(-s, root))
              + spec.l_coef * g4 - spec.k_plus * (r_c - 1.0) * g1
              - spec.k_minus * (1.0 - r_c) * (1.0 - g1))
    above, below = r >= r_c, r <= -r_c
    s1_ref = np.where(above, spec.s_plus, np.where(
        below, spec.s_minus, spec.s_minus + g1 * (spec.s_plus - spec.s_minus)))
    s2_ref = np.where(above, -spec.k_plus * (r - 1.0),
                      np.where(below, -spec.k_minus * (r + 1.0), s2_hat))
    for got, ref in ((model._source_branches(spec, r)[0], s1_ref),
                     (ac.source_S2(spec, r), s2_ref),
                     (model._g_scaled(1, r, r_c), g1)):
        assert np.array_equal(np.isnan(got), np.isnan(ref)) and np.isnan(got[0])
        assert got.tobytes() == ref.tobytes()


def test_source_vectorized_matches_scalar():
    spec = ac.ReactionSpec(s_plus=-1.0, s_minus=4.0, k_plus=0.2, k_minus=0.02,
                           l_coef=-1.0)
    r = np.linspace(-1.4, 1.4, 57)
    vec = ac.source_S(spec, 0.05, r)
    scal = np.array([ac.source_S(spec, 0.05, float(x)) for x in r])
    assert np.max(np.abs(vec - scal)) < 1e-13


@pytest.mark.parametrize("r_c", [1.0, 0.7])
@pytest.mark.parametrize("l_coef", [0.0, 0.5, -1.0])
def test_source_is_s1_plus_s2_over_eps_bit_for_bit(r_c, l_coef):
    spec = ac.ReactionSpec(s_plus=-1.0, s_minus=4.0, k_plus=0.2, k_minus=0.02,
                           l_coef=l_coef, r_c=r_c)
    eps = 1 / (8 * math.pi)
    r = np.concatenate([np.linspace(-1.4, 1.4, 57), [r_c, -r_c, 1.0, -1.0],
                        np.random.default_rng(8).uniform(-1.5, 1.5, 100_000)])
    s1, s2 = model._source_branches(spec, r)[0], ac.source_S2(spec, r)
    assert np.array_equal(ac.source_S(spec, eps, r), s1 + s2 / eps)
    # the interior branches against G_k, each evaluated on its own, and the affine exterior
    g = {k: model._g_scaled(k, r, r_c) for k in (1, 2, 3, 4)}
    # G_k written out, with psi evaluated afresh at -s for G_3
    s = np.clip(r / r_c, -1.0, 1.0)

    def root(x):
        return np.sqrt(np.maximum(2.0 * ac.psi(x), 0.0))

    assert np.array_equal(g[1], 0.75 * (s + 1.0) ** 2 - 0.25 * (s + 1.0) ** 3)
    assert np.array_equal(g[2], r_c * (-0.5 / SQRT2 * (s - 1.0) * root(s)))
    assert np.array_equal(g[3], -r_c * (-0.5 / SQRT2 * (-s - 1.0) * root(-s)))
    assert np.array_equal(g[4], 2.0 * ac.psi(s))
    above, below = r >= r_c, r <= -r_c
    s1_ref = np.where(above, spec.s_plus, np.where(
        below, spec.s_minus, spec.s_minus + g[1] * (spec.s_plus - spec.s_minus)))
    s2_ref = np.where(above, -spec.k_plus * (r - 1.0), np.where(
        below, -spec.k_minus * (r + 1.0),
        -spec.k_minus * g[2] - spec.k_plus * g[3] + spec.l_coef * g[4]
        - spec.k_plus * (r_c - 1.0) * g[1] - spec.k_minus * (1.0 - r_c) * (1.0 - g[1])))
    assert np.array_equal(s1, s1_ref)
    assert np.array_equal(s2, s2_ref)
    for x in (r_c, -r_c, 1.0, -1.0, 0.3):
        got = ac.source_S(spec, eps, x)
        assert type(got) is float
        assert got == model._source_branches(spec, x)[0] + ac.source_S2(spec, x) / eps


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

def _params(*, beta=1.0, s_plus=-1.0, s_minus=1.0, k_plus=2.0, k_minus=2.0,
            l_coef=0.0, r_c=1.0, m_plus=1.0, m_minus=1.0, epsilon=0.05):
    return ac.PhaseFieldParams(
        beta=beta, epsilon=epsilon, potential=ac.DoubleWellPotential.quartic(),
        reaction=ac.ReactionSpec(s_plus, s_minus, k_plus, k_minus, l_coef, r_c),
        mobility=ac.MobilitySpec(m_plus, m_minus),
    )


def test_derive_sharp_quartic_rho():
    sharp = ac.derive_sharp_params(_params(beta=1.0, k_plus=2.0, k_minus=2.0), 1.0, 1.0)
    assert sharp.rho_plus == pytest.approx(1.0, abs=1e-15)
    assert sharp.rho_minus == pytest.approx(1.0, abs=1e-15)


def test_derive_sharp_si_values():
    sharp = ac.derive_sharp_params(_params(k_plus=2.0, k_minus=2.0, l_coef=0.0), 1.0, 1.0)
    assert sharp.s_interface == pytest.approx(0.0, abs=1e-15)
    sharp = ac.derive_sharp_params(_params(k_plus=2.0, k_minus=1.0, l_coef=0.0), 1.0, 1.0)
    assert sharp.s_interface == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_derive_sharp_zero_rho_flagged():
    # rho = K / (2 beta) must be > 0, so K+ = 0 and K- < 0 are rejected where
    # the constants are built
    with pytest.raises(ac.ConfigurationError, match="rho_plus > 0 and rho_minus > 0"):
        ac.derive_sharp_params(_params(k_plus=0.0), 1.0, 1.0)
    with pytest.raises(ac.ConfigurationError, match="rho_minus=-0.5"):
        ac.derive_sharp_params(_params(k_minus=-1.0), 1.0, 1.0)


@pytest.mark.parametrize("name, value", [
    ("rho_plus", 0.0), ("lambda_minus", 0.0), ("d_plus", math.nan), ("s_interface", math.inf),
])
def test_sharp_params_rejects_invalid_constants(name, value):
    sharp = ac.derive_sharp_params(_params(), 1.0, 1.0)
    with pytest.raises(ac.ConfigurationError, match=f"{name} must be"):
        dataclasses.replace(sharp, **{name: value})


def test_rho_from_rates_inverts_relaxation_rates():
    k_plus, k_minus = model.relaxation_rates(0.1, 1.5, 0.25)
    assert k_plus == pytest.approx(0.3, rel=1e-15) and k_minus == pytest.approx(0.05, rel=1e-15)
    rho = model.rho_from_rates(0.1, k_plus, k_minus)
    assert rho == pytest.approx((1.5, 0.25), rel=1e-15)


@pytest.mark.parametrize("field, value", [("beta", math.nan), ("epsilon", math.inf)])
def test_params_reject_nonfinite(field, value):
    with pytest.raises(ac.ConfigurationError, match=field):
        _params(**{field: value})


# ---------------------------------------------------------------------------
# surface-tension constant
# ---------------------------------------------------------------------------

def test_gamma_quadrature_vs_midpoint_rule():
    n = 10**6
    s = -1.0 + (np.arange(n) + 0.5) * (2.0 / n)
    brute = np.sum(np.sqrt(2.0 * ac.psi(s))) * (2.0 / n)
    assert abs(ac.GAMMA_QUARTIC - brute) < 1e-7


# ---------------------------------------------------------------------------
# interface profile
# ---------------------------------------------------------------------------

def test_profile_center_and_tails():
    assert ac.profile_Phi0(0.0) == 0.0
    assert abs(ac.profile_Phi0(8.0) - 1.0) < 1e-4
    assert abs(ac.profile_Phi0(-8.0) + 1.0) < 1e-4


def test_profile_ode_residual():
    # closed-form second derivative of tanh(z/sqrt(2))
    z = np.linspace(-6, 6, 101)
    phi = ac.profile_Phi0(z)
    phi_zz = -np.tanh(z / SQRT2) / np.cosh(z / SQRT2) ** 2
    assert np.max(np.abs(phi_zz - ac.dpsi(phi))) < 1e-10


def test_profile_equipartition():
    z = np.linspace(-7, 7, 201)
    phi = ac.profile_Phi0(z)
    dphi = (1.0 / SQRT2) / np.cosh(z / SQRT2) ** 2
    assert np.max(np.abs(0.5 * dphi**2 - ac.psi(phi))) < 1e-9


def test_profile_odd():
    z = np.linspace(0.0, 5.0, 23)
    assert np.max(np.abs(ac.profile_Phi0(-z) + ac.profile_Phi0(z))) < 1e-14


# ---------------------------------------------------------------------------
# interfacial reaction quadrature
# ---------------------------------------------------------------------------

def test_si_quadrature_matches_closed_form_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        k_plus, k_minus, l_coef = rng.uniform(-10, 10, size=3)
        spec = ac.ReactionSpec(s_plus=0.0, s_minus=0.0, k_plus=k_plus,
                               k_minus=k_minus, l_coef=l_coef)
        closed = (SQRT2 / 2) * (k_plus - k_minus) + (2 * SQRT2 / 3) * l_coef
        assert abs(ac.si_quadrature(spec) - closed) < 1e-6


def test_si_quadrature_zero_reaction():
    spec = ac.ReactionSpec(s_plus=1.0, s_minus=1.0, k_plus=0.0, k_minus=0.0, l_coef=0.0)
    assert ac.si_quadrature(spec) == pytest.approx(0.0, abs=1e-12)


def test_si_quadrature_small_rc_antisymmetric():
    spec = ac.ReactionSpec(s_plus=1.0, s_minus=1.0, k_plus=1.0, k_minus=1.0,
                           l_coef=0.0, r_c=0.5)
    assert abs(ac.si_quadrature(spec)) < 1e-8


def _si_adaptive(spec):
    """Adaptive scalar quadrature with the kinks as break points: the oracle."""
    z_c = SQRT2 * math.atanh(spec.r_c)
    val, _ = integrate.quad(
        lambda z: float(ac.source_S2(spec, ac.profile_Phi0(z))),
        -model._PROFILE_Z_MAX, model._PROFILE_Z_MAX,
        epsabs=1e-13, epsrel=1e-13, limit=400, points=[-z_c, z_c],
    )
    return val


@pytest.mark.parametrize("r_c", [0.5, 0.75, 0.9])
@pytest.mark.parametrize("k_plus, k_minus, l_coef", [(1.7, 0.4, -0.8), (-3.0, 5.0, 2.5)])
def test_si_quadrature_matches_adaptive_oracle(r_c, k_plus, k_minus, l_coef):
    spec = ac.ReactionSpec(s_plus=0.0, s_minus=0.0, k_plus=k_plus, k_minus=k_minus,
                           l_coef=l_coef, r_c=r_c)
    assert abs(ac.si_quadrature(spec) - _si_adaptive(spec)) < 1e-12


def test_si_quadrature_evaluates_source_once(monkeypatch):
    calls = []

    def counting_source_S2(spec, r):
        calls.append(np.size(r))
        return ac.source_S2(spec, r)

    monkeypatch.setattr(model, "source_S2", counting_source_S2)
    spec = ac.ReactionSpec(s_plus=0.0, s_minus=0.0, k_plus=1.7, k_minus=0.4, r_c=0.5)
    ac.si_quadrature(spec)
    assert len(calls) <= 1


def _si_uncached(spec):
    """si_quadrature with its rule and profile built afresh for each call."""
    zmax = model._PROFILE_Z_MAX
    breaks = [-zmax, zmax]
    if spec.r_c < 1.0:
        z_c = SQRT2 * math.atanh(spec.r_c)
        breaks = [-zmax, -z_c, z_c, zmax]
    z, w = model._gauss_rule(breaks)
    return float(ac.source_S2(spec, np.tanh(z / SQRT2)) @ w)


def test_si_quadrature_equals_the_uncached_rule_bit_for_bit():
    ks = (0.1, 0.5, 1.0, 2.0)
    for r_c in (0.5, 0.6, 0.7, 0.8, 0.9, 1.0):
        for k_plus in ks:
            for k_minus in ks:
                for l_coef in (0.0, 0.5):
                    spec = ac.ReactionSpec(s_plus=0.0, s_minus=0.0, k_plus=k_plus,
                                           k_minus=k_minus, l_coef=l_coef, r_c=r_c)
                    assert ac.si_quadrature(spec) == _si_uncached(spec)


def test_profile_rule_arrays_are_read_only():
    for array in model._profile_rule(0.5):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_si_closed_form_requires_rc_one():
    spec = ac.ReactionSpec(s_plus=0.0, s_minus=0.0, k_plus=1.0, k_minus=0.0, r_c=0.5)
    with pytest.raises(ac.ConfigurationError):
        ac.si_closed_form(spec, ac.DoubleWellPotential.quartic())
