"""Tests for the planar sharp-interface engine."""

import dataclasses
import math

import numpy as np
import pytest

import activech as ac
from activech import planar

SQRT2 = math.sqrt(2.0)


def make_sharp(*, beta=0.1, s_plus=-1.0, s_minus=1.0, rho_plus=1.0, rho_minus=1.0,
               m_plus=1.0, m_minus=1.0, l_coef=0.0, r_c=1.0, L=1.0, Lt=1.0, epsilon=0.01):
    """Sharp constants from physical inputs, with K derived from rho."""
    pot = ac.DoubleWellPotential.quartic()
    reaction = ac.ReactionSpec(
        s_plus=s_plus, s_minus=s_minus,
        k_plus=2.0 * beta * rho_plus, k_minus=2.0 * beta * rho_minus,
        l_coef=l_coef, r_c=r_c,
    )
    p = ac.PhaseFieldParams(beta=beta, epsilon=epsilon, potential=pot,
                            reaction=reaction, mobility=ac.MobilitySpec(m_plus, m_minus))
    return ac.derive_sharp_params(p, L, Lt)


@pytest.fixture(scope="module")
def symmetric():
    # S+ = -1, everything else 1: stationary front at L/2
    return make_sharp()


@pytest.fixture(scope="module")
def table1_sharp():
    # moving-front convergence configuration
    return make_sharp(beta=0.1, s_plus=-1.0, s_minus=4.0, rho_plus=1.0,
                      rho_minus=0.1, l_coef=-1.0)


@pytest.fixture(scope="module")
def wall_bound():
    # H > 0 everywhere drives the front into the right wall
    return make_sharp(s_plus=5.0, s_minus=5.0)


# ---------------------------------------------------------------------------
# chemical potentials
# ---------------------------------------------------------------------------

def test_mu_vanishes_at_front(table1_sharp):
    for q in (0.2, 0.5, 0.8):
        assert ac.mu_planar(table1_sharp, "+", q, q) == pytest.approx(0.0, abs=1e-14)
        assert ac.mu_planar(table1_sharp, "-", q, q) == pytest.approx(0.0, abs=1e-14)


def test_mu_symmetric_antisymmetry(symmetric):
    z = np.linspace(0.0, 0.5, 11)
    mu_p = ac.mu_planar(symmetric, "+", 0.5, z)
    mu_m = ac.mu_planar(symmetric, "-", 0.5, 1.0 - z)
    assert np.max(np.abs(mu_p + mu_m)) < 1e-14


def test_mu_zero_slope_at_outer_walls(table1_sharp):
    h = 1e-5
    # cosh is even about the wall, so one-sided slope is O(h)
    mu = ac.mu_planar
    slope_plus = (mu(table1_sharp, "+", 0.4, h) - mu(table1_sharp, "+", 0.4, 0.0)) / h
    slope_minus = (mu(table1_sharp, "-", 0.4, 1.0) - mu(table1_sharp, "-", 0.4, 1.0 - h)) / h
    assert abs(slope_plus) < 1e-3
    assert abs(slope_minus) < 1e-3


def test_mu_domain_errors(table1_sharp):
    # a ConfigurationError, which the CLI reports with exit code 1, not a traceback
    for side, q, z in (("+", 1.2, 0.5), ("-", 0.0, 0.5),   # q outside (0, L)
                       ("+", 0.3, 0.31), ("-", 0.3, 0.29),  # z off its side
                       ("x", 0.3, 0.1)):
        with pytest.raises(ac.ConfigurationError):
            ac.mu_planar(table1_sharp, side, q, z)


def test_mu_does_not_overflow_on_a_long_domain():
    # lambda q = 1000 is beyond cosh's range, but the ratio cosh(lambda z)/cosh(lambda q)
    # is at most 1; one unit from the front it is e^-1 up to e^-1998
    sharp = make_sharp(L=2000.0)
    assert sharp.lambda_plus == sharp.lambda_minus == 1.0
    mu_plus = ac.mu_planar(sharp, "+", 1000.0, np.array([0.0, 999.0, 1000.0]))
    mu_minus = ac.mu_planar(sharp, "-", 1000.0, np.array([1000.0, 1001.0, 2000.0]))
    assert mu_plus == pytest.approx(sharp.d_plus * np.array([1.0, 1.0 - math.exp(-1.0), 0.0]),
                                    rel=1e-15, abs=1e-15)
    assert mu_minus == pytest.approx(sharp.d_minus * np.array([0.0, 1.0 - math.exp(-1.0), 1.0]),
                                     rel=1e-15, abs=1e-15)


@pytest.mark.parametrize("L", [1.0, 300.0])
def test_mu_matches_the_cosh_form(table1_sharp, L):
    # the overflow-free form against d (1 - cosh(lambda z) / cosh(lambda q)) where
    # cosh stays finite
    sharp = dataclasses.replace(table1_sharp, length_L=L)
    for q in np.linspace(0.01 * L, 0.99 * L, 37):
        z = np.linspace(0.0, q, 50)
        lam = sharp.lambda_plus
        cosh_form = sharp.d_plus * (1.0 - np.cosh(lam * z) / math.cosh(lam * q))
        assert np.max(np.abs(ac.mu_planar(sharp, "+", q, z) - cosh_form)) <= (
            1e-14 * abs(sharp.d_plus))
        z = np.linspace(q, L, 50)
        lam = sharp.lambda_minus
        cosh_form = sharp.d_minus * (1.0 - np.cosh(lam * (L - z)) / math.cosh(lam * (L - q)))
        assert np.max(np.abs(ac.mu_planar(sharp, "-", q, z) - cosh_form)) <= (
            1e-14 * abs(sharp.d_minus))


def test_mu_satisfies_bulk_ode(table1_sharp):
    # -m mu'' + rho mu - S = 0, checked by centered differences
    sharp = table1_sharp
    q, h = 0.37, 1e-4
    z_p = np.linspace(2 * h, q - 2 * h, 20)
    mu = lambda z: ac.mu_planar(sharp, "+", q, z)
    mu_zz = (mu(z_p + h) - 2 * mu(z_p) + mu(z_p - h)) / h**2
    res = -sharp.m_plus * mu_zz + sharp.rho_plus * mu(z_p) - sharp.s_plus
    assert np.max(np.abs(res)) < 1e-6 * abs(sharp.s_plus)
    z_m = np.linspace(q + 2 * h, 1.0 - 2 * h, 20)
    mu = lambda z: ac.mu_planar(sharp, "-", q, z)
    mu_zz = (mu(z_m + h) - 2 * mu(z_m) + mu(z_m - h)) / h**2
    res = -sharp.m_minus * mu_zz + sharp.rho_minus * mu(z_m) - sharp.s_minus
    assert np.max(np.abs(res)) < 1e-6 * abs(sharp.s_minus)


# ---------------------------------------------------------------------------
# front velocity and stationary position
# ---------------------------------------------------------------------------

def test_velocity_symmetric_root_at_half(symmetric):
    assert planar._front_velocity(symmetric)(0.5) == pytest.approx(0.0, abs=1e-15)


def test_velocity_strictly_decreasing(symmetric):
    q = np.linspace(0.01, 0.99, 99)
    H = planar._front_velocity(symmetric)
    vals = np.array([H(float(x)) for x in q])
    assert np.all(np.diff(vals) < 0.0)


def test_velocity_table1_value(table1_sharp):
    # independent evaluation of the closed-form chain
    beta = 0.1
    rho_p, rho_m = 1.0, 0.1
    k_p, k_m = 2 * beta * rho_p, 2 * beta * rho_m
    d_p, d_m = -1.0 / rho_p, 4.0 / rho_m
    lam_p, lam_m = math.sqrt(rho_p), math.sqrt(rho_m)
    s_i = (SQRT2 / 2) * (k_p - k_m) + (2 * SQRT2 / 3) * (-1.0)
    expected = 0.5 * (d_p * lam_p * math.tanh(lam_p * 0.3)
                      + d_m * lam_m * math.tanh(lam_m * 0.7) + s_i)
    H = planar._front_velocity(table1_sharp)
    assert H(0.3) == pytest.approx(expected, abs=1e-14)
    # frozen regression value
    assert H(0.3) == pytest.approx(0.8241515873201051, abs=1e-12)


def test_find_stationary_symmetric(symmetric):
    q_star = ac.find_stationary(symmetric)
    assert q_star == pytest.approx(0.5, abs=1e-10)
    assert abs(planar._front_velocity(symmetric)(q_star)) < 1e-12


def test_find_stationary_absent():
    # d+ > 0 and d- > 0 with S_I = 0: H > 0 everywhere
    sharp = make_sharp(s_plus=1.0, s_minus=1.0)
    q = np.linspace(0.01, 0.99, 50)
    H = planar._front_velocity(sharp)
    assert all(H(float(x)) > 0 for x in q)
    assert ac.find_stationary(sharp) is None


def test_find_stationary_stops_where_the_bracket_can_shrink_no_further():
    # H is so steep at its root that no float has |H| < STATIONARY_TOL: the
    # bisection ends on a midpoint next to the other end of its bracket
    sharp = ac.SharpParams(rho_plus=2.2 * 1.8**2, rho_minus=2.6 * 21.0**2, d_plus=-3.7,
                           d_minus=2.6, lambda_plus=1.8, lambda_minus=21.0, s_interface=-4.6,
                           length_L=9.3, width_Lt=1.0)
    H = planar._front_velocity(sharp)
    q = ac.find_stationary(sharp)
    assert abs(H(q)) >= planar.STATIONARY_TOL
    assert min(H(q) * H(math.nextafter(q, 0.0)), H(q) * H(math.nextafter(q, 9.3))) < 0.0


def test_find_stationary_unique_sign_change(table1_sharp):
    q = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
    H = planar._front_velocity(table1_sharp)
    vals = np.array([H(float(x)) for x in q])
    assert int(np.sum(np.diff(np.sign(vals)) != 0)) == 1


# ---------------------------------------------------------------------------
# front trajectory
# ---------------------------------------------------------------------------

def test_integrate_equilibrium_is_constant(symmetric):
    traj = ac.integrate_q(symmetric, 0.5, 1e-3, 0.5)
    assert np.max(np.abs(traj.q - 0.5)) < 1e-12
    assert not traj.boundary_hit


def test_integrate_fourth_order(table1_sharp):
    ref = ac.integrate_q(table1_sharp, 0.3, 1e-5, 0.5)
    e = []
    for dt in (1e-2, 5e-3):
        traj = ac.integrate_q(table1_sharp, 0.3, dt, 0.5)
        e.append(abs(traj.q[-1] - ref.q[-1]))
    # halving dt shrinks the error by ~2^4
    assert e[1] < e[0] / 12.0


def test_integrate_monotone_to_stationary(symmetric):
    traj = ac.integrate_q(symmetric, 0.3, 1e-3, 10.0, output_stride=100)
    assert np.all(np.diff(traj.q) > -1e-15)
    # approach rate is |H'(q*)| = sech^2(1/2), so the gap at t=10 is ~8e-5
    assert traj.q[-1] == pytest.approx(0.5, abs=2e-4)


def test_integrate_boundary_hit(wall_bound):
    traj = ac.integrate_q(wall_bound, 0.9, 1e-2, 10.0)
    assert traj.boundary_hit
    assert traj.times[-1] < 10.0


def test_integrate_stage_leaving_domain_is_a_boundary_hit():
    # from q0 = 0.8 the third stage point q + dt k3 lands at 1.035, outside
    # (0, 1), while the combined step q_new = 0.747 stays inside
    sharp = ac.SharpParams(
        rho_plus=400.0, rho_minus=400.0, d_plus=-1.0, d_minus=1.0,
        lambda_plus=20.0, lambda_minus=20.0, s_interface=5.0,
        length_L=1.0, width_Lt=1.0)
    traj = ac.integrate_q(sharp, 0.8, 0.1, 0.1)
    assert traj.boundary_hit
    assert (traj.times[-1], traj.q[-1]) == (0.0, 0.8)


@pytest.mark.parametrize("q0, dt, t_end, stride", [
    (0.0, 1e-3, 0.1, 1), (1.0, 1e-3, 0.1, 1), (0.5, 0.0, 0.1, 1), (0.5, math.nan, 0.1, 1),
    (0.5, 1e-3, math.nan, 1), (0.5, 1e-3, math.inf, 1), (0.5, 1e-3, 0.1, 0),
    (0.5, 1e-3, -1.0, 1),
])
def test_integrate_rejects_invalid_input(symmetric, q0, dt, t_end, stride):
    with pytest.raises(ac.ConfigurationError):
        ac.integrate_q(symmetric, q0, dt, t_end, output_stride=stride)


@pytest.mark.parametrize("stride", [math.nan, 2.5, 1.0])
def test_integrate_rejects_an_output_stride_that_is_not_an_integer(symmetric, stride):
    with pytest.raises(ac.ConfigurationError, match="output_stride must be an integer >= 1"):
        ac.integrate_q(symmetric, 0.5, 1e-3, 0.1, output_stride=stride)


def _integrate_q_reference(sharp, q0, dt, t_end, output_stride=1):
    """The RK4 loop written out, stepping to the end with no fixed-point stop."""
    H = ac.planar._front_velocity(sharp)
    L = sharp.length_L
    n_steps = int(round(t_end / dt))
    times, qs, q, hit = [0.0], [q0], q0, False
    for n in range(1, n_steps + 1):
        k1 = H(q)
        q2 = q + 0.5 * dt * k1
        k2 = H(q2)
        q3 = q + 0.5 * dt * k2
        k3 = H(q3)
        q4 = q + dt * k3
        k4 = H(q4)
        q_new = q + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not (0.0 < q2 < L and 0.0 < q3 < L and 0.0 < q4 < L and 0.0 < q_new < L):
            hit = True
            break
        q = q_new
        if n % output_stride == 0 or n == n_steps:
            times.append(n * dt)
            qs.append(q)
    return np.asarray(times), np.asarray(qs), hit


@pytest.mark.parametrize("fixture, q0, dt, t_end, stride", [
    ("symmetric", 0.5, 1e-3, 1.0, 1),
    ("symmetric", 0.5, 1e-3, 1.0, 7),        # 1 000 steps: the last sample is off the stride
    ("symmetric", 0.5, 1e-3, 1.0, 100),
    ("symmetric", 0.5, 1e-3, 0.0, 3),
    ("symmetric", 0.3, 1e-3, 50.0, 1),       # reaches its fixed point near t = 37
    ("symmetric", 0.3, 1e-3, 50.0, 7),
    ("table1_sharp", 0.3, 1e-3, 0.5, 1),
    ("table1_sharp", 0.3, 1e-3, 0.5, 7),
    ("wall_bound", 0.9, 1e-2, 10.0, 1),      # leaves (0, 1) in its sixth step
    ("wall_bound", 0.9, 1e-2, 10.0, 3),
])
def test_integrate_matches_the_full_loop_bit_for_bit(request, fixture, q0, dt, t_end, stride):
    sharp = request.getfixturevalue(fixture)
    traj = ac.integrate_q(sharp, q0, dt, t_end, output_stride=stride)
    times, qs, hit = _integrate_q_reference(sharp, q0, dt, t_end, stride)
    assert np.array_equal(traj.times, times) and np.array_equal(traj.q, qs)
    assert traj.boundary_hit == hit


def test_integrate_stops_stepping_at_a_fixed_point(symmetric, monkeypatch):
    calls = []
    front_velocity = ac.planar._front_velocity

    def counting_front_velocity(sharp):
        H = front_velocity(sharp)

        def counting_H(q):
            calls.append(q)
            return H(q)

        return counting_H

    monkeypatch.setattr(ac.planar, "_front_velocity", counting_front_velocity)
    # H(q*) is exactly 0 here, so the first step returns its input
    traj = ac.integrate_q(symmetric, 0.5, 1e-5, 1.0, output_stride=100)
    assert len(calls) <= 4
    assert len(traj.times) == 1001 and traj.times[-1] == 100_000 * 1e-5
    assert np.all(traj.q == 0.5)


# ---------------------------------------------------------------------------
# linear stability
# ---------------------------------------------------------------------------

def _amplification_normalized(beta, Lbig, Lt, mode):
    """Closed-form factor for S+ = -1, S- = m+- = rho+- = 1 and q = L/2."""
    k_transverse = math.pi**2 * mode.l_sq / Lt**2
    root = math.sqrt(1.0 + k_transverse)
    return -2.0 + root * math.tanh(0.5 * Lbig * root) * (
        2.0 * math.tanh(0.5 * Lbig) - ac.GAMMA_QUARTIC * beta * k_transverse)


def _beta_crit_normalized(Lbig, Lt, mode):
    """Closed-form root in beta of the normalized factor, for l_sq > 0."""
    k_transverse = math.pi**2 * mode.l_sq / Lt**2
    root = math.sqrt(1.0 + k_transverse)
    return (2.0 / ac.GAMMA_QUARTIC) / k_transverse * (
        math.tanh(0.5 * Lbig) - 1.0 / (root * math.tanh(0.5 * Lbig * root)))


def test_amplification_translational(symmetric):
    row = ac.amplification(symmetric, 0.1, 0.5, ac.ModeIndex.of(0))
    assert row.factor == pytest.approx(-2.0 / math.cosh(0.5) ** 2, abs=1e-14)
    assert row.beta_crit is None


@pytest.mark.parametrize("L,Lt", [(1.0, 1.0), (2.0, 1.0), (1.5, 0.75)])
def test_amplification_matches_normalized_formula(L, Lt):
    sharp = make_sharp(L=L, Lt=Lt)
    beta = 0.07
    for l2 in range(7):
        mode = ac.ModeIndex.of(l2)
        row = ac.amplification(sharp, beta, L / 2, mode)
        expected = _amplification_normalized(beta, L, Lt, mode)
        assert row.factor == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_amplification_rejects_a_non_finite_beta(symmetric, beta):
    with pytest.raises(ac.ConfigurationError, match="beta must be finite"):
        ac.amplification(symmetric, beta, 0.5, ac.ModeIndex.of(2))


def test_amplification_mode_selection():
    sharp = make_sharp(s_plus=-8.0, s_minus=8.0)
    rows = [ac.amplification(sharp, 0.1, 0.5, ac.ModeIndex.of(l)) for l in range(11)]
    factors = [row.factor for row in rows]
    assert int(np.argmax(factors)) == 2
    assert factors[1] > 0 and factors[2] > 0 and factors[3] < 0
    assert factors[1] == pytest.approx(3.79, abs=0.05)
    assert factors[2] == pytest.approx(7.28, abs=0.05)


def test_amplification_vs_velocity_derivative_random():
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 20:
        beta = rng.uniform(0.01, 0.5)
        rho_p, rho_m = rng.uniform(0.2, 3.0, size=2)
        m_p, m_m = rng.uniform(0.2, 3.0, size=2)
        k_p, k_m = 2 * beta * rho_p, 2 * beta * rho_m
        # cancel S_I so a root is guaranteed (d+ < 0 < d-)
        l_coef = -(SQRT2 / 2) * (k_p - k_m) / (2 * SQRT2 / 3)
        sharp = make_sharp(beta=beta, s_plus=-rng.uniform(0.1, 5.0),
                           s_minus=rng.uniform(0.1, 5.0), rho_plus=rho_p,
                           rho_minus=rho_m, m_plus=m_p, m_minus=m_m, l_coef=l_coef)
        q_star = ac.find_stationary(sharp)
        assert q_star is not None
        h = 1e-6
        H = planar._front_velocity(sharp)
        fd = (H(q_star + h) - H(q_star - h)) / (2 * h)
        row = ac.amplification(sharp, beta, q_star, ac.ModeIndex.of(0))
        assert row.factor / 2 == pytest.approx(fd, rel=1e-6, abs=1e-9)
        checked += 1


def test_amplification_decays_for_large_modes(symmetric):
    rows = [ac.amplification(symmetric, 0.05, 0.5, ac.ModeIndex.of(l)).factor
            for l in range(51)]
    peak = int(np.argmax(rows))
    tail = np.array(rows[peak:])
    assert np.all(np.diff(tail) < 0.0)


def test_amplification_of_a_huge_mode_does_not_overflow(symmetric):
    # cosh(Gamma q) overflows a float beyond Gamma q = 710.5, here Gamma q = 785
    row = ac.amplification(symmetric, 0.1, 0.5, ac.ModeIndex.of(500))
    assert row.a_plus == 0.0 and row.a_minus == 0.0
    assert math.isfinite(row.factor) and row.factor < 0.0
    assert math.isfinite(row.beta_crit) and row.beta_crit > 0.0


def test_amplification_preconditions(symmetric):
    with pytest.raises(ac.ConfigurationError):
        ac.amplification(symmetric, 0.1, 1.5, ac.ModeIndex.of(1))
    # a zero rho never reaches the formulas: the constants cannot be built
    with pytest.raises(ac.ConfigurationError):
        dataclasses.replace(symmetric, rho_plus=0.0)


# ---------------------------------------------------------------------------
# critical beta
# ---------------------------------------------------------------------------

def test_beta_crit_is_amplification_root(symmetric):
    for l2 in range(1, 7):
        mode = ac.ModeIndex.of(l2)
        crit = ac.amplification(symmetric, 0.1, 0.5, mode).beta_crit
        row = ac.amplification(symmetric, crit, 0.5, mode)
        assert abs(row.factor) < 1e-10
        assert row.beta_crit == crit   # the root does not depend on the beta it is read at


@pytest.mark.parametrize("d", [2, 3])
def test_beta_crit_matches_the_normalized_closed_form(symmetric, d):
    modes = ac.mode_representatives(ac.enumerate_modes(d, 400))
    assert len(modes) == (21 if d == 2 else 146)
    for mode in modes[1:]:
        crit = ac.amplification(symmetric, 0.1, 0.5, mode).beta_crit
        assert crit == pytest.approx(_beta_crit_normalized(1.0, 1.0, mode), rel=1e-14, abs=0)


@pytest.mark.parametrize("setting, q", [
    # r_c = 0.7, m+ = 2, m- = 1/2, S- = 2 at its stationary front q* = 2/3
    ({"r_c": 0.7, "m_plus": 2.0, "m_minus": 0.5, "s_minus": 2.0}, None),
    ({}, 0.3),   # the normalized physics with the front off its root
], ids=["rc07-at-q-star", "normalized-at-q0.3"])
def test_beta_crit_is_a_root_off_the_normalized_setting(setting, q):
    sharp = make_sharp(**setting)
    if q is None:
        q = ac.find_stationary(sharp)
        assert q == pytest.approx(2.0 / 3.0, abs=1e-3)
    for l2 in range(1, 9):
        mode = ac.ModeIndex.of(l2)
        f0 = ac.amplification(sharp, 0.0, q, mode).factor
        crit = ac.amplification(sharp, 0.1, q, mode).beta_crit
        assert crit is not None and crit > 0.0
        assert abs(ac.amplification(sharp, crit, q, mode).factor) <= 1e-12 * abs(f0)


def test_beta_crit_is_reported_when_it_is_negative():
    # S+ = 1, S- = -1 puts the front at q* = 1/2, where every transverse mode
    # decays at any beta > 0: the root is negative and reported as it is
    sharp = make_sharp(s_plus=1.0, s_minus=-1.0)
    assert ac.find_stationary(sharp) == pytest.approx(0.5, abs=1e-12)
    for l2 in range(1, 4):
        mode = ac.ModeIndex.of(l2)
        crit = ac.amplification(sharp, 0.1, 0.5, mode).beta_crit
        assert crit < 0.0
        assert abs(ac.amplification(sharp, crit, 0.5, mode).factor) < 1e-12
        for beta in (1e-3, 0.1, 1.0):
            assert ac.amplification(sharp, beta, 0.5, mode).factor < 0.0


def test_beta_crit_sign_change(symmetric):
    mode = ac.ModeIndex.of(2)
    crit = ac.amplification(symmetric, 0.1, 0.5, mode).beta_crit
    assert ac.amplification(symmetric, 0.9 * crit, 0.5, mode).factor > 0
    assert ac.amplification(symmetric, 1.1 * crit, 0.5, mode).factor < 0


def test_beta_crit_large_domain_limit():
    mode = ac.ModeIndex.of(3)
    k = mode.l_sq * math.pi**2
    limit = (2.0 / ac.GAMMA_QUARTIC) / k * (1.0 - 1.0 / math.sqrt(1.0 + k))
    crit = ac.amplification(make_sharp(L=500.0), 0.1, 250.0, mode).beta_crit
    assert crit == pytest.approx(limit, rel=1e-12)


# ---------------------------------------------------------------------------
# mode enumeration
# ---------------------------------------------------------------------------

def test_enumerate_modes_2d():
    modes = ac.enumerate_modes(2, 16)
    assert sorted({m.l_sq for m in modes}) == [0, 1, 4, 9, 16]


def test_enumerate_modes_3d():
    modes = ac.enumerate_modes(3, 10)
    assert sorted({m.l_sq for m in modes}) == [0, 1, 2, 4, 5, 8, 9, 10]


def test_enumerate_modes_trivial():
    modes = ac.enumerate_modes(3, 0)
    assert [m.l_sq for m in modes] == [0]


@pytest.mark.parametrize("d, max_lsq", [(1, 4), (4, 4), (2, -1), (3, -1)])
def test_enumerate_modes_rejects_invalid_input(d, max_lsq):
    with pytest.raises(ac.ConfigurationError):
        ac.enumerate_modes(d, max_lsq)


def test_mode_representatives():
    modes = ac.enumerate_modes(3, 8)
    reps = ac.mode_representatives(modes)
    assert [m.l_sq for m in reps] == [0, 1, 2, 4, 5, 8]
    assert len(reps) < len(modes)


def test_mode_index_invariant():
    # l_sq is computed from l_vec, never given beside it
    assert ac.ModeIndex((1, 2)).l_sq == 5
    assert ac.ModeIndex.of(1, 2) == ac.ModeIndex((1, 2))
    with pytest.raises(ac.ConfigurationError):
        ac.ModeIndex((1, -2))
