"""Sharp-interface engine for the planar front geometry.

Closed-form chemical potentials on both sides of a flat front, the
interface-position ODE, stationary-front root finding and the linear
stability (transverse-mode amplification) analysis after Mullins & Sekerka
(1964, J. Appl. Phys. 35, 444).  For fixed sharp constants the amplification
factor is affine in the surface coefficient beta, so each transverse mode has
one critical beta in every setting, the root of that affine factor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .model import GAMMA_QUARTIC, SharpParams, _require_count, _step_count

#: |H| below which a bisection midpoint is taken as the stationary front.
STATIONARY_TOL = 1e-12


@dataclass(frozen=True)
class ModeIndex:
    """Transverse mode multi-index l_hat in N_0^(d-1), with l_sq = |l_hat|^2."""

    l_vec: tuple[int, ...]
    l_sq: int = field(init=False)

    def __post_init__(self):
        if any(l < 0 for l in self.l_vec):
            raise ConfigurationError(f"mode entries must be nonnegative, got {self.l_vec}")
        object.__setattr__(self, "l_sq", sum(l * l for l in self.l_vec))

    @classmethod
    def of(cls, *l_vec: int) -> "ModeIndex":
        return cls(tuple(int(l) for l in l_vec))


@dataclass(frozen=True)
class StabilityRow:
    """One mode's amplification data at a frozen front position.

    ``beta_crit`` is the beta at which ``factor`` vanishes: the mode grows
    for beta below it and decays above it.  It is reported as computed, so a
    root <= 0 means the mode decays at every admissible beta > 0.  It is
    ``None`` for the translational mode l = 0, whose factor does not depend
    on beta.
    """

    mode: ModeIndex
    gamma_plus: float
    gamma_minus: float
    a_plus: float
    a_minus: float
    factor: float
    beta_crit: float | None = None

    @property
    def growth_rate(self) -> float:
        """Exponential rate of the perturbation amplitude (factor / 2)."""
        return 0.5 * self.factor


# ---------------------------------------------------------------------------
# chemical potentials and front velocity
# ---------------------------------------------------------------------------

def mu_planar(sharp: SharpParams, side: str, q: float, z) -> float:
    """Quasi-static chemical potential at depth ``z`` for front position ``q``.

    ``side`` is "+" (valid for z in [0, q]) or "-" (valid for z in [q, L]).
    """
    L = sharp.length_L
    if not (0.0 < q < L):
        raise ConfigurationError(f"front position must lie in (0, {L}), got {q}")
    z_arr = np.asarray(z, dtype=float)
    if side == "+":
        if np.any(z_arr < 0.0) or np.any(z_arr > q):
            raise ConfigurationError(f"mu_plus is defined on [0, q]=[0, {q}]")
        out = sharp.d_plus * (1.0 - _cosh_ratio(sharp.lambda_plus, z_arr, q))
    elif side == "-":
        if np.any(z_arr < q) or np.any(z_arr > L):
            raise ConfigurationError(f"mu_minus is defined on [q, L]=[{q}, {L}]")
        out = sharp.d_minus * (1.0 - _cosh_ratio(sharp.lambda_minus, L - z_arr, L - q))
    else:
        raise ConfigurationError(f"side must be '+' or '-', got {side!r}")
    return out if out.ndim else float(out)


def _cosh_ratio(lam: float, z, q: float):
    """cosh(lam z) / cosh(lam q) for 0 <= z <= q, with no exponent above 0 (no overflow)."""
    return (np.exp(lam * (z - q)) * (1.0 + np.exp(-2.0 * lam * z))
            / (1.0 + math.exp(-2.0 * lam * q)))


def _front_velocity(sharp: SharpParams):
    """H(q) = a tanh(lambda+ q) + b tanh(lambda- (L - q)) + c as a closure.

    H is half the sum of d+ m+ lambda+ tanh(lambda+ q),
    d- m- lambda- tanh(lambda- (L - q)) and S_I.  The factor 1/2 is a power
    of two, so folding it into a, b and c changes no bit of H.
    """
    a = 0.5 * sharp.d_plus * sharp.m_plus * sharp.lambda_plus
    b = 0.5 * sharp.d_minus * sharp.m_minus * sharp.lambda_minus
    c = 0.5 * sharp.s_interface
    lam_plus, lam_minus, L = sharp.lambda_plus, sharp.lambda_minus, sharp.length_L
    tanh = math.tanh

    def H(q: float) -> float:
        return a * tanh(lam_plus * q) + b * tanh(lam_minus * (L - q)) + c

    return H


def find_stationary(sharp: SharpParams) -> float | None:
    """Root of H by bisection on [1e-12 L, L - 1e-12 L]; ``None`` without a sign change.

    Returns the first midpoint at which |H| < ``STATIONARY_TOL``, or the first
    that equals an end of the bracket, which can then shrink no further.
    """
    H = _front_velocity(sharp)
    L = sharp.length_L
    lo, hi = 1e-12 * L, L - 1e-12 * L
    f_lo = H(lo)
    if f_lo * H(hi) > 0.0:
        return None
    while True:
        mid = 0.5 * (lo + hi)
        f_mid = H(mid)
        if abs(f_mid) < STATIONARY_TOL or mid in (lo, hi):
            return mid
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid


@dataclass(frozen=True)
class PlanarTrajectory:
    """Front trajectory samples plus a domain-exit flag."""

    times: np.ndarray
    q: np.ndarray
    boundary_hit: bool = False


def integrate_q(sharp: SharpParams, q0: float, dt: float, t_end: float,
                output_stride: int = 1) -> PlanarTrajectory:
    """Integrate dq/dt = H(q) from q(0) = ``q0`` to ``t_end`` with RK4 steps of ``dt``.

    ``t_end`` must be finite and >= 0.  The trajectory is sampled after the
    steps ``[*range(0, n_steps, output_stride), n_steps]``.  If a stage point
    or the new position leaves (0, L), the integration stops there and the
    trajectory, short of its last samples, is flagged instead of raising.  The
    step map is autonomous, so once a step returns its input bit for bit every
    later step does too: the loop stops there and pads the samples with that q.
    """
    _require_count(output_stride, "output_stride", 1)
    L = sharp.length_L
    if not (0.0 < q0 < L):
        raise ConfigurationError(f"q0 must lie in (0, {L}), got {q0}")
    if not (math.isfinite(dt) and dt > 0.0):
        raise ConfigurationError(f"dt must be positive and finite, got {dt}")
    n_steps = _step_count(t_end, dt, "dt")
    samples = [*range(0, n_steps, output_stride), n_steps]
    H = _front_velocity(sharp)

    qs = [q0]
    q = q0
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
            break
        if q_new == q:
            qs.extend([q] * (len(samples) - len(qs)))
            break
        q = q_new
        if n == samples[len(qs)]:
            qs.append(q)
    times = np.asarray(samples[:len(qs)]) * dt
    return PlanarTrajectory(times, np.asarray(qs), boundary_hit=len(qs) < len(samples))


# ---------------------------------------------------------------------------
# linear stability
# ---------------------------------------------------------------------------

def _cosh(x: float) -> float:
    """cosh(x), saturating at inf where math.cosh raises OverflowError."""
    try:
        return math.cosh(x)
    except OverflowError:
        return math.inf


def amplification(sharp: SharpParams, beta: float, q: float, mode: ModeIndex) -> StabilityRow:
    """Amplification factor of a transverse cosine perturbation, and its root in beta.

    The perturbation amplitude satisfies 2 dY/dt = factor * Y, so the
    exponential growth rate to compare against measurements is factor / 2.
    The front may be non-stationary: the factor is evaluated with the front
    frozen at ``q``.  The surface term enters linearly, so for fixed
    ``sharp`` the factor is f0 - beta * s with s > 0 for every l_sq > 0, and
    the row's ``beta_crit`` is f0 / s.
    """
    L, Lt = sharp.length_L, sharp.width_Lt
    if not (0.0 < q < L):
        raise ConfigurationError(f"front position must lie in (0, {L}), got {q}")
    if not math.isfinite(beta):
        raise ConfigurationError(f"beta must be finite, got {beta}")
    k_transverse = math.pi**2 * mode.l_sq / Lt**2  # equals -zeta/Lt^2 >= 0
    gamma_plus = math.sqrt(sharp.lambda_plus**2 + k_transverse)
    gamma_minus = math.sqrt(sharp.lambda_minus**2 + k_transverse)
    surf = 0.5 * GAMMA_QUARTIC * beta * k_transverse
    bulk_plus = sharp.d_plus * sharp.lambda_plus * math.tanh(sharp.lambda_plus * q)
    bulk_minus = sharp.d_minus * sharp.lambda_minus * math.tanh(sharp.lambda_minus * (L - q))
    num_plus = bulk_plus + surf
    num_minus = bulk_minus - surf
    a_plus = num_plus / _cosh(gamma_plus * q)   # decays to 0 for huge modes
    a_minus = -num_minus / _cosh(gamma_minus * (L - q))
    tanh_plus = math.tanh(gamma_plus * q)
    tanh_minus = math.tanh(gamma_minus * (L - q))

    def factor_of(n_plus: float, n_minus: float) -> float:
        # a*Gamma*sinh(...) written via tanh so huge transverse modes cannot overflow
        return (sharp.s_plus - sharp.s_minus
                - sharp.m_plus * n_plus * gamma_plus * tanh_plus
                + sharp.m_minus * n_minus * gamma_minus * tanh_minus)

    factor = factor_of(num_plus, num_minus)
    crit = None
    if mode.l_sq > 0:
        # f0 from the bulk terms, not factor + beta * s, which cancels at high l
        slope = 0.5 * GAMMA_QUARTIC * k_transverse * (
            sharp.m_plus * gamma_plus * tanh_plus + sharp.m_minus * gamma_minus * tanh_minus)
        crit = factor_of(bulk_plus, bulk_minus) / slope
    return StabilityRow(
        mode=mode,
        gamma_plus=gamma_plus,
        gamma_minus=gamma_minus,
        a_plus=a_plus,
        a_minus=a_minus,
        factor=factor,
        beta_crit=crit,
    )


def enumerate_modes(d: int, max_lsq: int) -> list[ModeIndex]:
    """All transverse modes in N_0^(d-1) with |l_hat|^2 <= max_lsq.

    Sorted by (l_sq, l_vec); use :func:`mode_representatives` to keep one
    mode per attainable |l_hat|^2 value.
    """
    if d not in (2, 3):
        raise ConfigurationError(f"spatial dimension must be 2 or 3, got {d}")
    if max_lsq < 0:
        raise ConfigurationError(f"max_lsq must be nonnegative, got {max_lsq}")
    l_range = range(math.isqrt(max_lsq) + 1)
    return sorted((ModeIndex(l_vec) for l_vec in itertools.product(l_range, repeat=d - 1)
                   if sum(l * l for l in l_vec) <= max_lsq), key=lambda m: (m.l_sq, m.l_vec))


def mode_representatives(modes: list[ModeIndex]) -> list[ModeIndex]:
    """First mode of each distinct |l_hat|^2 value, in increasing order."""
    seen = {}
    for mode in sorted(modes, key=lambda m: (m.l_sq, m.l_vec)):
        seen.setdefault(mode.l_sq, mode)
    return [seen[k] for k in sorted(seen)]
