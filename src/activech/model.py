"""Continuous model layer.

The quartic double well psi and its derivatives (the model's only potential,
so no function takes one), the interpolated reaction source, mobility, derived
sharp-interface constants and the leading-order interface profile.  Everything
here is a pure function over immutable parameter objects; all evaluators accept
scalars or numpy arrays.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

SQRT2 = math.sqrt(2.0)

#: Surface-tension constant of the quartic double well, 2*sqrt(2)/3.
GAMMA_QUARTIC = 2.0 * SQRT2 / 3.0
#: Curvature psi''(+-1) of the quartic double well at its minima.
_DDPSI_WELL = 2.0


# ---------------------------------------------------------------------------
# parameter objects
# ---------------------------------------------------------------------------

def _require_finite(spec, names, positive: bool = False):
    """Raise ConfigurationError unless each named field is finite (and > 0)."""
    for name in names:
        value = getattr(spec, name)
        if not math.isfinite(value) or (positive and value <= 0.0):
            requirement = "positive and finite" if positive else "finite"
            raise ConfigurationError(f"{name} must be {requirement}, got {value}")


def _require_count(value, name: str, least: int):
    """Raise ConfigurationError unless ``value`` is an integer >= ``least``."""
    if not (isinstance(value, numbers.Integral) and value >= least):
        raise ConfigurationError(f"{name} must be an integer >= {least}, got {value}")


def _step_count(t_end: float, dt: float, dt_name: str) -> int:
    """The number of steps of ``dt`` to ``t_end``, a finite multiple >= 0 of ``dt``."""
    if not (math.isfinite(t_end) and t_end >= 0.0):   # int(round(nan)) would raise ValueError
        raise ConfigurationError(f"t_end must be finite and >= 0, got {t_end}")
    n_steps = int(round(t_end / dt))
    if abs(n_steps * dt - t_end) > 1e-9 * max(1.0, t_end):
        raise ConfigurationError(f"t_end={t_end} is not an integer multiple of {dt_name}={dt}")
    return n_steps


@dataclass(frozen=True)
class DoubleWellPotential:
    """Field-less marker of the quartic double well (``psi``, ``dpsi``, ``ddpsi``).

    It stays only because ``perfbench/`` passes it as ``PhaseFieldParams``'s
    third field and calls ``quartic()`` and the two-argument ``si_closed_form``.
    """

    @classmethod
    def quartic(cls) -> "DoubleWellPotential":
        return cls()


@dataclass(frozen=True)
class ReactionSpec:
    """Bulk rates S+-, relaxation coefficients K+-, interface production L.

    ``r_c`` is the crossover threshold between the interpolated interior
    of the source and its affine exterior branches.
    """

    s_plus: float
    s_minus: float
    k_plus: float
    k_minus: float
    l_coef: float = 0.0
    r_c: float = 1.0

    def __post_init__(self):
        _require_finite(self, ("s_plus", "s_minus", "k_plus", "k_minus", "l_coef", "r_c"))
        if not (0.0 < self.r_c <= 1.0):
            raise ConfigurationError(f"r_c must lie in (0, 1], got {self.r_c}")


@dataclass(frozen=True)
class MobilitySpec:
    """Phase mobilities, interpolated affinely in phi and clamped."""

    m_plus: float
    m_minus: float

    def __post_init__(self):
        _require_finite(self, ("m_plus", "m_minus"), positive=True)


@dataclass(frozen=True)
class PhaseFieldParams:
    """Full parameter set of the diffuse-interface equations."""

    beta: float
    epsilon: float
    potential: DoubleWellPotential
    reaction: ReactionSpec
    mobility: MobilitySpec

    def __post_init__(self):
        _require_finite(self, ("beta", "epsilon"), positive=True)


@dataclass(frozen=True)
class SharpParams:
    """Constants of the sharp-interface limit on a planar box.

    Valid by construction: rho+-, lambda+-, L and Lt are positive and
    finite, and d+- and S_I are finite, so every planar formula accepts any
    instance.  The surface tension is the quartic's ``GAMMA_QUARTIC``, a
    constant of the model, so it is not a field.
    """

    rho_plus: float
    rho_minus: float
    d_plus: float
    d_minus: float
    lambda_plus: float
    lambda_minus: float
    s_interface: float
    length_L: float
    width_Lt: float

    def __post_init__(self):
        _require_finite(self, ("rho_plus", "rho_minus", "lambda_plus", "lambda_minus",
                               "length_L", "width_Lt"), positive=True)
        _require_finite(self, ("d_plus", "d_minus", "s_interface"))

    @property
    def m_plus(self) -> float:
        return self.rho_plus / self.lambda_plus**2

    @property
    def m_minus(self) -> float:
        return self.rho_minus / self.lambda_minus**2

    @property
    def s_plus(self) -> float:
        return self.d_plus * self.rho_plus

    @property
    def s_minus(self) -> float:
        return self.d_minus * self.rho_minus


# ---------------------------------------------------------------------------
# potential and interpolation functions
# ---------------------------------------------------------------------------

def psi(r):
    """The quartic double well psi(r) = (1 - r^2)^2 / 4, with minima at +-1."""
    return 0.25 * (1.0 - np.asarray(r) ** 2) ** 2


def dpsi(r):
    """psi'(r) = r^3 - r."""
    r = np.asarray(r)
    return r * r * r - r   # ``r ** 3`` goes through libm pow, ~40x slower


def ddpsi(r):
    """psi''(r) = 3 r^2 - 1."""
    return 3.0 * np.asarray(r) ** 2 - 1.0


def _g1_hat(s):
    t = s + 1.0
    return 0.75 * t ** 2 - 0.25 * t ** 3


def _g2_hat(s, root):
    return -0.5 / SQRT2 * (s - 1.0) * root   # sqrt(psi''(-1)) = sqrt 2


def _g4_hat(s):
    """2 psi(s) and its root, which G_2's hat takes; psi is even, so both serve -s too."""
    g4 = 2.0 * psi(s)
    return g4, np.sqrt(np.maximum(g4, 0.0))


def _g_scaled(k: int, r, r_c: float):
    """G_k on [-r_c, r_c] via the rescaled hat functions (no domain check)."""
    s = np.minimum(np.maximum(np.asarray(r, dtype=float) / r_c, -1.0), 1.0)
    if k == 1:
        return _g1_hat(s)
    g4, root = _g4_hat(s)
    if k == 2:
        return r_c * _g2_hat(s, root)
    if k == 3:
        return -r_c * _g2_hat(-s, root)
    if k == 4:
        return g4
    raise ValueError(f"interpolation index must be 1..4, got {k}")


# ---------------------------------------------------------------------------
# reaction source
# ---------------------------------------------------------------------------

def _source_branches(spec: ReactionSpec, r):
    """(S1, S2) at ``r`` from one clip of r/r_c: G_k are ``_g_scaled``'s, G_1 and psi once."""
    r = np.asarray(r, dtype=float)
    rc = spec.r_c
    s = np.minimum(np.maximum(r / rc, -1.0), 1.0)
    g1, (g4, root) = _g1_hat(s), _g4_hat(s)
    s2_hat = (-spec.k_minus * (rc * _g2_hat(s, root)) - spec.k_plus * (-rc * _g2_hat(-s, root))
              + spec.l_coef * g4 - spec.k_plus * (rc - 1.0) * g1
              - spec.k_minus * (1.0 - rc) * (1.0 - g1))
    above, below = r >= rc, r <= -rc
    s1 = np.where(above, spec.s_plus,
                  np.where(below, spec.s_minus, spec.s_minus + g1 * (spec.s_plus - spec.s_minus)))
    s2 = np.where(above, -spec.k_plus * (r - 1.0),
                  np.where(below, -spec.k_minus * (r + 1.0), s2_hat))
    return tuple(out if out.ndim else float(out) for out in (s1, s2))


def source_S2(spec: ReactionSpec, r):
    """Fast source term: affine relaxation outside, C^1 interpolation inside."""
    return _source_branches(spec, r)[1]


def source_S(spec: ReactionSpec, epsilon: float, r):
    """Composed source S_eps(r) = S1(r) + S2(r)/eps."""
    s1, s2 = _source_branches(spec, r)
    return s1 + s2 / epsilon


# ---------------------------------------------------------------------------
# mobility
# ---------------------------------------------------------------------------

def mobility_m(spec: MobilitySpec, r):
    """Affine-clamped mobility with m(+-1) = m_+-."""
    w = np.clip((1.0 + np.asarray(r, dtype=float)) / 2.0, 0.0, 1.0)
    out = spec.m_minus + (spec.m_plus - spec.m_minus) * w
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# interface profile and quadratures
# ---------------------------------------------------------------------------

def profile_Phi0(z):
    """Leading-order interface profile Phi0(z) = tanh(z / sqrt 2).

    It solves Phi0'' = psi'(Phi0), Phi0(0) = 0, Phi0(+-inf) = +-1.
    """
    out = np.tanh(np.asarray(z, dtype=float) / SQRT2)
    return out if out.ndim else float(out)


#: Reference 10-point Gauss-Legendre rule on [-1, 1] for the composite
#: profile quadratures.
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _gauss_rule(breaks):
    """Composite Gauss-Legendre nodes and weights over increasing ``breaks``.

    Each piece between consecutive breaks is cut into equal panels of width
    at most 1, with 10 nodes per panel; no panel straddles a break.
    """
    edges = [breaks[0]]
    for a, b in zip(breaks[:-1], breaks[1:]):
        edges.extend(np.linspace(a, b, math.ceil(b - a) + 1)[1:])
    edges = np.asarray(edges)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * _GAUSS_NODES).ravel(), (half * _GAUSS_WEIGHTS).ravel()


#: Half-width of the profile quadrature window; the quartic profile is
#: within 1e-17 of its limits there, so truncation is below any tolerance
#: used in this module.
_PROFILE_Z_MAX = 40.0 * SQRT2


@functools.lru_cache(maxsize=16)
def _profile_rule(r_c: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only profile values Phi0(z) at the S_I rule's nodes, and its weights."""
    zmax = _PROFILE_Z_MAX
    breaks = [-zmax, zmax]
    if r_c < 1.0:
        z_c = SQRT2 * math.atanh(r_c)
        breaks = [-zmax, -z_c, z_c, zmax]
    z, w = _gauss_rule(breaks)
    phi = np.tanh(z / SQRT2)
    phi.flags.writeable = w.flags.writeable = False
    return phi, w


def si_quadrature(spec: ReactionSpec) -> float:
    """Net interfacial reaction constant: integral of S2 along the profile.

    Integrates ``source_S2(profile_Phi0(z))`` over [-40 sqrt 2, 40 sqrt 2]
    with a fixed composite Gauss-Legendre rule: panels of width at most 1
    in z, 10 nodes each (about 1 140 nodes), with one vectorized evaluation
    of the source.  The rule and the profile values at its nodes depend only
    on r_c and are built once per r_c (``_profile_rule``).  For r_c < 1 the
    window is also split at the kinks +-z_c = +-sqrt 2 atanh(r_c),
    Phi0(z_c) = r_c, where S2 switches to its affine branches.  Each piece
    is then analytic, with the nearest singularity at the pole of tanh,
    z = i pi / sqrt 2, and the tails decay like exp(-sqrt 2 |z|).  Measured:
    within 4.4e-15 of ``si_closed_form`` over 200 random r_c = 1 specs, and
    within 4e-15 of an adaptive quadrature (``quad`` with the kinks as break
    points) at r_c in {0.5, 0.75, 0.9}.
    """
    phi, w = _profile_rule(spec.r_c)
    return float(source_S2(spec, phi) @ w)


def si_closed_form(spec: ReactionSpec, pot: DoubleWellPotential) -> float:
    """Closed form of S_I for r_c = 1: the reference that ``si_quadrature`` is checked against."""
    if spec.r_c != 1.0:
        raise ConfigurationError("closed-form S_I is only available for r_c = 1")
    return (spec.k_plus - spec.k_minus) / SQRT2 + GAMMA_QUARTIC * spec.l_coef


# ---------------------------------------------------------------------------
# derived sharp-interface constants
# ---------------------------------------------------------------------------

def relaxation_rates(beta: float, rho_plus: float, rho_minus: float) -> tuple[float, float]:
    """Relaxation coefficients K+- = beta psi''(+-1) rho+- of the fast source."""
    return beta * _DDPSI_WELL * rho_plus, beta * _DDPSI_WELL * rho_minus


def rho_from_rates(beta: float, k_plus: float, k_minus: float) -> tuple[float, float]:
    """Inverse of ``relaxation_rates``: rho+- = K+- / (beta psi''(+-1))."""
    return k_plus / (beta * _DDPSI_WELL), k_minus / (beta * _DDPSI_WELL)


def derive_sharp_params(p: PhaseFieldParams, length_L: float, width_Lt: float) -> SharpParams:
    """Compute the sharp-interface constants implied by ``p``.

    S_I comes from ``si_quadrature`` for every r_c, r_c = 1 included.  Raises
    ``ConfigurationError`` unless rho+- > 0: every planar formula divides by rho.
    """
    rho_plus, rho_minus = rho_from_rates(p.beta, p.reaction.k_plus, p.reaction.k_minus)
    if not (rho_plus > 0.0 and rho_minus > 0.0):
        raise ConfigurationError(
            "planar sharp-interface formulas require rho_plus > 0 and rho_minus > 0; "
            f"got rho_plus={rho_plus}, rho_minus={rho_minus}"
        )
    return SharpParams(
        rho_plus=rho_plus,
        rho_minus=rho_minus,
        d_plus=p.reaction.s_plus / rho_plus,
        d_minus=p.reaction.s_minus / rho_minus,
        lambda_plus=math.sqrt(rho_plus / p.mobility.m_plus),
        lambda_minus=math.sqrt(rho_minus / p.mobility.m_minus),
        s_interface=si_quadrature(p.reaction),
        length_L=length_L,
        width_Lt=width_Lt,
    )
