"""Validation instruments.

Interface tracking along lattice lines, transverse cosine-mode amplitude
extraction, growth-rate fitting and the diffuse-vs-sharp convergence study
with its experimental order of convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, MeasurementError, NumericalError, TrackingError
from .mesh import NodalField
from .model import PhaseFieldParams, derive_sharp_params
from .output import OutputOptions
from .planar import integrate_q
from .solver import SolverConfig, max_mesh_size, run_simulation

#: growth_window's linear regime: from GROWTH_TAKEOFF times the initial
#: amplitude up to GROWTH_SATURATION times the transverse width.
GROWTH_TAKEOFF = 3.0
GROWTH_SATURATION = 0.1
#: RK4 step of the sharp front ODE that the ladder's errors are measured against.
REFERENCE_DT = 1e-5


# ---------------------------------------------------------------------------
# interface tracking
# ---------------------------------------------------------------------------

def line_values(field: NodalField, line_x2: float = 0.0):
    """Nodal values and x1 coordinates along the lattice line x2 = line_x2."""
    mesh = field.mesh
    if mesh.dim == 1:
        return field.values, mesh.coords[:, 0]
    j = int(round(line_x2 / mesh.h))
    j = min(max(j, 0), mesh.cells[1])
    n1 = mesh.cells[0]
    idx = slice(j * (n1 + 1), (j + 1) * (n1 + 1))
    return field.values[idx], mesh.coords[idx, 0]


def zero_crossings(values: np.ndarray, coords: np.ndarray) -> list[float]:
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


def interface_crossings(field: NodalField, line_x2: float = 0.0) -> list[float]:
    """All sign-change positions of the field along a lattice line."""
    return zero_crossings(*line_values(field, line_x2))


def track_interface(field: NodalField, line_x2: float = 0.0,
                    prev: float | None = None) -> float:
    """Front position: the zero crossing along x2 = line_x2.

    With several crossings the one nearest ``prev`` is returned; without a
    previous value an ambiguous profile is an error, as is a profile with
    no sign change at all.
    """
    crossings = interface_crossings(field, line_x2)
    if not crossings:
        raise TrackingError("no sign change along the tracking line")
    if len(crossings) == 1:
        return crossings[0]
    if prev is None or not math.isfinite(prev):
        raise TrackingError(
            f"{len(crossings)} crossings at {[f'{c:.4f}' for c in crossings]} "
            "and no previous position to disambiguate")
    return min(crossings, key=lambda c: abs(c - prev))


# ---------------------------------------------------------------------------
# transverse mode spectrum
# ---------------------------------------------------------------------------

@dataclass
class ModeSpectrum:
    """Cosine-mode amplitudes of the interface height at one instant."""

    amplitudes: np.ndarray

    def dominant(self) -> int:
        """Index of the largest-magnitude mode with l >= 1."""
        return 1 + int(np.argmax(np.abs(self.amplitudes[1:])))


def interface_height(field: NodalField) -> np.ndarray:
    """Front position per lattice row: h(x2_j) from per-row zero crossings."""
    mesh = field.mesh
    if mesh.dim != 2:
        raise MeasurementError("mode extraction requires a 2D mesh")
    grid = mesh.grid_view(field.values)
    x1 = mesh.coords[: mesh.cells[0] + 1, 0]
    heights = np.empty(grid.shape[0])
    bad = []
    for j in range(grid.shape[0]):
        crossings = zero_crossings(grid[j], x1)
        if len(crossings) != 1:
            bad.append((j, len(crossings)))
        else:
            heights[j] = crossings[0]
    if bad:
        raise MeasurementError(
            "rows without a unique interface crossing (row, count): " + repr(bad[:12]))
    return heights


def mode_amplitudes(field: NodalField, l_max: int) -> ModeSpectrum:
    """Trapezoid-weighted cosine projection of the interface height."""
    mesh = field.mesh
    heights = interface_height(field)
    width = mesh.lengths[1]
    x2 = np.arange(len(heights)) * mesh.h
    trap = np.full(len(heights), mesh.h)
    trap[0] = trap[-1] = 0.5 * mesh.h
    amps = np.empty(l_max + 1)
    for l in range(l_max + 1):
        basis = np.cos(math.pi * l * x2 / width)
        amps[l] = (2.0 - (l == 0)) / width * float(np.sum(trap * heights * basis))
    return ModeSpectrum(amplitudes=amps)


# ---------------------------------------------------------------------------
# growth-rate fitting
# ---------------------------------------------------------------------------

def fit_growth_rate(times, amplitudes) -> float:
    """Least-squares slope of log A(t); amplitudes must be positive and finite."""
    times = np.asarray(times, dtype=float)
    amps = np.asarray(amplitudes, dtype=float)
    if times.shape != amps.shape or times.size < 2:
        raise ConfigurationError("need at least two (t, A) samples of equal length")
    if not (np.all(np.isfinite(times)) and np.all((amps > 0.0) & (amps < np.inf))):
        raise MeasurementError("growth-rate fit needs finite times and positive finite amplitudes")
    slope, _ = np.polyfit(times, np.log(amps), 1)
    return float(slope)


def growth_window(times, amplitudes, width_Lt: float) -> tuple[int, int]:
    """Fit window for the linear regime of one mode amplitude.

    Starts once |A| exceeds ``GROWTH_TAKEOFF`` times its initial magnitude
    and ends before |A| exceeds ``GROWTH_SATURATION * width_Lt``.  Returns
    (start, stop) indices, stop exclusive.
    """
    amps = np.abs(np.asarray(amplitudes, dtype=float))
    if amps.size < 2:
        raise MeasurementError("not enough samples for a growth window")
    a0 = amps[0]
    above = np.nonzero(amps > GROWTH_TAKEOFF * a0)[0]
    start = int(above[0]) if above.size else 0
    saturated = np.nonzero(amps > GROWTH_SATURATION * width_Lt)[0]
    stop = int(saturated[0]) if saturated.size else amps.size
    if stop - start < 2:
        start, stop = 0, min(amps.size, max(2, stop))
    return start, stop


# ---------------------------------------------------------------------------
# convergence study
# ---------------------------------------------------------------------------

def auto_mesh_size(epsilon: float) -> float:
    """Fine mesh size for epsilon = 1/(2^k pi): h = 2^-(3+k).

    This is the power of two equal to ``max_mesh_size(epsilon)``, the
    coarsest mesh the solver accepts without a ResolutionWarning, and the
    resolution used for the reference experiments; other epsilon values
    need an explicit h.
    """
    if not 0.0 < epsilon < math.inf:
        raise ConfigurationError(f"epsilon must be positive and finite, got {epsilon!r}")
    k = math.log2(1.0 / (math.pi * epsilon))
    if abs(k - round(k)) > 1e-9:
        raise ConfigurationError(
            f"epsilon={epsilon!r} is not of the form 1/(2^k pi); give h explicitly")
    return 2.0 ** round(math.log2(max_mesh_size(epsilon)))


@dataclass(frozen=True)
class ConvergenceRow:
    epsilon: float
    h: float
    error: float
    eoc: float | None
    note: str = ""


@dataclass
class ConvergenceTable:
    rows: list[ConvergenceRow] = field(default_factory=list)


def eoc_sequence(epsilons, errors) -> list[float | None]:
    """EOC of each rung against the previous one.

    ``None`` for the first rung and wherever the two errors are not both
    finite and positive or the two epsilons are equal.
    """
    rungs = list(zip(epsilons, errors))
    eocs: list[float | None] = [None] if rungs else []
    for (eps0, err0), (eps1, err1) in zip(rungs, rungs[1:]):
        defined = (math.isfinite(err0) and math.isfinite(err1) and eps0 != eps1
                   and err0 > 0.0 and err1 > 0.0)
        eocs.append(math.log(err0 / err1) / math.log(eps0 / eps1) if defined else None)
    return eocs


def reference_front_position(p: PhaseFieldParams, length_L: float, width_Lt: float,
                             q0: float, t_end: float) -> float:
    """Sharp-interface front position from the planar ODE, at step ``REFERENCE_DT``."""
    sharp = derive_sharp_params(p, length_L, width_Lt)
    traj = integrate_q(sharp, q0, REFERENCE_DT, t_end)
    if traj.boundary_hit:
        raise ConfigurationError("reference front left the domain before t_end")
    return float(traj.q[-1])


def convergence_study(p: PhaseFieldParams, epsilons, t_end: float, *,
                      lengths=(1.0, 1.0), q0: float = 0.3, dim: int = 1,
                      cfg: SolverConfig | None = None, h: float | None = None,
                      max_workers: int | None = None) -> ConvergenceTable:
    """Front-position error against the sharp ODE for a decreasing epsilon ladder.

    Each rung is one :func:`run_simulation` of a flat front at ``q0`` that
    records only t = 0 and ``t_end``, against the planar ODE at step
    ``REFERENCE_DT``; the rungs run serially.  The flat-front problem is
    genuinely one-dimensional, so ``dim=1`` is the fast default; ``dim=2``
    runs the full planar geometry.  A run's
    NumericalError annotates its row; a ConfigurationError propagates.
    ``max_workers`` must be ``None`` or 1; any other value raises
    ConfigurationError.
    """
    if max_workers not in (None, 1):
        raise ConfigurationError(
            f"max_workers must be None or 1 (rungs run serially), got {max_workers!r}")
    epsilons = [float(e) for e in epsilons]
    if not all(0.0 < eps < prev for prev, eps in zip([math.inf] + epsilons, epsilons)):
        raise ConfigurationError(
            f"epsilon ladder must be positive, finite and strictly decreasing, got {epsilons}")
    cfg = cfg or SolverConfig()
    q_ref = reference_front_position(p, lengths[0], lengths[1] if len(lengths) > 1 else 1.0,
                                     q0, t_end)
    outputs = OutputOptions(stride=max(1, int(round(t_end / cfg.tau))))

    rows = []
    for eps in epsilons:
        err, h_eff, note = math.nan, h, ""
        try:
            h_eff = auto_mesh_size(eps) if h is None else h
            record = run_simulation(replace(p, epsilon=eps), (dim, lengths[:dim], h_eff),
                                    ("flat_front", {"q0": q0}), cfg, t_end, outputs=outputs)
            err = abs(q_ref - float(record.q_h[-1]))
            if math.isnan(err):
                note = "; ".join(record.warnings)
        except NumericalError as exc:  # annotate, don't abort the ladder
            note = f"{type(exc).__name__}: {exc}"
        rows.append(ConvergenceRow(epsilon=eps, h=math.nan if h_eff is None else h_eff,
                                   error=err, eoc=None, note=note))
    eocs = eoc_sequence(epsilons, [row.error for row in rows])
    return ConvergenceTable([replace(row, eoc=eoc) for row, eoc in zip(rows, eocs)])
