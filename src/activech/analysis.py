"""Validation instruments.

Interface tracking and transverse cosine-mode extraction share one routine,
``_row_crossings``, which finds the zero crossings of every lattice row of
a field (the rows of ``StructuredMesh.grid_view``) in one vectorized pass:
tracking reads the row of its line, mode extraction needs exactly one
crossing per row.  Also here: growth-rate fitting and the diffuse-vs-sharp
convergence study with its experimental order of convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, MeasurementError, NumericalError, TrackingError
from .mesh import NodalField
from .model import PhaseFieldParams, _require_count, derive_sharp_params
from .output import OutputOptions
from .planar import integrate_q
from .solver import SolverConfig, max_mesh_size, run_members

#: growth_window's linear regime: from GROWTH_TAKEOFF times the initial
#: amplitude up to GROWTH_SATURATION times the transverse width.
GROWTH_TAKEOFF = 3.0
GROWTH_SATURATION = 0.1
#: Finest RK4 step of the sharp front ODE that the ladder's errors are measured against.
REFERENCE_DT = 1e-5
#: The reference's step halving starts at t_end / REFERENCE_STEPS and stops once two
#: results agree within REFERENCE_TOL times the domain length.
REFERENCE_STEPS = 64
REFERENCE_TOL = 1e-12


# ---------------------------------------------------------------------------
# interface tracking and the transverse mode spectrum
# ---------------------------------------------------------------------------

def _row_crossings(rows: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zeros of the piecewise-linear profiles ``rows[j]`` over the nodes ``x``.

    A zero is a node whose value is exactly 0, or the linear zero between two
    neighbours of opposite sign.  Returns the row index and the position of
    each zero, in row-major, left-to-right order.
    """
    at_node = rows == 0.0
    between = np.zeros_like(at_node)
    between[:, :-1] = rows[:, :-1] * rows[:, 1:] < 0.0
    row, k = np.nonzero(at_node | between)
    pos = x[k]
    cross = between[row, k]
    r, i = row[cross], k[cross]
    a, b = rows[r, i], rows[r, i + 1]
    pos[cross] = x[i] + (x[i + 1] - x[i]) * a / (a - b)
    return row, pos


def track_interface(field: NodalField, line_x2: float = 0.0,
                    prev: float | None = None) -> float:
    """Front position: the zero crossing along the lattice line x2 = line_x2.

    With several crossings the one nearest ``prev`` is returned; without a
    previous value an ambiguous profile is an error, as is a profile with
    no sign change at all.
    """
    if not math.isfinite(line_x2):
        raise ConfigurationError(f"line_x2 must be finite, got {line_x2}")
    mesh = field.mesh
    line = mesh.grid_view(field.values)
    if mesh.dim == 2:
        line = line[min(max(int(round(line_x2 / mesh.h)), 0), mesh.cells[1])]
    _, crossings = _row_crossings(line[None, :], mesh.coords[: mesh.cells[0] + 1, 0])
    if crossings.size == 0:
        raise TrackingError("no sign change along the tracking line")
    if crossings.size == 1:
        return float(crossings[0])
    if prev is None or not math.isfinite(prev):
        raise TrackingError(
            f"{crossings.size} crossings at {[f'{c:.4f}' for c in crossings]} "
            "and no previous position to disambiguate")
    return float(crossings[np.argmin(np.abs(crossings - prev))])


def mode_amplitudes(field: NodalField, l_max: int) -> np.ndarray:
    """Cosine-mode amplitudes A_0..A_l_max of the interface height h(x2).

    h(x2_j) is the one zero crossing of lattice row j; the amplitudes are
    its trapezoid-weighted cosine projection.
    """
    _require_count(l_max, "l_max", 0)
    mesh = field.mesh
    if mesh.dim != 2:
        raise MeasurementError("mode extraction requires a 2D mesh")
    grid = mesh.grid_view(field.values)
    row, heights = _row_crossings(grid, mesh.coords[: mesh.cells[0] + 1, 0])
    counts = np.bincount(row, minlength=grid.shape[0])
    bad = [(j, int(counts[j])) for j in np.flatnonzero(counts != 1)[:12].tolist()]
    if bad:
        raise MeasurementError(
            "rows without a unique interface crossing (row, count): " + repr(bad))
    width = mesh.lengths[1]
    x2 = np.arange(len(heights)) * mesh.h
    trap = np.full(len(heights), mesh.h)
    trap[0] = trap[-1] = 0.5 * mesh.h
    amps = np.empty(l_max + 1)
    for l in range(l_max + 1):
        basis = np.cos(math.pi * l * x2 / width)
        amps[l] = (2.0 - (l == 0)) / width * float(np.sum(trap * heights * basis))
    return amps


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
    """Sharp-interface front position q(t_end) from the planar ODE.

    RK4 runs with dt = t_end/n for n = REFERENCE_STEPS, 2 REFERENCE_STEPS, ...,
    and stops at the first n whose q(t_end) agrees with that of n/2 within
    REFERENCE_TOL * L, or once dt <= REFERENCE_DT.  A front that leaves the
    domain is a ConfigurationError only at that finest step.
    """
    sharp = derive_sharp_params(p, length_L, width_Lt)
    n, prev = REFERENCE_STEPS, None
    while True:
        # t_end <= 0 or not finite: integrate_q checks q0 and t_end; t_end = 0 takes no step
        dt = t_end / n if 0.0 < t_end < math.inf else REFERENCE_DT
        traj = integrate_q(sharp, q0, dt, t_end, output_stride=n)
        q = None if traj.boundary_hit else float(traj.q[-1])
        if dt <= REFERENCE_DT:
            if q is None:
                raise ConfigurationError("reference front left the domain before t_end")
            return q
        if q is not None and prev is not None and abs(q - prev) <= REFERENCE_TOL * length_L:
            return q
        n, prev = 2 * n, q


def convergence_study(p: PhaseFieldParams, epsilons, t_end: float, *,
                      lengths=(1.0, 1.0), q0: float = 0.3, dim: int = 1,
                      cfg: SolverConfig | None = None, h: float | None = None,
                      max_workers: int | None = None) -> ConvergenceTable:
    """Front-position error against the sharp ODE for a decreasing epsilon ladder.

    Each rung is a flat front at ``q0`` that records only t = 0 and
    ``t_end``, against :func:`reference_front_position`.  The rungs
    run in lock-step as the members of one :func:`run_members`; in 1D each
    rung's result is bit-identical to its own :func:`run_simulation`.  The
    flat-front problem is genuinely one-dimensional, so ``dim=1`` is the fast
    default; ``dim=2`` runs the full planar geometry.  If the joint run
    raises a NumericalError, each rung reruns alone and its own
    NumericalError annotates its row; a ConfigurationError propagates.
    ``max_workers`` must be ``None`` or 1; any other value raises
    ConfigurationError.
    """
    if max_workers not in (None, 1):
        raise ConfigurationError(
            f"max_workers must be None or 1 (rungs run in one process), got {max_workers!r}")
    epsilons = [float(e) for e in epsilons]
    if not all(0.0 < eps < prev for prev, eps in zip([math.inf] + epsilons, epsilons)):
        raise ConfigurationError(
            f"epsilon ladder must be positive, finite and strictly decreasing, got {epsilons}")
    cfg = cfg or SolverConfig()
    q_ref = reference_front_position(p, lengths[0], lengths[1] if len(lengths) > 1 else 1.0,
                                     q0, t_end)
    outputs = OutputOptions(stride=max(1, int(round(t_end / cfg.tau))))
    hs = [auto_mesh_size(eps) if h is None else h for eps in epsilons]
    rungs = [(replace(p, epsilon=eps), (dim, lengths[:dim], h_eff), ("flat_front", {"q0": q0}))
             for eps, h_eff in zip(epsilons, hs)]

    try:
        runs = run_members(rungs, cfg, t_end, outputs=outputs)
    except NumericalError:   # find the failing rungs
        runs = []
        for rung in rungs:
            try:
                runs.extend(run_members([rung], cfg, t_end, outputs=outputs))
            except NumericalError as exc:  # annotate, don't abort the ladder
                runs.append(exc)
    rows = []
    for eps, h_eff, run in zip(epsilons, hs, runs):
        if isinstance(run, NumericalError):
            err, note = math.nan, f"{type(run).__name__}: {run}"
        else:
            err = abs(q_ref - float(run.q_h[-1]))
            note = "; ".join(run.warnings) if math.isnan(err) else ""
        rows.append(ConvergenceRow(epsilon=eps, h=h_eff, error=err, eoc=None, note=note))
    eocs = eoc_sequence(epsilons, [row.error for row in rows])
    return ConvergenceTable([replace(row, eoc=eoc) for row, eoc in zip(rows, eocs)])
