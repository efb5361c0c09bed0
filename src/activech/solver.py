"""Mass-lumped P1 finite element discretization with semi-implicit stepping.

Each step solves the coupled system

    (1/tau) (phi^{n+1} - phi^n, chi)^h + (m(phi^n) grad mu^{n+1}, grad chi) = (S_eps(phi^n), chi)^h
    beta eps (grad phi^{n+1}, grad eta) + (beta/eps) (psi'(phi^{n+1}), eta)^h = (mu^{n+1}, eta)^h

by Newton iteration on the psi' term.  Mobility and source are lagged at
phi^n, so within a step only the diagonal psi'' block of the Jacobian
changes between Newton iterates.  The linear solves use a Schur reduction
onto the phi unknowns (the lumped mass matrix is diagonal, so eliminating
mu is exact) with a direct factorization that is reused across solves via
residual-controlled iterative refinement.

Every matrix of the step is a lattice stencil: K and the mobility stiffness
Km are 5-point stencils (3-point in 1D), so the Schur matrix
S = W/tau + beta eps Km W^-1 K + (beta/eps) Km diag(psi'') is a 13-point
stencil (5-point in 1D) with a fixed, structurally symmetric pattern.
:class:`SchurOperator` keeps each as a band array of shape
(n_offsets, n_nodes) whose entry [c, i] is A[i, i + offsets[c]].  On the
first assembly of a run it builds S's CSC pattern and the gather index from
its band array into ``S.data``.  After that, each step writes Km and the
step-constant part beta eps Km W^-1 K as products of shifted bands, and
each Newton iteration adds W/tau and the psi'' column scaling of Km and
gathers the values into ``S.data``; no sparse matrix is constructed.

The linear solves are owned by :class:`SchurOperator`, which factors only
its own S.  In 1D S is pentadiagonal and its LU stays banded (at 257
nodes, 1 784 L + U nonzeros against S's 1 279), so S is factored fresh
in float64 on every Newton iteration.  In 2D L + U fills several times
S, and the solves are mixed-precision iterative refinement (Langou et al.
2006; Carson & Higham 2018): SuperLU factors a float32 copy of S, while
S, the iterate x, the residual rhs - S x and the ``LINEAR_TOL`` test stay
in float64; only the vectors passed to and returned from the back-solve
are cast.  Columns are ordered by minimum degree on the pattern
of A^T + A (``permc_spec="MMD_AT_PLUS_A"``; on a 2D front at 16 641 nodes
L + U fill 38% less than under COLAMD, which orders for A^T A).  In float32
SuperLU runs in symmetric mode and prefers the diagonal pivot
(``diag_pivot_thresh=0.01``): S has a symmetric pattern and, in the stable
regime, a dominant diagonal.  In 2D a factorization is reused across Newton
iterations and steps until refinement against it stalls.  The condition
number of S grows like beta eps tau / h^4, so at large tau or fine h a
float32 factor cannot reach ``LINEAR_TOL``: when a fresh float32
factorization fails or stalls, the operator refactors in float64 and stays
there.  Only a float64 failure is a :class:`NumericalError`.  The
:class:`Stepper` runs the Newton iteration on top.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, NumericalError, ResolutionWarning, StepFailureError
from .mesh import (NodalField, StructuredMesh, band_pattern, build_mesh, element_means,
                   stencil_bands, stiffness_matrix)
from .model import PhaseFieldParams, _require_finite, mobility_m, source_S
from .initial import init_field

PHI_BOUND_WARN = 1.1

#: Mesh cells that must span the diffuse-interface width pi*eps; a coarser
#: mesh raises a ResolutionWarning.  ``analysis.auto_mesh_size`` meets it
#: exactly for epsilon = 1/(2^k pi).
INTERFACE_CELLS = 8


def max_mesh_size(epsilon: float) -> float:
    """Largest mesh size that resolves the interface width pi*eps."""
    return math.pi * epsilon / INTERFACE_CELLS


#: Newton stops once the residual of the coupled system is below NEWTON_TOL,
#: and fails after NEWTON_MAX iterations.
NEWTON_TOL = 1e-9
NEWTON_MAX = 20
#: Relative residual every linear solve reaches.
LINEAR_TOL = 1e-10


@dataclass(frozen=True)
class SolverConfig:
    tau: float = 1e-3

    def __post_init__(self):
        _require_finite(self, ("tau",), positive=True)


@dataclass
class SimState:
    phi: NodalField
    mu: NodalField
    t: float
    step: int

    def __post_init__(self):
        if self.phi.mesh is not self.mu.mesh:
            raise ConfigurationError("phi and mu must live on the same mesh")


@dataclass
class StepReport:
    """Newton diagnostics for one accepted time step."""

    iterations: int
    residuals: list[float]


def _band_product(a_offsets, a, b_offsets, b, offsets) -> np.ndarray:
    """Bands of A @ B on ``offsets`` from the bands of A and B.

    (A B)[i, i+p+q] sums A[i, i+p] B[i+p, i+p+q] over p in descending order.
    SciPy sums a CSR product in the stored order of A's rows, and the CSR
    product Km W^-1 stores them in descending order, so Km W^-1 K matches
    the sparse-product assembly bit for bit.
    """
    n = a.shape[1]
    out = np.zeros((len(offsets), n))
    row_of = {d: c for c, d in enumerate(offsets)}
    for ca in reversed(range(len(a_offsets))):
        p = a_offsets[ca]
        rows = slice(max(0, -p), n - max(0, p))       # nodes i with i + p on the mesh
        moved = slice(max(0, p), n - max(0, -p))      # the nodes i + p
        for cb, q in enumerate(b_offsets):
            out[row_of[p + q], rows] += a[ca, rows] * b[cb, moved]
    return out


class SchurOperator:
    """S = W/tau + beta eps Km W^-1 K + (beta/eps) Km diag(psi'') on a fixed pattern.

    Km and K are lattice stencils (:func:`activech.mesh.stencil_bands`), so
    S is one too, with the pairwise sums of their offsets.  Its CSC pattern
    and the gather index from the band array into ``S.data`` are built on
    the first :meth:`set_mobility`; afterwards only values are written.
    :meth:`solve` solves with the current S against a reused factorization.
    """

    def __init__(self, mesh: StructuredMesh, params: PhaseFieldParams):
        self.mesh = mesh
        self.w = mesh.lumped
        self._w_inv = (1.0 / self.w)[None]
        self._c1 = params.beta * params.epsilon
        self._c2 = params.beta / params.epsilon
        self.S = None
        self._lu = None        # SuperLU of the current S or of an earlier one
        self._reuse = mesh.dim > 1    # in 1D, factor fresh in float64 (see module docstring)
        self._single = self._reuse    # factor in float32; cleared for good on a float32 failure

    def _build(self):
        self._k_offsets, self._k = stencil_bands(self.mesh)
        offs = self._k_offsets
        self._offsets = tuple(sorted({p + q for p in offs for q in offs}))
        self._diag = self._offsets.index(0)
        self._km_rows = [self._offsets.index(p) for p in offs]
        n = self.mesh.n_nodes
        # Km shares K's pattern; S's pattern is every two-edge path
        indptr, indices, self._km_gather = band_pattern(offs, self._k != 0.0)
        # Km is symmetric, so its CSC arrays are its CSR arrays
        self.Km = sparse.csr_matrix((np.zeros(len(indices)), indices, indptr), shape=(n, n))
        paths = _band_product(offs, np.abs(self._k), offs, np.abs(self._k), self._offsets)
        indptr, indices, self._gather = band_pattern(self._offsets, paths != 0.0)
        self.S = sparse.csc_matrix((np.zeros(len(indices)), indices, indptr), shape=(n, n))
        self._S32 = sparse.csc_matrix((np.zeros(len(indices), np.float32), indices, indptr),
                                      shape=(n, n))

    def set_mobility(self, coeff: np.ndarray) -> sparse.csr_matrix:
        """Take Km from per-element mobility ``coeff``; returns Km.

        Km is one matrix whose values are rewritten whenever ``coeff`` changes.
        """
        if self.S is None:
            self._build()
        elif np.array_equal(coeff, self._coeff):
            return self.Km
        self._coeff = np.array(coeff)
        offs = self._k_offsets
        _, self._km = stencil_bands(self.mesh, coeff)
        np.take(self._km, self._km_gather, out=self.Km.data)
        km_w = _band_product(offs, self._km, (0,), self._w_inv, offs)
        self._base = self._c1 * _band_product(offs, km_w, offs, self._k, self._offsets)
        return self.Km

    def assemble(self, ddpsi: np.ndarray, tau: float) -> sparse.csc_matrix:
        """S for the psi'' values ``ddpsi`` and time step ``tau``.

        S is one matrix whose values are rewritten on every call.
        """
        offs = self._k_offsets
        vals = self._base.copy()
        vals[self._diag] = self.w / tau + vals[self._diag]
        vals[self._km_rows] += self._c2 * _band_product(offs, self._km, (0,), ddpsi[None], offs)
        np.take(vals, self._gather, out=self.S.data)
        return self.S

    def _factor(self):
        """Sparse LU of S into ``_lu``, in float32 exactly while ``_single`` is set.

        A float32 failure clears ``_single`` for good; a float64 failure is
        a :class:`NumericalError`.
        """
        self._lu = None
        if self._single:
            np.copyto(self._S32.data, self.S.data)
            try:
                self._lu = splu(self._S32, permc_spec="MMD_AT_PLUS_A",
                                diag_pivot_thresh=0.01, options={"SymmetricMode": True})
                return
            except RuntimeError:
                self._single = False
        try:
            self._lu = splu(self.S, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise NumericalError(
                f"LU factorization of the {self.S.shape[0]}x{self.S.shape[1]} Schur matrix "
                f"failed: {exc}") from exc

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve S x = rhs to relative residual <= LINEAR_TOL.

        In 1D, factors S fresh in float64 (S is pentadiagonal; its LU stays banded).
        In 2D, tries the most recent factorization with iterative refinement
        first; refactorizes S when the refinement stalls, and refactorizes in
        float64 when refinement against a fresh float32 factor stalls too.
        """
        rhs_norm = float(np.linalg.norm(rhs))
        if rhs_norm == 0.0:
            return np.zeros_like(rhs)
        tol, S = LINEAR_TOL, self.S

        def refine():
            lu, dtype = self._lu, np.float32 if self._single else np.float64

            def back_solve(v):
                return lu.solve(v.astype(dtype, copy=False)).astype(np.float64, copy=False)

            x = back_solve(rhs)
            r = rhs - S @ x
            rel = float(np.linalg.norm(r)) / rhs_norm
            for _ in range(12):
                if rel <= tol:
                    break
                x = x + back_solve(r)
                r = rhs - S @ x
                rel, old_rel = float(np.linalg.norm(r)) / rhs_norm, rel
                if rel >= 0.7 * old_rel:
                    break
            return x, rel

        if self._reuse and self._lu is not None:
            x, rel = refine()
            if rel <= tol:
                return x
        self._factor()
        x, rel = refine()
        if not rel <= tol and self._single:   # NaN is a stall too
            self._single = False
            self._factor()
            x, rel = refine()
        if not rel <= tol:
            raise NumericalError(
                f"linear solver stalled at relative residual {rel:.3e} "
                f"(target {tol:.1e})")
        return x


class Stepper:
    """Newton iteration of one time step for one (mesh, params, config)."""

    def __init__(self, mesh: StructuredMesh, params: PhaseFieldParams, config: SolverConfig):
        self.mesh = mesh
        self.p = params
        self.cfg = config
        self.K = stiffness_matrix(mesh)
        self.w = mesh.lumped
        self.schur = SchurOperator(mesh, params)
        if mesh.h > max_mesh_size(params.epsilon) * (1.0 + 1e-12):
            warnings.warn(
                f"mesh size h={mesh.h:g} is too coarse for epsilon={params.epsilon:g}; "
                f"the diffuse interface (width pi*eps) spans fewer than "
                f"{INTERFACE_CELLS} cells ({INTERFACE_CELLS + 1} nodes)",
                ResolutionWarning, stacklevel=2)

    # -- pieces -----------------------------------------------------------

    def source_nodal(self, phi: np.ndarray) -> np.ndarray:
        return source_S(self.p.reaction, self.p.potential, self.p.epsilon, phi)

    def initial_mu(self, phi: np.ndarray) -> np.ndarray:
        """mu solving the chemical-potential equation for a given phi."""
        beta, eps = self.p.beta, self.p.epsilon
        return beta * eps * (self.K @ phi) / self.w + (beta / eps) * self.p.potential.dpsi(phi)

    # -- Newton step ------------------------------------------------------

    def step(self, phi_old: np.ndarray, mu_old: np.ndarray, step_index: int = 0):
        """Advance one step; returns (phi, mu, StepReport)."""
        p = self.p
        beta, eps, tau = p.beta, p.epsilon, self.cfg.tau
        w, K = self.w, self.K
        # lumped quadrature of m(phi^n) grad mu . grad chi gives per-element
        # vertex-averaged mobility against piecewise-constant gradients
        Km = self.schur.set_mobility(
            np.asarray(mobility_m(p.mobility, element_means(self.mesh, phi_old))))
        svec = self.source_nodal(phi_old)
        rhs_mass = w * (phi_old / tau + svec)

        phi = phi_old.copy()
        mu = mu_old.copy()
        residuals = []
        converged = False
        for _ in range(NEWTON_MAX + 1):
            r1 = (w / tau) * phi + Km @ mu - rhs_mass
            r2 = beta * eps * (K @ phi) + (beta / eps) * w * p.potential.dpsi(phi) - w * mu
            res = math.hypot(float(np.linalg.norm(r1)), float(np.linalg.norm(r2)))
            residuals.append(res)
            if res < NEWTON_TOL:
                converged = True
                break
            if len(residuals) > NEWTON_MAX:
                break
            ddpsi = np.asarray(p.potential.ddpsi(phi))
            self.schur.assemble(ddpsi, tau)
            dphi = self.schur.solve(-(r1 + Km @ (r2 / w)))
            dmu = (beta * eps * (K @ dphi) + (beta / eps) * w * ddpsi * dphi + r2) / w
            phi = phi + dphi
            mu = mu + dmu
        if not converged:
            raise StepFailureError(
                f"Newton failed to reach {NEWTON_TOL:.1e} within "
                f"{NEWTON_MAX} iterations (last residual {residuals[-1]:.3e})",
                step=step_index, residuals=residuals)
        return phi, mu, StepReport(iterations=len(residuals) - 1, residuals=residuals)


def free_energy(field: NodalField, mesh: StructuredMesh, p: PhaseFieldParams) -> float:
    """Ginzburg-Landau energy: beta (eps/2 |grad phi|^2 + psi(phi)/eps).

    The gradient term is exact for P1; the potential term uses the lumped
    quadrature, consistent with the scheme.
    """
    if field.values.shape != (mesh.n_nodes,):
        raise ConfigurationError("field does not match the mesh")
    K = stiffness_matrix(mesh)
    grad_term = 0.5 * p.epsilon * float(field.values @ (K @ field.values))
    pot_term = float(np.dot(mesh.lumped, p.potential.psi(field.values))) / p.epsilon
    return p.beta * (grad_term + pot_term)


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    """Diagnostic time series and final state of a simulation run."""

    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    q_h: np.ndarray
    mode_amps: np.ndarray | None
    newton_iters: list[int]
    max_abs_phi: float
    warnings: list[str] = field(default_factory=list)
    state: SimState | None = None
    wall_seconds: float = 0.0


def run_simulation(p: PhaseFieldParams, mesh_spec, init_spec, cfg: SolverConfig,
                   t_end: float, outputs=None) -> RunRecord:
    """Advance the scheme to ``t_end``, recording diagnostics each stride.

    ``mesh_spec`` is a StructuredMesh or a (dim, lengths, h) tuple;
    ``init_spec`` is a NodalField or a (kind, params) tuple.  ``outputs``
    is an :class:`activech.output.OutputOptions`; when it names a
    directory, the diagnostics CSV, VTK snapshots, a final checkpoint and
    the run manifest are written there.  Deterministic: identical inputs
    give identical records and files.
    """
    from . import output as outmod
    from .analysis import mode_amplitudes, track_interface
    from .errors import TrackingError

    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ConfigurationError(f"t_end must be finite and >= 0, got {t_end}")
    opts = outputs if outputs is not None else outmod.OutputOptions()
    mesh = mesh_spec if isinstance(mesh_spec, StructuredMesh) else build_mesh(*mesh_spec)
    if opts.track_interface and mesh.dim == 2 and not 0.0 <= opts.track_line <= mesh.lengths[1]:
        raise ConfigurationError(f"track_line={opts.track_line} outside [0, {mesh.lengths[1]}]")
    if isinstance(init_spec, NodalField):
        phi0 = init_spec
        if phi0.mesh is not mesh:
            raise ConfigurationError("initial field lives on a different mesh")
    else:
        kind, init_params = init_spec
        phi0 = init_field(mesh, kind, init_params, p.epsilon)

    n_steps = int(round(t_end / cfg.tau))
    if abs(n_steps * cfg.tau - t_end) > 1e-9 * max(1.0, abs(t_end)):
        raise ConfigurationError(
            f"t_end={t_end} is not an integer multiple of tau={cfg.tau}")

    stepper = Stepper(mesh, p, cfg)
    phi = phi0.values.copy()
    mu = stepper.initial_mu(phi)
    writer = outmod.RunWriter(opts, mesh) if opts.directory else None

    times, mass, energy, q_trace, mode_rows = [], [], [], [], []
    newton_iters: list[int] = []
    run_warnings: list[str] = []
    max_abs_phi = 0.0
    prev_q = None
    t0 = time.perf_counter()

    def record(step, t, phi_vec, mu_vec):
        nonlocal prev_q, max_abs_phi
        fld = NodalField(phi_vec, mesh)
        times.append(t)
        mass.append(float(np.dot(mesh.lumped, phi_vec)))
        energy.append(free_energy(fld, mesh, p))
        q_now = math.nan
        if opts.track_interface:
            try:
                q_now = track_interface(fld, mesh, line_x2=opts.track_line, prev=prev_q)
                prev_q = q_now
            except TrackingError as exc:
                _warn_once(run_warnings, f"interface tracking: {exc}")
        q_trace.append(q_now)
        if opts.modes_lmax is not None:
            try:
                spectrum = mode_amplitudes(fld, mesh, opts.modes_lmax)
                mode_rows.append(spectrum.amplitudes)
            except Exception as exc:  # measurement errors must not kill the run
                mode_rows.append(np.full(opts.modes_lmax + 1, np.nan))
                _warn_once(run_warnings, f"mode extraction: {exc}")
        max_abs_phi = max(max_abs_phi, float(np.max(np.abs(phi_vec))))
        if writer:
            writer.snapshot(step, t, phi_vec, mu_vec)

    if writer:
        writer.start_manifest(run_warnings)
    try:
        record(0, 0.0, phi, mu)
        for n in range(1, n_steps + 1):
            phi, mu, report = stepper.step(phi, mu, step_index=n)
            newton_iters.append(report.iterations)
            if n % opts.stride == 0 or n == n_steps:
                record(n, n * cfg.tau, phi, mu)
        if max_abs_phi > PHI_BOUND_WARN:
            _warn_once(run_warnings,
                       f"phase field left [-{PHI_BOUND_WARN}, {PHI_BOUND_WARN}]: "
                       f"max |phi| = {max_abs_phi:.4f}")
            warnings.warn(run_warnings[-1], UserWarning, stacklevel=2)
    except Exception as exc:
        if writer:
            writer.abort(exc)
        raise

    state = SimState(phi=NodalField(phi, mesh), mu=NodalField(mu, mesh),
                     t=n_steps * cfg.tau, step=n_steps)
    rec = RunRecord(
        times=np.asarray(times), mass=np.asarray(mass), energy=np.asarray(energy),
        q_h=np.asarray(q_trace),
        mode_amps=np.asarray(mode_rows) if mode_rows else None,
        newton_iters=newton_iters, max_abs_phi=max_abs_phi,
        warnings=run_warnings, state=state,
        wall_seconds=time.perf_counter() - t0,
    )
    if writer:
        writer.finish(rec)
    return rec


def _warn_once(sink: list[str], message: str):
    if message not in sink:
        sink.append(message)
