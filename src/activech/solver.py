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
first assembly of a run it builds S's CSC pattern, the gather index from
its band array into ``S.data``, and the ``S.data`` positions of the
diagonal and of Km's entries.  After that, each mobility change writes Km
and gathers the step-constant part beta eps Km W^-1 K, a product of shifted
bands, into CSC order; each Newton iteration copies it into ``S.data``,
adds W/tau on the diagonal positions and the psi'' column scaling of Km on
Km's positions.  No sparse matrix is constructed.

The linear solves are owned by :class:`SchurOperator`, which factors only
its own S.  In 1D S is pentadiagonal, and in natural order its LU with
partial pivoting stays in the band: L has at most 2 subdiagonals and U at
most 4 superdiagonals, so L + U holds at most 8 n nonzeros (1 783 against
S's 1 279 at 257 nodes).  Minimum degree finds no less fill and costs more
per call, so S is factored fresh in float64 in natural order
(``permc_spec="NATURAL"``) on every Newton iteration.  In 2D L + U fills
several times S, and the solves are mixed-precision GMRES-based iterative
refinement (GMRES-IR; Langou et al. 2006; Carson & Higham 2017, 2018):
SuperLU factors a float32 copy M of S, while S, the iterate x, the residual
rhs - S x and its test stay in float64; only the vectors passed to and
returned from the back-solve are cast.  Columns are ordered by minimum
degree on the pattern of A^T + A (``permc_spec="MMD_AT_PLUS_A"``; on a 2D
front at 16 641 nodes L + U fill 38% less than under COLAMD, which orders
for A^T A).  In float32 SuperLU runs in symmetric mode and prefers the
diagonal pivot (``diag_pivot_thresh=0.01``): S has a symmetric pattern and,
in the stable regime, a dominant diagonal.  In 2D a factorization is reused
across Newton iterations and steps until refinement against it stalls, or
until its contraction rate shows it would miss the budget of 12 back-solves
after the first.  The condition number of S grows like beta eps tau / h^4,
so at large tau or fine h a float32 factor cannot converge: when a fresh
float32 factorization fails or stalls, the operator refactors in float64
and stays there.  That escalation lives in one loop of
:meth:`SchurOperator.solve`, and ``_factor`` only factors.  Only a float64
failure is a :class:`NumericalError`; within a time step it becomes a
:class:`StepFailureError` with the step and its residuals.

A solve starts from x0 = M^-1 rhs and stops at
||rhs - S x|| <= max(LINEAR_TOL ||rhs||, NEWTON_TOL/10) (Eisenstat & Walker
1996): after the update of the :class:`Stepper`'s Newton iteration the next
r1 is exactly -(rhs - S x) and r2 holds only the psi' Taylor remainder, so a
smaller residual cannot change whether Newton converges.  When x0 misses
that target, the correction equation S d = rhs - S x0 is solved by GMRES
right-preconditioned with M (Saad & Schultz 1986), one back-solve per
iteration.  It stops on its own residual estimate: below the target, on a
stall (the estimate falls by less than a factor 0.7 in one iteration), or
when the rate of the last iteration predicts more than 12 iterations; then
the true residual of x0 + d decides.  A fresh float64 factor meets the
target at x0, so in 1D GMRES never runs.

Independent problems ("members", such as the rungs of an epsilon ladder)
step in lock-step as one block-diagonal system: one factorization and
back-solve per Newton iteration serve them all.  Each member's residual and
target are its own, a member that meets its target at x0 keeps x0, and a
converged member is frozen, so in 1D its iterates are bit-identical to its
own run's.  Each member norm (of r1, r2, a solve's rhs and rhs - S x) comes
from one pass, ``np.sqrt(np.add.reduceat(r * r, starts))`` from each member's
first node, also for one member: ``reduceat`` sums in node order whatever the
offset, so a member's norms are its own run's bit for bit (a BLAS dot need not
be).  Nothing is masked until a member has frozen.

SciPy is imported where a matrix is first built or factored, not with the
package, so the sharp-interface engine runs on NumPy alone; :func:`splu`
stays a module-level function, looked up at call time, so that the
factorization entry point can be wrapped or replaced as ``solver.splu``.
"""

from __future__ import annotations

import itertools
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (ConfigurationError, MeasurementError, NumericalError, ResolutionWarning,
                     StepFailureError, TrackingError)
from .mesh import (NodalField, StructuredMesh, band_pattern, build_mesh, element_means,
                   stencil_bands, stiffness_matrix)
from .model import (PhaseFieldParams, _require_finite, _step_count, ddpsi, dpsi, mobility_m, psi,
                    source_S)
from .initial import init_field

if TYPE_CHECKING:
    from scipy import sparse

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
    """Newton diagnostics for one accepted time step.

    ``iterations`` counts the joint linear solves; member i took ``len(histories[i]) - 1``.
    """

    iterations: int
    histories: list[list[float]]


def splu(A, **options):
    """SciPy's sparse LU of ``A`` (:func:`scipy.sparse.linalg.splu`)."""
    from scipy.sparse.linalg import splu as superlu

    return superlu(A, **options)


def _stack(arrays, offsets) -> np.ndarray:
    """The arrays ``arrays[i] + offsets[i]`` end to end; one array at offset 0 is itself."""
    if len(arrays) == 1 and offsets[0] == 0:
        return arrays[0]
    return np.concatenate([a + o for a, o in zip(arrays, offsets)])


def _join(blocks) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Compressed (indptr, indices) of the block diagonal, and each block's first entry."""
    at = [0, *itertools.accumulate(len(indices) for _, indices in blocks)]
    nodes = [0, *itertools.accumulate(len(indptr) - 1 for indptr, _ in blocks)]
    indptr = [indptr[:-1] for indptr, _ in blocks[:-1]] + [blocks[-1][0]]
    return _stack(indptr, at), _stack([indices for _, indices in blocks], nodes), at


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


class _Block:
    """One member's stencil bands and the CSC (indptr, indices) of its Km and S.

    ``km_gather`` and ``gather`` place their entries in the band arrays; ``km_at``
    and ``diag_at`` are the ``S.data`` positions of Km's entries and of the diagonal.
    """

    def __init__(self, mesh: StructuredMesh):
        self.mesh, self.w_inv = mesh, (1.0 / mesh.lumped)[None]
        self.k_offsets, self.k = offs, k = stencil_bands(mesh)
        self.offsets = tuple(sorted({p + q for p in offs for q in offs}))
        # Km shares K's pattern; S's pattern is every two-edge path
        *self.km_pattern, self.km_gather = band_pattern(offs, k != 0.0)
        paths = _band_product(offs, np.abs(k), offs, np.abs(k), self.offsets)
        *self.s_pattern, self.gather = band_pattern(self.offsets, paths != 0.0)
        mask = np.zeros(paths.shape, bool)
        mask[[self.offsets.index(p) for p in offs]] = k != 0.0
        self.km_at = np.flatnonzero(mask.ravel()[self.gather])
        self.diag_at = np.flatnonzero(self.gather // mesh.n_nodes == self.offsets.index(0))


class SchurOperator:
    """S = W/tau + beta eps Km W^-1 K + (beta/eps) Km diag(psi'') on a fixed pattern.

    Km and K are lattice stencils (:func:`activech.mesh.stencil_bands`), so
    S is one too, with the pairwise sums of their offsets.  Its CSC pattern,
    the gather index from the band array into ``S.data`` and the ``S.data``
    positions of the diagonal and of Km's entries are built on the first
    :meth:`set_mobility`; afterwards only values are written.
    :meth:`solve` solves with the current S against a reused factorization.

    Several members (``mesh`` and ``params`` as sequences, kept as the tuples
    ``meshes`` and ``params`` that :class:`Stepper` reads) give the block diagonal
    of their operators: the CSC arrays stack each member's :class:`_Block`;
    member i has ``sizes[i]`` nodes ``slices[i]`` from ``starts[i]``.
    """

    def __init__(self, mesh, params):
        self.meshes = (mesh,) if isinstance(mesh, StructuredMesh) else tuple(mesh)
        self.params = (params,) if isinstance(params, PhaseFieldParams) else tuple(params)
        if (len(self.meshes) != len(self.params)
                or len({(q.beta, q.reaction, q.mobility) for q in self.params}) != 1):
            raise ConfigurationError(
                "members need one mesh each and must share beta, the reaction and the mobility")
        ends = list(itertools.accumulate(m.n_nodes for m in self.meshes))
        self.slices = [slice(a, b) for a, b in zip([0] + ends, ends)]
        self.starts, self.sizes = np.array([0] + ends[:-1]), [m.n_nodes for m in self.meshes]
        self.S = None
        self._lu = None        # SuperLU of the current S or of an earlier one
        self._reuse = max(m.dim for m in self.meshes) > 1   # 1D: fresh float64 factors
        self._single = self._reuse    # factor in float32; cleared for good on a float32 failure
        self._krylov = None    # GMRES's bases V and Z, allocated on first use
        self.counts = dict.fromkeys(   # SuperLU calls, and factors dropped for their rate
            ("factor_float32", "factor_float64", "backsolve", "given_up"), 0)

    def norms(self, r: np.ndarray) -> list[float]:
        """Each member's 2-norm of ``r``, summed in node order (see the module docstring)."""
        return np.sqrt(np.add.reduceat(r * r, self.starts)).tolist()

    def _build(self):
        from scipy import sparse

        self._blocks = [_Block(mesh) for mesh in self.meshes]
        n = self.slices[-1].stop
        indptr, indices, self._km_parts = _join([b.km_pattern for b in self._blocks])
        # Km is symmetric, so its CSC arrays are its CSR arrays
        self.Km = sparse.csr_matrix((np.zeros(len(indices)), indices, indptr), shape=(n, n))
        self._km_col = np.repeat(np.arange(n), np.diff(self.Km.indptr))
        self._c2 = np.repeat([p.beta / p.epsilon for p in self.params],   # per Km entry
                             np.diff(self._km_parts))
        indptr, indices, s_at = _join([b.s_pattern for b in self._blocks])
        self.S = sparse.csc_matrix((np.zeros(len(indices)), indices, indptr), shape=(n, n))
        self._km_at = _stack([b.km_at for b in self._blocks], s_at)
        self._diag_at = _stack([b.diag_at for b in self._blocks], s_at)
        if self._reuse:
            self._S32 = sparse.csc_matrix((np.zeros(len(indices), np.float32), indices, indptr),
                                          shape=(n, n))

    def set_mobility(self, coeff: np.ndarray) -> sparse.csr_matrix:
        """Take Km from per-element mobility ``coeff`` (member after member); returns Km.

        Km is one matrix whose values are rewritten on every call.
        """
        if self.S is None:
            self._build()
        base, at = [], [0, *itertools.accumulate(m.n_elements for m in self.meshes)]
        for i, (b, p) in enumerate(zip(self._blocks, self.params)):
            offs = b.k_offsets
            _, km = stencil_bands(b.mesh, coeff[at[i]:at[i + 1]])
            np.take(km, b.km_gather, out=self.Km.data[self._km_parts[i]:self._km_parts[i + 1]])
            km_w = _band_product(offs, km, (0,), b.w_inv, offs)
            base.append(np.take(p.beta * p.epsilon
                                * _band_product(offs, km_w, offs, b.k, b.offsets), b.gather))
        self._base = np.concatenate(base)
        return self.Km

    def assemble(self, ddpsi: np.ndarray, w_tau: np.ndarray) -> sparse.csc_matrix:
        """S for the psi'' values ``ddpsi`` and the diagonal ``w_tau`` = W/tau.

        S is one matrix whose values are rewritten on every call.
        """
        data = self.S.data
        np.copyto(data, self._base)
        data[self._diag_at] = w_tau + data[self._diag_at]
        data[self._km_at] += self._c2 * (self.Km.data * ddpsi[self._km_col])
        return self.S

    def _factor(self):
        """Sparse LU into ``_lu``: of S's float32 twin while ``_single`` is set, else of S.

        Only factors: SuperLU's ``RuntimeError`` propagates, and :meth:`solve`
        escalates to float64 on it or raises.
        """
        self._lu = None
        if self._single:
            np.copyto(self._S32.data, self.S.data)
            self.counts["factor_float32"] += 1
            self._lu = splu(self._S32, permc_spec="MMD_AT_PLUS_A",
                            diag_pivot_thresh=0.01, options={"SymmetricMode": True})
        else:
            self.counts["factor_float64"] += 1
            self._lu = splu(self.S, permc_spec="MMD_AT_PLUS_A" if self._reuse else "NATURAL")

    def _gmres(self, r0: np.ndarray, target: float, back_solve, dtype):
        """Correction d to S d = r0, from at most 12 back-solves.

        Right-preconditioned GMRES (Saad & Schultz 1986) with the factor M as
        the preconditioner: the Arnoldi basis V of S M^-1 is float64, and
        Z = M^-1 V is kept as ``back_solve`` returns it (float32 in 2D), so
        S Z = V H holds whatever precision M has.  Givens rotations reduce
        H to R as it grows, and |g[k+1]| is the estimate of ||r0 - S d||.
        It stops below ``target``, on a stall (the estimate falls by less
        than 0.7), and when the last iteration's rate would miss the budget;
        that drops the factor and counts as ``given_up``.
        """
        from scipy.linalg import solve_triangular
        from scipy.linalg.blas import dgemv

        if self._krylov is None or self._krylov[1].dtype != dtype:
            self._krylov = np.empty((13, len(r0))), np.empty((12, len(r0)), dtype)
        V, Z = self._krylov
        R, g, rotations = np.zeros((12, 12)), [math.sqrt(r0 @ r0)], []
        np.divide(r0, g[0], out=V[0])
        res = g[0]
        for k in range(12):
            Z[k] = back_solve(V[k])
            # SciPy's mixed-dtype product is slower than the cast and a float64 one
            w, basis = self.S @ Z[k].astype(np.float64, copy=False), V[:k + 1].T
            h = dgemv(1.0, basis, w, trans=1)   # classical Gram-Schmidt, twice, in place
            w = dgemv(-1.0, basis, h, 1.0, w, overwrite_y=1)
            h2 = dgemv(1.0, basis, w, trans=1)
            w = dgemv(-1.0, basis, h2, 1.0, w, overwrite_y=1)
            h, h_next = (h + h2).tolist(), math.sqrt(w @ w)
            for j, (c, s) in enumerate(rotations):
                h[j], h[j + 1] = c * h[j] + s * h[j + 1], c * h[j + 1] - s * h[j]
            diag = math.hypot(h[k], h_next)
            if not 0.0 < diag < math.inf:   # a singular or non-finite column is left out
                break
            c, s = h[k] / diag, h_next / diag
            rotations.append((c, s))
            h[k] = diag
            R[:k + 1, k] = h
            g[k:] = [c * g[k], -s * g[k]]
            old, res = res, abs(g[k + 1])
            if res <= target or not res < 0.7 * old:   # converged (h_next = 0 too), or stalled
                break
            if k + 1 + math.log(target / res) / math.log(res / old) > 12:
                self.counts["given_up"] += 1   # at this rate it would miss the budget
                break
            np.divide(w, h_next, out=V[k + 1])
        m = len(rotations)
        return solve_triangular(R[:m, :m], g[:m], check_finite=False) @ Z[:m] if m else 0.0

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve S x = rhs to ||rhs_i - S x_i|| <= max(LINEAR_TOL ||rhs_i||, NEWTON_TOL/10).

        Each member i has its own target (a norm over all would let one with a
        small rhs stop short).  After x0 = M^-1 rhs, only members above their
        target are refined, by GMRES on the correction equation (see
        :meth:`_gmres`) to the smallest of their targets; the others keep x0.
        The next r1 of :meth:`Stepper.step` is -(rhs - S x).  In 1D, factors S
        fresh in float64, which meets every target at x0.  In 2D, tries the
        most recent factorization first; refactorizes S when GMRES stalls, is
        non-finite or would need more than 12 back-solves at its contraction
        rate, or when the true residual misses a target, and refactorizes in
        float64 when refinement against a fresh float32 factor fails that way too.
        """
        norms = self.norms(rhs)
        if not any(norms):
            return np.zeros_like(rhs)
        tols = [max(LINEAR_TOL, NEWTON_TOL / (10.0 * n)) if n else math.inf for n in norms]
        S = self.S

        def refine():
            lu, dtype = self._lu, np.float32 if self._single else np.float64

            def back_solve(v):
                self.counts["backsolve"] += 1
                return lu.solve(v.astype(dtype, copy=False))

            x = back_solve(rhs).astype(np.float64, copy=False)
            r = rhs - S @ x
            rels = [e / n if n else 0.0 for e, n in zip(self.norms(r), norms)]
            live = [rel > tol and math.isfinite(rel) for rel, tol in zip(rels, tols)]
            if any(live):
                # S and the factor are block diagonal, so a frozen member's rows stay zero;
                # the joint residual bounds each member's, so the smallest target serves all
                r0 = r if all(live) else np.where(np.repeat(live, self.sizes), r, 0.0)
                target = min(tol * n for tol, n, on in zip(tols, norms, live) if on)
                x = x + self._gmres(r0, target, back_solve, dtype)
                rels = [e / n if on else rel
                        for e, n, rel, on in zip(self.norms(rhs - S @ x), norms, rels, live)]
            # the first member above its target, if any (a NaN residual is a stall too)
            return x, next(((rel, tol) for rel, tol in zip(rels, tols) if not rel <= tol), None)

        if self._reuse and self._lu is not None:
            x, stalled = refine()
            if stalled is None:
                return x
        while True:   # a float32 factor that fails or stalls escalates to float64 for good
            try:
                self._factor()
            except RuntimeError as exc:
                if not self._single:
                    raise NumericalError(
                        f"LU factorization of the {S.shape[0]}x{S.shape[1]} Schur matrix "
                        f"failed: {exc}") from exc
            else:
                x, stalled = refine()
                if stalled is None:
                    return x
                if not self._single:
                    raise NumericalError(
                        f"linear solver stalled at relative residual {stalled[0]:.3e} "
                        f"(target {stalled[1]:.1e})")
            self._single = False


class Stepper:
    """Newton iteration of one time step for one or several members.

    A member is one (mesh, params) problem; ``mesh`` and ``params`` are one
    member's or equal-length sequences.  Members share beta, the reaction,
    the mobility and ``config`` and step in lock-step on the stacked nodes
    (``slices[i]`` holds member i's), one block-diagonal solve per Newton
    iteration.  A member is frozen once its own residual is below NEWTON_TOL.

    Construction does no Schur work: the operator builds S's pattern and Km
    on the first :meth:`step`.
    """

    def __init__(self, mesh, params, config: SolverConfig):
        self.cfg, self.schur = config, SchurOperator(mesh, params)
        self.meshes, self.params = self.schur.meshes, self.schur.params
        self.slices = self.schur.slices
        K = [stiffness_matrix(m) for m in self.meshes]   # each row keeps its entry order
        if len(K) == 1:   # as _stack does: one member's arrays are its own, and eps a scalar
            self.K, self.w, self.eps = K[0], self.meshes[0].lumped, self.params[0].epsilon
        else:
            from scipy import sparse

            self.K = sparse.block_diag(K, format="csr")
            self.w = np.concatenate([m.lumped for m in self.meshes])
            self.eps = np.concatenate([np.full(m.n_nodes, q.epsilon)
                                       for m, q in zip(self.meshes, self.params)])
        beta = self.params[0].beta   # constant factors, in the operand order of the residual
        self._c_grad, self._c_well = beta * self.eps, (beta / self.eps) * self.w
        for m, q in zip(self.meshes, self.params):
            if m.h > max_mesh_size(q.epsilon) * (1.0 + 1e-12):
                warnings.warn(
                    f"mesh size h={m.h:g} is too coarse for epsilon={q.epsilon:g}; "
                    f"the diffuse interface (width pi*eps) spans fewer than "
                    f"{INTERFACE_CELLS} cells ({INTERFACE_CELLS + 1} nodes)",
                    ResolutionWarning, stacklevel=2)

    # -- pieces -----------------------------------------------------------

    def source_nodal(self, phi: np.ndarray) -> np.ndarray:
        return source_S(self.params[0].reaction, self.eps, phi)

    def initial_mu(self, phi: np.ndarray) -> np.ndarray:
        """mu solving the chemical-potential equation for a given phi."""
        return (self._c_grad * (self.K @ phi) / self.w
                + (self.params[0].beta / self.eps) * dpsi(phi))

    # -- Newton step ------------------------------------------------------

    def step(self, phi_old: np.ndarray, mu_old: np.ndarray, step_index: int = 0):
        """Advance every member one step; returns (phi, mu, StepReport)."""
        schur, w, K, w_tau = self.schur, self.w, self.K, self.w / self.cfg.tau
        c_grad, c_well, mobility = self._c_grad, self._c_well, self.params[0].mobility
        # lumped quadrature of m(phi^n) grad mu . grad chi gives per-element
        # vertex-averaged mobility against piecewise-constant gradients; with
        # m+ = m- that is m- on every element, so Km is set on the first step only
        if schur.S is None or mobility.m_plus != mobility.m_minus:
            means = [element_means(m, phi_old[s]) for m, s in zip(self.meshes, self.slices)]
            schur.set_mobility(mobility_m(mobility, np.concatenate(means)))
        Km = schur.Km
        rhs_mass = w * (phi_old / self.cfg.tau + self.source_nodal(phi_old))

        phi, mu = phi_old.copy(), mu_old.copy()
        histories = [[] for _ in self.slices]
        live = [True] * len(self.slices)
        solves = 0
        while True:
            r1 = w_tau * phi + Km @ mu - rhs_mass
            r2 = c_grad * (K @ phi) + c_well * dpsi(phi) - w * mu
            for i, (a, b) in enumerate(zip(schur.norms(r1), schur.norms(r2))):
                if live[i]:
                    histories[i].append(math.hypot(a, b))
                    live[i] = not histories[i][-1] < NEWTON_TOL
            if not any(live):
                break
            residuals = histories[live.index(True)]
            if solves == NEWTON_MAX:
                raise StepFailureError(
                    f"Newton failed to reach {NEWTON_TOL:.1e} within "
                    f"{NEWTON_MAX} iterations (last residual {residuals[-1]:.3e})",
                    step=step_index, residuals=residuals)
            ddpsi_phi = ddpsi(phi)
            schur.assemble(ddpsi_phi, w_tau)
            rhs = -(r1 + Km @ (r2 / w))
            nodes = True if all(live) else np.repeat(live, schur.sizes)   # True: no mask
            try:
                dphi = schur.solve(rhs if nodes is True else np.where(nodes, rhs, 0.0))
            except NumericalError as exc:
                raise StepFailureError(str(exc), step=step_index, residuals=residuals) from exc
            solves += 1
            dmu = (c_grad * (K @ dphi) + c_well * ddpsi_phi * dphi + r2) / w
            np.add(phi, dphi, out=phi, where=nodes)   # a frozen member keeps its iterate
            np.add(mu, dmu, out=mu, where=nodes)
        return phi, mu, StepReport(iterations=solves, histories=histories)


def free_energy(field: NodalField, p: PhaseFieldParams) -> float:
    """Ginzburg-Landau energy: beta (eps/2 |grad phi|^2 + psi(phi)/eps).

    The gradient term is exact for P1; the potential term uses the lumped
    quadrature, consistent with the scheme.
    """
    K = stiffness_matrix(field.mesh)
    grad_term = 0.5 * p.epsilon * float(field.values @ (K @ field.values))
    pot_term = float(np.dot(field.mesh.lumped, psi(field.values))) / p.epsilon
    return p.beta * (grad_term + pot_term)


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    """A run's recorded series and final state.

    ``table`` holds one float64 row per recorded time, in :class:`_Series`' ``columns``.
    ``times``, ``mass``, ``energy``, ``q_h`` and ``mode_amps`` (or None) are its columns."""

    columns: list[str]
    table: np.ndarray
    newton_iters: list[int]
    max_abs_phi: float
    warnings: list[str] = field(default_factory=list)
    state: SimState | None = None
    wall_seconds: float = 0.0
    solver_counts: dict[str, int] = field(default_factory=dict)   # the joint SchurOperator.counts

    times = property(lambda self: self.table[:, 0])
    mass = property(lambda self: self.table[:, 1])
    energy = property(lambda self: self.table[:, 2])
    q_h = property(lambda self: self.table[:, 3])
    mode_amps = property(lambda self: self.table[:, 4:] if len(self.columns) > 4 else None)


def run_simulation(p: PhaseFieldParams, mesh_spec, init_spec, cfg: SolverConfig,
                   t_end: float, outputs=None) -> RunRecord:
    """Advance the scheme to ``t_end``, recording diagnostics each stride.

    ``mesh_spec`` is a StructuredMesh or a (dim, lengths, h) tuple;
    ``init_spec`` is a NodalField or a (kind, params) tuple.  ``outputs``
    is an :class:`activech.output.OutputOptions`; when it names a
    directory, the diagnostics CSV, VTK snapshots, a final checkpoint and
    the run manifest are written there.  Deterministic: identical inputs
    give identical records and files.  The one-member case of
    :func:`run_members`.
    """
    return run_members([(p, mesh_spec, init_spec)], cfg, t_end, outputs)[0]


class _Series:
    """One member's series: ``rows`` holds a row per recorded time, in diag.csv's
    ``columns``; a failed measurement puts NaN in its own cells and warns once per kind.
    """

    def __init__(self, p: PhaseFieldParams, mesh: StructuredMesh, opts):
        self.p, self.mesh, self.opts = p, mesh, opts
        n_modes = 0 if opts.modes_lmax is None else opts.modes_lmax + 1
        self.columns = ["t", "mass", "energy", "q_h", *(f"mode_{l}" for l in range(n_modes))]
        self.rows, self.newton_iters, self.warnings = [], [], []
        self.max_abs_phi, self.prev_q = 0.0, None

    def record(self, t: float, phi: np.ndarray):
        from . import analysis   # looked up per call, so a wrapped measurement is the one called

        fld, opts = NodalField(phi, self.mesh), self.opts
        row = [t, float(np.dot(self.mesh.lumped, phi)), free_energy(fld, self.p), math.nan]
        if opts.track_interface:
            row[3:] = self._measure("interface tracking", 1, analysis.track_interface, fld,
                                    line_x2=opts.track_line, prev=self.prev_q)
            self.prev_q = row[3] if math.isfinite(row[3]) else self.prev_q
        if opts.modes_lmax is not None:
            row += self._measure("mode extraction", opts.modes_lmax + 1,
                                 analysis.mode_amplitudes, fld, opts.modes_lmax)
        self.rows.append(row)
        self.max_abs_phi = max(self.max_abs_phi, float(np.max(np.abs(phi))))

    def _measure(self, kind: str, width: int, measure, *args, **kwargs) -> list[float]:
        try:
            return np.atleast_1d(measure(*args, **kwargs)).tolist()
        except (TrackingError, MeasurementError) as exc:   # a lost front must not kill the run
            _warn_once(self.warnings, f"{kind}: {exc}")
            return [math.nan] * width


def run_members(members, cfg: SolverConfig, t_end: float, outputs=None) -> list[RunRecord]:
    """Advance several runs in lock-step (see :class:`Stepper`); one record each.

    Each member is a (params, mesh_spec, init_spec) triple as
    :func:`run_simulation` takes them.  The members share ``cfg``, ``t_end``
    and ``outputs``, whose files are written for a single member only.  A
    numerical failure of any member fails the run.
    """
    from . import output as outmod

    n_steps = _step_count(t_end, cfg.tau, "tau")
    opts = outputs if outputs is not None else outmod.OutputOptions()
    if opts.directory and len(members) != 1:
        raise ConfigurationError("run files are written for a single member only")
    series, phi0s = [], []
    for p, mesh_spec, init_spec in members:
        mesh = mesh_spec if isinstance(mesh_spec, StructuredMesh) else build_mesh(*mesh_spec)
        if opts.track_interface and mesh.dim == 2 and not 0.0 <= opts.track_line <= mesh.lengths[1]:
            raise ConfigurationError(
                f"track_line={opts.track_line} outside [0, {mesh.lengths[1]}]")
        if isinstance(init_spec, NodalField):
            phi0 = init_spec
            if phi0.mesh is not mesh:
                raise ConfigurationError("initial field lives on a different mesh")
        else:
            kind, init_params = init_spec
            phi0 = init_field(mesh, kind, init_params, p.epsilon)
        series.append(_Series(p, mesh, opts))
        phi0s.append(phi0.values)

    stepper = Stepper([run.mesh for run in series], [run.p for run in series], cfg)
    phi = np.concatenate(phi0s)
    mu = stepper.initial_mu(phi)
    writer = outmod.RunWriter(opts, series[0].mesh) if opts.directory else None
    t0 = time.perf_counter()

    def record(step, t):
        for run, s in zip(series, stepper.slices):
            run.record(t, phi[s])
        if writer:
            writer.snapshot(step, t, phi, mu)

    if writer:
        writer.start_manifest(series[0].warnings)
    try:
        record(0, 0.0)
        for n in range(1, n_steps + 1):
            phi, mu, report = stepper.step(phi, mu, step_index=n)
            for run, history in zip(series, report.histories):
                run.newton_iters.append(len(history) - 1)
            if n % opts.stride == 0 or n == n_steps:
                record(n, n * cfg.tau)
        for run in series:
            if run.max_abs_phi > PHI_BOUND_WARN:
                _warn_once(run.warnings,
                           f"phase field left [-{PHI_BOUND_WARN}, {PHI_BOUND_WARN}]: "
                           f"max |phi| = {run.max_abs_phi:.4f}")
                warnings.warn(run.warnings[-1], UserWarning, stacklevel=3)
    except Exception as exc:
        if writer:
            writer.abort(exc)
        raise

    records = [RunRecord(
        columns=run.columns, table=np.array(run.rows, dtype=np.float64),
        newton_iters=run.newton_iters, max_abs_phi=run.max_abs_phi, warnings=run.warnings,
        state=SimState(phi=NodalField(phi[s], run.mesh), mu=NodalField(mu[s], run.mesh),
                       t=n_steps * cfg.tau, step=n_steps),
        wall_seconds=time.perf_counter() - t0, solver_counts=dict(stepper.schur.counts),
    ) for run, s in zip(series, stepper.slices)]
    if writer:
        writer.finish(records[0])
    return records


def _warn_once(sink: list[str], message: str):
    """Append ``message`` unless ``sink`` holds a warning of its kind (the text before ':')."""
    kind = message.partition(":")[0]
    if all(seen.partition(":")[0] != kind for seen in sink):
        sink.append(message)
