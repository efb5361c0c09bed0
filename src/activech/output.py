"""File emission: diagnostics CSV, legacy VTK snapshots, checkpoints, manifests.

All writes go through a write-then-rename so partially written files never
appear under their final names.  CSV files use ',' separators, '.' decimals
and LF line endings; floats carry full precision so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import solver
from .errors import ConfigurationError, NumericalError
from .mesh import StructuredMesh

CHECKPOINT_MAGIC = b"ACHCKPT1"
_CHECKPOINT_HEADER = struct.Struct("<8sIIIdQ28x")  # magic, dim, n1, n2, t, step (64 bytes)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: Path, data: bytes):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _atomic_write_text(path: Path, text: str):
    _atomic_write(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# individual writers
# ---------------------------------------------------------------------------

def write_vtk(path, mesh: StructuredMesh, fields: dict[str, np.ndarray], title="activech snapshot"):
    """Legacy ASCII VTK STRUCTURED_POINTS over the node lattice."""
    path = Path(path)
    n1 = mesh.cells[0] + 1
    n2 = mesh.cells[1] + 1 if mesh.dim == 2 else 1
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {n1} {n2} 1",
        "ORIGIN 0 0 0",
        f"SPACING {_fmt(mesh.h)} {_fmt(mesh.h)} {_fmt(mesh.h)}",
        f"POINT_DATA {mesh.n_nodes}",
    ]
    for name, values in fields.items():
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.n_nodes,):
            raise ConfigurationError(
                f"field {name!r} has {values.shape} values for {mesh.n_nodes} nodes")
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(_fmt(v) for v in values)
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_checkpoint(path, mesh: StructuredMesh, t: float, step: int,
                     phi: np.ndarray, mu: np.ndarray):
    """Flat little-endian binary: 64-byte header, then phi and mu node values."""
    path = Path(path)
    n1 = mesh.cells[0]
    n2 = mesh.cells[1] if mesh.dim == 2 else 0
    header = _CHECKPOINT_HEADER.pack(CHECKPOINT_MAGIC, mesh.dim, n1, n2, float(t), int(step))
    body = (np.asarray(phi, dtype="<f8").tobytes()
            + np.asarray(mu, dtype="<f8").tobytes())
    _atomic_write(path, header + body)


@dataclass
class Checkpoint:
    dim: int
    n1: int
    n2: int
    t: float
    step: int
    phi: np.ndarray
    mu: np.ndarray


def read_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < _CHECKPOINT_HEADER.size:
        raise NumericalError(f"checkpoint {path} is truncated")
    magic, dim, n1, n2, t, step = _CHECKPOINT_HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise NumericalError(f"checkpoint {path} has bad magic {magic!r}")
    n_nodes = (n1 + 1) * ((n2 + 1) if dim == 2 else 1)
    values = np.frombuffer(raw, dtype="<f8", offset=_CHECKPOINT_HEADER.size)
    if values.size != 2 * n_nodes:
        raise NumericalError(
            f"checkpoint {path} holds {values.size} values, expected {2 * n_nodes}")
    return Checkpoint(dim=dim, n1=n1, n2=n2, t=t, step=step,
                      phi=values[:n_nodes].copy(), mu=values[n_nodes:].copy())


def diagnostics_csv_text(times, mass, energy, q_h, mode_amps=None) -> str:
    n_modes = 0 if mode_amps is None else np.asarray(mode_amps).shape[1]
    header = "t,mass,energy,q_h" + "".join(f",mode_{l}" for l in range(n_modes))
    rows = [header]
    for i in range(len(times)):
        cells = [_fmt(times[i]), _fmt(mass[i]), _fmt(energy[i]), _fmt(q_h[i])]
        if n_modes:
            cells.extend(_fmt(a) for a in mode_amps[i])
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def write_diagnostics_csv(path, record):
    _atomic_write_text(Path(path), diagnostics_csv_text(
        record.times, record.mass, record.energy, record.q_h, record.mode_amps))


def write_convergence_csv(path, table):
    lines = ["epsilon,h,error,eoc"]
    for row in table.rows:
        eoc = "" if row.eoc is None else _fmt(row.eoc)
        lines.append(f"{_fmt(row.epsilon)},{_fmt(row.h)},{_fmt(row.error)},{eoc}")
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_loglog_data(path, table):
    """Two-column (epsilon, error) file for external log-log plotting."""
    lines = [f"{_fmt(row.epsilon)} {_fmt(row.error)}" for row in table.rows]
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_stability_csv(path, rows):
    lines = ["l_sq,gamma_plus,gamma_minus,a_plus,a_minus,factor,beta_crit"]
    for row in rows:
        crit = "" if row.beta_crit is None else _fmt(row.beta_crit)
        lines.append(",".join([
            str(row.mode.l_sq), _fmt(row.gamma_plus), _fmt(row.gamma_minus),
            _fmt(row.a_plus), _fmt(row.a_minus), _fmt(row.factor), crit,
        ]))
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_sharp_ode_csv(path, traj, velocity):
    """CSV of (t, q, H(q)) for a planar front trajectory."""
    lines = ["t,q,H"]
    for t, q in zip(traj.times, traj.q):
        lines.append(f"{_fmt(t)},{_fmt(q)},{_fmt(velocity(float(q)))}")
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_si_table_csv(path, rows):
    lines = ["k_plus,k_minus,l_coef,r_c,s_i"]
    for k_plus, k_minus, l_coef, r_c, s_i in rows:
        lines.append(",".join(_fmt(v) for v in (k_plus, k_minus, l_coef, r_c, s_i)))
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_modes_csv(path, times, mode_amps):
    amps = np.asarray(mode_amps)
    lines = ["t" + "".join(f",A{l}" for l in range(amps.shape[1]))]
    for i, t in enumerate(times):
        lines.append(",".join([_fmt(t)] + [_fmt(a) for a in amps[i]]))
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# run output orchestration
# ---------------------------------------------------------------------------

@dataclass
class OutputOptions:
    """What a simulation run records and emits."""

    directory: str | None = None
    stride: int = 10
    vtk: bool = True
    checkpoint: bool = True
    track_interface: bool = True
    track_line: float = 0.0
    modes_lmax: int | None = None
    manifest_extra: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.stride < 1:
            raise ConfigurationError("output stride must be >= 1")


class RunWriter:
    """Emits a run's files; the manifest appears before any compute."""

    def __init__(self, opts: OutputOptions, mesh: StructuredMesh):
        self.opts = opts
        self.mesh = mesh
        self.dir = Path(opts.directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self._manifest = {}
        self._last = None

    def start_manifest(self, warnings_sink):
        from . import __version__

        self._manifest = {
            "tool": "activech",
            "version": __version__,
            "config": self.opts.manifest_extra,
            "start_time": datetime.now(timezone.utc).isoformat(),
            "end_time": None,
            "newton_iterations": None,
            "checks": None,
            "warnings": warnings_sink,
        }
        self._write_manifest()

    def _write_manifest(self):
        _atomic_write_text(self.dir / "manifest.json",
                           json.dumps(self._manifest, indent=2, default=str) + "\n")

    def snapshot(self, step: int, t: float, phi: np.ndarray, mu: np.ndarray):
        self._last = (step, t, phi.copy(), mu.copy())
        if self.opts.vtk:
            write_vtk(self.dir / f"snap_{step:06d}.vtk", self.mesh,
                      {"phi": phi, "mu": mu}, title=f"t = {_fmt(t)}")

    def abort(self, exc: Exception):
        """Crashed run: record the failure; the manifest keeps no end time.

        The failing step and its Newton residual history are recorded when
        ``exc`` carries them (:class:`activech.errors.StepFailureError`).
        """
        self._manifest["failure"] = {
            "error": str(exc),
            "step": getattr(exc, "step", None),
            "residuals": list(getattr(exc, "residuals", [])),
        }
        self._write_manifest()

    def finish(self, record):
        write_diagnostics_csv(self.dir / "diag.csv", record)
        if self.opts.checkpoint and self._last is not None:
            step, t, phi, mu = self._last
            write_checkpoint(self.dir / "checkpoint.bin", self.mesh, t, step, phi, mu)
        self._manifest["end_time"] = datetime.now(timezone.utc).isoformat()
        self._manifest["newton_iterations"] = record.newton_iters
        self._manifest["checks"] = {
            "max_abs_phi": record.max_abs_phi,
            "bounded": record.max_abs_phi <= solver.PHI_BOUND_WARN,
            "wall_seconds": record.wall_seconds,
        }
        self._manifest["warnings"] = record.warnings
        self._write_manifest()
