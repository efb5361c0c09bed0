"""File emission: tables, legacy VTK snapshots, checkpoints, manifests.

All writes go through a write-then-rename so partially written files never
appear under their final names.  Every table (a run's ``diag.csv`` and each
file the CLI writes) comes from the one writer :func:`write_table`: ','
separators (' ' for the log-log data), '.' decimals and LF line endings;
floats carry full precision so identical runs produce byte-identical files.
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
from .model import _require_count, _require_finite

CHECKPOINT_MAGIC = b"ACHCKPT1"
_CHECKPOINT_HEADER = struct.Struct("<8sIIIdQ28x")  # magic, dim, n1, n2, t, step (64 bytes)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: Path, data: bytes):
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:  # name the path the caller gave, not the temporary file
        tmp.unlink(missing_ok=True)
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


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
        lines.extend("%.17g" % v for v in values.tolist())   # _fmt's text, on Python floats
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


def table_text(header, rows, sep=",") -> str:
    """A table as text: the header line (omitted when empty), then one line per row.

    ``None`` becomes an empty cell and every other cell goes through ``_fmt``.
    """
    lines = [sep.join(header)] if header else []
    lines.extend(sep.join("" if x is None else _fmt(x) for x in row) for row in rows)
    return "".join(line + "\n" for line in lines)


def write_table(path, header, rows, sep=","):
    _atomic_write_text(Path(path), table_text(header, rows, sep))


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
        _require_count(self.stride, "output stride", 1)
        if self.modes_lmax is not None:
            _require_count(self.modes_lmax, "modes_lmax", 0)
        _require_finite(self, ("track_line",))


class RunWriter:
    """Emits a run's files; the manifest appears before any compute."""

    def __init__(self, opts: OutputOptions, mesh: StructuredMesh):
        self.opts = opts
        self.mesh = mesh
        self.dir = Path(opts.directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self._manifest = {}

    def start_manifest(self, warnings_sink):
        from . import __version__

        self._manifest = {
            "tool": "activech",
            "version": __version__,
            "config": self.opts.manifest_extra,
            "start_time": datetime.now(timezone.utc).isoformat(),
            "end_time": None,
            "newton_iterations": None,
            "solver": None,
            "checks": None,
            "warnings": warnings_sink,
        }
        self._write_manifest()

    def _write_manifest(self):
        _atomic_write_text(self.dir / "manifest.json",
                           json.dumps(self._manifest, indent=2, default=str) + "\n")

    def snapshot(self, step: int, t: float, phi: np.ndarray, mu: np.ndarray):
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
        amps = record.mode_amps
        if amps is None:
            amps = np.empty((len(record.times), 0))
        header = ["t", "mass", "energy", "q_h"] + [f"mode_{l}" for l in range(amps.shape[1])]
        write_table(self.dir / "diag.csv", header, np.column_stack(
            [record.times, record.mass, record.energy, record.q_h, amps]))
        state = record.state
        if self.opts.checkpoint and state is not None:
            write_checkpoint(self.dir / "checkpoint.bin", self.mesh, state.t, state.step,
                             state.phi.values, state.mu.values)
        self._manifest["end_time"] = datetime.now(timezone.utc).isoformat()
        self._manifest["newton_iterations"] = record.newton_iters
        self._manifest["solver"] = record.solver_counts
        self._manifest["checks"] = {
            "max_abs_phi": record.max_abs_phi,
            "bounded": record.max_abs_phi <= solver.PHI_BOUND_WARN,
            "wall_seconds": record.wall_seconds,
        }
        self._manifest["warnings"] = record.warnings
        self._write_manifest()
