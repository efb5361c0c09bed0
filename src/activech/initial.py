"""Initial data: diffuse-interface representations of sharp geometries.

Each geometry is a signed distance d0 > 0 in the + phase, with the field
tanh(d0 / (eps sqrt 2)): q0 - x1 plus cosine modes for a front, r - |x - c|
for a disk (r(theta) when perturbed), the largest of these over several disks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError
from .mesh import NodalField, StructuredMesh
from .model import SQRT2

REQUIRED = object()
#: The fields of each initial-condition kind: name -> (type, default), where a
#: REQUIRED field has no default.  Types, read as activech.config reads its
#: own table: "number", "integer", "numbers" and "integers" (comma-separated),
#: "point" (two numbers x, y) and "points" (';'-separated points).
KINDS = {
    "constant": {"value": ("number", REQUIRED)},
    "flat_front": {"q0": ("number", REQUIRED), "modes": ("integers", ()),
                   "amplitudes": ("numbers", ()), "n_random_modes": ("integer", 0),
                   "bound": ("number", 0.1), "seed": ("integer", 0)},
    "disk": {"center": ("point", REQUIRED), "r0": ("number", REQUIRED)},
    "perturbed_disk": {"center": ("point", REQUIRED), "r0": ("number", REQUIRED),
                       "amplitude": ("number", 0.02), "mode": ("integer", 2),
                       "phase": ("number", 2.0 * math.pi / 9.0)},
    "random_spinodal": {"bound": ("number", REQUIRED), "seed": ("integer", 0)},
    "three_disks": {"centers": ("points", REQUIRED), "radii": ("numbers", REQUIRED)},
}


def _finite(value) -> bool:
    if isinstance(value, (tuple, list, np.ndarray)):
        return all(_finite(v) for v in value)
    return math.isfinite(value)


def resolve_initial(kind: str, params: dict) -> dict:
    """``params`` checked against ``KINDS[kind]``, with each absent field at its default.

    Rejects an unknown kind or field, a missing required field and a non-finite number.
    """
    fields = KINDS.get(kind)
    if fields is None:
        raise ConfigurationError(
            f"[initial] kind: unknown kind {kind!r}, expected one of {', '.join(KINDS)}")
    for name in params:
        if name not in fields:
            raise ConfigurationError(f"[initial] {name}: unknown field for kind {kind}")
    resolved = {name: params.get(name, default) for name, (_, default) in fields.items()}
    for name, value in resolved.items():
        if value is REQUIRED:
            raise ConfigurationError(f"[initial] {name}: required field is missing")
        if not _finite(value):
            raise ConfigurationError(f"[initial] {name}: must be finite, got {value}")
    return resolved


def _check_disk(mesh: StructuredMesh, center, r0: float):
    if mesh.dim != 2:
        raise ConfigurationError("disk initial data requires a 2D mesh")
    if r0 <= 0.0:
        raise ConfigurationError(f"disk radius must be positive, got {r0}")
    for c, length in zip(center, mesh.lengths):
        if c - r0 < 0.0 or c + r0 > length:
            raise ConfigurationError(
                f"disk (center={center}, r0={r0}) does not fit inside the domain")


def front_perturbation_coefficients(n_modes: int, bound: float, seed: int) -> np.ndarray:
    """Seeded random coefficients for modes 1..n with total magnitude < bound.

    Coefficients are uniform in [-1, 1] and rescaled so the sum of their
    absolute values equals ``bound``, which caps the sup-norm of the
    resulting cosine sum.
    """
    rng = np.random.default_rng(seed)
    coeffs = rng.uniform(-1.0, 1.0, size=n_modes)
    total = np.sum(np.abs(coeffs))
    if total > 0.0:
        coeffs *= bound / total
    return coeffs


def init_field(mesh: StructuredMesh, kind: str, params: dict, epsilon: float) -> NodalField:
    """Nodal values of the ``kind`` geometry's field; see the module docstring.

    ``kind`` is a key of :data:`KINDS`, and ``params`` maps names of that kind's
    fields to values; :func:`resolve_initial` checks them and fills in the defaults.
    """
    p = resolve_initial(kind, params)
    x1, x2 = mesh.coords[:, 0], (mesh.coords[:, 1] if mesh.dim == 2 else None)

    if kind == "constant":
        return NodalField(np.full(mesh.n_nodes, p["value"], dtype=float), mesh)
    if kind == "random_spinodal":
        rng = np.random.default_rng(p["seed"])
        values = rng.uniform(-p["bound"], p["bound"], size=mesh.n_nodes)
        # zero mean in the lumped inner product, so the discrete mass vanishes
        values -= np.dot(mesh.lumped, values) / np.sum(mesh.lumped)
        return NodalField(values, mesh)
    if kind == "flat_front":
        q0, modes, amplitudes, n = p["q0"], p["modes"], p["amplitudes"], p["n_random_modes"]
        if not (0.0 < q0 < mesh.lengths[0]):
            raise ConfigurationError(f"front position q0={q0} outside the domain")
        if n < 0:
            raise ConfigurationError(f"[initial] n_random_modes: must be >= 0, got {n}")
        if n:
            if len(modes):
                raise ConfigurationError("give either explicit modes or n_random_modes")
            modes = range(1, n + 1)
            amplitudes = front_perturbation_coefficients(n, p["bound"], p["seed"])
        if len(modes) != len(amplitudes):
            raise ConfigurationError("modes and amplitudes must have equal length")
        if len(modes) and mesh.dim == 1:
            raise ConfigurationError("transverse perturbations need a 2D mesh")
        d0 = q0 - x1
        for k, amp in zip(modes, amplitudes):
            d0 = d0 + amp * np.cos(math.pi * k * x2 / mesh.lengths[1])
    elif kind == "perturbed_disk":
        center, r0, amp = p["center"], p["r0"], p["amplitude"]
        _check_disk(mesh, center, r0 + abs(amp))
        dx, dy = x1 - center[0], x2 - center[1]
        radius = r0 + amp * np.cos(p["mode"] * np.arctan2(dy, dx) - p["phase"])
        d0 = radius - np.hypot(dx, dy)
    else:   # a disk is the one-disk case of three_disks
        centers, radii = p.get("centers", [p.get("center")]), p.get("radii", [p.get("r0")])
        if len(centers) != len(radii) or not len(centers):
            raise ConfigurationError("centers and radii must be nonempty and equal length")
        d0 = np.full(mesh.n_nodes, -np.inf)
        for center, r0 in zip(centers, radii):
            _check_disk(mesh, center, r0)
            d0 = np.maximum(d0, r0 - np.hypot(x1 - center[0], x2 - center[1]))
    return NodalField(np.tanh(d0 / (epsilon * SQRT2)), mesh)
