"""Uniform simplicial meshes and P1 nodal fields.

1D: intervals.  2D: a lattice of squares, each split into two triangles
along the same (bottom-left to top-right) diagonal.  Nodes are ordered
x-fastest, matching the flat layout of snapshot and checkpoint files.
Every P1 stiffness matrix on this lattice is a weighted 5-point stencil
(3-point in 1D): ``stencil_bands`` computes its bands, and ``band_csc``
turns bands into SciPy's compressed format.  SciPy is imported there, on
the first matrix, so that building meshes and fields needs NumPy alone.

The maps of the lattice that keep every split diagonal, the transpose
(x1, x2) -> (x2, x1) of a square and the rotation by 180 degrees, are
symmetries of the discrete scheme, and so is the 1D mirror.  The mirror
x1 -> L1 - x1 is not: the lumped masses at the corners (L1, 0) and (0, L2),
h^2/6, are half those at (0, 0) and (L1, L2), h^2/3.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError

if TYPE_CHECKING:
    from scipy import sparse


@dataclass(frozen=True, eq=False)
class StructuredMesh:
    dim: int
    lengths: tuple[float, ...]
    cells: tuple[int, ...]
    h: float
    coords: np.ndarray          # (n_nodes, dim)
    elements: np.ndarray        # (n_elements, dim + 1), int32
    lumped: np.ndarray          # (n_nodes,) diagonal mass weights

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def grid_view(self, values: np.ndarray) -> np.ndarray:
        """Reshape flat nodal values to the lattice, indexed [j, i] in 2D."""
        if self.dim == 1:
            return values
        return values.reshape(self.cells[1] + 1, self.cells[0] + 1)


@dataclass(eq=False)
class NodalField:
    """P1 finite element function given by its nodal values."""

    values: np.ndarray
    mesh: StructuredMesh

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_nodes,):
            raise ConfigurationError(
                f"field has {self.values.shape} values for a mesh with "
                f"{self.mesh.n_nodes} nodes")
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("field contains non-finite values")


def _cells_for(length: float, h: float) -> int:
    n = int(round(length / h))
    if n < 1 or abs(n * h - length) > 1e-12 * max(1.0, length):
        raise ConfigurationError(
            f"mesh size h={h} does not divide the domain length {length}")
    return n


def build_mesh(dim: int, lengths, h: float) -> StructuredMesh:
    """Uniform lattice mesh of (0, L1) or (0, L1) x (0, L2) with spacing h."""
    if not (math.isfinite(h) and h > 0.0):
        raise ConfigurationError(f"mesh size must be positive and finite, got {h}")
    lengths = tuple(float(x) for x in (lengths if np.iterable(lengths) else (lengths,)))
    if len(lengths) != dim:
        raise ConfigurationError(f"{dim}D mesh needs {dim} lengths, got {lengths}")
    if not all(math.isfinite(x) and x > 0.0 for x in lengths):
        raise ConfigurationError(f"domain lengths must be positive and finite, got {lengths}")

    if dim == 1:
        n1 = _cells_for(lengths[0], h)
        coords = (np.arange(n1 + 1, dtype=float) * h)[:, None]
        elements = np.column_stack([np.arange(n1), np.arange(1, n1 + 1)]).astype(np.int32)
        volume = h
    elif dim == 2:
        if lengths[1] > lengths[0]:
            raise ConfigurationError(
                f"domain lengths must satisfy L1 >= L2, got {lengths}")
        n1, n2 = _cells_for(lengths[0], h), _cells_for(lengths[1], h)
        x = np.arange(n1 + 1, dtype=float) * h
        y = np.arange(n2 + 1, dtype=float) * h
        xx, yy = np.meshgrid(x, y)  # row-major: x fastest
        coords = np.column_stack([xx.ravel(), yy.ravel()])
        ii, jj = np.meshgrid(np.arange(n1), np.arange(n2))
        a = (ii + jj * (n1 + 1)).ravel()
        b, c, d = a + 1, a + n1 + 2, a + n1 + 1
        # both triangles share the a-c diagonal
        elements = np.vstack([
            np.column_stack([a, b, c]),
            np.column_stack([a, c, d]),
        ]).astype(np.int32)
        volume = 0.5 * h * h
    else:
        raise ConfigurationError(f"dimension must be 1 or 2, got {dim}")

    lumped = np.zeros(coords.shape[0])
    np.add.at(lumped, elements.ravel(), volume / (dim + 1))
    return StructuredMesh(
        dim=dim, lengths=lengths, cells=(n1,) if dim == 1 else (n1, n2),
        h=float(h), coords=coords, elements=elements, lumped=lumped,
    )


# ---------------------------------------------------------------------------
# P1 assembly
# ---------------------------------------------------------------------------
#
# On the lower triangle (a, b, c) = (0,0), (h,0), (h,h) the barycentric
# gradients are (-1, 0)/h, (1, -1)/h and (0, 1)/h.  With area h^2/2, the
# axis edges a-b and b-c get -1/2 and the diagonal edge a-c gets
# grad(lambda_a) . grad(lambda_c) = 0; the upper triangle (a, c, d) is the
# mirror image.  So diagonal edges carry no entry, and each axis edge gets
# -c/2 from each of its one or two triangles of coefficient c.

_stiffness_cache: "weakref.WeakKeyDictionary[StructuredMesh, sparse.csr_matrix]" = weakref.WeakKeyDictionary()


def stencil_bands(mesh: StructuredMesh, coeff: np.ndarray | None = None
                  ) -> tuple[tuple[int, ...], np.ndarray]:
    """Bands of the P1 stiffness stencil of (coeff grad u, grad v).

    Returns the sorted node offsets (-1, 0, 1) in 1D, (-(n1+1), -1, 0, 1, n1+1)
    in 2D, and ``bands`` of shape (len(offsets), n_nodes) with
    ``bands[c, i] = A[i, i + offsets[c]]``, zero where node i has no
    neighbour at that offset.  ``coeff`` holds one weight per element of
    ``mesh.elements`` (e.g. an averaged mobility); ``None`` means all ones.
    """
    weights = np.ones(mesh.n_elements) if coeff is None else np.asarray(coeff, dtype=float)
    # edge weights keyed by node stride: entry k is the edge from node k to
    # node k + stride, or 0 where there is none
    if mesh.dim == 1:
        edges = {1: np.pad(weights / mesh.h, (0, 1))}
    else:
        n1, n2 = mesh.cells
        lower, upper = (0.5 * weights).reshape(2, n2, n1)
        # horizontal edge (j, i)-(j, i+1): lower[j, i] + upper[j-1, i];
        # vertical edge (j, i)-(j+1, i): upper[j, i] + lower[j, i-1]
        horizontal = np.pad(lower, ((0, 1), (0, 1))) + np.pad(upper, ((1, 0), (0, 1)))
        vertical = np.pad(upper, ((0, 1), (0, 1))) + np.pad(lower, ((0, 1), (1, 0)))
        edges = {1: horizontal.ravel(), n1 + 1: vertical.ravel()}
    offsets = (*(-s for s in reversed(edges)), 0, *edges)
    bands = np.zeros((len(offsets), mesh.n_nodes))
    diagonal = bands[len(edges)]
    for stride, weight in edges.items():
        diagonal += weight
        diagonal[stride:] += weight[:-stride]
        bands[offsets.index(stride), :-stride] = -weight[:-stride]
        bands[offsets.index(-stride), stride:] = -weight[:-stride]
    return offsets, bands


def band_csc(offsets, bands: np.ndarray) -> sparse.csr_matrix:
    """CSC arrays of a band matrix, as the CSR matrix of its transpose.

    ``bands`` is row-indexed, ``bands[c, i] = A[i, i + offsets[c]]``, and
    the offsets are symmetric about 0.  Read column-indexed, as SciPy's DIA
    format stores them, the reversed bands are A^T, so its CSR conversion
    holds the CSC arrays of A; for a symmetric A, also its CSR arrays.
    Exact zeros are not stored.
    """
    from scipy import sparse

    n = bands.shape[1]
    return sparse.dia_matrix((bands[::-1], offsets), shape=(n, n)).tocsr()


def band_pattern(offsets, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSC ``indptr`` and ``indices`` of the band entries ``mask`` selects.

    Also returns ``gather``, the position of each stored entry in the
    flattened band array, so that ``bands.ravel()[gather]`` is the CSC
    ``data``.  Built by :func:`band_csc` on the positions themselves.
    """
    positions = np.arange(1, mask.size + 1).reshape(mask.shape)
    pattern = band_csc(offsets, np.where(mask, positions, 0))
    return pattern.indptr, pattern.indices, pattern.data - 1


def stiffness_matrix(mesh: StructuredMesh) -> sparse.csr_matrix:
    """P1 stiffness matrix of (grad u, grad v), built as the lattice stencil.

    Cached per mesh.  Each axis edge of weight w gets -w off the diagonal;
    each diagonal entry is the sum of the weights of its edges.  Exact
    zeros are not stored.
    """
    mat = _stiffness_cache.get(mesh)
    if mat is None:
        mat = _stiffness_cache[mesh] = band_csc(*stencil_bands(mesh))
    return mat


def element_means(mesh: StructuredMesh, values: np.ndarray) -> np.ndarray:
    """Arithmetic mean of nodal values over each element's vertices."""
    return values[mesh.elements].mean(axis=1)
