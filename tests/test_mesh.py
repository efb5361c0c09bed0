"""Tests for meshes, fields and P1 assembly."""

import math

import numpy as np
import pytest

import activech as ac
from activech.mesh import band_csc, element_means, stencil_bands, stiffness_matrix


def test_unit_square_counts():
    mesh = ac.build_mesh(2, (1.0, 1.0), 0.25)
    assert mesh.n_nodes == 25
    assert mesh.n_elements == 32


def test_unit_interval_counts():
    mesh = ac.build_mesh(1, (1.0,), 1.0 / 10)
    assert mesh.n_nodes == 11
    assert mesh.n_elements == 10


@pytest.mark.parametrize("dim,lengths,h", [
    (1, (1.0,), 1 / 16), (2, (1.0, 1.0), 1 / 8), (2, (2.0, 1.0), 1 / 8),
])
def test_weight_sum_is_volume(dim, lengths, h):
    mesh = ac.build_mesh(dim, lengths, h)
    assert np.sum(mesh.lumped) == pytest.approx(math.prod(mesh.lengths), rel=1e-12)
    assert np.all(mesh.lumped > 0.0)


def test_1d_weights_pattern():
    mesh = ac.build_mesh(1, (1.0,), 0.125)
    assert mesh.lumped[0] == pytest.approx(0.0625)
    assert mesh.lumped[-1] == pytest.approx(0.0625)
    assert np.all(np.abs(mesh.lumped[1:-1] - 0.125) < 1e-15)


def test_positive_element_volumes():
    mesh = ac.build_mesh(2, (1.0, 0.5), 1 / 8)
    pts = mesh.coords[mesh.elements]
    e1 = pts[:, 1] - pts[:, 0]
    e2 = pts[:, 2] - pts[:, 0]
    areas = 0.5 * np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    assert np.all(areas > 0.0)
    assert np.max(np.abs(areas - 0.5 * mesh.h * mesh.h)) < 1e-15
    assert mesh.elements.min() == 0
    assert mesh.elements.max() == mesh.n_nodes - 1


def test_mesh_divisibility_error():
    with pytest.raises(ac.ConfigurationError):
        ac.build_mesh(1, (1.0,), 0.3)
    with pytest.raises(ac.ConfigurationError):
        ac.build_mesh(2, (1.0, 1.0), -0.1)
    with pytest.raises(ac.ConfigurationError):
        ac.build_mesh(2, (1.0, 2.0), 0.25)  # L1 < L2


def test_stiffness_annihilates_constants():
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 8)
    K = stiffness_matrix(mesh)
    assert np.max(np.abs(K @ np.ones(mesh.n_nodes))) < 1e-13


def test_stiffness_dirichlet_energy_of_linear():
    # integral of |grad x1|^2 over the unit square is exactly 1
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 8)
    K = stiffness_matrix(mesh)
    x1 = mesh.coords[:, 0]
    assert x1 @ (K @ x1) == pytest.approx(1.0, rel=1e-12)
    x2 = mesh.coords[:, 1]
    assert x2 @ (K @ x2) == pytest.approx(1.0, rel=1e-12)
    assert x1 @ (K @ x2) == pytest.approx(0.0, abs=1e-13)


def test_stiffness_symmetry():
    mesh = ac.build_mesh(2, (1.0, 0.5), 1 / 8)
    K = stiffness_matrix(mesh)
    assert abs(K - K.T).max() < 1e-14


def test_weighted_stiffness_matches_scaling():
    mesh = ac.build_mesh(2, (1.0, 1.0), 1 / 8)
    K = stiffness_matrix(mesh)
    K2 = band_csc(*stencil_bands(mesh, np.full(mesh.n_elements, 2.0)))
    assert abs(K2 - 2.0 * K).max() < 1e-14


def _loop_stiffness(mesh, coeff):
    """Oracle: per-element loop assembly of coeff * volume * grad(lambda_i) . grad(lambda_j)."""
    K = np.zeros((mesh.n_nodes, mesh.n_nodes))
    for c, nodes in zip(coeff, mesh.elements):
        # lambda_i(p_k) = delta_ik, so the inverse of [1, p_k] holds the
        # barycentric coefficients column by column
        T = np.column_stack([np.ones(len(nodes)), mesh.coords[nodes]])
        grads = np.linalg.inv(T)[1:].T
        volume = abs(np.linalg.det(T)) / math.factorial(mesh.dim)
        K[np.ix_(nodes, nodes)] += c * volume * grads @ grads.T
    return K


@pytest.mark.parametrize("dim,lengths,h", [
    (1, (1.0,), 1 / 16), (2, (1.0, 1.0), 1 / 8), (2, (2.0, 1.0), 1 / 8), (2, (1.0, 1.0), 0.1),
])
def test_stiffness_matches_loop_assembly(dim, lengths, h):
    mesh = ac.build_mesh(dim, lengths, h)
    coeff = np.random.default_rng(7).uniform(0.1, 3.0, mesh.n_elements)
    oracle = _loop_stiffness(mesh, coeff)
    K = band_csc(*stencil_bands(mesh, coeff)).toarray()
    assert np.max(np.abs(K - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    K1 = stiffness_matrix(mesh).toarray()
    oracle1 = _loop_stiffness(mesh, np.ones(mesh.n_elements))
    assert np.max(np.abs(K1 - oracle1)) <= 1e-14 * np.max(np.abs(oracle1))


@pytest.mark.parametrize("dim,lengths", [(1, (1.0,)), (2, (1.0, 1.0)), (2, (2.0, 1.0))])
def test_stiffness_stores_only_stencil_entries(dim, lengths):
    # the diagonal edges of the 2D lattice carry no entry, stored or not
    mesh = ac.build_mesh(dim, lengths, 1 / 8)
    axis_edges = sum(
        n * math.prod(m + 1 for k, m in enumerate(mesh.cells) if k != axis)
        for axis, n in enumerate(mesh.cells))
    coeff = np.random.default_rng(3).uniform(0.1, 3.0, mesh.n_elements)
    for K in (stiffness_matrix(mesh), band_csc(*stencil_bands(mesh, coeff))):
        assert K.nnz == mesh.n_nodes + 2 * axis_edges
        assert np.all(K.data != 0.0)


def test_element_means():
    mesh = ac.build_mesh(2, (1.0, 1.0), 0.5)
    vals = mesh.coords[:, 0]
    means = element_means(mesh, vals)
    assert means.shape == (mesh.n_elements,)
    pts = mesh.coords[mesh.elements]
    assert np.max(np.abs(means - pts[:, :, 0].mean(axis=1))) < 1e-15


def test_nodal_field_validation():
    mesh = ac.build_mesh(1, (1.0,), 0.25)
    with pytest.raises(ac.ConfigurationError):
        ac.NodalField(np.zeros(3), mesh)
    with pytest.raises(ac.ConfigurationError):
        ac.NodalField(np.full(mesh.n_nodes, np.nan), mesh)


def test_grid_view_round_trip():
    mesh = ac.build_mesh(2, (1.0, 0.5), 0.25)
    vals = np.arange(mesh.n_nodes, dtype=float)
    grid = mesh.grid_view(vals)
    assert grid.shape == (3, 5)
    # x fastest: consecutive values along a row
    assert grid[0, 1] - grid[0, 0] == 1.0
    assert grid[1, 0] - grid[0, 0] == 5.0
