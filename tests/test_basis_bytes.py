"""Byte-level equality of the Legendre-table evaluators with the frozen per-mode reference.

``np.array_equal`` treats -0.0 and 0.0 as equal, but CSV output prints
``repr`` of each float, so these tests compare ``tobytes()``.
"""

import math

import numpy as np
import pytest

import reference_basis as ref
from sphere_poincare import legendre
from sphere_poincare.grid import SampledVectorField, ScalarBasis, build_grid
from sphere_poincare.vsh import VectorBasis, eval_vsh, mode_list, random_coeffs

# (n_t, n_phi, band): verification_grid(b) for b = 0..8, then the CLI grids.
GRID_CASES = [(2 * b + 2, 4 * b + 3, b) for b in range(9)] + [
    (16, 33, 1),
    (10, 19, 1),
    (10, 19, 4),
    (18, 35, 8),
]

POINT_FUNCTIONS = [
    "assoc_legendre",
    "assoc_legendre_dt",
    "normalized_legendre",
    "normalized_legendre_dt",
    "scalar_sh",
    "scalar_sh_grad_components",
]


def assert_same_bytes(got, expected):
    assert type(got) is type(expected)
    if isinstance(expected, tuple):
        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            assert_same_bytes(g, e)
        return
    if isinstance(expected, np.ndarray):
        assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("n_t, n_phi, band", GRID_CASES)
def test_scalar_basis_bytes_match_reference(n_t, n_phi, band):
    grid = build_grid(n_t, n_phi)
    rng = np.random.default_rng(band)
    # energy_report runs the scalar route one degree above the vector band.
    for b in (band, band + 1):
        basis = ScalarBasis(grid, b)
        expected = ref.scalar_matrix(grid, b)
        assert_same_bytes(basis.matrix, expected)
        # The node-major transforms are the frozen table times the samples or coefficients.
        values = rng.standard_normal((grid.n_nodes, 3))
        coeffs = rng.standard_normal((len(expected), 3))
        weighted = (expected * grid.weights).reshape(len(expected), -1)
        assert_same_bytes(basis.analyze(values), weighted @ values)
        # Times the identity is exact, so this pins the weighted table entry by entry.
        identity = np.eye(grid.n_nodes)
        assert_same_bytes(basis.analyze(identity), weighted @ identity)
        assert_same_bytes(basis.synthesize(coeffs), expected.reshape(len(expected), -1).T @ coeffs)


@pytest.mark.parametrize("n_t, n_phi, band", GRID_CASES)
def test_vector_basis_bytes_match_reference(n_t, n_phi, band):
    grid = build_grid(n_t, n_phi)
    assert_same_bytes(VectorBasis(grid, band).matrix, ref.vector_matrix(grid, band))


@pytest.mark.parametrize("n_t, n_phi, band", GRID_CASES)
def test_vector_transforms_bytes_are_the_dense_einsums(n_t, n_phi, band):
    # Every byte-contracted output runs at band <= 8, where the transforms must
    # stay the einsums on the frozen table; a lower crossover fails here.
    grid = build_grid(n_t, n_phi)
    basis = VectorBasis(grid, band)
    expected = ref.vector_matrix(grid, band)
    rng = np.random.default_rng(band)
    coeffs = random_coeffs(band, rng)
    values = rng.standard_normal((n_t, n_phi, 3))
    synthesized = basis.synthesize(coeffs).values
    assert_same_bytes(synthesized, np.einsum("m,mijk->ijk", coeffs.as_vector(), expected))
    analyzed = basis.analyze(SampledVectorField(grid=grid, values=values)).as_vector()
    assert_same_bytes(analyzed, np.einsum("mijk,ijk->m", expected, values * grid.weights[..., None]))


def _off_grid_mesh():
    rng = np.random.default_rng(41)
    t = rng.uniform(-0.99, 0.99, 6)
    phi = rng.uniform(0.0, 2.0 * math.pi, 5)
    return np.meshgrid(t, phi, indexing="ij")


@pytest.mark.parametrize("name", POINT_FUNCTIONS)
def test_point_evaluators_bytes_match_reference(name):
    t_mesh, phi_mesh = _off_grid_mesh()
    got_fn, ref_fn = getattr(legendre, name), getattr(ref, name)
    signed = name.startswith("scalar_sh")
    for n in range(9):
        for j in range(-n if signed else 0, n + 1):
            if signed:
                cases = [(phi_mesh, t_mesh), (1.3, -0.37), (phi_mesh[0], 0.25), (0.7, t_mesh[:, 0])]
                for phi, t in cases:
                    assert_same_bytes(got_fn(n, j, phi, t), ref_fn(n, j, phi, t))
            else:
                for t in (t_mesh, -0.37, 0.0):
                    assert_same_bytes(got_fn(n, j, t), ref_fn(n, j, t))


@pytest.mark.parametrize("name", ["assoc_legendre", "normalized_legendre", "scalar_sh"])
def test_closed_interval_evaluators_bytes_at_the_poles(name):
    got_fn, ref_fn = getattr(legendre, name), getattr(ref, name)
    for n in range(9):
        for j in range(n + 1):
            for t in (1.0, -1.0, np.array([-1.0, 0.5, 1.0])):
                args = (n, j, 0.4, t) if name == "scalar_sh" else (n, j, t)
                assert_same_bytes(got_fn(*args), ref_fn(*args))


def test_eval_vsh_bytes_match_reference():
    t_mesh, phi_mesh = _off_grid_mesh()
    for mode in mode_list(8):
        for phi, t in [(phi_mesh, t_mesh), (1.3, -0.37), (phi_mesh[0], 0.25)]:
            assert_same_bytes(eval_vsh(mode, phi, t), ref.eval_vsh(mode, phi, t))


def test_scalar_sh_table_rows_are_the_point_evaluators():
    t_mesh, phi_mesh = _off_grid_mesh()
    values, d_phi, d_t = legendre.scalar_sh_table(5, phi_mesh, t_mesh, grad=True)
    rows = [(n, j) for n in range(6) for j in range(-n, n + 1)]
    assert values.shape == d_phi.shape == d_t.shape == (len(rows),) + t_mesh.shape
    for k, (n, j) in enumerate(rows):
        assert_same_bytes(values[k], ref.scalar_sh(n, j, phi_mesh, t_mesh))
        assert_same_bytes((d_phi[k], d_t[k]), ref.scalar_sh_grad_components(n, j, phi_mesh, t_mesh))
    assert_same_bytes(legendre.scalar_sh_table(5, phi_mesh, t_mesh), values)


def test_scalar_sh_table_validation():
    with pytest.raises(ValueError):
        legendre.scalar_sh_table(-1, 0.0, 0.0)
    with pytest.raises(ValueError):
        legendre.scalar_sh_table(legendre.MAX_DEGREE + 1, 0.0, 0.0)
    with pytest.raises(ValueError):
        legendre.scalar_sh_table(2, 0.0, 1.5)
    with pytest.raises(ValueError):
        legendre.scalar_sh_table(2, 0.0, 1.0, grad=True)
    assert legendre.scalar_sh_table(2, 0.0, 1.0).shape == (9,)
