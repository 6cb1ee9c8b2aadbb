import contextlib
import gc
import math
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference_basis
from sphere_poincare.grid import (
    SampledScalarField,
    SampledVectorField,
    ScalarBasis,
    _dot3,
    build_grid,
    dirichlet_energy_scalar_route,
    export_vector_field_csv,
    inner_product,
    integrate,
    normal_field,
    scalar_analyze,
    scalar_basis,
    tangent_frame,
    verification_grid,
)
from sphere_poincare.legendre import MAX_DEGREE, scalar_sh

FOUR_PI = 4.0 * math.pi


@pytest.mark.parametrize("shape", [(500, 3), (18, 35, 3)])
def test_dot3_bytes_are_the_summed_products(shape):
    rng = np.random.default_rng(len(shape))
    pool = np.array([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan])
    a, b = rng.standard_normal((2,) + shape)
    special = rng.random((2,) + shape) < 0.3
    a[special[0]] = rng.choice(pool, int(special[0].sum()))
    b[special[1]] = rng.choice(pool, int(special[1].sum()))
    # Rows whose three products are all -0.0, where a plain sum of the
    # products would give -0.0 and np.sum gives +0.0.
    a.reshape(-1, 3)[:4] = [[-0.0, 0.0, 1.0], [0.0, 0.0, -0.0], [-0.0, -0.0, -0.0], [2.0, -0.0, 0.0]]
    b.reshape(-1, 3)[:4] = [[1.0, -3.0, -0.0], [-0.0, -1.0, 0.0], [0.0, 0.0, 0.0], [-0.0, 1.0, -1.0]]
    with np.errstate(invalid="ignore"):
        expected = np.sum(a * b, axis=-1)
        got = _dot3(a, b)
    assert np.signbit(expected.reshape(-1)[:4]).sum() == 0
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_single_node_grid():
    grid = build_grid(1, 1)
    assert_allclose(grid.t, [0.0], atol=1e-15)
    assert_allclose(grid.w_t, [2.0], atol=1e-15)
    assert_allclose(grid.phi, [0.0])
    assert grid.w_phi == 2.0 * math.pi
    assert_allclose(np.sum(grid.weights), FOUR_PI, rtol=0, atol=1e-14)


def test_build_grid_rejects_empty():
    with pytest.raises(ValueError):
        build_grid(0, 4)
    with pytest.raises(ValueError):
        build_grid(4, 0)


def test_total_weight_is_sphere_area():
    grid = build_grid(16, 33)
    ones = SampledScalarField(grid=grid, values=np.ones((16, 33)))
    assert_allclose(integrate(ones), FOUR_PI, rtol=0, atol=1e-13)


def test_integrate_t_squared():
    grid = build_grid(16, 33)
    t_mesh, _ = grid.meshes
    assert_allclose(
        integrate(SampledScalarField(grid=grid, values=t_mesh**2)),
        FOUR_PI / 3.0,
        rtol=0,
        atol=1e-13,
    )


@pytest.mark.parametrize("a,b", [(0, 0), (3, 0), (5, 2), (7, 6), (2, 11)])
def test_quadrature_exactness_monomials(a, b):
    # integrate(t^a cos(b phi)) is exact whenever a <= 2 n_t - 1, b < n_phi.
    grid = build_grid(6, 13)
    t_mesh, phi_mesh = grid.meshes
    values = t_mesh**a * np.cos(b * phi_mesh)
    if b == 0:
        expected = 2.0 * math.pi * (2.0 / (a + 1) if a % 2 == 0 else 0.0)
    else:
        expected = 0.0
    assert_allclose(integrate(SampledScalarField(grid=grid, values=values)), expected, rtol=0, atol=1e-13)


def test_integrate_harmonic_products():
    grid = build_grid(4, 9)
    t_mesh, phi_mesh = grid.meshes
    y10 = scalar_sh(1, 0, phi_mesh, t_mesh)
    y11 = scalar_sh(1, 1, phi_mesh, t_mesh)
    assert_allclose(
        integrate(SampledScalarField(grid=grid, values=y10 * y10)), 1.0, rtol=0, atol=1e-12
    )
    assert_allclose(
        integrate(SampledScalarField(grid=grid, values=y10 * y11)), 0.0, rtol=0, atol=1e-13
    )


def test_grid_mismatch_rejected():
    g1 = build_grid(4, 9)
    g2 = build_grid(5, 9)
    u = SampledVectorField(grid=g1, values=np.zeros((4, 9, 3)))
    v = SampledVectorField(grid=g2, values=np.zeros((5, 9, 3)))
    with pytest.raises(ValueError):
        inner_product(u, v)


def test_distinct_grids_pair_only_when_their_nodes_are_equal():
    # Equal t nodes, so the comparison reaches phi.
    grid, twin, wider = build_grid(6, 13), build_grid(6, 13), build_grid(6, 15)
    assert grid is not twin
    assert_allclose(inner_product(normal_field(grid), normal_field(twin)), FOUR_PI, rtol=1e-14)
    with pytest.raises(ValueError, match="fields live on different grids"):
        inner_product(normal_field(grid), normal_field(wider))


def test_field_shape_validation():
    grid = build_grid(4, 9)
    with pytest.raises(ValueError):
        SampledScalarField(grid=grid, values=np.zeros((9, 4)))
    with pytest.raises(ValueError):
        SampledVectorField(grid=grid, values=np.zeros((4, 9)))


def test_inner_product_normal_field():
    grid = build_grid(6, 13)
    n = normal_field(grid)
    assert_allclose(inner_product(n, n), FOUR_PI, rtol=0, atol=1e-12)


def test_grids_of_one_size_share_read_only_gauss_legendre_nodes(monkeypatch):
    from sphere_poincare import grid as grid_module

    leggauss = np.polynomial.legendre.leggauss
    calls = []

    def counting(n_t):
        calls.append(n_t)
        return leggauss(n_t)

    grid_module._gauss_legendre.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    a, b, c = build_grid(7, 15), build_grid(7, 4), build_grid(9, 15)
    build_grid(9, 1), verification_grid(3), build_grid(7, 31)
    assert calls == [7, 9, 8]
    assert a.t is b.t and a.w_t is b.w_t and c.t is not a.t
    for shared, fresh in zip((a.t, a.w_t), leggauss(7)):
        assert shared.tobytes() == fresh.tobytes()
        assert not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0] = 0.0


def test_tangent_frame_axes():
    eps_phi, eps_t, normal = tangent_frame(0.0, 0.0)
    assert_allclose(eps_phi, [0.0, 1.0, 0.0], atol=1e-16)
    assert_allclose(eps_t, [0.0, 0.0, 1.0], atol=1e-16)
    assert_allclose(normal, [1.0, 0.0, 0.0], atol=1e-16)


def test_tangent_frame_orthonormal_right_handed():
    rng = np.random.default_rng(3)
    phi = rng.uniform(0.0, 2.0 * math.pi, size=100)
    t = rng.uniform(-0.999, 0.999, size=100)
    eps_phi, eps_t, normal = tangent_frame(phi, t)
    for a, b in [(eps_phi, eps_t), (eps_phi, normal), (eps_t, normal)]:
        assert np.max(np.abs(np.sum(a * b, axis=-1))) < 1e-14
    for a in (eps_phi, eps_t, normal):
        assert_allclose(np.linalg.norm(a, axis=-1), 1.0, rtol=0, atol=1e-14)
    assert np.max(np.abs(np.cross(eps_phi, eps_t) - normal)) < 1e-14


def test_tangent_frame_rejects_poles():
    with pytest.raises(ValueError):
        tangent_frame(0.0, 1.0)


def test_normal_field_is_the_shared_read_only_frame():
    grid = build_grid(6, 11)
    normal = normal_field(grid).values
    t_mesh, phi_mesh = grid.meshes
    assert normal.tobytes() == tangent_frame(phi_mesh, t_mesh)[2].tobytes()
    assert normal is grid.frame[2] and normal_field(grid).values is normal
    for vectors in grid.frame:
        assert not vectors.flags.writeable
    with pytest.raises(ValueError):
        normal[0, 0, 0] = 1.0


def test_tangent_frame_runs_once_per_grid(monkeypatch):
    from sphere_poincare import grid as grid_module
    from sphere_poincare import vsh
    from sphere_poincare.flow import el_residual, gradient_flow, normalize_field
    from sphere_poincare.spectral import energy_report

    calls = []

    def counting(phi, t):
        calls.append(1)
        return tangent_frame(phi, t)

    monkeypatch.setattr(grid_module, "tangent_frame", counting)
    monkeypatch.setattr(vsh, "tangent_frame", counting)
    grid = verification_grid(4)
    vsh.vector_basis(grid, 4)
    normal = normal_field(grid)
    normal_field(grid), normal_field(grid)
    for kappa in (-8.0, 6.0):
        energy_report(normal, kappa, band_limit=4)
    el_residual(normal, 1.0, 4)
    mode = vsh.CoeffSet(4)
    mode[(2, 1, 0)] = 0.05
    u0 = normalize_field(
        SampledVectorField(grid=grid, values=normal.values + vsh.synthesize(mode, grid).values)
    )
    gradient_flow(u0, 1.0, dt=0.02, steps=3, band_limit=4)
    assert len(calls) == 1


@contextlib.contextmanager
def _no_cyclic_gc():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_grid_dies_with_its_last_reference():
    from sphere_poincare.vsh import vector_basis

    with _no_cyclic_gc():
        grid = verification_grid(3)
        vector_basis(grid, 3)
        scalar_basis(grid, 4)
        assert vector_basis(grid, 3).grid is grid
        ref = weakref.ref(grid)
        del grid
        assert ref() is None


def test_cli_op_leaves_no_grid_alive(monkeypatch, capsys):
    from sphere_poincare import cli
    from sphere_poincare import grid as grid_module

    made = []
    init = grid_module.Grid.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(weakref.ref(self))

    monkeypatch.setattr(grid_module.Grid, "__init__", recording)
    with _no_cyclic_gc():
        assert cli.main(["verify", "--suite", "orthonormality"]) == 0
        assert len(made) == 2
        assert all(ref() is None for ref in made)
    assert "result: PASS" in capsys.readouterr().out


def test_scalar_analyze_delta():
    grid = verification_grid(4)
    t_mesh, phi_mesh = grid.meshes
    f = SampledScalarField(grid=grid, values=scalar_sh(2, 1, phi_mesh, t_mesh))
    coeffs = scalar_analyze(f, 4)
    for (n, j), value in coeffs.items():
        expected = 1.0 if (n, j) == (2, 1) else 0.0
        assert abs(value - expected) < 1e-12


def test_scalar_analyze_linearity_and_t():
    grid = verification_grid(3)
    t_mesh, phi_mesh = grid.meshes
    f = SampledScalarField(grid=grid, values=3.0 * scalar_sh(0, 0, phi_mesh, t_mesh))
    assert_allclose(scalar_analyze(f, 2)[(0, 0)], 3.0, rtol=0, atol=1e-13)
    # t itself is sqrt(4 pi / 3) Y_{1,0}
    g = SampledScalarField(grid=grid, values=t_mesh.copy())
    assert_allclose(
        scalar_analyze(g, 2)[(1, 0)], math.sqrt(FOUR_PI / 3.0), rtol=0, atol=1e-13
    )


def test_scalar_analyze_flags_underresolved():
    grid = build_grid(3, 5)
    f = SampledScalarField(grid=grid, values=np.zeros((3, 5)))
    with pytest.raises(ValueError):
        scalar_analyze(f, 4)


def test_scalar_basis_rejects_a_negative_band():
    with pytest.raises(ValueError, match="band limit must be non-negative"):
        scalar_basis(verification_grid(2), -1)


def test_scalar_route_runs_one_degree_above_max_degree():
    # energy_report's scalar route analyzes a band-MAX_DEGREE field at MAX_DEGREE + 1,
    # which verification_grid(MAX_DEGREE) resolves.
    grid = verification_grid(MAX_DEGREE)
    basis = scalar_basis(grid, MAX_DEGREE + 1)
    coeffs = np.random.default_rng(MAX_DEGREE + 1).standard_normal((len(basis.degrees), 3))
    assert np.max(np.abs(basis.analyze(basis.synthesize(coeffs)) - coeffs)) < 1e-11
    energy = dirichlet_energy_scalar_route(normal_field(grid), MAX_DEGREE + 1)
    assert_allclose(energy, 8.0 * math.pi, rtol=0, atol=1e-12)


def test_scalar_basis_stops_one_degree_above_max_degree():
    with pytest.raises(ValueError, match=r"degree n=66 outside \[0, 65\]"):
        scalar_basis(build_grid(67, 133), MAX_DEGREE + 2)


def test_scalar_roundtrip_band_limited(rng):
    grid = verification_grid(5)
    basis = scalar_basis(grid, 5)
    for _ in range(10):
        coeffs = rng.standard_normal(len(basis.degrees))
        back = basis.analyze(basis.synthesize(coeffs))
        assert np.max(np.abs(back - coeffs)) < 1e-11


def test_scalar_dense_table_above_the_crossover_is_built_on_demand_from_the_reference():
    grid = verification_grid(10)
    basis = ScalarBasis(grid, 10)
    assert "matrix" not in vars(basis)
    assert basis.matrix.tobytes() == reference_basis.scalar_matrix(grid, 10).tobytes()
    assert "matrix" in vars(ScalarBasis(grid, 9))
    assert basis.degrees == [(n, j) for n in range(11) for j in range(-n, n + 1)]
    assert basis.eigenvalues.tolist() == [n * (n + 1) for n, _ in basis.degrees]
    # The transforms need no grid; the oracle does, and says so once it is gone.
    with _no_cyclic_gc():
        orphan = ScalarBasis(verification_grid(10), 10)
        assert orphan.synthesize(orphan.analyze(np.ones(22 * 43))) == pytest.approx(np.ones(22 * 43))
        with pytest.raises(ReferenceError, match="grid of this basis has been freed"):
            orphan.matrix


# Above band 9 the scalar transforms are separable: per-order Legendre tables and a trig table.
@pytest.mark.parametrize("band", [10, 12, 21, 33])
def test_separable_route_matches_the_dense_table(band):
    grid = verification_grid(band)
    basis = ScalarBasis(grid, band)
    modes = len(basis.degrees)
    rng = np.random.default_rng(band)
    samples = [rng.standard_normal(grid.n_nodes), rng.standard_normal((grid.n_nodes, 3))]
    coeffs = [rng.standard_normal(modes), rng.standard_normal((modes, 3))]
    analyzed = [basis.analyze(v) for v in samples]
    synthesized = [basis.synthesize(c) for c in coeffs]
    assert "matrix" not in vars(basis)
    dense = basis.matrix.reshape(modes, -1)
    for v, got in zip(samples, analyzed):
        assert got.shape == (modes,) + v.shape[1:]
        assert_allclose(got, (dense * grid.weights.reshape(-1)) @ v, rtol=0, atol=1e-13)
    for c, got in zip(coeffs, synthesized):
        assert got.shape == (grid.n_nodes,) + c.shape[1:]
        assert_allclose(got, dense.T @ c, rtol=0, atol=1e-13)
    if band <= 21:  # the identity's synthesis grows as N^4: 85 MB at band 33, 1.1 GB at 64
        gram = basis.analyze(basis.synthesize(np.eye(modes)))
        assert np.max(np.abs(gram - np.eye(modes))) < 1e-11


@pytest.mark.parametrize("band", [10, 16, 33, 64])
def test_separable_route_roundtrip_up_to_max_degree(band):
    grid = verification_grid(band)
    basis = ScalarBasis(grid, band)
    coeffs = np.random.default_rng(band).standard_normal((len(basis.degrees), 8))
    back = basis.analyze(basis.synthesize(coeffs))
    assert np.max(np.abs(back - coeffs)) < 1e-11
    assert "matrix" not in vars(basis)
    # The dense tables would hold 2 x 1.06 GiB at band 64.
    assert sum(v.nbytes for v in vars(basis).values() if isinstance(v, np.ndarray)) < 16 * 2**20


# Band 4 runs the dense table, band 12 the separable route.
@pytest.mark.parametrize("band", [4, 12])
def test_dirichlet_takes_the_coefficient_vector_analyze_returns(band):
    grid = verification_grid(band)
    basis = ScalarBasis(grid, band)
    samples = np.random.default_rng(band).standard_normal(grid.n_nodes)
    coeffs = basis.analyze(samples)
    assert coeffs.shape == (len(basis.degrees),)
    column = basis.dirichlet(basis.analyze(samples[:, None]))
    assert basis.dirichlet(coeffs) == column
    assert column == pytest.approx(float(np.sum(basis.eigenvalues * coeffs * coeffs)), rel=1e-13)
    stacked = np.stack([coeffs, 2.0 * coeffs], axis=1)
    assert basis.dirichlet(stacked) == pytest.approx(5.0 * column, rel=1e-13)


# Band 4 runs the dense table, band 12 the separable route.
@pytest.mark.parametrize("band", [4, 12])
def test_scalar_transforms_reject_every_undocumented_shape(band):
    grid = verification_grid(band)
    basis = ScalarBasis(grid, band)
    nodes, modes = grid.n_nodes, len(basis.degrees)
    for samples in (np.ones(2 * nodes), np.ones((2 * nodes, 3)), np.ones((nodes, 3, 1)), np.ones(())):
        with pytest.raises(ValueError, match=rf"expected samples of shape \({nodes},\)"):
            basis.analyze(samples)
    for coeffs in (np.ones(2 * modes), np.ones((modes, 3, 1)), np.ones((2, modes, 3)), np.ones(())):
        with pytest.raises(ValueError, match=rf"expected coefficients of shape \({modes},\)"):
            basis.synthesize(coeffs)
    for coeffs in (np.ones(2 * modes), np.ones((modes, 3, 1)), np.ones((modes + 1, 3))):
        with pytest.raises(ValueError, match=rf"expected coefficients of shape \({modes},\)"):
            basis.dirichlet(coeffs)


@pytest.mark.parametrize("band", [4, 12])
def test_scalar_analysis_and_dirichlet_of_a_stack_are_per_table(band):
    grid = verification_grid(band)
    basis = ScalarBasis(grid, band)
    samples = np.random.default_rng(band).standard_normal((2, 5, grid.n_nodes, 3))
    stacked = basis.analyze(samples)
    assert stacked.shape == (2, 5, len(basis.degrees), 3)
    alone = np.array([[basis.analyze(table) for table in row] for row in samples])
    if band <= 9:  # the dense route: one product per table, bit for bit
        assert stacked.tobytes() == alone.tobytes()
    else:  # the separable route runs the stack as more columns
        assert_allclose(stacked, alone, rtol=0, atol=1e-13)
    energies = basis.dirichlet(alone)
    assert energies.shape == (2, 5)
    assert energies.tolist() == [[basis.dirichlet(table) for table in row] for row in alone]


def test_dirichlet_scalar_route_normal_field():
    grid = build_grid(8, 17)
    assert_allclose(
        dirichlet_energy_scalar_route(normal_field(grid), 4),
        8.0 * math.pi,
        rtol=0,
        atol=1e-9,
    )


def test_dirichlet_scalar_route_constant_field():
    # Constant vectors have constant components: zero surface gradient.
    grid = build_grid(8, 17)
    values = np.zeros((8, 17, 3))
    values[..., 0] = 1.0
    u = SampledVectorField(grid=grid, values=values)
    assert abs(dirichlet_energy_scalar_route(u, 4)) < 1e-12


def test_unit_field_l2_and_l4_saturate():
    # For pointwise unit fields both moment integrals pin to 4 pi.
    grid = build_grid(10, 21)
    rng = np.random.default_rng(21)
    raw = normal_field(grid).values + 0.3 * rng.standard_normal((10, 21, 3))
    for values in (normal_field(grid).values, raw / np.linalg.norm(raw, axis=-1)[..., None]):
        u = SampledVectorField(grid=grid, values=values)
        mag2 = np.sum(u.values * u.values, axis=-1)
        assert_allclose(
            integrate(SampledScalarField(grid=grid, values=mag2)), FOUR_PI, atol=1e-12
        )
        assert_allclose(
            integrate(SampledScalarField(grid=grid, values=mag2 * mag2)), FOUR_PI, atol=1e-12
        )


def test_export_vector_field_csv(tmp_path):
    grid = build_grid(2, 3)
    u = normal_field(grid)
    path = tmp_path / "field.csv"
    export_vector_field_csv(u, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "phi,t,ux,uy,uz"
    assert len(lines) == 1 + grid.n_nodes
    # row-major in (t-index, phi-index): first row is t[0], phi[0]
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == grid.phi[0]
    assert first[1] == grid.t[0]
    assert_allclose(first[2:], u.values[0, 0], rtol=0, atol=1e-16)
    # second row advances phi, not t
    second = [float(x) for x in lines[2].split(",")]
    assert second[0] == grid.phi[1]
    assert second[1] == grid.t[0]


def _per_node_field_csv(field_data, path):
    """Node-by-node reference for the bytes of ``export_vector_field_csv``."""
    grid = field_data.grid
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("phi,t,ux,uy,uz\n")
        for a in range(grid.n_t):
            for b in range(grid.n_phi):
                ux, uy, uz = field_data.values[a, b]
                fh.write(
                    f"{float(grid.phi[b])!r},{float(grid.t[a])!r},"
                    f"{float(ux)!r},{float(uy)!r},{float(uz)!r}\n"
                )


@pytest.mark.parametrize("sizes", [(3, 5), (16, 33)])
def test_export_vector_field_csv_bytes_are_the_per_node_writer(sizes, tmp_path):
    grid = build_grid(*sizes)
    values = np.random.default_rng(sum(sizes)).standard_normal((*sizes, 3))
    special = [-0.0, 5e-324, 1e16, 0.1 + 0.2, -1e-300, 1.0, 2.0 / 3.0]
    values.reshape(-1)[: len(special)] = special
    values[-1, -1] = (-5e-324, 1e16 + 2.0, 0.0)
    u = SampledVectorField(grid=grid, values=values)
    export_vector_field_csv(u, tmp_path / "bulk.csv")
    _per_node_field_csv(u, tmp_path / "per_node.csv")
    bulk = (tmp_path / "bulk.csv").read_bytes()
    assert bulk == (tmp_path / "per_node.csv").read_bytes()
    assert b"-0.0,5e-324,1e+16\n" in bulk and b",0.30000000000000004," in bulk
