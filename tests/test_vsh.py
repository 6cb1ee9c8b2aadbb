import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference_basis
import sphere_poincare
from sphere_poincare.grid import (
    SampledVectorField,
    build_grid,
    dirichlet_energy_scalar_route,
    inner_product,
    normal_field,
    scalar_basis,
    tangent_frame,
    verification_grid,
)
from sphere_poincare.legendre import _sh_mode
from sphere_poincare.vsh import (
    CoeffSet,
    ModeIndex,
    VectorBasis,
    _random_tables,
    _unit_direction,
    _valid_mask,
    analyze,
    eval_vsh,
    mode_list,
    random_coeffs,
    synthesize,
    vector_basis,
)

FOUR_PI = 4.0 * math.pi
MU1 = math.sqrt(FOUR_PI / 3.0)
MU2 = math.sqrt(8.0 * math.pi / 3.0)


def test_mode_index_validation():
    ModeIndex(1, 0, 0)
    ModeIndex(3, 2, -2)
    with pytest.raises(ValueError):
        ModeIndex(0, 1, 0)
    with pytest.raises(ValueError):
        ModeIndex(2, 0, 0)
    with pytest.raises(ValueError):
        ModeIndex(1, 1, 2)
    with pytest.raises(ValueError):
        ModeIndex(1, -1, 0)


def test_eval_radial_degree0():
    rng = np.random.default_rng(5)
    phi = rng.uniform(0.0, 2 * math.pi, 20)
    t = rng.uniform(-0.9, 0.9, 20)
    _, _, normal = tangent_frame(phi, t)
    values = eval_vsh(ModeIndex(1, 0, 0), phi, t)
    assert_allclose(values, normal / math.sqrt(FOUR_PI), rtol=0, atol=1e-15)


def _closed_forms_degree1(phi, t):
    """Hand-derived degree-1 fields consistent with the sign convention
    (Condon-Shortley phase in X flips the |j| = 1 members)."""
    eps_phi, eps_t, normal = tangent_frame(phi, t)
    tau_theta = -eps_t
    tau_phi = eps_phi
    sin_th = np.sqrt(1.0 - t * t)[..., None]
    cos_th = np.asarray(t)[..., None]
    cos_p = np.cos(phi)[..., None]
    sin_p = np.sin(phi)[..., None]
    return {
        (1, -1): -sin_th * cos_p * normal / MU1,
        (1, 0): cos_th * normal / MU1,
        (1, 1): -sin_th * sin_p * normal / MU1,
        (2, -1): -(cos_th * cos_p * tau_theta - sin_p * tau_phi) / MU2,
        (2, 0): -sin_th * tau_theta / MU2,
        (2, 1): -(cos_th * sin_p * tau_theta + cos_p * tau_phi) / MU2,
    }


def test_eval_degree1_closed_forms():
    rng = np.random.default_rng(6)
    phi = rng.uniform(0.0, 2 * math.pi, 200)
    t = rng.uniform(-0.99, 0.99, 200)
    expected = _closed_forms_degree1(phi, t)
    for (family, j), field in expected.items():
        values = eval_vsh(ModeIndex(family, 1, j), phi, t)
        assert_allclose(values, field, rtol=0, atol=1e-12)


def test_family_structure_pointwise():
    rng = np.random.default_rng(8)
    phi = rng.uniform(0.0, 2 * math.pi, 50)
    t = rng.uniform(-0.95, 0.95, 50)
    eps_phi, eps_t, normal = tangent_frame(phi, t)
    for n in (1, 2, 3):
        for j in (-n, 0, n):
            radial = eval_vsh(ModeIndex(1, n, j), phi, t)
            grad = eval_vsh(ModeIndex(2, n, j), phi, t)
            curl = eval_vsh(ModeIndex(3, n, j), phi, t)
            assert np.max(np.abs(np.sum(radial * eps_phi, axis=-1))) < 1e-13
            assert np.max(np.abs(np.sum(radial * eps_t, axis=-1))) < 1e-13
            assert np.max(np.abs(np.sum(grad * normal, axis=-1))) < 1e-13
            assert np.max(np.abs(np.sum(curl * normal, axis=-1))) < 1e-13
            assert np.max(np.abs(curl - np.cross(normal, grad))) < 1e-14


def test_vector_basis_matrix_matches_stacked_modes():
    # Bytes, not np.array_equal: CSV repr tells -0.0 from 0.0.
    grid = verification_grid(3)
    expected = reference_basis.vector_matrix(grid, 3)
    assert vector_basis(grid, 3).matrix.tobytes() == expected.tobytes()


def _per_mode_field(mode, frame, y, d_phi, d_t):
    """One vector harmonic from the tangent frame and its rows Y, dY/dphi, dY/dt
    (the per-mode kernel the family blocks replaced, kept verbatim)."""
    eps_phi, eps_t, normal = frame
    if mode.family == 1:
        return y[..., None] * normal
    s = eps_t[..., 2]  # sqrt(1 - t^2)
    grad = eps_phi * (d_phi / s)[..., None] + eps_t * (s * d_t)[..., None]
    y2 = grad / np.sqrt(mode.n * (mode.n + 1))
    return y2 if mode.family == 2 else np.cross(normal, y2)


def _per_mode_matrix(grid, band_limit):
    """VectorBasis.matrix built one mode at a time (the loop the family blocks replaced)."""
    modes = mode_list(band_limit)
    matrix = np.empty((len(modes), grid.n_t, grid.n_phi, 3))
    index = {(mode.family, mode.n, mode.j): k for k, mode in enumerate(modes)}
    # One scalar harmonic's rows serve the (up to three) family rows of its (n, j).
    for n in range(band_limit + 1):
        for j in range(-n, n + 1):
            rows = _sh_mode(n, j, grid.phi[None, :], grid.t[:, None], grad=True)
            for family in (1, 2, 3) if n else (1,):
                mode = ModeIndex(family, n, j)
                matrix[index[family, n, j]] = _per_mode_field(mode, grid.frame, *rows)
    return matrix


# Eagerly built dense bands, on the verification grid and the CLI grids, and lazily built ones.
@pytest.mark.parametrize("band, size", [(0, None), (1, (16, 33)), (8, (18, 35)), (8, None), (9, None), (12, None)])
def test_block_built_matrix_is_the_per_mode_loop(band, size):
    grid = verification_grid(band) if size is None else build_grid(*size)
    assert VectorBasis(grid, band).matrix.tobytes() == _per_mode_matrix(grid, band).tobytes()


@pytest.mark.parametrize("band, size", [(4, (10, 19)), (9, None)])
def test_eval_vsh_is_the_matching_matrix_row(band, size):
    grid = verification_grid(band) if size is None else build_grid(*size)
    matrix = VectorBasis(grid, band).matrix
    t_mesh, phi_mesh = grid.meshes
    for row, mode in zip(matrix, mode_list(band)):
        assert eval_vsh(mode, phi_mesh, t_mesh).tobytes() == row.tobytes(), mode


_PROC_STATUS = pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmRSS and VmHWM from /proc")


def _in_fresh_process(script):
    """The stdout of ``script`` run in a fresh interpreter on this package, where
    ``status(key)`` reads a /proc/self/status entry in bytes."""
    status = textwrap.dedent(
        """
        def status(key):
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) * 1024 for line in fh if line.startswith(key + ":"))
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sphere_poincare.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-c", status + textwrap.dedent(script)]
    return subprocess.run(command, env=env, capture_output=True, text=True, check=True).stdout


@_PROC_STATUS
def test_lazy_band20_matrix_peaks_one_family_block_above_the_table():
    # VmHWM, not ru_maxrss: Linux carries the pre-exec maxrss of the forked test
    # process into the child's ru_maxrss, while VmHWM is the child's own peak.
    out = _in_fresh_process(
        """
        from sphere_poincare.grid import verification_grid
        from sphere_poincare.vsh import VectorBasis

        grid = verification_grid(20)
        grid.frame
        basis = VectorBasis(grid, 20)
        before = status("VmRSS")
        matrix = basis.matrix
        print(status("VmHWM") - before, matrix.nbytes, matrix[:441].nbytes)
        """
    )
    growth, table, block = map(int, out.split())
    # The scalar tables Y, dY/dphi and dY/dt together are one family block; the
    # margin covers the Legendre tables (about 0.3 MiB) and allocator slack.
    assert growth <= table + block + 2 * 2**20


@_PROC_STATUS
def test_band32_frame_tables_peak_near_their_own_bytes():
    out = _in_fresh_process(
        """
        from sphere_poincare.grid import verification_grid
        from sphere_poincare.vsh import VectorBasis

        grid = verification_grid(32)
        before = status("VmRSS")
        basis = VectorBasis(grid, 32)
        print(status("VmHWM") - before, basis._a.nbytes + basis._b.nbytes)
        """
    )
    growth, tables = map(int, out.split())
    # A and B hold 143.7 MiB.  The margin covers the Legendre and per-order tables, one
    # gathered wave and allocator slack (3.0-3.1 MiB measured); scaling A and B from the dense
    # Y, dY/dphi and dY/dt tables peaked 75 MiB above them.
    assert growth <= tables + 5 * 2**20


@_PROC_STATUS
def test_band32_transforms_round_trip_are_adjoint_and_peak_near_the_tables():
    out = _in_fresh_process(
        """
        import numpy as np
        from sphere_poincare.grid import SampledVectorField, inner_product, scalar_basis, verification_grid
        from sphere_poincare.vsh import VectorBasis, random_coeffs

        grid = verification_grid(32)
        grid.frame, grid.weights, scalar_basis(grid, 32)
        rng = np.random.default_rng(32)
        before = status("VmRSS")
        basis = VectorBasis(grid, 32)
        coeffs = random_coeffs(32, rng)
        field = basis.synthesize(coeffs)
        error = np.max(np.abs(basis.analyze(field).data - coeffs.data))
        samples = SampledVectorField(grid=grid, values=rng.standard_normal(field.values.shape))
        quadrature = inner_product(field, samples)
        gap = abs(coeffs.as_vector() @ basis.analyze(samples).as_vector() - quadrature) / abs(quadrature)
        print(status("VmHWM") - before, basis._a.nbytes + basis._b.nbytes, error, gap)
        """
    )
    growth, tables, error, gap = (float(word) for word in out.split())
    # Arbitrary samples, not band-limited: analysis is the quadrature adjoint of synthesis.
    assert gap <= 1e-12
    assert error <= 1e-11
    # A and B hold 143.7 MiB.  The build, the synthesis and both analyses peaked 2.8-2.9 MiB
    # above them; with the transposed synthesis products A.T @ c[1:].T, whose scratch
    # OpenBLAS allocates, 30.4 MiB above.
    assert growth <= tables + 16 * 2**20


def test_gram_matrix_identity():
    grid = verification_grid(6)
    basis = vector_basis(grid, 6)
    gram = np.einsum(
        "mijk,nijk->mn", basis.matrix * grid.weights[..., None], basis.matrix
    )
    assert np.max(np.abs(gram - np.eye(len(basis.modes)))) < 1e-10


def _affinity(monkeypatch, cpus):
    """Make the process affinity read ``cpus`` CPUs, so a stack splits the same on every host."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _same_bytes(got, expected):
    return got.shape == expected.shape and got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("band", range(1, 9))
def test_split_stacks_are_the_per_table_calls_bytewise(band, monkeypatch):
    grid = verification_grid(band)
    basis = vector_basis(grid, band)
    rng = np.random.default_rng(band)
    for count in (1, 2, 3, 50, 145):
        tables = _random_tables(band, rng, count)
        values = rng.standard_normal((count,) + basis.matrix.shape[1:])
        fields = np.stack([basis._synthesize_tables(table) for table in tables])
        coeffs = np.stack([basis._analyze_values(field) for field in values])
        for cpus in (1, 2, 3, 4):
            _affinity(monkeypatch, cpus)
            assert _same_bytes(basis._synthesize_tables(tables), fields), (count, cpus)
            assert _same_bytes(basis._analyze_values(values), coeffs), (count, cpus)


@pytest.mark.parametrize("band", range(2, 9))
def test_gram_is_the_analysis_of_the_table_bytewise(band):
    grid = verification_grid(band)
    basis = vector_basis(grid, band)
    gram = np.einsum("mijk,nijk->mn", basis.matrix * grid.weights[..., None], basis.matrix)
    assert _same_bytes(basis._analyze_values(basis.matrix), gram)


def test_a_pool_chunk_keeps_the_callers_floating_point_policy(monkeypatch):
    # numpy's einsum sets no floating-point status, so the weighting is what can raise.
    _affinity(monkeypatch, 2)
    grid = verification_grid(4)
    basis = vector_basis(grid, 4)
    values = np.random.default_rng(4).standard_normal((4,) + basis.matrix.shape[1:])
    values[-1] *= 1e-307  # weighted, the last field underflows; it is the pool's chunk
    basis._analyze_values(values)  # numpy's default policy ignores an underflow
    with np.errstate(under="raise"):
        with pytest.raises(FloatingPointError, match="^underflow encountered in multiply$"):
            basis._analyze_values(values)


def test_vsh_inner_product_examples():
    grid = verification_grid(2)
    y1 = synthesize(_single(1, 1, 0), grid)
    y2 = synthesize(_single(2, 1, 0), grid)
    assert abs(inner_product(y1, y2)) < 1e-12
    y2_11 = synthesize(_single(2, 1, 1), grid)
    assert_allclose(inner_product(y2_11, y2_11), 1.0, rtol=0, atol=1e-12)


def _single(family, n, j, value=1.0, band=None):
    c = CoeffSet(band if band is not None else max(1, n))
    c[(family, n, j)] = value
    return c


def test_synthesize_normal_field():
    grid = build_grid(6, 13)
    c = _single(1, 0, 0, math.sqrt(FOUR_PI), band=1)
    field = synthesize(c, grid)
    assert np.max(np.abs(field.values - normal_field(grid).values)) < 1e-14


def test_synthesize_empty_and_linear(grid4, rng):
    zero = synthesize(CoeffSet(2), grid4)
    assert np.max(np.abs(zero.values)) == 0.0
    a = random_coeffs(2, rng)
    b = random_coeffs(2, rng)
    lhs = synthesize(0.5 * a + (-2.0) * b, grid4)
    rhs = 0.5 * synthesize(a, grid4).values - 2.0 * synthesize(b, grid4).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-13


@pytest.mark.parametrize("band", [2, 6])
def test_synthesize_rebands_a_table_of_another_band(band, grid4, rng):
    # A band-2 table is zero-padded to the basis band 4, a band-6 table truncated.
    basis = vector_basis(grid4, 4)
    coeffs = random_coeffs(band, rng)
    expected = basis.synthesize(coeffs.with_band_limit(4)).values
    assert basis.synthesize(coeffs).values.tobytes() == expected.tobytes()


def test_analyze_normal_field(grid4):
    coeffs = analyze(normal_field(grid4), 3)
    for mode in mode_list(3):
        expected = math.sqrt(FOUR_PI) if (mode.family, mode.n, mode.j) == (1, 0, 0) else 0.0
        assert abs(coeffs[mode] - expected) < 1e-11


def test_analyze_delta(grid4):
    field = synthesize(_single(3, 2, 1), grid4)
    coeffs = analyze(field, 3)
    for mode in mode_list(3):
        expected = 1.0 if (mode.family, mode.n, mode.j) == (3, 2, 1) else 0.0
        assert abs(coeffs[mode] - expected) < 1e-12


def test_roundtrip_random_band4(grid4, rng):
    for _ in range(50):
        coeffs = random_coeffs(4, rng)
        back = analyze(synthesize(coeffs, grid4), 4)
        assert np.max(np.abs(back.data - coeffs.data)) < 1e-11


def test_basis_outliving_its_grid_says_so():
    basis = VectorBasis(verification_grid(1), 1)
    with pytest.raises(ReferenceError, match="grid of this basis has been freed"):
        basis.synthesize(CoeffSet(1))


def test_analyze_underresolved_grid():
    grid = build_grid(4, 9)
    u = SampledVectorField(grid=grid, values=np.zeros((4, 9, 3)))
    with pytest.raises(ValueError):
        analyze(u, 4)


# Above band 8 the transforms run on frame components against scalar tables.
FRAME_CASES = [(b, None) for b in (9, 10, 11, 12, 20)] + [(12, (30, 61))]


@pytest.mark.parametrize("band, size", FRAME_CASES)
def test_frame_route_matches_the_dense_table(band, size):
    grid = verification_grid(band) if size is None else build_grid(*size)
    basis = VectorBasis(grid, band)
    rng = np.random.default_rng(band)
    coeffs = random_coeffs(band, rng)
    values = rng.standard_normal((grid.n_t, grid.n_phi, 3))
    field = basis.synthesize(coeffs)
    back = basis.analyze(SampledVectorField(grid=grid, values=values))
    assert "matrix" not in vars(basis)
    dense = basis.matrix
    assert "matrix" in vars(basis)
    assert_allclose(field.values, np.einsum("m,mijk->ijk", coeffs.as_vector(), dense), rtol=0, atol=1e-13)
    weighted = values * grid.weights[..., None]
    assert_allclose(back.as_vector(), np.einsum("mijk,ijk->m", dense, weighted), rtol=0, atol=1e-13)


def test_dense_table_above_the_crossover_is_built_on_demand_from_the_reference():
    grid = verification_grid(9)
    basis = VectorBasis(grid, 9)
    assert "matrix" not in vars(basis)
    assert basis.matrix.tobytes() == reference_basis.vector_matrix(grid, 9).tobytes()
    assert "matrix" in vars(VectorBasis(grid, 8))


def test_frame_route_holds_two_node_tables_and_runs_family1_on_the_separable_scalar_basis(rng):
    grid = verification_grid(20)
    basis = VectorBasis(grid, 20)
    coeffs = random_coeffs(20, rng)
    back = basis.analyze(basis.synthesize(coeffs))
    assert np.max(np.abs(back.data - coeffs.data)) < 1e-11

    def root(array):
        while array.base is not None:
            array = array.base
        return array

    # Each distinct array the basis keeps, counted once through its views.
    held = {id(root(a)): root(a).nbytes for a in vars(basis).values() if isinstance(a, np.ndarray)}
    assert sum(held.values()) <= 2 * 441 * grid.n_nodes * 8
    # Family 1 ran on the grid's separable band-20 scalar basis, which built no dense table.
    assert "matrix" not in vars(scalar_basis(grid, 20))
    assert "matrix" not in vars(basis)


def test_frame_route_roundtrip_band24(rng):
    grid = verification_grid(24)
    basis = VectorBasis(grid, 24)
    for _ in range(3):
        coeffs = random_coeffs(24, rng)
        back = basis.analyze(basis.synthesize(coeffs))
        assert np.max(np.abs(back.data - coeffs.data)) < 1e-11
    assert "matrix" not in vars(basis)


def test_frame_route_rejects_an_underresolved_grid():
    with pytest.raises(ValueError, match="does not resolve"):
        VectorBasis(build_grid(9, 19), 9)
    grid = build_grid(10, 19)  # resolves band 9, not the band 10 of its products
    basis = VectorBasis(grid, 9)
    with pytest.raises(ValueError, match="does not resolve"):
        basis.analyze(SampledVectorField(grid=grid, values=np.zeros((10, 19, 3))))


def test_block_relations_by_polarization():
    # Dirichlet forms of the three families against the scalar route:
    # D(y1) = n*+2, D(y2) = D(y3) = n*, cross term <y1, y2> = -2 sqrt(n*).
    grid = verification_grid(6)
    for n in (1, 2, 3, 4):
        nstar = n * (n + 1)
        for j in (0, n):
            y1 = synthesize(_single(1, n, j), grid)
            y2 = synthesize(_single(2, n, j), grid)
            y3 = synthesize(_single(3, n, j), grid)
            d1 = dirichlet_energy_scalar_route(y1, n + 1)
            d2 = dirichlet_energy_scalar_route(y2, n + 1)
            d3 = dirichlet_energy_scalar_route(y3, n + 1)
            both = SampledVectorField(grid=grid, values=y1.values + y2.values)
            cross = 0.5 * (dirichlet_energy_scalar_route(both, n + 1) - d1 - d2)
            assert_allclose(d1, nstar + 2.0, rtol=0, atol=1e-9)
            assert_allclose(d2, nstar, rtol=0, atol=1e-9)
            assert_allclose(d3, nstar, rtol=0, atol=1e-9)
            assert_allclose(cross, -2.0 * math.sqrt(nstar), rtol=0, atol=1e-9)


def test_coeffset_basics():
    c = CoeffSet(2)
    c[(1, 2, -2)] = 3.5
    assert c[(1, 2, -2)] == 3.5
    assert c[ModeIndex(1, 2, -2)] == 3.5
    assert c[(2, 0, 0)] == 0.0  # convention: representable only as zero
    assert c[(1, 5, -5)] == 0.0  # above the band limit
    c[(3, 0, 0)] = 0.0  # allowed no-op
    with pytest.raises(ValueError):
        c[(2, 0, 0)] = 1.0
    for value in (0.0, 1.0):
        with pytest.raises(ValueError):
            c[(1, 3, 0)] = value  # beyond band limit
    with pytest.raises(ValueError):
        c[(1, 1, 2)] = 1.0
    with pytest.raises(ValueError):
        c[(1, 1, 0)] = math.inf


@pytest.mark.parametrize("key", [(5, 0, 0), (0, 0, 0), (2, 0, 7), (3, 0, 9), (1, 70, 0), (1, -1, 0)])
def test_coeffset_rejects_invalid_keys(key):
    c = CoeffSet(2)
    with pytest.raises(ValueError):
        c[key]
    for value in (0.0, 1.0):
        with pytest.raises(ValueError, match="family|degree/order"):
            c[key] = value
    assert not c.data.any()


def test_coeffset_csv_roundtrip(tmp_path, rng):
    coeffs = random_coeffs(3, rng)
    path = tmp_path / "coeffs.csv"
    coeffs.to_csv(path)
    back = CoeffSet.from_csv(path)
    assert back.band_limit == 3
    assert np.max(np.abs(back.data - coeffs.data)) == 0.0


def test_coeffset_csv_missing_rows_are_zero(tmp_path):
    path = tmp_path / "coeffs.csv"
    path.write_text("i,n,j,value\n1,1,0,2.0\n")
    c = CoeffSet.from_csv(path, band_limit=2)
    assert c[(1, 1, 0)] == 2.0
    assert c[(2, 1, 0)] == 0.0
    assert c[(1, 2, 2)] == 0.0


def test_coeffset_csv_rejects_bad_rows(tmp_path):
    for body in ["4,1,0,1.0", "2,0,0,1.0", "1,1,2,1.0"]:
        path = tmp_path / "bad.csv"
        path.write_text(f"i,n,j,value\n{body}\n")
        with pytest.raises(ValueError):
            CoeffSet.from_csv(path)


def test_coeffset_csv_rejects_duplicates(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("i,n,j,value\n1,1,0,1.0\n1,1,0,2.0\n")
    with pytest.raises(ValueError):
        CoeffSet.from_csv(path)


@pytest.mark.parametrize("body, message", [
    ("a,b,c,d\n1,1,0,1.0\n", "unexpected header 'a,b,c,d'"),
    ("i,n,j,value\n1,1,0\n", "line 2: expected 4 fields"),
], ids=["header", "fields"])
def test_coeffset_csv_rejects_a_bad_header_or_field_count(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValueError, match=message):
        CoeffSet.from_csv(path)


def test_coeffset_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("i,n,j,value\n\n1,1,0,2.0\n\n")
    assert list(CoeffSet.from_csv(path).items_nonzero()) == [(ModeIndex(1, 1, 0), 2.0)]


@pytest.mark.parametrize("band_limit", [-1, 65])
def test_coeffset_rejects_a_band_limit_outside_the_cap(band_limit):
    with pytest.raises(ValueError, match=rf"band limit {band_limit} outside \[0, 64\]"):
        CoeffSet(band_limit)


@pytest.mark.parametrize("data, message", [
    (np.zeros((3, 2, 5)), r"data shape \(3, 2, 5\) != \(3, 2, 3\)"),
    (np.full((3, 2, 3), np.nan), "coefficients must be finite"),
    (np.ones((3, 2, 3)), "nonzero coefficient outside the valid mode set"),
], ids=["shape", "nan", "outside-the-mode-set"])
def test_coeffset_rejects_bad_data(data, message):
    with pytest.raises(ValueError, match=message):
        CoeffSet(1, data)


@pytest.mark.parametrize("vec, message", [
    (np.ones(3), r"expected 10 coefficients, got \(3,\)"),
    (np.full(10, np.inf), "coefficients must be finite"),
], ids=["count", "inf"])
def test_coeffset_from_vector_rejects_a_bad_vector(vec, message):
    with pytest.raises(ValueError, match=message):
        CoeffSet.from_vector(1, vec)


def test_coeffset_adds_only_a_table_of_its_band():
    with pytest.raises(TypeError, match="unsupported operand"):
        CoeffSet(1) + 1.0
    with pytest.raises(ValueError, match="band limits differ; pad with with_band_limit first"):
        CoeffSet(1) + CoeffSet(2)


def test_random_coeffs_cannot_rescale_an_empty_family_set(rng):
    # Families 2 and 3 have no degree-0 mode, so a band-0 table of them is all zero.
    with pytest.raises(ValueError, match="cannot rescale an all-zero coefficient table"):
        random_coeffs(0, rng, families=(2, 3), norm_sq=FOUR_PI)


def test_random_coeffs_norm_and_families(rng):
    c = random_coeffs(4, rng, families=(2, 3), norm_sq=FOUR_PI)
    assert np.max(np.abs(c.data[0])) == 0.0
    assert_allclose(np.sum(c.data * c.data), FOUR_PI, rtol=1e-12)


def _reference_random_coeffs(band_limit, rng, families=(1, 2, 3), norm_sq=None):
    """One table at a time: fill the family rows of the mode set, then rescale."""
    out = CoeffSet(band_limit)
    mask = _reference_mask(band_limit)
    for family in (1, 2, 3):
        if family not in families:
            mask[family - 1] = False
    out.data[mask] = rng.standard_normal(int(mask.sum()))
    if norm_sq is not None:
        out.data *= np.sqrt(norm_sq / float(np.sum(out.data * out.data)))
    return out


@pytest.mark.parametrize(
    "band, count, families, norm_sq",
    [(0, 3, (1, 2, 3), None), (4, 7, (1, 2, 3), None), (6, 100, (1, 2, 3), FOUR_PI),
     (6, 13, (2, 3), FOUR_PI), (3, 5, (2, 3), None), (5, 1, (1,), 2.5)],
)
def test_random_tables_are_sequential_random_coeffs(band, count, families, norm_sq):
    tables = _random_tables(band, np.random.default_rng(11), count, families, norm_sq)
    rng = np.random.default_rng(11)
    expected = [_reference_random_coeffs(band, rng, families, norm_sq).data for _ in range(count)]
    assert tables.shape == (count, 3, band + 1, 2 * band + 1)
    assert tables.tobytes() == np.stack(expected).tobytes()
    rng = np.random.default_rng(11)
    singles = [random_coeffs(band, rng, families, norm_sq).data for _ in range(count)]
    assert np.stack(singles).tobytes() == tables.tobytes()


# Per-mode reference implementations of the mode set and the table walks.


def _reference_modes(band_limit):
    modes = []
    for family in (1, 2, 3):
        start = 0 if family == 1 else 1
        for n in range(start, band_limit + 1):
            for j in range(-n, n + 1):
                modes.append(ModeIndex(family, n, j))
    return modes


def _reference_mask(band_limit):
    mask = np.zeros((3, band_limit + 1, 2 * band_limit + 1), dtype=bool)
    for n in range(band_limit + 1):
        for j in range(-n, n + 1):
            mask[0, n, j + band_limit] = True
            if n >= 1:
                mask[1, n, j + band_limit] = True
                mask[2, n, j + band_limit] = True
    return mask


def _reference_with_band_limit(coeffs, band_limit):
    out = CoeffSet(band_limit)
    for mode in _reference_modes(min(coeffs.band_limit, band_limit)):
        out[mode] = coeffs[mode]
    return out


def _reference_csv(coeffs, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("i,n,j,value\n")
        for mode in _reference_modes(coeffs.band_limit):
            value = coeffs[mode]
            if value != 0.0:
                fh.write(f"{mode.family},{mode.n},{mode.j},{float(value)!r}\n")


@pytest.mark.parametrize("band", range(9))
def test_mode_set_matches_reference(band):
    modes = _reference_modes(band)
    assert mode_list(band) == modes
    assert np.array_equal(_valid_mask(band), _reference_mask(band))
    coeffs = CoeffSet(band)
    for index, mode in enumerate(modes):
        coeffs[mode] = index + 1.0
    assert np.array_equal(coeffs.as_vector(), np.arange(1.0, len(modes) + 1.0))


@pytest.mark.parametrize("band", range(9))
def test_with_band_limit_matches_reference(band, rng):
    coeffs = random_coeffs(band, rng)
    for target in range(9):
        got = coeffs.with_band_limit(target)
        assert got.band_limit == target
        assert np.array_equal(got.data, _reference_with_band_limit(coeffs, target).data)


@pytest.mark.parametrize("band", range(9))
def test_to_csv_matches_reference_writer(band, rng, tmp_path):
    coeffs = random_coeffs(band, rng)
    coeffs.data[coeffs.data > 0.5] = 0.0  # zeros are skipped
    coeffs.to_csv(tmp_path / "got.csv")
    _reference_csv(coeffs, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_unit_direction_rescales_only_out_of_range_directions():
    assert _unit_direction(None).tolist() == [0.0, 1.0, 0.0]
    assert _unit_direction((3.0, 4.0, 0.0)).tolist() == [0.6, 0.8, 0.0]
    unit = _unit_direction((1.0, -2.0, 2.0))
    for scale in (1e300, 1e151, 1e-170, 5e-324):
        assert _unit_direction(np.array((1.0, -2.0, 2.0)) * scale).tolist() == unit.tolist()
    for bad in ((0.0, 0.0, 0.0), (np.inf, 0.0, 0.0), (np.nan, 1.0, 0.0)):
        with pytest.raises(ValueError):
            _unit_direction(bad)
    with pytest.raises(ValueError, match="direction must be a 3-vector over orders j = -1, 0, 1"):
        _unit_direction((1.0, 0.0))
