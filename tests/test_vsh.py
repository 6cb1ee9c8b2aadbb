import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import reference_basis
from sphere_poincare.grid import (
    SampledVectorField,
    build_grid,
    dirichlet_energy_scalar_route,
    inner_product,
    normal_field,
    tangent_frame,
    verification_grid,
)
from sphere_poincare.vsh import (
    CoeffSet,
    ModeIndex,
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


def test_gram_matrix_identity():
    grid = verification_grid(6)
    basis = vector_basis(grid, 6)
    gram = np.einsum(
        "mijk,nijk->mn", basis.matrix * grid.weights[..., None], basis.matrix
    )
    assert np.max(np.abs(gram - np.eye(len(basis.modes)))) < 1e-10


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


def test_analyze_underresolved_grid():
    grid = build_grid(4, 9)
    u = SampledVectorField(grid=grid, values=np.zeros((4, 9, 3)))
    with pytest.raises(ValueError):
        analyze(u, 4)


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
    c[(3, 0, 0)] = 0.0  # allowed no-op
    with pytest.raises(ValueError):
        c[(2, 0, 0)] = 1.0
    with pytest.raises(ValueError):
        c[(1, 3, 0)] = 1.0  # beyond band limit
    with pytest.raises(ValueError):
        c[(1, 1, 2)] = 1.0
    with pytest.raises(ValueError):
        c[(1, 1, 0)] = math.inf


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


def test_random_coeffs_norm_and_families(rng):
    c = random_coeffs(4, rng, families=(2, 3), norm_sq=FOUR_PI)
    assert np.max(np.abs(c.data[0])) == 0.0
    assert_allclose(np.sum(c.data * c.data), FOUR_PI, rtol=1e-12)


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
