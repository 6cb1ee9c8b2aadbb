import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphere_poincare.grid import normal_field, verification_grid
from sphere_poincare.sharp import gamma, shifted_constant
from sphere_poincare import spectral
from sphere_poincare.spectral import (
    anisotropy_energy,
    anisotropy_energy_quadrature,
    dirichlet_energy,
    energy_report,
    g_kappa,
    norm_sq,
    norm_sq_quadrature,
)
from sphere_poincare.vsh import CoeffSet, _random_tables, random_coeffs, synthesize

FOUR_PI = 4.0 * math.pi


def _single(family, n, j, value, band=1):
    c = CoeffSet(band)
    c[(family, n, j)] = value
    return c


def test_dirichlet_examples():
    assert_allclose(
        dirichlet_energy(_single(1, 0, 0, math.sqrt(FOUR_PI))), 8.0 * math.pi, rtol=1e-14
    )
    assert_allclose(
        dirichlet_energy(_single(2, 1, 0, math.sqrt(FOUR_PI))), 8.0 * math.pi, rtol=1e-14
    )
    assert dirichlet_energy(CoeffSet(3)) == 0.0


def test_anisotropy_examples():
    assert_allclose(
        anisotropy_energy(_single(1, 0, 0, math.sqrt(FOUR_PI))), FOUR_PI, rtol=1e-14
    )
    assert anisotropy_energy(_single(2, 1, 0, math.sqrt(FOUR_PI))) == 0.0
    c = CoeffSet(1)
    c[(1, 1, 1)] = 0.7
    c[(2, 1, 1)] = -1.3
    assert_allclose(anisotropy_energy(c), 0.49, rtol=1e-14)


def test_g_kappa_examples():
    kappa = -5.25
    assert_allclose(
        g_kappa(_single(1, 0, 0, math.sqrt(FOUR_PI)), kappa),
        FOUR_PI * (kappa + 2.0),
        rtol=1e-14,
    )
    assert g_kappa(CoeffSet(2), kappa) == 0.0


def test_g_kappa_degree1_quadratic_form(rng):
    # With support only on (u1, u2) at degree 1 the energy reduces to
    # (kappa+4) x^2 - 4 sqrt(2) x y + 2 y^2.
    for _ in range(20):
        x, y, kappa = rng.standard_normal(3)
        c = CoeffSet(1)
        c[(1, 1, 1)] = x
        c[(2, 1, 1)] = y
        expected = (kappa + 4.0) * x * x - 4.0 * math.sqrt(2.0) * x * y + 2.0 * y * y
        assert_allclose(g_kappa(c, kappa), expected, rtol=1e-12, atol=1e-12)


def test_norm_sq_examples(rng, grid4):
    assert_allclose(norm_sq(_single(1, 0, 0, math.sqrt(FOUR_PI))), FOUR_PI, rtol=1e-14)
    assert norm_sq(CoeffSet(1)) == 0.0
    coeffs = random_coeffs(4, rng)
    field = synthesize(coeffs, grid4)
    assert_allclose(norm_sq(coeffs), norm_sq_quadrature(field), rtol=0, atol=1e-10)


def test_g_kappa_is_dirichlet_plus_kappa_anisotropy(rng):
    for _ in range(1000):
        coeffs = random_coeffs(3, rng)
        kappa = float(rng.uniform(-10.0, 10.0))
        lhs = g_kappa(coeffs, kappa)
        rhs = dirichlet_energy(coeffs) + kappa * anisotropy_energy(coeffs)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_route_equivalence_random_fields(rng, grid4):
    for _ in range(100):
        coeffs = random_coeffs(4, rng)
        field = synthesize(coeffs, grid4)
        for kappa in (-8.0, -4.0, 0.0, 6.0):
            report = energy_report(field, kappa, band_limit=4)
            assert report.route_gap < 1e-8


def test_poincare_inequality_fuzz(rng):
    kappas = rng.uniform(-10.0, 10.0, size=25)
    for _ in range(1000):
        coeffs = random_coeffs(4, rng, norm_sq=FOUR_PI)
        dir_term = dirichlet_energy(coeffs)
        aniso = anisotropy_energy(coeffs)
        for kappa in kappas:
            kappa = float(kappa)
            assert dir_term + kappa * aniso >= FOUR_PI * gamma(kappa) - 1e-9


def test_rewritten_inequality_negative_kappa(rng):
    for _ in range(300):
        coeffs = random_coeffs(4, rng, norm_sq=FOUR_PI)
        dir_term = dirichlet_energy(coeffs)
        aniso = anisotropy_energy(coeffs)
        nrm = norm_sq(coeffs)
        tangential_sq = nrm - aniso  # |u x n|^2 integral
        for kappa in (-9.0, -4.0, -0.5):
            lhs = dir_term + abs(kappa) * tangential_sq
            assert lhs >= shifted_constant(kappa) * nrm - 1e-9


def test_energy_report_normal_field():
    grid = verification_grid(2)
    report = energy_report(normal_field(grid), -8.0, band_limit=1)
    assert_allclose(report.dirichlet, 8.0 * math.pi, rtol=0, atol=1e-10)
    assert_allclose(report.anisotropy, FOUR_PI, rtol=0, atol=1e-10)
    assert_allclose(report.total, -24.0 * math.pi, rtol=0, atol=1e-9)
    assert_allclose(report.norm_sq, FOUR_PI, rtol=0, atol=1e-10)
    assert report.quadrature is not None
    assert report.quadrature.route == "quadrature"
    assert_allclose(report.quadrature.total, -24.0 * math.pi, rtol=0, atol=1e-9)
    assert report.route_gap < 1e-10


def test_energy_report_tangential_mode():
    grid = verification_grid(2)
    c = _single(2, 1, 0, math.sqrt(FOUR_PI))
    field = synthesize(c, grid)
    for kappa in (-3.0, 0.0, 5.0):
        report = energy_report(field, kappa, band_limit=1)
        assert_allclose(report.total, 8.0 * math.pi, rtol=0, atol=1e-9)
        assert_allclose(report.norm_sq, FOUR_PI, rtol=0, atol=1e-10)
        assert_allclose(report.total / report.norm_sq, 2.0, rtol=0, atol=1e-10)


def test_energy_report_zero_field():
    report = energy_report(CoeffSet(2), 3.0)
    assert report.dirichlet == report.anisotropy == report.total == report.norm_sq == 0.0
    assert report.quadrature is None


def test_energy_report_requires_band_limit(grid4):
    with pytest.raises(ValueError):
        energy_report(normal_field(grid4), 1.0)
    with pytest.raises(TypeError):
        energy_report("not a field", 1.0)


def test_energy_breakdown_json():
    report = energy_report(_single(1, 0, 0, math.sqrt(FOUR_PI)), -8.0)
    payload = json.loads(report.to_json())
    assert set(payload) == {"dirichlet", "anisotropy", "total", "norm_sq", "kappa", "route"}
    assert payload["route"] == "spectral"
    assert_allclose(payload["total"], FOUR_PI * (-6.0), rtol=1e-14)


def test_anisotropy_quadrature_matches_spectral(rng, grid4):
    coeffs = random_coeffs(4, rng)
    field = synthesize(coeffs, grid4)
    assert_allclose(
        anisotropy_energy(coeffs),
        anisotropy_energy_quadrature(field),
        rtol=0,
        atol=1e-10,
    )


# One table at a time, summed over the whole (3, n+1, 2n+1) table.


def _reference_dirichlet(data):
    n = np.arange(data.shape[1], dtype=float)
    nstar = (n * (n + 1.0))[:, None]
    u1, u2, u3 = data
    return float(
        np.sum((nstar + 2.0) * u1 * u1 - 4.0 * np.sqrt(nstar) * u1 * u2 + nstar * (u2 * u2 + u3 * u3))
    )


def _reference_g_kappa(data, kappa):
    n = np.arange(data.shape[1], dtype=float)
    nstar = (n * (n + 1.0))[:, None]
    u1, u2, u3 = data
    return float(
        np.sum((nstar - 2.0 + kappa) * u1 * u1 + (2.0 * u1 - np.sqrt(nstar) * u2) ** 2 + nstar * u3 * u3)
    )


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("band, count", [(0, 4), (1, 1), (4, 100), (6, 37), (9, 5)])
def test_stacked_energy_kernels_are_the_per_table_functions(band, count):
    stack = _random_tables(band, np.random.default_rng(band), count, norm_sq=FOUR_PI)
    tables = [CoeffSet(band, data) for data in stack]
    kernels = {
        "dirichlet": (spectral._dirichlet(stack), [dirichlet_energy(c) for c in tables]),
        "anisotropy": (spectral._anisotropy(stack), [anisotropy_energy(c) for c in tables]),
        "g_kappa": (spectral._g_kappa(stack, -3.7), [g_kappa(c, -3.7) for c in tables]),
        "norm_sq": (spectral._norm_sq(stack), [norm_sq(c) for c in tables]),
    }
    for name, (stacked, per_table) in kernels.items():
        assert stacked.shape == (count,), name
        assert _bits(stacked) == _bits(per_table), name
    assert _bits(kernels["dirichlet"][1]) == _bits([_reference_dirichlet(d) for d in stack])
    assert _bits(kernels["g_kappa"][1]) == _bits([_reference_g_kappa(d, -3.7) for d in stack])
    assert _bits(kernels["anisotropy"][1]) == _bits([float(np.sum(d[0] * d[0])) for d in stack])
    assert _bits(kernels["norm_sq"][1]) == _bits([float(np.sum(d * d)) for d in stack])
