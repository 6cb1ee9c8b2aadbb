"""Round trips, the energy route gap, Parseval and the Dirichlet sum on drawn
bands, grids and weights.

Bands run from 0 to 24, across the dense/frame crossover of the vector
transform (band 8/9) and the dense/separable crossover of the scalar one
(band 9/10).  Each grid is the smallest that resolves the transform, plus
0-3 extra rows and 0-3 extra columns.  A vector analysis needs the scalar
band N + 1 (products of two band-N harmonics), a scalar one band N.  Each
example draws a fresh grid, so every basis is built cold.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sphere_poincare.grid import ScalarBasis, build_grid  # noqa: E402
from sphere_poincare.spectral import energy_report  # noqa: E402
from sphere_poincare.vsh import VectorBasis, random_coeffs  # noqa: E402

_BANDS = st.integers(0, 24)
_EXTRA = st.integers(0, 3)
_SEEDS = st.integers(0, 2**32 - 1)
_PROPERTY = settings(max_examples=150, derandomize=True, deadline=None, database=None)


def _vector_grid(band, extra_t, extra_phi):
    return build_grid(band + 2 + extra_t, 2 * band + 3 + extra_phi)


@_PROPERTY
@given(_BANDS, _EXTRA, _EXTRA, _SEEDS)
@example(8, 0, 0, 0)
@example(9, 0, 0, 0)
@example(24, 0, 0, 0)
def test_vector_round_trip(band, extra_t, extra_phi, seed):
    grid = _vector_grid(band, extra_t, extra_phi)
    basis = VectorBasis(grid, band)
    coeffs = random_coeffs(band, np.random.default_rng(seed))
    back = basis.analyze(basis.synthesize(coeffs))
    assert np.max(np.abs(back.data - coeffs.data)) < 1e-11


@_PROPERTY
@given(_BANDS, _EXTRA, _EXTRA, _SEEDS)
@example(9, 0, 0, 0)
@example(10, 0, 0, 0)
@example(24, 0, 0, 0)
def test_scalar_round_trip(band, extra_t, extra_phi, seed):
    grid = build_grid(band + 1 + extra_t, 2 * band + 1 + extra_phi)
    basis = ScalarBasis(grid, band)
    coeffs = np.random.default_rng(seed).standard_normal(len(basis.degrees))
    back = basis.analyze(basis.synthesize(coeffs))
    assert np.max(np.abs(back - coeffs)) < 1e-11


@_PROPERTY
@given(_BANDS, _EXTRA, _EXTRA, _SEEDS, st.floats(-1e4, 1e4))
@example(8, 0, 0, 0, -4.0)
@example(9, 0, 0, 0, -4.0)
def test_energy_report_route_gap(band, extra_t, extra_phi, seed, kappa):
    grid = _vector_grid(band, extra_t, extra_phi)
    field = VectorBasis(grid, band).synthesize(random_coeffs(band, np.random.default_rng(seed)))
    assert energy_report(field, kappa, band_limit=band).route_gap < 1e-8


@_PROPERTY
@given(_BANDS, _EXTRA, _EXTRA, _SEEDS, st.floats(-1e4, 1e4))
@example(8, 0, 0, 0, -4.0)
@example(9, 0, 0, 0, -4.0)
def test_energy_report_parseval(band, extra_t, extra_phi, seed, kappa):
    grid = _vector_grid(band, extra_t, extra_phi)
    field = VectorBasis(grid, band).synthesize(random_coeffs(band, np.random.default_rng(seed)))
    report = energy_report(field, kappa, band_limit=band)
    assert abs(report.norm_sq - report.quadrature.norm_sq) <= 1e-12 * report.quadrature.norm_sq


@_PROPERTY
@given(_BANDS, _EXTRA, _EXTRA, _SEEDS, st.integers(1, 3))
@example(9, 0, 0, 0, 1)
@example(10, 0, 0, 0, 1)
def test_scalar_dirichlet_is_the_eigenvalue_sum(band, extra_t, extra_phi, seed, k):
    # Up to band 9 the basis is dense, above it separable.
    grid = build_grid(band + 1 + extra_t, 2 * band + 1 + extra_phi)
    basis = ScalarBasis(grid, band)
    coeffs = np.random.default_rng(seed).standard_normal((len(basis.degrees), k))
    terms = [n * (n + 1) * c * c for (n, _), row in zip(basis.degrees, coeffs.tolist()) for c in row]
    expected = math.fsum(terms)
    for got, want in ((basis.dirichlet(coeffs), expected), (basis.dirichlet(coeffs[:, 0]), math.fsum(terms[::k]))):
        assert abs(got - want) <= 1e-12 * want
