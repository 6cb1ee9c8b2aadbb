"""The Legendre table and the real harmonics against scipy, up to MAX_DEGREE.

scipy is a test-only oracle: ``sph_legendre_p(n, m, theta)`` is the
orthonormalized X_{n,m}(cos theta) with the Condon-Shortley phase, and
its theta-derivative gives dX/dt = -(dX/dtheta) / sin(theta).  The nodes
are the t nodes of ``verification_grid(MAX_DEGREE)``, whose outermost
lie within 2e-4 of the poles.
"""

import math

import numpy as np
import pytest

from sphere_poincare.grid import verification_grid
from sphere_poincare.legendre import MAX_DEGREE, _legendre_tables, _norm_factor, scalar_sh_table

special = pytest.importorskip("scipy.special")

_DEGREES = np.arange(MAX_DEGREE + 1)
_LOWER = _DEGREES[None, :] <= _DEGREES[:, None]  # [n, m] with m <= n


@pytest.fixture(scope="module")
def nodes():
    grid = verification_grid(MAX_DEGREE)
    return grid.t, grid.phi[: grid.n_t]


@pytest.fixture(scope="module")
def scipy_x(nodes):
    """X_{n,m}(t) and dX/dt at [n, m, node] from scipy, zero for m > n."""
    t, _ = nodes
    theta = np.arccos(t)
    x, dx_dtheta = special.sph_legendre_p(_DEGREES[:, None, None], _DEGREES[None, :, None], theta, diff_n=1)
    return x, -dx_dtheta / np.sin(theta)


def _scaled_gap(ours, reference):
    """Largest |ours - reference| along the last axis, over the largest |reference| there
    (absolute where the reference is identically zero)."""
    scale = np.max(np.abs(reference), axis=-1)
    gap = np.max(np.abs(ours - reference), axis=-1)
    return gap / np.where(scale > 0.0, scale, 1.0)


def test_legendre_table_times_norm_is_scipy(nodes, scipy_x):
    t, _ = nodes
    table, dt_table = _legendre_tables(MAX_DEGREE, t, grad=True)
    norm = np.array([[_norm_factor(n, m) if m <= n else 0.0 for m in _DEGREES] for n in _DEGREES])
    x_ref, dx_ref = scipy_x
    x = table * norm[:, :, None]
    assert np.max(np.abs(x - x_ref)[_LOWER]) < 1e-12
    assert np.max(_scaled_gap(dt_table * norm[:, :, None], dx_ref)[_LOWER]) < 1e-12


def test_scalar_sh_table_rows_are_the_scipy_harmonics(nodes, scipy_x):
    # Node k pairs t[k] with phi[k], so every row covers every t node.
    t, phi = nodes
    x_ref, dx_ref = scipy_x
    y, dy_dphi, dy_dt = scalar_sh_table(MAX_DEGREE, phi, t, grad=True)
    row = 0
    for n in range(MAX_DEGREE + 1):
        for j in range(-n, n + 1):
            m = abs(j)
            if j == 0:
                expected = (x_ref[n, 0], np.zeros_like(t), dx_ref[n, 0])
            else:
                value, slope = (np.cos, np.sin) if j < 0 else (np.sin, np.cos)
                root2 = math.sqrt(2.0)
                expected = (
                    root2 * x_ref[n, m] * value(m * phi),
                    root2 * m * x_ref[n, m] * slope(m * phi) * (1.0 if j > 0 else -1.0),
                    root2 * dx_ref[n, m] * value(m * phi),
                )
            assert np.max(np.abs(y[row] - expected[0])) < 1e-12, (n, j)
            for ours, reference in zip((dy_dphi[row], dy_dt[row]), expected[1:]):
                assert _scaled_gap(ours, reference) < 1e-12, (n, j)
            row += 1
    assert row == y.shape[0]
