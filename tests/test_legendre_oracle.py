"""The Legendre table and the real harmonics against scipy.

The tables reach MAX_DEGREE + 1, the degree that the scalar energy route
adds to a band-MAX_DEGREE field; the harmonics stop at MAX_DEGREE.

scipy is a test-only oracle: ``sph_legendre_p(n, m, theta)`` is the
orthonormalized X_{n,m}(cos theta) with the Condon-Shortley phase, and
its theta-derivative gives dX/dt = -(dX/dtheta) / sin(theta).  The nodes
are the t nodes of ``verification_grid(MAX_DEGREE)``, whose outermost
lie within 2e-4 of the poles.  Next to the poles both tables are also
spot-checked against P_n's explicit coefficients summed in 50-digit mpmath.
"""

import math

import numpy as np
import pytest

from sphere_poincare.grid import verification_grid
from sphere_poincare.legendre import MAX_DEGREE, _legendre_tables, _norm_factor, scalar_sh_table

special = pytest.importorskip("scipy.special")

_DEGREES = np.arange(MAX_DEGREE + 2)
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
    table, dt_table = _legendre_tables(MAX_DEGREE + 1, t, grad=True)
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


# (n, m) spot-checked against 50-digit mpmath next to the poles.  Measured
# worst relative gaps: 2.0e-12 for P_{n,m} and 1.9e-12 for dP_{n,m}/dt, both
# at (64, 64) and (65, 65) on the node nearest a pole, consistent with the
# seed (1 - t^2)^(m/2) raising the rounding of 1 - t^2 (up to 3e-13 relative
# there) to the 32nd power; dP_{5,0}/dt is off by 4.1e-13 there.
_SPOT_PAIRS = [(5, 0), (12, 3), (40, 7), (64, 0), (50, 25), (64, 63), (64, 64), (65, 3), (65, 65)]
_SPOT_RTOL = 1e-11


def _mp_ferrers(mp, n, m, t):
    """P_{n,m}(t) = (1-t^2)^{m/2} d^m P_n/dt^m, summed from the explicit
    coefficients of P_n at the working precision (exact integer coefficients,
    no recurrence, so independent of the tables under test)."""
    total = mp.mpf(0)
    for k in range((n - m) // 2 + 1):
        power = n - 2 * k
        coeff = (-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n) * math.perm(power, m)
        total += coeff * t ** (power - m)
    return (1 - t * t) ** (mp.mpf(m) / 2) * total / mp.mpf(2) ** n


def test_legendre_tables_next_to_the_poles_are_50_digit_mpmath(nodes):
    mpmath = pytest.importorskip("mpmath")
    t, _ = nodes
    polar = t[[0, 1, -2, -1]]  # the two nodes nearest each pole
    table, dt_table = _legendre_tables(MAX_DEGREE + 1, polar, grad=True)
    with mpmath.workdps(50):
        for n, m in _SPOT_PAIRS:
            for k, node in enumerate(polar.tolist()):
                x = mpmath.mpf(node)
                value = _mp_ferrers(mpmath, n, m, x)
                slope = mpmath.diff(lambda z: _mp_ferrers(mpmath, n, m, z), x)
                assert abs(table[n, m, k] - value) <= _SPOT_RTOL * abs(value), (n, m, node)
                assert abs(dt_table[n, m, k] - slope) <= _SPOT_RTOL * abs(slope), (n, m, node)
