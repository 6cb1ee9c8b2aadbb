import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphere_poincare.grid import (
    SampledScalarField,
    build_grid,
    integrate,
    inner_product,
    scalar_basis,
    tangent_frame,
    verification_grid,
)
from sphere_poincare.grid import SampledVectorField
from sphere_poincare.legendre import (
    _sh_mode,
    assoc_legendre,
    assoc_legendre_dt,
    normalized_legendre,
    scalar_sh,
    scalar_sh_grad_components,
    scalar_sh_table,
)

FOUR_PI = 4.0 * math.pi


def rodrigues_assoc_legendre(n, j, t):
    """Small-degree oracle: exact polynomial differentiation of the
    Rodrigues form (1/2^n n!) (1-t^2)^{j/2} d^{n+j} (t^2-1)^n."""
    if n == 0:
        poly = np.polynomial.Polynomial([1.0])
    else:
        poly = np.polynomial.Polynomial.fromroots([-1.0] * n + [1.0] * n)
    for _ in range(n + j):
        poly = poly.deriv()
    return (1.0 - t * t) ** (0.5 * j) * poly(t) / (2.0**n * math.factorial(n))


def test_assoc_legendre_examples():
    assert assoc_legendre(0, 0, 0.3) == 1.0
    assert_allclose(assoc_legendre(1, 0, 0.3), 0.3, rtol=0, atol=1e-15)
    assert_allclose(assoc_legendre(1, 1, 0.5), math.sqrt(0.75), rtol=0, atol=1e-15)


def test_assoc_legendre_matches_rodrigues():
    rng = np.random.default_rng(7)
    t = rng.uniform(-1.0, 1.0, size=100)
    for n in range(9):
        for j in range(n + 1):
            # atol for the zero crossings, rtol for the large-j growth.
            assert_allclose(
                assoc_legendre(n, j, t),
                rodrigues_assoc_legendre(n, j, t),
                rtol=1e-12,
                atol=1e-12,
            )


def test_assoc_legendre_domain_errors():
    with pytest.raises(ValueError):
        assoc_legendre(2, 3, 0.0)
    with pytest.raises(ValueError):
        assoc_legendre(2, -1, 0.0)
    with pytest.raises(ValueError):
        assoc_legendre(2, 1, 1.5)


def test_assoc_legendre_dt_examples():
    assert_allclose(assoc_legendre_dt(1, 0, 0.2), 1.0, rtol=0, atol=1e-15)
    assert_allclose(assoc_legendre_dt(2, 0, 0.5), 1.5, rtol=0, atol=1e-14)
    assert_allclose(
        assoc_legendre_dt(1, 1, 0.5), -0.5 / math.sqrt(0.75), rtol=0, atol=1e-14
    )


def test_assoc_legendre_dt_matches_central_differences():
    # The oracle noise scales with the (unnormalized) function magnitude,
    # so the absolute tolerance is scaled accordingly; the normalized
    # variant below holds the plain 1e-6.
    rng = np.random.default_rng(11)
    h = 1e-6
    t = rng.uniform(-0.99, 0.99, size=40)
    for n in range(11):
        for j in range(n + 1):
            fd = (assoc_legendre(n, j, t + h) - assoc_legendre(n, j, t - h)) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(assoc_legendre(n, j, t)))))
            assert_allclose(assoc_legendre_dt(n, j, t), fd, rtol=0, atol=1e-6 * scale)


def test_normalized_legendre_dt_matches_central_differences():
    from sphere_poincare.legendre import normalized_legendre_dt

    rng = np.random.default_rng(17)
    h = 1e-6
    t = rng.uniform(-0.99, 0.99, size=40)
    for n in range(11):
        for j in range(n + 1):
            fd = (
                normalized_legendre(n, j, t + h) - normalized_legendre(n, j, t - h)
            ) / (2 * h)
            assert_allclose(normalized_legendre_dt(n, j, t), fd, rtol=0, atol=1e-6)


def test_assoc_legendre_dt_rejects_poles():
    with pytest.raises(ValueError):
        assoc_legendre_dt(3, 1, 1.0)


def test_normalized_legendre_examples():
    assert_allclose(
        normalized_legendre(0, 0, -0.4), 1.0 / math.sqrt(FOUR_PI), rtol=0, atol=1e-16
    )
    assert_allclose(
        normalized_legendre(1, 0, 1.0),
        math.sqrt(3.0 / FOUR_PI),
        rtol=0,
        atol=1e-16,
    )
    # Condon-Shortley phase makes the j = 1 value negative.
    assert_allclose(
        normalized_legendre(1, 1, 0.0),
        -math.sqrt(3.0 / (8.0 * math.pi)),
        rtol=0,
        atol=1e-16,
    )


def test_normalized_legendre_stable_at_moderate_degree():
    # The incremental factorial ratio must not overflow.
    value = normalized_legendre(40, 37, 0.3)
    assert np.isfinite(value)


def test_scalar_sh_examples():
    assert_allclose(
        scalar_sh(0, 0, 1.0, 0.5), 1.0 / math.sqrt(FOUR_PI), rtol=0, atol=1e-16
    )
    assert_allclose(
        scalar_sh(1, 0, 0.0, 0.8), 0.8 * math.sqrt(3.0 / FOUR_PI), rtol=0, atol=1e-16
    )
    # sine branch at its peak
    assert_allclose(
        scalar_sh(1, 1, math.pi / 2.0, 0.0),
        -math.sqrt(2.0) * math.sqrt(3.0 / (8.0 * math.pi)),
        rtol=0,
        atol=1e-15,
    )


def test_scalar_sh_branches():
    # j < 0 uses the cosine, j > 0 the sine of |j| phi.
    phi, t = 0.37, 0.21
    x = normalized_legendre(2, 1, t)
    assert_allclose(scalar_sh(2, -1, phi, t), math.sqrt(2) * x * math.cos(phi))
    assert_allclose(scalar_sh(2, 1, phi, t), math.sqrt(2) * x * math.sin(phi))


def test_scalar_sh_orthonormality():
    grid = verification_grid(10)
    basis = scalar_basis(grid, 10)
    gram = np.einsum("mij,nij->mn", basis.matrix * grid.weights, basis.matrix)
    assert np.max(np.abs(gram - np.eye(len(basis.degrees)))) < 1e-10


def test_scalar_sh_grad_examples():
    d_phi, d_t = scalar_sh_grad_components(0, 0, 0.3, 0.3)
    assert d_phi == 0.0 and d_t == 0.0
    d_phi, d_t = scalar_sh_grad_components(1, 0, 0.0, 0.3)
    assert d_phi == 0.0
    assert_allclose(d_t, math.sqrt(3.0 / FOUR_PI), rtol=0, atol=1e-16)
    d_phi, d_t = scalar_sh_grad_components(1, 1, 0.0, 0.0)
    assert_allclose(d_phi, math.sqrt(2.0) * normalized_legendre(1, 1, 0.0))
    assert d_t == 0.0


def test_scalar_sh_grad_matches_finite_differences():
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(20):
        n = int(rng.integers(0, 7))
        j = int(rng.integers(-n, n + 1)) if n else 0
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        t = float(rng.uniform(-0.95, 0.95))
        d_phi, d_t = scalar_sh_grad_components(n, j, phi, t)
        fd_phi = (scalar_sh(n, j, phi + h, t) - scalar_sh(n, j, phi - h, t)) / (2 * h)
        fd_t = (scalar_sh(n, j, phi, t + h) - scalar_sh(n, j, phi, t - h)) / (2 * h)
        assert_allclose(d_phi, fd_phi, rtol=0, atol=1e-6)
        assert_allclose(d_t, fd_t, rtol=0, atol=1e-6)


def _surface_gradient_field(grid, n, j):
    """grad_S Y_{n,j} sampled on the grid from the chart derivatives."""
    t_mesh, phi_mesh = grid.meshes
    eps_phi, eps_t, _ = tangent_frame(phi_mesh, t_mesh)
    d_phi, d_t = scalar_sh_grad_components(n, j, phi_mesh, t_mesh)
    s = np.sqrt(1.0 - t_mesh * t_mesh)
    values = eps_phi * (d_phi / s)[..., None] + eps_t * (s * d_t)[..., None]
    return SampledVectorField(grid=grid, values=values)


def test_laplace_beltrami_eigenvalues():
    # Weak form of -lap Y = n(n+1) Y: the Gram matrix of surface
    # gradients must be diag(n(n+1)) in the orthonormal basis.
    grid = verification_grid(6)
    pairs = [(n, j) for n in range(0, 6) for j in range(-n, n + 1)]
    grads = [_surface_gradient_field(grid, n, j) for n, j in pairs]
    for a, (n, j) in enumerate(pairs):
        for b in range(a, len(pairs)):
            expected = n * (n + 1) if a == b else 0.0
            assert_allclose(
                inner_product(grads[a], grads[b]), expected, rtol=0, atol=1e-9
            )


def test_scalar_sh_unit_norm_by_quadrature():
    grid = build_grid(12, 25)
    t_mesh, phi_mesh = grid.meshes
    for n, j in [(3, -2), (4, 0), (5, 5)]:
        values = scalar_sh(n, j, phi_mesh, t_mesh)
        sq = SampledScalarField(grid=grid, values=values * values)
        assert_allclose(integrate(sq), 1.0, rtol=0, atol=1e-12)


def test_single_mode_evaluators_skip_the_full_table(monkeypatch):
    from sphere_poincare import legendre
    from sphere_poincare.vsh import ModeIndex, eval_vsh

    def full_table(*args, **kwargs):
        raise AssertionError("a single-mode evaluator built every row up to its degree")

    monkeypatch.setattr(legendre, "scalar_sh_table", full_table)
    monkeypatch.setattr(legendre, "_order_tables", full_table)  # a second copy of the Legendre table
    t_mesh, phi_mesh = verification_grid(6).meshes
    for j in (-3, 0, 4):
        scalar_sh(6, j, phi_mesh, t_mesh)
        scalar_sh_grad_components(6, j, phi_mesh, t_mesh)
        eval_vsh(ModeIndex(2, 6, j), phi_mesh, t_mesh)


@pytest.mark.parametrize("band", range(13))
def test_table_rows_are_the_single_mode_rows_bytewise(band):
    # Also pins the order-0 dY/dphi rows at +0.0, not -0.0 where X_{n,0} < 0.
    grid = verification_grid(band)
    rng = np.random.default_rng(band)
    points = rng.uniform(0.0, 2.0 * math.pi, 11), rng.uniform(-0.99, 0.99, 11)
    for phi, t in ((grid.phi[None, :], grid.t[:, None]), points):
        table = scalar_sh_table(band, phi, t, grad=True)
        shape = table[0].shape[1:]
        row = 0
        for n in range(band + 1):
            for j in range(-n, n + 1):
                for got, expected in zip(table, _sh_mode(n, j, phi, t, grad=True)):
                    assert got[row].tobytes() == np.broadcast_to(expected, shape).tobytes(), (n, j)
                row += 1
        assert row == len(table[0])


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_order_zero_table_rows_ignore_a_non_finite_phi(phi):
    # cos(0 * phi) is NaN there, but the order-0 wave is 1 at every phi, as in _sh_mode.
    t = np.array([-0.7, 0.1, 0.5])
    with np.errstate(invalid="ignore"):  # the rows of orders m >= 1 are NaN at such a phi
        for band in range(7):
            table = scalar_sh_table(band, phi, t, grad=True)
            for n in range(band + 1):
                for got, expected in zip(table, _sh_mode(n, 0, phi, t, grad=True)):
                    assert got[n * (n + 1)].tobytes() == np.broadcast_to(expected, t.shape).tobytes(), (band, n)


def test_scalar_sh_rejects_an_order_above_its_degree():
    with pytest.raises(ValueError, match=r"order j=-3 outside \[-n, n\] for n=2"):
        scalar_sh(2, -3, 0.0, 0.0)


def test_the_point_evaluators_and_the_table_keep_the_max_degree_cap():
    # The internal Legendre tables reach one degree further, for the scalar energy route.
    for call in (lambda: scalar_sh(65, 0, 0.0, 0.0), lambda: scalar_sh_table(65, 0.0, 0.0)):
        with pytest.raises(ValueError, match=r"degree n=65 outside \[0, 64\]"):
            call()
