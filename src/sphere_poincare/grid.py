"""Quadrature grid on the unit sphere and the scalar-harmonic routes.

The grid is Gauss-Legendre in t = cos(theta) times uniform longitudes,
so band-limited integrands are integrated exactly and the quadrature
identities below can serve as machine-precision oracles.  Gauss nodes
are strictly interior, hence the poles of the (phi, t) chart are never
sampled.

The scalar analysis route (per Cartesian component) is deliberately
independent of the vector-harmonic block algebra: it is the brute-force
check used against the sequence-space energy identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .legendre import scalar_sh_table

__all__ = [
    "FOUR_PI",
    "Grid",
    "SampledScalarField",
    "SampledVectorField",
    "ScalarBasis",
    "build_grid",
    "verification_grid",
    "integrate",
    "inner_product",
    "tangent_frame",
    "normal_field",
    "scalar_basis",
    "scalar_analyze",
    "dirichlet_energy_scalar_route",
    "export_vector_field_csv",
]

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True, eq=False)
class Grid:
    """Gauss-Legendre x uniform-longitude quadrature nodes on the sphere."""

    t: np.ndarray
    w_t: np.ndarray
    phi: np.ndarray
    w_phi: float
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_t(self) -> int:
        return self.t.size

    @property
    def n_phi(self) -> int:
        return self.phi.size

    @property
    def n_nodes(self) -> int:
        return self.t.size * self.phi.size

    @property
    def weights(self) -> np.ndarray:
        """Per-node quadrature weights, shape (n_t, n_phi)."""
        key = "weights"
        if key not in self._cache:
            self._cache[key] = np.outer(self.w_t, np.full(self.n_phi, self.w_phi))
        return self._cache[key]

    @property
    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """(t_mesh, phi_mesh) node coordinates, t varying along axis 0."""
        key = "meshes"
        if key not in self._cache:
            self._cache[key] = np.meshgrid(self.t, self.phi, indexing="ij")
        return self._cache[key]


def build_grid(n_t: int, n_phi: int) -> Grid:
    """Build the quadrature grid.

    Exact for integrands that are polynomials in t of degree <= 2*n_t - 1
    times trigonometric polynomials of frequency < n_phi.
    """
    if n_t < 1 or n_phi < 1:
        raise ValueError("grid sizes must be positive")
    t, w_t = np.polynomial.legendre.leggauss(n_t)
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    return Grid(t=t, w_t=w_t, phi=phi, w_phi=2.0 * np.pi / n_phi)


def verification_grid(band_limit: int) -> Grid:
    """Oversampled grid exact for quadratic integrands of band-N data."""
    return build_grid(2 * band_limit + 2, 4 * band_limit + 3)


@dataclass(frozen=True, eq=False)
class SampledScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        expected = (self.grid.n_t, self.grid.n_phi)
        if self.values.shape != expected:
            raise ValueError(f"scalar samples shape {self.values.shape} != {expected}")


@dataclass(frozen=True, eq=False)
class SampledVectorField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        expected = (self.grid.n_t, self.grid.n_phi, 3)
        if self.values.shape != expected:
            raise ValueError(f"vector samples shape {self.values.shape} != {expected}")


def _same_grid(a, b) -> None:
    if a.grid is b.grid:
        return
    same = (
        np.array_equal(a.grid.t, b.grid.t)
        and np.array_equal(a.grid.phi, b.grid.phi)
    )
    if not same:
        raise ValueError("fields live on different grids")


def integrate(f: SampledScalarField) -> float:
    """Surface integral of a sampled scalar field."""
    return float(np.sum(f.grid.weights * f.values))


def inner_product(u: SampledVectorField, v: SampledVectorField) -> float:
    """L2 inner product of two sampled vector fields on the same grid."""
    _same_grid(u, v)
    return float(np.sum(u.grid.weights * np.sum(u.values * v.values, axis=-1)))


def tangent_frame(phi, t):
    """Orthonormal right-handed frame (eps_phi, eps_t, normal) at (phi, t).

    eps_phi x eps_t = normal; requires |t| < 1.
    """
    phi_arr = np.asarray(phi, dtype=float)
    t_arr = np.asarray(t, dtype=float)
    if np.any(np.abs(t_arr) >= 1.0):
        raise ValueError("tangent frame undefined at the poles")
    phi_arr, t_arr = np.broadcast_arrays(phi_arr, t_arr)
    s = np.sqrt(1.0 - t_arr * t_arr)
    cos_p, sin_p = np.cos(phi_arr), np.sin(phi_arr)
    zero = np.zeros_like(t_arr)
    eps_phi = np.stack([-sin_p, cos_p, zero], axis=-1)
    eps_t = np.stack([-t_arr * cos_p, -t_arr * sin_p, s], axis=-1)
    normal = np.stack([s * cos_p, s * sin_p, t_arr], axis=-1)
    return eps_phi, eps_t, normal


def normal_field(grid: Grid) -> SampledVectorField:
    """The outward unit normal sampled on the grid."""
    t_mesh, phi_mesh = grid.meshes
    _, _, normal = tangent_frame(phi_mesh, t_mesh)
    return SampledVectorField(grid=grid, values=normal)


def _require_resolution(grid: Grid, band_limit: int) -> None:
    """Reject a grid too coarse for scalar harmonics up to ``band_limit``."""
    if band_limit < 0:
        raise ValueError("band limit must be non-negative")
    if grid.n_t < band_limit + 1 or grid.n_phi < 2 * band_limit + 1:
        raise ValueError(
            f"grid ({grid.n_t}, {grid.n_phi}) does not resolve scalar band "
            f"limit {band_limit}; need at least ({band_limit + 1}, {2 * band_limit + 1})"
        )


class ScalarBasis:
    """Dense scalar spherical-harmonic transform for one grid and band limit.

    Rows of ``matrix`` hold Y_{n,j} node values in (n, j) order; the
    analysis/synthesis pair is exact for band-limited data on a
    sufficiently resolved grid.
    """

    def __init__(self, grid: Grid, band_limit: int):
        _require_resolution(grid, band_limit)
        self.grid = grid
        self.band_limit = band_limit
        self.degrees = [(n, j) for n in range(band_limit + 1) for j in range(-n, n + 1)]
        self.matrix = scalar_sh_table(band_limit, grid.phi[None, :], grid.t[:, None])
        self.eigenvalues = np.array([n * (n + 1) for n, _ in self.degrees], dtype=float)
        # Kept precomputed: the flow trajectory's bits depend on weighted_flat @ values.
        self._weighted = self.matrix * grid.weights
        # Flattened views used by hot loops (gradient flow).
        self.matrix_flat = self.matrix.reshape(len(self.degrees), -1)
        self.weighted_flat = self._weighted.reshape(len(self.degrees), -1)

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Coefficients (u, Y_{n,j}) for the sampled values."""
        return np.einsum("mij,ij->m", self._weighted, values)

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        return np.einsum("m,mij->ij", coeffs, self.matrix)


def scalar_basis(grid: Grid, band_limit: int) -> ScalarBasis:
    """Cached ScalarBasis for (grid, band_limit)."""
    key = ("scalar", band_limit)
    if key not in grid._cache:
        grid._cache[key] = ScalarBasis(grid, band_limit)
    return grid._cache[key]


def scalar_analyze(f: SampledScalarField, band_limit: int) -> dict:
    """Scalar harmonic coefficients of f as a map (n, j) -> value."""
    basis = scalar_basis(f.grid, band_limit)
    coeffs = basis.analyze(f.values)
    return {nj: float(c) for nj, c in zip(basis.degrees, coeffs)}


def dirichlet_energy_scalar_route(u: SampledVectorField, band_limit: int) -> float:
    """Surface Dirichlet energy of a vector field, component by component.

    Expands each Cartesian component in scalar harmonics and sums
    n(n+1) c^2; valid when every component is band-limited below the
    given limit.  This route never touches the vector-harmonic block
    relations, which makes it an independent oracle for them.
    """
    basis = scalar_basis(u.grid, band_limit)
    total = 0.0
    for k in range(3):
        coeffs = basis.analyze(u.values[..., k])
        total += float(np.sum(basis.eigenvalues * coeffs * coeffs))
    return total


def export_vector_field_csv(field_data: SampledVectorField, path) -> None:
    """Write node samples as CSV (phi,t,ux,uy,uz), t-major row order."""
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
