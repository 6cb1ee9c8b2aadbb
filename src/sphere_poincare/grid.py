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

import itertools
import math
import weakref
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .legendre import _order_tables, _row_orders, scalar_sh_table

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

# Bands up to this one keep the dense per-mode tables, to whose bytes the
# small-band outputs are pinned; above it both bases use cheaper routes.  The
# scalar route keeps one band more, up to _DENSE_MAX_BAND + 1, because
# energy_report runs it one degree above the vector band: the Cartesian
# components of a band-N vector field reach degree N + 1.
_DENSE_MAX_BAND = 8


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

    @cached_property
    def weights(self) -> np.ndarray:
        """Per-node quadrature weights, shape (n_t, n_phi)."""
        return np.outer(self.w_t, np.full(self.n_phi, self.w_phi))

    @cached_property
    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """(t_mesh, phi_mesh) node coordinates, t varying along axis 0."""
        return np.meshgrid(self.t, self.phi, indexing="ij")

    @cached_property
    def frame(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``tangent_frame`` at the nodes, each (n_t, n_phi, 3); read-only, as it is shared."""
        t_mesh, phi_mesh = self.meshes
        frame = tangent_frame(phi_mesh, t_mesh)
        for vectors in frame:
            vectors.setflags(write=False)
        return frame

    def _basis(self, cls, band_limit: int):
        """The grid's one ``cls(grid, band_limit)``, built on first request."""
        key = (cls, band_limit)
        if key not in self._cache:
            self._cache[key] = cls(self, band_limit)
        return self._cache[key]


@cache
def _gauss_legendre(n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(n_t)`` nodes and weights, computed once per size.

    Read-only, as every grid with n_t nodes in t shares them.
    """
    nodes = np.polynomial.legendre.leggauss(n_t)
    for array in nodes:
        array.setflags(write=False)
    return nodes


def build_grid(n_t: int, n_phi: int) -> Grid:
    """Build the quadrature grid.

    Exact for integrands that are polynomials in t of degree <= 2*n_t - 1
    times trigonometric polynomials of frequency < n_phi.  Grids of the
    same n_t share their (read-only) t nodes and weights.
    """
    if n_t < 1 or n_phi < 1:
        raise ValueError("grid sizes must be positive")
    t, w_t = _gauss_legendre(n_t)
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


# The pointwise kernels of every route, on node-major (..., 3) samples or
# component-major (3, ...) rows.  A dot sums its products from +0.0, as
# np.sum does, so three -0.0 products give +0.0: _dot3 adds the +0.0 last,
# and np.add.reduce starts from np.add.identity (spelling out initial=0.0
# would change no bit and slow every call).  The cross product forms
# np.cross's products in its order.


def _dot3(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pointwise dot over the trailing length-3 axis, into ``out`` if given: ``np.sum(a * b, axis=-1)``'s bytes."""
    p = a * b
    out = np.add(p[..., 0], p[..., 1], out=out)
    out += p[..., 2]
    out += 0.0
    return out


def _dot(a: np.ndarray, b: np.ndarray, out: np.ndarray, products: np.ndarray) -> np.ndarray:
    """Pointwise dot over the component axis -2, into ``out``; the products go into ``products`` (which may be a)."""
    np.multiply(a, b, out=products)
    return np.add.reduce(products, axis=-2, out=out)


def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """a x b over the leading component axis, into ``out``; ``scratch`` holds one component's second products."""
    for row, j, k in zip(out, (1, 2, 0), (2, 0, 1)):
        np.multiply(a[j], b[k], out=row)
        row -= np.multiply(a[k], b[j], out=scratch)
    return out


def _integral(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Surface integrals of node values (..., n_t, n_phi), one per field; each sums as it would alone."""
    return np.sum(grid.weights * values, axis=(-2, -1))


def integrate(f: SampledScalarField) -> float:
    """Surface integral of a sampled scalar field."""
    return float(_integral(f.grid, f.values))


def inner_product(u: SampledVectorField, v: SampledVectorField) -> float:
    """L2 inner product of two sampled vector fields on the same grid."""
    _same_grid(u, v)
    return float(_integral(u.grid, _dot3(u.values, v.values)))


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
    """The outward unit normal sampled on the grid (read-only ``grid.frame[2]``)."""
    return SampledVectorField(grid=grid, values=grid.frame[2])


def _require_resolution(grid: Grid, band_limit: int) -> None:
    """Reject a grid too coarse for scalar harmonics up to ``band_limit``."""
    if band_limit < 0:
        raise ValueError("band limit must be non-negative")
    if grid.n_t < band_limit + 1 or grid.n_phi < 2 * band_limit + 1:
        raise ValueError(
            f"grid ({grid.n_t}, {grid.n_phi}) does not resolve scalar band "
            f"limit {band_limit}; need at least ({band_limit + 1}, {2 * band_limit + 1})"
        )


def _live_grid(ref: weakref.ref) -> Grid:
    """The grid a basis refers to weakly; ReferenceError once it has been freed."""
    grid = ref()
    if grid is None:
        raise ReferenceError("the grid of this basis has been freed; keep a reference to it")
    return grid


class ScalarBasis:
    """Scalar spherical-harmonic transform for one grid and band limit.

    Coefficients are in (n, j) order.  The transforms are node-major:
    samples are (n_nodes,) or (n_nodes, k) in t-major node order,
    coefficients (modes,) or (modes, k); the pair is exact for
    band-limited data on a sufficiently resolved grid.  ``analyze`` and
    ``dirichlet`` also take stacks (..., n_nodes, k) and (..., modes, k);
    on the dense route each table keeps the bits it has alone.  Any other
    shape raises ValueError.

    Up to band ``_DENSE_MAX_BAND + 1`` the transforms contract ``matrix``,
    the (modes, n_t, n_phi) node values of every Y_{n,j}.  Above it they
    are separable, as Y_{n,j}(t, phi) = X_{n,|j|}(t) T_j(phi) with T_0 = 1,
    T_{-m} = cos(m phi) and T_m = sin(m phi): one product over phi with the
    (order, cos/sin slot, n_phi) table T, one batched product over t with
    the per-order table X[m, n, t] of ``_order_tables`` (zero for n < m),
    and one gather of (order, slot, degree) into (n, j) order, or back.
    There ``matrix`` is built only when read, as a dense oracle.

    The basis refers to its grid weakly: the grid caches its bases, so a
    strong reference back would keep both alive until the cyclic garbage
    collector runs.
    """

    def __init__(self, grid: Grid, band_limit: int):
        _require_resolution(grid, band_limit)
        self.band_limit = band_limit
        n, j = _row_orders(band_limit)
        self.degrees = list(zip(n.tolist(), j.tolist()))
        self.eigenvalues = (n * (n + 1)).astype(float)
        self._grid = weakref.ref(grid)
        self._nodes = grid.n_nodes
        self._dense = band_limit <= _DENSE_MAX_BAND + 1
        if self._dense:
            # The flat (modes, nodes) table and its weighted copy, kept: every transform's bits depend on them.
            self._table = self.matrix.reshape(n.size, -1)
            self._weighted = np.multiply(self._table, grid.weights.reshape(-1))
            return
        (x,) = _order_tables(band_limit, grid.t, grad=False)
        angle = np.multiply.outer(np.arange(band_limit + 1), grid.phi)
        trig = np.stack([np.cos(angle), np.sin(angle)], axis=1)  # the order-0 sine slot is sin(0) = 0
        self._x, self._x_w = x, x * grid.w_t
        self._trig, self._trig_w = trig, trig * grid.w_phi
        # Row of each (n, j) mode in the flattened (order, slot, degree) products:
        # the cosine slot for j <= 0, the sine slot for j > 0.
        self._slots = (2 * np.abs(j) + (j > 0)) * (band_limit + 1) + n

    @cached_property
    def matrix(self) -> np.ndarray:
        """Every Y_{n,j}'s node values, (modes, n_t, n_phi), in (n, j) order."""
        grid = _live_grid(self._grid)
        return scalar_sh_table(self.band_limit, grid.phi[None, :], grid.t[:, None])

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Coefficients (u, Y_{n,j}) of node-major samples, (n_nodes,), (n_nodes, k) or (..., n_nodes, k)."""
        _check_rows(values, self._nodes, "samples", stacks=True)
        if self._dense:
            # A stack is one product per table, so each keeps its bits.
            return self._weighted @ values
        if values.ndim > 2:  # the stack rides along as more columns
            lead, k = values.shape[:-2], values.shape[-1]
            coeffs = self.analyze(np.moveaxis(values, -2, 0).reshape(self._nodes, -1))
            return np.moveaxis(coeffs.reshape((-1,) + lead + (k,)), 0, -2)
        orders, _, n_phi = self._trig_w.shape
        n_t = self._x_w.shape[-1]
        samples = values.reshape(n_t, n_phi, -1)
        k = samples.shape[-1]
        by_phi = self._trig_w.reshape(-1, n_phi) @ samples.swapaxes(0, 1).reshape(n_phi, -1)
        coeffs = self._x_w[:, None] @ by_phi.reshape(orders, 2, n_t, k)
        return coeffs.reshape(-1, k)[self._slots].reshape((-1,) + values.shape[1:])

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Node-major samples of coefficients (modes,) or (modes, k)."""
        _check_rows(coeffs, len(self.degrees), "coefficients", stacks=False)
        if self._dense:
            # The bytes of table.T @ coeffs, faster; a (nodes, k) result is the
            # transpose of a C-ordered (k, nodes) array, which the flow reads without a copy.
            return (coeffs.T @ self._table).T
        orders, _, n_phi = self._trig.shape
        n_t = self._x.shape[-1]
        flat = coeffs.reshape(len(self.degrees), -1)
        k = flat.shape[-1]
        slotted = np.zeros((2 * orders * orders, k))
        slotted[self._slots] = flat
        by_t = self._x.swapaxes(1, 2)[:, None] @ slotted.reshape(orders, 2, orders, k)
        values = self._trig.reshape(-1, n_phi).T @ by_t.reshape(2 * orders, n_t * k)
        return values.reshape(n_phi, n_t, k).swapaxes(0, 1).reshape((-1,) + coeffs.shape[1:])

    def dirichlet(self, coeffs: np.ndarray):
        """Dirichlet energy, the sum of n(n+1) c^2, of coefficients (modes,) or (modes, k),
        as a float; of a stack (..., modes, k), one per table."""
        modes = len(self.eigenvalues)
        _check_rows(coeffs, modes, "coefficients", stacks=True)
        coeffs = coeffs.reshape(coeffs.shape[:-2] + (modes, -1))
        terms = self.eigenvalues[:, None] * coeffs
        terms *= coeffs
        energy = np.add.reduce(terms, axis=(-2, -1))
        return float(energy) if energy.ndim == 0 else energy


def _check_rows(array: np.ndarray, rows: int, what: str, stacks: bool) -> None:
    """Reject all but (rows,) and (rows, k), and with ``stacks`` (..., rows, k)."""
    shape = np.shape(array)
    if shape == (rows,) or (len(shape) == 2 or stacks and len(shape) > 2) and shape[-2] == rows:
        return
    allowed = f"({rows},) or ({rows}, k)" + (f" or (..., {rows}, k)" if stacks else "")
    raise ValueError(f"expected {what} of shape {allowed}, got {shape}")


def scalar_basis(grid: Grid, band_limit: int) -> ScalarBasis:
    """Cached ScalarBasis for (grid, band_limit)."""
    return grid._basis(ScalarBasis, band_limit)


def scalar_analyze(f: SampledScalarField, band_limit: int) -> dict:
    """Scalar harmonic coefficients of f as a map (n, j) -> value."""
    basis = scalar_basis(f.grid, band_limit)
    coeffs = basis.analyze(f.values.reshape(-1))
    return {nj: float(c) for nj, c in zip(basis.degrees, coeffs)}


def dirichlet_energy_scalar_route(u: SampledVectorField, band_limit: int) -> float:
    """Surface Dirichlet energy of a vector field, component by component.

    Expands each Cartesian component in scalar harmonics and sums
    n(n+1) c^2; valid when every component is band-limited below the
    given limit.  This route never touches the vector-harmonic block
    relations, which makes it an independent oracle for them.
    """
    return _scalar_route_dirichlet(u.grid, u.values, band_limit)


def _scalar_route_dirichlet(grid: Grid, values: np.ndarray, band_limit: int):
    """``dirichlet_energy_scalar_route`` of vector samples (..., n_t, n_phi, 3), one per field."""
    basis = scalar_basis(grid, band_limit)
    return basis.dirichlet(basis.analyze(values.reshape(values.shape[:-3] + (-1, 3))))


def export_vector_field_csv(field_data: SampledVectorField, path) -> None:
    """Write node samples as CSV (phi,t,ux,uy,uz), t-major row order.

    Each number is the ``repr`` of a Python float, which reads back exactly.
    """
    grid = field_data.grid
    nodes = itertools.product(map(repr, grid.t.tolist()), map(repr, grid.phi.tolist()))
    values = np.asarray(field_data.values, dtype=float).reshape(-1, 3).tolist()
    rows = "".join(f"{p},{t},{ux!r},{uy!r},{uz!r}\n" for (t, p), (ux, uy, uz) in zip(nodes, values))
    _write_text(path, ("phi,t,ux,uy,uz\n", rows))


def _write_text(path, chunks) -> None:
    """The package's one file writer: str ``chunks`` (a generator streams) as UTF-8, line ends as given."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)
