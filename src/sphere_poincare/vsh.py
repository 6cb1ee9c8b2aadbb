"""Real vector spherical harmonics: evaluation, synthesis and analysis.

Three families span L2 vector fields on the sphere:

* family 1 (radial):     y1_{n,j} = Y_{n,j} * normal
* family 2 (gradient):   y2_{n,j} = grad_S Y_{n,j} / sqrt(n(n+1))
* family 3 (curl):       y3_{n,j} = normal x y2_{n,j}

Families 2 and 3 start at degree 1; the formal degree-0 members are
identically zero and are representable only as zero coefficients.
Coefficients are stored dense per (family, n, j) up to the band limit.
"""

from __future__ import annotations

import itertools
import math
import os
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .grid import (
    _DENSE_MAX_BAND,
    Grid,
    SampledVectorField,
    _cross,
    _dot3,
    _live_grid,
    _require_resolution,
    _same_grid,
    _write_text,
    scalar_basis,
    tangent_frame,
)
from .legendre import MAX_DEGREE, _harmonic_rows, _order_tables, _row_orders, _sh_mode, scalar_sh_table

__all__ = [
    "ModeIndex",
    "CoeffSet",
    "VectorBasis",
    "mode_list",
    "eval_vsh",
    "vector_basis",
    "synthesize",
    "analyze",
    "random_coeffs",
]


@dataclass(frozen=True)
class ModeIndex:
    """One vector harmonic: family in {1,2,3}, degree n, order |j| <= n."""

    family: int
    n: int
    j: int

    def __post_init__(self):
        if self.family not in (1, 2, 3):
            raise ValueError(f"family must be 1, 2 or 3, got {self.family}")
        if self.n < 0 or self.n > MAX_DEGREE:
            raise ValueError(f"degree n={self.n} outside [0, {MAX_DEGREE}]")
        if abs(self.j) > self.n:
            raise ValueError(f"order j={self.j} outside [-n, n] for n={self.n}")
        if self.family != 1 and self.n == 0:
            raise ValueError("families 2 and 3 have no degree-0 mode")


@lru_cache(maxsize=None)
def _valid_mask(band_limit: int) -> np.ndarray:
    """Boolean (family, n, j + band_limit) table of the valid mode set.

    Its C-order traversal is the canonical (family, n, j) mode order.
    """
    n = np.arange(band_limit + 1)[:, None]
    j = np.arange(-band_limit, band_limit + 1)
    mask = np.repeat((np.abs(j) <= n)[None], 3, axis=0)
    mask[1:, 0] = False  # families 2 and 3 start at degree 1
    mask.setflags(write=False)
    return mask


def _modes_where(mask: np.ndarray):
    """Modes at the True entries of a (family, n, j) table, in canonical order."""
    band_limit = mask.shape[1] - 1
    for i, n, b in zip(*np.nonzero(mask)):
        yield ModeIndex(int(i) + 1, int(n), int(b) - band_limit)


def mode_list(band_limit: int) -> list[ModeIndex]:
    """All modes with n <= band_limit in canonical (family, n, j) order."""
    return list(_modes_where(_valid_mask(band_limit)))


class CoeffSet:
    """Band-limited real coefficient table indexed by (family, n, j).

    Missing modes mean zero; the degree-0 entries of families 2 and 3
    are pinned to zero.
    """

    def __init__(self, band_limit: int, data: np.ndarray | None = None):
        if band_limit < 0 or band_limit > MAX_DEGREE:
            raise ValueError(f"band limit {band_limit} outside [0, {MAX_DEGREE}]")
        self.band_limit = band_limit
        shape = (3, band_limit + 1, 2 * band_limit + 1)
        if data is None:
            self.data = np.zeros(shape)
        else:
            data = np.asarray(data, dtype=float)
            if data.shape != shape:
                raise ValueError(f"data shape {data.shape} != {shape}")
            if not np.all(np.isfinite(data)):
                raise ValueError("coefficients must be finite")
            if np.any(data[~_valid_mask(band_limit)] != 0.0):
                raise ValueError("nonzero coefficient outside the valid mode set")
            self.data = data.copy()

    def _index(self, key, write: bool = False) -> tuple[int, int, int] | None:
        """Array index of a (family, n, j) key or ModeIndex, after validating it;
        None for an entry pinned to zero: families 2 and 3 at n = 0, or n above
        the band (there a write raises)."""
        if isinstance(key, ModeIndex):
            key = key.family, key.n, key.j
        family, n, j = map(int, key)
        if family not in (1, 2, 3):
            raise ValueError(f"family must be 1, 2 or 3, got {family}")
        if not 0 <= n <= MAX_DEGREE or abs(j) > n:
            raise ValueError(f"invalid degree/order ({n}, {j})")
        if n > self.band_limit:
            if write:
                raise ValueError(f"degree {n} exceeds band limit {self.band_limit}")
            return None
        return None if family != 1 and n == 0 else (family - 1, n, j + self.band_limit)

    def __getitem__(self, key) -> float:
        index = self._index(key)
        return 0.0 if index is None else float(self.data[index])

    def __setitem__(self, key, value: float) -> None:
        value = float(value)
        if not np.isfinite(value):
            raise ValueError("coefficient values must be finite")
        index = self._index(key, write=True)
        if index is not None:
            self.data[index] = value
        elif value != 0.0:
            raise ValueError("degree-0 modes of families 2 and 3 are zero")

    def items_nonzero(self):
        mask = _valid_mask(self.band_limit) & (self.data != 0.0)
        return zip(_modes_where(mask), self.data[mask].tolist())

    def as_vector(self) -> np.ndarray:
        """Coefficients in canonical mode order."""
        return self.data[_valid_mask(self.band_limit)]

    @classmethod
    def from_vector(cls, band_limit: int, vec: np.ndarray) -> "CoeffSet":
        mask = _valid_mask(band_limit)
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (int(mask.sum()),):
            raise ValueError(f"expected {int(mask.sum())} coefficients, got {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise ValueError("coefficients must be finite")
        out = cls(band_limit)
        out.data[mask] = vec
        return out

    def copy(self) -> "CoeffSet":
        return CoeffSet(self.band_limit, self.data)

    def with_band_limit(self, band_limit: int) -> "CoeffSet":
        """Zero-padded or truncated copy (truncation drops high degrees)."""
        out = CoeffSet(band_limit)
        k, src = min(self.band_limit, band_limit), self.band_limit
        out.data[:, : k + 1, band_limit - k : band_limit + k + 1] = self.data[
            :, : k + 1, src - k : src + k + 1
        ]
        return out

    def __add__(self, other: "CoeffSet") -> "CoeffSet":
        if not isinstance(other, CoeffSet):
            return NotImplemented
        if other.band_limit != self.band_limit:
            raise ValueError("band limits differ; pad with with_band_limit first")
        return CoeffSet(self.band_limit, self.data + other.data)

    def __mul__(self, scalar: float) -> "CoeffSet":
        return CoeffSet(self.band_limit, self.data * float(scalar))

    __rmul__ = __mul__

    def to_csv(self, path) -> None:
        """Write nonzero coefficients as CSV rows i,n,j,value."""
        rows = (f"{mode.family},{mode.n},{mode.j},{float(value)!r}\n" for mode, value in self.items_nonzero())
        _write_text(path, itertools.chain(("i,n,j,value\n",), rows))

    @classmethod
    def from_csv(cls, path, band_limit: int | None = None) -> "CoeffSet":
        """Load coefficients; unknown (i,n,j) rows are rejected, missing rows are zero."""
        entries: dict[tuple[int, int, int], float] = {}
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "i,n,j,value":
                raise ValueError(f"unexpected header {header!r}")
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 4:
                    raise ValueError(f"line {lineno}: expected 4 fields")
                family, n, j = int(parts[0]), int(parts[1]), int(parts[2])
                value = float(parts[3])
                ModeIndex(family, n, j)  # rejects unknown modes
                if (family, n, j) in entries:
                    raise ValueError(f"line {lineno}: duplicate mode ({family},{n},{j})")
                entries[(family, n, j)] = value
        if band_limit is None:
            band_limit = max((n for _, n, _ in entries), default=0)
        out = cls(band_limit)
        for mode, value in entries.items():
            out[mode] = value  # rejects a degree above the band limit
        return out


def _family_blocks(frame, y, d_phi, d_t, n, radial, gradient, curl) -> None:
    """Write the vector harmonics of stacked scalar-harmonic rows into three blocks.

    ``radial`` (rows of ``y``, ..., 3) gets Y normal.  ``gradient`` and
    ``curl`` (rows of ``d_phi``, ..., 3) get y2 = (e_phi dY/dphi / s +
    e_t s dY/dt) / sqrt(n(n+1)) and normal x y2 from the rows dY/dphi and
    dY/dt of degrees ``n`` >= 1.  Every entry has the bits of the per-mode
    formula and of ``np.cross``, whose products ``grid._cross`` forms.  The
    curl block and the dY/dphi and dY/dt rows, which are overwritten, serve
    as scratch, so no block-sized temporary is made.
    """
    eps_phi, eps_t, normal = frame
    s = eps_t[..., 2]  # sqrt(1 - t^2)
    np.multiply(y[..., None], normal, out=radial)
    d_phi /= s
    d_t *= s
    np.multiply(eps_phi, d_phi[..., None], out=gradient)
    gradient += np.multiply(eps_t, d_t[..., None], out=curl)  # the curl block is still free
    gradient /= np.sqrt(n * (n + 1)).reshape((-1,) + (1,) * d_t.ndim)
    # curl = normal x y2 on component-major views, the dY/dphi rows the kernel's scratch.
    _cross(*(np.moveaxis(block, -1, 0) for block in (normal, gradient, curl)), d_phi)


def eval_vsh(mode: ModeIndex, phi, t) -> np.ndarray:
    """Evaluate one vector harmonic at (phi, t); returns R^3 values."""
    frame = tangent_frame(phi, t)
    shape = (1,) + frame[2].shape[:-1]
    y, d_phi, d_t = (np.broadcast_to(row, shape).copy() for row in _sh_mode(mode.n, mode.j, phi, t, grad=True))
    blocks = np.empty((3,) + shape + (3,))
    k = 1 if mode.n else 0  # families 2 and 3 start at degree 1
    _family_blocks(frame, y, d_phi[:k], d_t[:k], np.full(k, mode.n), blocks[0], blocks[1, :k], blocks[2, :k])
    return blocks[mode.family - 1, 0]


def _unit_direction(direction=None) -> np.ndarray:
    """Normalize a degree-1 order direction, a 3-vector over j = -1, 0, 1.

    The default is the deterministic j = 0 axis.  A direction whose
    largest entry lies outside [1e-150, 1e150], where d @ d could
    overflow or underflow, is divided by that entry first.
    """
    d = np.asarray((0.0, 1.0, 0.0) if direction is None else direction, dtype=float)
    if d.shape != (3,):
        raise ValueError("direction must be a 3-vector over orders j = -1, 0, 1")
    largest = float(np.max(np.abs(d)))
    if not math.isfinite(largest):
        raise ValueError("direction must be finite")
    if largest == 0.0:
        raise ValueError("direction must be nonzero")
    if not 1e-150 <= largest <= 1e150:
        d = d / largest
    return d / math.sqrt(float(d @ d))


class VectorBasis:
    """All vector harmonics up to a band limit evaluated on one grid.

    Up to band ``_DENSE_MAX_BAND`` the transforms contract ``matrix``, the
    (modes, n_t, n_phi, 3) node values of every mode.  Above it family 1 is
    the grid's ``scalar_basis`` transform of u.n, and families 2 and 3 pair
    u.e_phi and u.e_t with two (n, j)-ordered ((N+1)^2, nodes) tables,
    A = (dY/dphi) / s / sqrt(n(n+1)) and B = s (dY/dt) / sqrt(n(n+1)) with s = sqrt(1 - t^2),
    so y2 = A e_phi + B e_t and y3 = A e_t - B e_phi: per-order X and dX/dt scaled by
    m / (s sqrt(n(n+1))) and s / sqrt(n(n+1)), times their waves.  Both transforms read A
    and B row-major, with (2, ...) rows as the left factor: the weighted (u.e_phi, u.e_t)
    rows in analysis (``tangential @ A.T``), the family-2 and family-3 coefficients in
    synthesis (``c[1:] @ A``).  ``matrix`` and ``modes`` are built only when read.

    The dense einsums also run on stacks of tables or samples (the private
    ``_synthesize_tables`` and ``_analyze_values``, which read ``matrix`` at
    any band); each table keeps the bits it has alone.  A stack of two or
    more is split over the CPUs of the process affinity (``_split_stack``).

    The basis refers to its grid weakly: the grid caches its bases, so a
    strong reference back would keep both alive until the cyclic
    garbage collector runs.
    """

    def __init__(self, grid: Grid, band_limit: int):
        _require_resolution(grid, band_limit)
        self._grid = weakref.ref(grid)
        self.band_limit = band_limit
        if band_limit <= _DENSE_MAX_BAND:
            self.matrix  # built now: the transforms contract it
            return
        x, dx = _order_tables(band_limit, grid.t[:, None], grad=True)  # [m, n, t, 1]
        s = np.sqrt(1.0 - grid.t * grid.t)[:, None]
        m = np.arange(band_limit + 1.0)  # also the degrees n
        scale = np.divide(1.0, np.sqrt(m * (m + 1.0)), out=np.zeros(m.size), where=m > 0)[:, None, None]  # 0 at n = 0
        x *= m[:, None, None, None] * scale / s  # m / (s sqrt(n(n+1)))
        dx *= scale * s  # s / sqrt(n(n+1))
        b, a = _harmonic_rows(band_limit, grid.phi[None, :], [dx], [x])
        self._a, self._b = (table.reshape(len(table), -1) for table in (a, b))

    @cached_property
    def modes(self) -> list[ModeIndex]:
        """Every mode up to the band, in canonical order; made only when read."""
        return mode_list(self.band_limit)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Every mode's node values, (modes, n_t, n_phi, 3), in canonical mode order."""
        grid = self.grid
        y, d_phi, d_t = scalar_sh_table(self.band_limit, grid.phi[None, :], grid.t[:, None], grad=True)
        rows = len(y)
        matrix = np.empty((3 * rows - 2, grid.n_t, grid.n_phi, 3))
        # Family 1 over every (n, j), then families 2 and 3 from n = 1 (row 1 on).
        n, _ = _row_orders(self.band_limit)
        blocks = matrix[:rows], matrix[rows : 2 * rows - 1], matrix[2 * rows - 1 :]
        _family_blocks(grid.frame, y, d_phi[1:], d_t[1:], n[1:], *blocks)
        return matrix

    @property
    def grid(self) -> Grid:
        return _live_grid(self._grid)

    def synthesize(self, coeffs: CoeffSet) -> SampledVectorField:
        if coeffs.band_limit != self.band_limit:
            coeffs = coeffs.with_band_limit(self.band_limit)
        grid = self.grid
        if self.band_limit <= _DENSE_MAX_BAND:
            return SampledVectorField(grid=grid, values=self._synthesize_tables(coeffs.data))
        # (3, (N+1)^2) in (n, j) order; families 2 and 3 hold zero at n = 0.
        c = coeffs.data[:, _valid_mask(self.band_limit)[0]]
        u_n = scalar_basis(grid, self.band_limit).synthesize(c[0])
        a_c, b_c = c[1:] @ self._a, c[1:] @ self._b  # (2, nodes): families 2 and 3
        u_phi, u_t = a_c[0] - b_c[1], b_c[0] + a_c[1]
        eps_phi, eps_t, normal = grid.frame
        shape = (grid.n_t, grid.n_phi, 1)
        values = u_n.reshape(shape) * normal + u_phi.reshape(shape) * eps_phi + u_t.reshape(shape) * eps_t
        return SampledVectorField(grid=grid, values=values)

    def analyze(self, u: SampledVectorField) -> CoeffSet:
        # Products of two band-N vector harmonics have scalar degree 2N + 2.
        _require_resolution(self.grid, self.band_limit + 1)
        _same_grid(u, self)
        if self.band_limit <= _DENSE_MAX_BAND:
            return CoeffSet.from_vector(self.band_limit, self._analyze_values(u.values))
        weighted = u.values * self.grid.weights[..., None]
        eps_phi, eps_t, normal = self.grid.frame
        tangential = np.stack([_dot3(weighted, eps_phi).reshape(-1), _dot3(weighted, eps_t).reshape(-1)])
        c1 = scalar_basis(self.grid, self.band_limit).analyze(_dot3(u.values, normal).reshape(-1))
        a_u, b_u = tangential @ self._a.T, tangential @ self._b.T  # (2, rows): u.e_phi and u.e_t
        c2, c3 = a_u[0] + b_u[1], a_u[1] - b_u[0]
        return CoeffSet.from_vector(self.band_limit, np.concatenate((c1, c2[1:], c3[1:])))

    def _synthesize_tables(self, data: np.ndarray) -> np.ndarray:
        """Dense-route samples (..., n_t, n_phi, 3) of coefficient tables (..., 3, N+1, 2N+1) at this band."""
        matrix, coeffs = self.matrix, data[..., _valid_mask(self.band_limit)]
        return _split_stack(
            lambda c, out: np.einsum("...m,mijk->...ijk", c, matrix, out=out), coeffs, 1, matrix.shape[1:]
        )

    def _analyze_values(self, values: np.ndarray) -> np.ndarray:
        """Dense-route coefficient vectors (..., modes) of samples (..., n_t, n_phi, 3), in canonical mode order."""
        matrix, weights = self.matrix, self.grid.weights[..., None]
        return _split_stack(
            lambda v, out: np.einsum("mijk,...ijk->...m", matrix, v * weights, out=out), values, 3, matrix.shape[:1]
        )


@lru_cache(maxsize=None)
def _thread_pool():
    """The thread pool of ``_split_stack``, made at its first split."""
    from concurrent.futures import ThreadPoolExecutor  # a few ms to import, so not with the package

    return ThreadPoolExecutor()


def _split_stack(kernel, stack: np.ndarray, item_ndim: int, out_shape: tuple) -> np.ndarray:
    """``kernel(stack, None)`` for a kernel that maps each item of a stack on its own.

    ``kernel(chunk, out)`` writes its result into ``out``, or into a fresh
    array when ``out`` is None; each item's result has shape ``out_shape``.
    A stack of two or more items (``stack.ndim > item_ndim``) is split along
    its leading axis into contiguous chunks, one per CPU in the process
    affinity, and the result is allocated once: the calling thread writes
    the first chunk's slice and a thread pool the others (numpy's einsum
    releases the GIL) under the caller's ``np.geterr()``.  Each item keeps
    the bits it has alone.  An unstacked call, or one on a one-CPU host,
    runs inline.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    parts = min(cpus, len(stack)) if stack.ndim > item_ndim else 1
    if parts < 2:
        return kernel(stack, None)
    out = np.empty(stack.shape[:-item_ndim] + out_shape)
    (first, *rest), (head, *tail) = np.array_split(stack, parts), np.array_split(out, parts)
    policy = np.geterr()

    def worker(chunk, into):
        with np.errstate(**policy):
            kernel(chunk, into)

    others = _thread_pool().map(worker, rest, tail)  # submitted now, waited for below
    kernel(first, head)
    for _ in others:  # re-raises a chunk's error
        pass
    return out


def vector_basis(grid: Grid, band_limit: int) -> VectorBasis:
    """Cached VectorBasis for (grid, band_limit)."""
    return grid._basis(VectorBasis, band_limit)


def synthesize(coeffs: CoeffSet, grid: Grid) -> SampledVectorField:
    """Pointwise sum of coeff * mode over the grid."""
    return vector_basis(grid, coeffs.band_limit).synthesize(coeffs)


def analyze(u: SampledVectorField, band_limit: int) -> CoeffSet:
    """Coefficient table of a sampled field via quadrature inner products."""
    return vector_basis(u.grid, band_limit).analyze(u)


def random_coeffs(
    band_limit: int,
    rng: np.random.Generator,
    families=(1, 2, 3),
    norm_sq: float | None = None,
) -> CoeffSet:
    """Random coefficient table with iid standard normal entries.

    Drawing iid normals and rescaling to the constraint sphere samples
    the constraint set rotation-invariantly, which is what the fuzzing
    suites want.
    """
    return CoeffSet(band_limit, _random_tables(band_limit, rng, 1, families, norm_sq)[0])


def _random_tables(
    band_limit: int,
    rng: np.random.Generator,
    count: int,
    families=(1, 2, 3),
    norm_sq: float | None = None,
) -> np.ndarray:
    """``count`` stacked ``random_coeffs`` data tables, shape (count, 3, n+1, 2n+1),
    drawn from ``rng`` in the order that ``count`` calls would draw them."""
    family_rows = np.array([f in families for f in (1, 2, 3)])
    mask = _valid_mask(band_limit) & family_rows[:, None, None]
    data = np.zeros((count,) + mask.shape)
    data[:, mask] = rng.standard_normal((count, int(mask.sum())))
    if norm_sq is not None:
        current = np.sum(data * data, axis=(-3, -2, -1))
        if np.any(current == 0.0):
            raise ValueError("cannot rescale an all-zero coefficient table")
        data *= np.sqrt(norm_sq / current)[:, None, None, None]
    return data
