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

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import Grid, SampledVectorField, _require_resolution, _same_grid, tangent_frame
from .legendre import MAX_DEGREE, scalar_sh_table

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

    @staticmethod
    def _key(key) -> tuple[int, int, int]:
        if isinstance(key, ModeIndex):
            return key.family, key.n, key.j
        family, n, j = key
        return int(family), int(n), int(j)

    def _position(self, family: int, n: int, j: int) -> tuple[int, int, int]:
        if family not in (1, 2, 3):
            raise ValueError(f"family must be 1, 2 or 3, got {family}")
        if n < 0 or abs(j) > n:
            raise ValueError(f"invalid degree/order ({n}, {j})")
        return family - 1, n, j + self.band_limit

    def __getitem__(self, key) -> float:
        family, n, j = self._key(key)
        if family != 1 and n == 0:
            return 0.0
        if n > self.band_limit:
            self._position(family, n, j)  # validate shape of the request
            return 0.0
        i, a, b = self._position(family, n, j)
        return float(self.data[i, a, b])

    def __setitem__(self, key, value: float) -> None:
        family, n, j = self._key(key)
        value = float(value)
        if not np.isfinite(value):
            raise ValueError("coefficient values must be finite")
        if family != 1 and n == 0:
            if value != 0.0:
                raise ValueError("degree-0 modes of families 2 and 3 are zero")
            return
        if n > self.band_limit:
            raise ValueError(f"degree {n} exceeds band limit {self.band_limit}")
        i, a, b = self._position(family, n, j)
        self.data[i, a, b] = value

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
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("i,n,j,value\n")
            for mode, value in self.items_nonzero():
                fh.write(f"{mode.family},{mode.n},{mode.j},{float(value)!r}\n")

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
        for (family, n, j), value in entries.items():
            if n > band_limit:
                raise ValueError(f"mode degree {n} exceeds band limit {band_limit}")
            out[(family, n, j)] = value
        return out


def _mode_field(mode: ModeIndex, tables, frame) -> np.ndarray:
    """One vector harmonic from the ``scalar_sh_table(..., grad=True)`` rows
    and the tangent frame at the same nodes."""
    y, d_phi, d_t = (table[mode.n * (mode.n + 1) + mode.j] for table in tables)
    eps_phi, eps_t, normal = frame
    if mode.family == 1:
        return y[..., None] * normal
    s = eps_t[..., 2]  # sqrt(1 - t^2)
    grad = eps_phi * (d_phi / s)[..., None] + eps_t * (s * d_t)[..., None]
    y2 = grad / np.sqrt(mode.n * (mode.n + 1))
    return y2 if mode.family == 2 else np.cross(normal, y2)


def eval_vsh(mode: ModeIndex, phi, t) -> np.ndarray:
    """Evaluate one vector harmonic at (phi, t); returns R^3 values."""
    frame = tangent_frame(phi, t)
    return _mode_field(mode, scalar_sh_table(mode.n, phi, t, grad=True), frame)


def _unit_direction(direction) -> np.ndarray:
    """Normalize a degree-1 order direction, a 3-vector over j = -1, 0, 1."""
    d = np.asarray(direction, dtype=float)
    if d.shape != (3,):
        raise ValueError("direction must be a 3-vector over orders j = -1, 0, 1")
    nrm = math.sqrt(float(d @ d))
    if nrm == 0.0:
        raise ValueError("direction must be nonzero")
    return d / nrm


class VectorBasis:
    """All vector harmonics up to a band limit evaluated on one grid."""

    def __init__(self, grid: Grid, band_limit: int):
        _require_resolution(grid, band_limit)
        self.grid = grid
        self.band_limit = band_limit
        self.modes = mode_list(band_limit)
        t, phi = grid.t[:, None], grid.phi[None, :]
        frame = tangent_frame(phi, t)
        tables = scalar_sh_table(band_limit, phi, t, grad=True)
        self.matrix = np.empty((len(self.modes), grid.n_t, grid.n_phi, 3))
        for row, mode in zip(self.matrix, self.modes):
            row[...] = _mode_field(mode, tables, frame)

    def synthesize(self, coeffs: CoeffSet) -> SampledVectorField:
        if coeffs.band_limit != self.band_limit:
            coeffs = coeffs.with_band_limit(self.band_limit)
        values = np.einsum("m,mijk->ijk", coeffs.as_vector(), self.matrix)
        return SampledVectorField(grid=self.grid, values=values)

    def analyze(self, u: SampledVectorField) -> CoeffSet:
        # Products of two band-N vector harmonics have scalar degree 2N + 2.
        _require_resolution(self.grid, self.band_limit + 1)
        _same_grid(u, self)
        vec = np.einsum("mijk,ijk->m", self.matrix, u.values * self.grid.weights[..., None])
        return CoeffSet.from_vector(self.band_limit, vec)


def vector_basis(grid: Grid, band_limit: int) -> VectorBasis:
    """Cached VectorBasis for (grid, band_limit)."""
    key = ("vector", band_limit)
    if key not in grid._cache:
        grid._cache[key] = VectorBasis(grid, band_limit)
    return grid._cache[key]


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
    out = CoeffSet(band_limit)
    family_rows = np.array([f in families for f in (1, 2, 3)])
    mask = _valid_mask(band_limit) & family_rows[:, None, None]
    out.data[mask] = rng.standard_normal(int(mask.sum()))
    if norm_sq is not None:
        current = float(np.sum(out.data * out.data))
        if current == 0.0:
            raise ValueError("cannot rescale an all-zero coefficient table")
        out.data *= np.sqrt(norm_sq / current)
    return out
