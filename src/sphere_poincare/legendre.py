"""Associated Legendre functions and real scalar spherical harmonics.

Conventions used throughout the package:

* ``P_{n,j}(t) = (1 - t^2)^{j/2} d^j P_n(t) / dt^j`` is the unsigned
  (Ferrers) associated Legendre function, so ``P_{1,1}(t) = sqrt(1-t^2)``.
* The Condon-Shortley phase ``(-1)^j`` and the orthonormalization factor
  live in ``X_{n,j}(t)``.
* Real harmonics ``Y_{n,j}`` use the cosine branch for j < 0, ``X_{n,0}``
  for j = 0 and the sine branch for j > 0.  With this convention the
  harmonics are orthonormal for the surface inner product on the sphere.

Evaluation builds one Legendre table: per order, a diagonal seed and one
pass of the stable three-term recurrence upward in the degree.  The
dense bases (through ``scalar_sh_table``) and every per-(n, j) point
evaluator read that table; the Rodrigues formula is kept only as a
small-degree test oracle in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "MAX_DEGREE",
    "assoc_legendre",
    "assoc_legendre_dt",
    "normalized_legendre",
    "normalized_legendre_dt",
    "scalar_sh",
    "scalar_sh_grad_components",
    "scalar_sh_table",
]

# Band limit cap; far beyond anything the package needs, but keeps the
# incremental factorial products safely inside double range.
MAX_DEGREE = 64

_SQRT2 = math.sqrt(2.0)


def _check_degree_order(n: int, j: int) -> None:
    if n < 0 or n > MAX_DEGREE:
        raise ValueError(f"degree n={n} outside [0, {MAX_DEGREE}]")
    if j < 0 or j > n:
        raise ValueError(f"order j={j} outside [0, n={n}]")


def _as_closed_interval(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any(np.abs(arr) > 1.0):
        raise ValueError("t must lie in [-1, 1]")
    return arr


def _as_open_interval(t) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any(np.abs(arr) >= 1.0):
        raise ValueError("t must lie strictly inside (-1, 1)")
    return arr


def _as_result(value):
    # A float for scalar input, else a fresh array rather than a view of a table.
    return float(value) if np.ndim(value) == 0 else np.array(value)


def _legendre_table(n_max: int, t: np.ndarray) -> np.ndarray:
    """P_{n,j}(t) at [n, j] for 0 <= j <= n <= n_max (zero for j > n): per order
    the diagonal seed P_{j,j} = (2j-1)!! (1-t^2)^{j/2}, then one pass upward in n."""
    table = np.zeros((n_max + 1, n_max + 1) + t.shape)
    for j in range(n_max + 1):
        table[j, j] = float(math.prod(range(1, 2 * j, 2))) * (1.0 - t * t) ** (0.5 * j)
        if j < n_max:
            table[j + 1, j] = (2 * j + 1) * t * table[j, j]
        for m in range(j + 2, n_max + 1):
            table[m, j] = ((2 * m - 1) * t * table[m - 1, j] - (m - 1 + j) * table[m - 2, j]) / (m - j)
    return table


def _legendre_dt_table(table: np.ndarray, t: np.ndarray) -> np.ndarray:
    """dP_{n,j}/dt = ((n+j) P_{n-1,j} - n t P_{n,j}) / (1-t^2) over a table (|t| < 1)."""
    j = np.arange(table.shape[0]).reshape((-1,) + (1,) * t.ndim)
    n = j[:, None]
    below = np.zeros_like(table)
    below[1:] = table[:-1]
    return ((n + j) * below - n * t * table) / (1.0 - t * t)


def assoc_legendre(n: int, j: int, t):
    """Evaluate the unsigned associated Legendre function P_{n,j}(t)."""
    _check_degree_order(n, j)
    arr = _as_closed_interval(t)
    return _as_result(_legendre_table(n, arr)[n, j])


def assoc_legendre_dt(n: int, j: int, t):
    """Derivative dP_{n,j}/dt via the standard recurrence.

    Requires |t| < 1: the recurrence divides by 1 - t^2, and callers on
    the sphere absorb the pole through the sqrt(1-t^2) chart factor.
    """
    _check_degree_order(n, j)
    arr = _as_open_interval(t)
    return _as_result(_legendre_dt_table(_legendre_table(n, arr), arr)[n, j])


def _norm_factor(n: int, j: int) -> float:
    # (n-j)!/(n+j)! accumulated as an incremental product of reciprocals,
    # avoiding factorial overflow for moderate degrees.
    ratio = 1.0
    for k in range(n - j + 1, n + j + 1):
        ratio /= k
    sign = -1.0 if j % 2 else 1.0
    return sign * math.sqrt((2 * n + 1) / (4.0 * math.pi) * ratio)


def normalized_legendre(n: int, j: int, t):
    """Orthonormalized X_{n,j}(t), Condon-Shortley phase included."""
    return assoc_legendre(n, j, t) * _norm_factor(n, j)


def normalized_legendre_dt(n: int, j: int, t):
    """Derivative dX_{n,j}/dt (|t| < 1)."""
    return assoc_legendre_dt(n, j, t) * _norm_factor(n, j)


def scalar_sh(n: int, j: int, phi, t):
    """Real scalar spherical harmonic Y_{n,j}(phi, t), a row of ``scalar_sh_table``."""
    if abs(j) > n:
        raise ValueError(f"order j={j} outside [-n, n] for n={n}")
    if j == 0:  # X_{n,0}(t) in the shape of t, not broadcast against phi
        return normalized_legendre(n, 0, t)
    return _as_result(scalar_sh_table(n, phi, t)[n * (n + 1) + j])


def scalar_sh_grad_components(n: int, j: int, phi, t):
    """Raw partial derivatives (dY/dphi, dY/dt) of Y_{n,j}.

    These are chart derivatives; the surface gradient combines them with
    the 1/sqrt(1-t^2) and sqrt(1-t^2) factors.  Poles are rejected.
    """
    if abs(j) > n:
        raise ValueError(f"order j={j} outside [-n, n] for n={n}")
    _, d_phi, d_t = scalar_sh_table(n, phi, t, grad=True)
    return _as_result(d_phi[n * (n + 1) + j]), _as_result(d_t[n * (n + 1) + j])


def scalar_sh_table(band_limit: int, phi, t, grad: bool = False):
    """Y_{n,j}(phi, t) for every n <= band_limit, stacked in (n, j) order.

    Rows run over n = 0..band_limit and j = -n..n, each of the broadcast
    shape of phi and t; all of them read one Legendre table.  With
    ``grad`` (|t| < 1 only) returns (Y, dY/dphi, dY/dt), stacked alike.
    Cosine branch for j < 0, sine branch for j > 0, plain X_{n,0} for j = 0.
    """
    _check_degree_order(band_limit, 0)
    phi = np.asarray(phi, dtype=float)
    t = _as_open_interval(t) if grad else _as_closed_interval(t)
    table = _legendre_table(band_limit, t)
    dt_table = _legendre_dt_table(table, t) if grad else None
    degrees = [(n, j) for n in range(band_limit + 1) for j in range(-n, n + 1)]
    out = tuple(np.empty((len(degrees),) + np.broadcast(phi, t).shape) for _ in range(1 + 2 * grad))
    for row, (n, j) in enumerate(degrees):
        x = table[n, abs(j)] * _norm_factor(n, abs(j))
        dx = dt_table[n, abs(j)] * _norm_factor(n, abs(j)) if grad else None
        if j == 0:
            values = (x, 0.0, dx)
        else:
            value, slope = (np.cos, np.sin) if j < 0 else (np.sin, np.cos)
            angle = j * phi
            values = (_SQRT2 * x * value(angle),)
            if grad:
                values += (_SQRT2 * x * abs(j) * slope(angle), _SQRT2 * dx * value(angle))
        for dest, v in zip(out, values):
            dest[row] = v
    return out if grad else out[0]
