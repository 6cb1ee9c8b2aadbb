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
pass of the stable three-term recurrence upward in the degree.  Only
``_order_tables`` scales it into harmonic factors, and point evaluators
their one entry alike; the Rodrigues formula is a test oracle only.
"""

from __future__ import annotations

import math
from functools import cache

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
    below *= n + j  # in place, so at most one table-sized temporary is alive
    below -= n * t * table
    return np.divide(below, 1.0 - t * t, out=below)


def _legendre_tables(n_max: int, t, grad: bool):
    """The Legendre table up to ``n_max`` at t in [-1, 1], and with ``grad``
    (t strictly inside) its t-derivative table, else None.  ``n_max`` may
    exceed ``MAX_DEGREE`` by the one degree that the scalar energy route adds."""
    if not 0 <= n_max <= MAX_DEGREE + 1:
        raise ValueError(f"degree n={n_max} outside [0, {MAX_DEGREE + 1}]")
    t = np.asarray(t, dtype=float)
    if grad and np.any(np.abs(t) >= 1.0):
        raise ValueError("t must lie strictly inside (-1, 1)")
    if np.any(np.abs(t) > 1.0):
        raise ValueError("t must lie in [-1, 1]")
    table = _legendre_table(n_max, t)
    return table, (_legendre_dt_table(table, t) if grad else None)


def assoc_legendre(n: int, j: int, t):
    """Evaluate the unsigned associated Legendre function P_{n,j}(t)."""
    _check_degree_order(n, j)
    return _as_result(_legendre_tables(n, t, grad=False)[0][n, j])


def assoc_legendre_dt(n: int, j: int, t):
    """Derivative dP_{n,j}/dt via the standard recurrence.

    Requires |t| < 1: the recurrence divides by 1 - t^2, and callers on
    the sphere absorb the pole through the sqrt(1-t^2) chart factor.
    """
    _check_degree_order(n, j)
    return _as_result(_legendre_tables(n, t, grad=True)[1][n, j])


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


@cache
def _norm_table(n_max: int) -> np.ndarray:
    """``_norm_factor(n, m)`` at [m, n], zero for n < m; read-only, as it is shared."""
    norms = np.array([[_norm_factor(n, m) if m <= n else 0.0 for n in range(n_max + 1)] for m in range(n_max + 1)])
    norms.setflags(write=False)
    return norms


def _order_tables(n_max: int, t, grad: bool) -> list:
    """Per-order factor tables [m, n] up to degree ``n_max``: X_{n,m}(t), times sqrt2 for
    m > 0 and zero for n < m, and with ``grad`` (|t| < 1) their t-derivatives.  Y_{n,j}
    is the factor of m = |j| times its wave (``_harmonic_rows``)."""
    norms = _norm_table(n_max).reshape((n_max + 1,) * 2 + (1,) * np.ndim(t))
    tables = [np.swapaxes(table, 0, 1) * norms for table in _legendre_tables(n_max, t, grad)[: 1 + grad]]
    for x in tables:
        x[1:] *= _SQRT2  # after the norm: (P * norm) * sqrt2, rounded as _sh_mode rounds its entry
    return tables


def _row_orders(band_limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Degree n and order j of each row of an (n, j)-ordered table up to ``band_limit``."""
    n = np.repeat(np.arange(band_limit + 1), 2 * np.arange(band_limit + 1) + 1)
    return n, np.arange(n.size) - n * (n + 1)


def _harmonic_rows(band_limit: int, phi, tables: list, d_phi_tables: list):
    """Yield the (n, j) rows table[|j|, n] * wave of each per-order table [m, n] (entries padded against
    phi): with the wave of Y, cos(m phi), 1 or sin(m phi) for j = -m, 0 or m, for ``tables``, then with
    that of dY/dphi over m, -sin(m phi), 1 or cos(m phi), for ``d_phi_tables``; one cos, sin per order."""
    n, j = _row_orders(band_limit)
    angle = np.multiply.outer(np.arange(band_limit + 1), phi)
    cos, sin = np.cos(angle), np.sin(angle)
    cos[0], sin[0] = 1.0, 0.0  # the order-0 wave is 1 at every phi, a non-finite one too
    for group, pair, second in ((tables, (cos, sin), j > 0), (d_phi_tables, (-sin, cos), j >= 0)):
        wave = np.concatenate(pair)[np.abs(j) + (band_limit + 1) * second] if group else None
        yield from (table[np.abs(j), n] * wave for table in group)
        del wave  # one gathered wave is alive at a time


def _sh_mode(n: int, j: int, phi, t, grad: bool = False) -> tuple:
    """The rows of Y_{n,j} that ``scalar_sh_table`` writes, at (phi, t) from a
    table up to degree n: (Y,), and with ``grad`` (Y, dY/dphi, dY/dt).  The
    rows of j = 0 have the shape of t, the others the broadcast shape.  Only (n, m) is scaled."""
    if abs(j) > n:
        raise ValueError(f"order j={j} outside [-n, n] for n={n}")
    _check_degree_order(n, 0)
    m, phi = abs(j), np.asarray(phi, dtype=float)
    scale = _SQRT2 if m else 1.0  # (P * norm) * sqrt2 as in _order_tables, which would copy the table
    x, *dx = (table[n, m] * _norm_table(n)[m, n] * scale for table in _legendre_tables(n, t, grad)[: 1 + grad])
    if m == 0:
        return (x, np.zeros(np.shape(x)), *dx) if grad else (x,)
    cos, sin = np.cos(m * phi), np.sin(m * phi)
    wave, d_wave = (sin, cos) if j > 0 else (cos, -sin)
    return (x * wave, x * m * d_wave, dx[0] * wave) if grad else (x * wave,)


def scalar_sh(n: int, j: int, phi, t):
    """Real scalar spherical harmonic Y_{n,j}(phi, t), a row of ``scalar_sh_table``."""
    return _as_result(_sh_mode(n, j, phi, t)[0])


def scalar_sh_grad_components(n: int, j: int, phi, t):
    """Raw partial derivatives (dY/dphi, dY/dt) of Y_{n,j}.

    These are chart derivatives; the surface gradient combines them with
    the 1/sqrt(1-t^2) and sqrt(1-t^2) factors.  Poles are rejected.
    """
    _, d_phi, d_t = _sh_mode(n, j, phi, t, grad=True)
    shape = np.broadcast_shapes(np.shape(phi), np.shape(t))
    return _as_result(np.broadcast_to(d_phi, shape)), _as_result(np.broadcast_to(d_t, shape))


def scalar_sh_table(band_limit: int, phi, t, grad: bool = False):
    """Y_{n,j}(phi, t) for every n <= band_limit, stacked in (n, j) order.

    Rows run over n = 0..band_limit and j = -n..n, each of the broadcast
    shape of phi and t; all of them read one Legendre table.  With
    ``grad`` (|t| < 1 only) returns (Y, dY/dphi, dY/dt), stacked alike.
    Cosine branch for j < 0, sine branch for j > 0, plain X_{n,0} for j = 0.

    Each row is its ``_order_tables`` factor times its wave, as in ``_sh_mode``.
    """
    _check_degree_order(band_limit, 0)
    phi, t = np.asarray(phi, dtype=float), np.asarray(t, dtype=float)
    shape = np.broadcast(phi, t).shape
    # Padded on the left, a factor row (the shape of t) broadcasts against a wave (the shape of phi).
    phi, t = (a.reshape((1,) * (len(shape) - a.ndim) + a.shape) for a in (phi, t))
    x, *dx = _order_tables(band_limit, t, grad)
    m = np.arange(band_limit + 1).reshape((-1,) + (1,) * (x.ndim - 1))
    y, *rows = _harmonic_rows(band_limit, phi, [x, *dx], [x * m] if grad else [])
    if not grad:
        return y
    d_t, d_phi = rows
    d_phi[np.arange(band_limit + 1) * np.arange(1, band_limit + 2)] = 0.0  # rows n(n+1), j = 0: m X is -0.0 where X < 0
    return y, d_phi, d_t
