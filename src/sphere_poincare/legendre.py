"""Associated Legendre functions and real scalar spherical harmonics.

Conventions used throughout the package:

* ``P_{n,j}(t) = (1 - t^2)^{j/2} d^j P_n(t) / dt^j`` is the unsigned
  (Ferrers) associated Legendre function, so ``P_{1,1}(t) = sqrt(1-t^2)``.
* The Condon-Shortley phase ``(-1)^j`` and the orthonormalization factor
  live in ``X_{n,j}(t)``.
* Real harmonics ``Y_{n,j}`` use the cosine branch for j < 0, ``X_{n,0}``
  for j = 0 and the sine branch for j > 0.  With this convention the
  harmonics are orthonormal for the surface inner product on the sphere.

Evaluation is by the stable three-term recurrence in the degree, seeded
on the diagonal; the Rodrigues formula is kept only as a small-degree
test oracle in the test suite.
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


def _match_input(value: np.ndarray, template):
    if np.ndim(template) == 0:
        return float(value)
    return value


def _assoc_legendre_raw(n: int, j: int, t: np.ndarray) -> np.ndarray:
    # Diagonal seed P_{j,j} = (2j-1)!! (1-t^2)^{j/2}, then upward in n.
    double_fact = float(math.prod(range(1, 2 * j, 2)))
    p_prev = double_fact * (1.0 - t * t) ** (0.5 * j)
    if n == j:
        return p_prev
    p_curr = (2 * j + 1) * t * p_prev
    for m in range(j + 2, n + 1):
        p_next = ((2 * m - 1) * t * p_curr - (m - 1 + j) * p_prev) / (m - j)
        p_prev, p_curr = p_curr, p_next
    return p_curr


def assoc_legendre(n: int, j: int, t):
    """Evaluate the unsigned associated Legendre function P_{n,j}(t)."""
    _check_degree_order(n, j)
    arr = _as_closed_interval(t)
    return _match_input(_assoc_legendre_raw(n, j, arr), t)


def assoc_legendre_dt(n: int, j: int, t):
    """Derivative dP_{n,j}/dt via the standard recurrence.

    Requires |t| < 1: the recurrence divides by 1 - t^2, and callers on
    the sphere absorb the pole through the sqrt(1-t^2) chart factor.
    """
    _check_degree_order(n, j)
    arr = _as_open_interval(t)
    if n == 0:
        return _match_input(np.zeros_like(arr), t)
    here = _assoc_legendre_raw(n, j, arr)
    below = _assoc_legendre_raw(n - 1, j, arr) if j <= n - 1 else 0.0
    deriv = ((n + j) * below - n * arr * here) / (1.0 - arr * arr)
    return _match_input(deriv, t)


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
    _check_degree_order(n, j)
    arr = _as_closed_interval(t)
    return _match_input(_norm_factor(n, j) * _assoc_legendre_raw(n, j, arr), t)


def normalized_legendre_dt(n: int, j: int, t):
    """Derivative dX_{n,j}/dt (|t| < 1)."""
    return assoc_legendre_dt(n, j, t) * _norm_factor(n, j)


def scalar_sh(n: int, j: int, phi, t):
    """Real scalar spherical harmonic Y_{n,j}(phi, t).

    Cosine branch for j < 0, sine branch for j > 0, plain X_{n,0} for
    j = 0.
    """
    if abs(j) > n:
        raise ValueError(f"order j={j} outside [-n, n] for n={n}")
    x = normalized_legendre(n, abs(j), t)
    if j == 0:
        return x
    phi_arr = np.asarray(phi, dtype=float)
    if j < 0:
        out = _SQRT2 * x * np.cos(j * phi_arr)
    else:
        out = _SQRT2 * x * np.sin(j * phi_arr)
    if np.ndim(phi) == 0 and np.ndim(t) == 0:
        return float(out)
    return out


def scalar_sh_grad_components(n: int, j: int, phi, t):
    """Raw partial derivatives (dY/dphi, dY/dt) of Y_{n,j}.

    These are chart derivatives; the surface gradient combines them with
    the 1/sqrt(1-t^2) and sqrt(1-t^2) factors.  Poles are rejected.
    """
    if abs(j) > n:
        raise ValueError(f"order j={j} outside [-n, n] for n={n}")
    phi_arr = np.asarray(phi, dtype=float)
    t_arr = _as_open_interval(t)
    x = normalized_legendre(n, abs(j), t_arr)
    dx = normalized_legendre_dt(n, abs(j), t_arr)
    if j == 0:
        shape = np.broadcast(phi_arr, t_arr).shape
        d_phi = np.zeros(shape)
        d_t = np.broadcast_to(np.asarray(dx), shape).copy()
    elif j < 0:
        d_phi = _SQRT2 * x * (-j) * np.sin(j * phi_arr)
        d_t = _SQRT2 * dx * np.cos(j * phi_arr)
    else:
        d_phi = _SQRT2 * x * j * np.cos(j * phi_arr)
        d_t = _SQRT2 * dx * np.sin(j * phi_arr)
    if np.ndim(phi) == 0 and np.ndim(t) == 0:
        return float(d_phi), float(d_t)
    return d_phi, d_t
