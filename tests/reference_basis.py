"""Frozen per-mode evaluators: the reference for the byte-level basis tests.

These are the per-(n, j) recurrence and per-mode basis builds that the
Legendre table replaced, kept verbatim in arithmetic order.  Every table
read in the package must reproduce them bit for bit, signed zeros
included, because CSV output prints floats with ``repr``.
"""

import math

import numpy as np

from sphere_poincare.grid import tangent_frame
from sphere_poincare.vsh import mode_list

_SQRT2 = math.sqrt(2.0)


def _match_input(value, template):
    if np.ndim(template) == 0:
        return float(value)
    return value


def assoc_legendre_raw(n, j, t):
    double_fact = float(math.prod(range(1, 2 * j, 2)))
    p_prev = double_fact * (1.0 - t * t) ** (0.5 * j)
    if n == j:
        return p_prev
    p_curr = (2 * j + 1) * t * p_prev
    for m in range(j + 2, n + 1):
        p_next = ((2 * m - 1) * t * p_curr - (m - 1 + j) * p_prev) / (m - j)
        p_prev, p_curr = p_curr, p_next
    return p_curr


def norm_factor(n, j):
    ratio = 1.0
    for k in range(n - j + 1, n + j + 1):
        ratio /= k
    sign = -1.0 if j % 2 else 1.0
    return sign * math.sqrt((2 * n + 1) / (4.0 * math.pi) * ratio)


def assoc_legendre(n, j, t):
    return _match_input(assoc_legendre_raw(n, j, np.asarray(t, dtype=float)), t)


def assoc_legendre_dt(n, j, t):
    arr = np.asarray(t, dtype=float)
    if n == 0:
        return _match_input(np.zeros_like(arr), t)
    here = assoc_legendre_raw(n, j, arr)
    below = assoc_legendre_raw(n - 1, j, arr) if j <= n - 1 else 0.0
    deriv = ((n + j) * below - n * arr * here) / (1.0 - arr * arr)
    return _match_input(deriv, t)


def normalized_legendre(n, j, t):
    arr = np.asarray(t, dtype=float)
    return _match_input(norm_factor(n, j) * assoc_legendre_raw(n, j, arr), t)


def normalized_legendre_dt(n, j, t):
    return assoc_legendre_dt(n, j, t) * norm_factor(n, j)


def scalar_sh(n, j, phi, t):
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


def scalar_sh_grad_components(n, j, phi, t):
    phi_arr = np.asarray(phi, dtype=float)
    t_arr = np.asarray(t, dtype=float)
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


def eval_vsh(mode, phi, t):
    eps_phi, eps_t, normal = tangent_frame(phi, t)
    y = scalar_sh(mode.n, mode.j, phi, t)
    if mode.family == 1:
        return np.asarray(y)[..., None] * normal
    d_phi, d_t = scalar_sh_grad_components(mode.n, mode.j, phi, t)
    t_arr = np.asarray(t, dtype=float)
    s = np.sqrt(1.0 - t_arr * t_arr)
    grad = (
        eps_phi * (np.asarray(d_phi) / s)[..., None]
        + eps_t * (s * np.asarray(d_t))[..., None]
    )
    y2 = grad / np.sqrt(mode.n * (mode.n + 1))
    if mode.family == 2:
        return y2
    return np.cross(normal, y2)


def scalar_matrix(grid, band_limit):
    """The per-mode ScalarBasis.matrix: one scalar_sh call per (n, j) on the meshes."""
    t_mesh, phi_mesh = grid.meshes
    degrees = [(n, j) for n in range(band_limit + 1) for j in range(-n, n + 1)]
    return np.stack([scalar_sh(n, j, phi_mesh, t_mesh) for n, j in degrees])


def vector_matrix(grid, band_limit):
    """The per-mode VectorBasis.matrix: one eval_vsh call per mode on the meshes."""
    t_mesh, phi_mesh = grid.meshes
    return np.stack([eval_vsh(mode, phi_mesh, t_mesh) for mode in mode_list(band_limit)])
