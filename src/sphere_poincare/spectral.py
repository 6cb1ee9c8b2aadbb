"""Sequence-space energies and the bridge to the quadrature routes.

With n* = n(n+1), the surface energies of a field with coefficients
(u1, u2, u3) per (n, j) are

    dirichlet  = sum (n*+2) u1^2 - 4 sqrt(n*) u1 u2 + n* (u2^2 + u3^2)
    anisotropy = sum u1^2
    g_kappa    = sum (n*-2+kappa) u1^2 + (2 u1 - sqrt(n*) u2)^2 + n* u3^2

and g_kappa = dirichlet + kappa * anisotropy as an algebraic identity.
The spectral route is primary; the quadrature route (scalar analysis per
Cartesian component plus direct surface integrals) is the independent
oracle.  The two are never mixed inside one computation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid, SampledVectorField, _dot3, _integral, dirichlet_energy_scalar_route
from .vsh import CoeffSet, analyze

__all__ = [
    "EnergyBreakdown",
    "dirichlet_energy",
    "anisotropy_energy",
    "g_kappa",
    "norm_sq",
    "anisotropy_energy_quadrature",
    "norm_sq_quadrature",
    "energy_report",
]


def _nstar_grid(band_limit: int) -> np.ndarray:
    n = np.arange(band_limit + 1, dtype=float)
    return (n * (n + 1.0))[:, None]


# Kernels over stacked (..., 3, n+1, 2n+1) coefficient tables, one value per
# table; each table's sum runs over its trailing axes as it would alone.


def _dirichlet(data: np.ndarray) -> np.ndarray:
    nstar = _nstar_grid(data.shape[-2] - 1)
    u1, u2, u3 = np.moveaxis(data, -3, 0)
    terms = (nstar + 2.0) * u1 * u1 - 4.0 * np.sqrt(nstar) * u1 * u2 + nstar * (u2 * u2 + u3 * u3)
    return np.sum(terms, axis=(-2, -1))


def _anisotropy(data: np.ndarray) -> np.ndarray:
    u1 = data[..., 0, :, :]
    return np.sum(u1 * u1, axis=(-2, -1))


def _g_kappa(data: np.ndarray, kappa: float) -> np.ndarray:
    nstar = _nstar_grid(data.shape[-2] - 1)
    u1, u2, u3 = np.moveaxis(data, -3, 0)
    terms = (nstar - 2.0 + kappa) * u1 * u1 + (2.0 * u1 - np.sqrt(nstar) * u2) ** 2 + nstar * u3 * u3
    return np.sum(terms, axis=(-2, -1))


def _norm_sq(data: np.ndarray) -> np.ndarray:
    return np.sum(data * data, axis=(-3, -2, -1))


def _anisotropy_quadrature(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Quadrature-route (u . normal)^2 integrals of samples (..., n_t, n_phi, 3), one per field."""
    radial = _dot3(values, grid.frame[2])
    return _integral(grid, radial * radial)


def _norm_sq_quadrature(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Quadrature-route |u|^2 integrals of samples (..., n_t, n_phi, 3), one per field."""
    return _integral(grid, _dot3(values, values))


def dirichlet_energy(coeffs: CoeffSet) -> float:
    """Surface Dirichlet energy from the coefficient table."""
    return float(_dirichlet(coeffs.data))


def anisotropy_energy(coeffs: CoeffSet) -> float:
    """Integral of (u . normal)^2 from the coefficient table."""
    return float(_anisotropy(coeffs.data))


def g_kappa(coeffs: CoeffSet, kappa: float) -> float:
    """Penalized energy dirichlet + kappa * anisotropy, in closed block form."""
    return float(_g_kappa(coeffs.data, kappa))


def norm_sq(coeffs: CoeffSet) -> float:
    """Squared L2 norm (sum of squared coefficients)."""
    return float(_norm_sq(coeffs.data))


def anisotropy_energy_quadrature(u: SampledVectorField) -> float:
    """Quadrature-route integral of (u . normal)^2."""
    return float(_anisotropy_quadrature(u.grid, u.values))


def norm_sq_quadrature(u: SampledVectorField) -> float:
    """Quadrature-route integral of |u|^2."""
    return float(_norm_sq_quadrature(u.grid, u.values))


@dataclass
class EnergyBreakdown:
    """Energy terms of one field at one anisotropy weight."""

    dirichlet: float
    anisotropy: float
    total: float
    norm_sq: float
    kappa: float
    route: str = "spectral"
    quadrature: "EnergyBreakdown | None" = None
    route_gap: float | None = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "dirichlet": self.dirichlet,
                "anisotropy": self.anisotropy,
                "total": self.total,
                "norm_sq": self.norm_sq,
                "kappa": self.kappa,
                "route": self.route,
            }
        )


def _relative_gap(a, b):
    """|a - b| / max(1, |a|, |b|), elementwise."""
    return np.abs(a - b) / np.maximum(np.maximum(1.0, np.abs(a)), np.abs(b))


def _route_gaps(spectral: tuple, quadrature: tuple, kappas) -> np.ndarray:
    """Worst relative gap between the routes' (dirichlet, anisotropy) pairs, in
    those terms and in the total, per field (leading axes) and weight (last axis)."""
    d, a, dq, aq = (np.asarray(energy)[..., None] for energy in (*spectral, *quadrature))
    kappas = np.asarray(kappas, dtype=float)
    terms = np.maximum(_relative_gap(d, dq), _relative_gap(a, aq))
    totals = _relative_gap(d + kappas * a, dq + kappas * aq)
    return np.maximum(terms, totals)


def _worst(violations) -> float:
    """The largest of ``violations`` (numbers or arrays); 0.0 if none is positive, NaN if any is NaN.

    Python's ``max`` drops a NaN unless it comes first; this does not.
    Every item is consumed in order, so a generator's draws keep their
    order in the random stream.
    """
    peaks = [float(np.max(v, initial=0.0)) if isinstance(v, np.ndarray) else float(v) for v in violations]
    return math.nan if any(map(math.isnan, peaks)) else max([0.0, *peaks])


def energy_report(subject, kappa: float, band_limit: int | None = None) -> EnergyBreakdown:
    """EnergyBreakdown of a coefficient table or a sampled field.

    Sampled input is analyzed at ``band_limit``; the quadrature-route
    numbers are then attached under ``.quadrature`` and the worst
    relative disagreement under ``.route_gap`` (a diagnostic, not an
    error).
    """
    if isinstance(subject, CoeffSet):
        coeffs = subject
    elif not isinstance(subject, SampledVectorField):
        raise TypeError("expected a CoeffSet or a SampledVectorField")
    elif band_limit is None:
        raise ValueError("band_limit is required for sampled input")
    else:
        coeffs = analyze(subject, band_limit)
    dirichlet, anisotropy = dirichlet_energy(coeffs), anisotropy_energy(coeffs)
    report = EnergyBreakdown(dirichlet, anisotropy, dirichlet + kappa * anisotropy, norm_sq(coeffs), kappa)
    if coeffs is subject:
        return report
    # Cartesian components of a band-N vector field are scalar band N+1.
    dq = dirichlet_energy_scalar_route(subject, band_limit + 1)
    aq = anisotropy_energy_quadrature(subject)
    report.quadrature = EnergyBreakdown(dq, aq, dq + kappa * aq, norm_sq_quadrature(subject), kappa, "quadrature")
    report.route_gap = _route_gaps((dirichlet, anisotropy), (dq, aq), kappa).item()
    return report
