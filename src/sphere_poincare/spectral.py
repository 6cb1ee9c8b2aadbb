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
from dataclasses import dataclass

import numpy as np

from .grid import (
    SampledScalarField,
    SampledVectorField,
    dirichlet_energy_scalar_route,
    inner_product,
    integrate,
    normal_field,
)
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


def dirichlet_energy(coeffs: CoeffSet) -> float:
    """Surface Dirichlet energy from the coefficient table."""
    nstar = _nstar_grid(coeffs.band_limit)
    u1, u2, u3 = coeffs.data
    return float(
        np.sum(
            (nstar + 2.0) * u1 * u1
            - 4.0 * np.sqrt(nstar) * u1 * u2
            + nstar * (u2 * u2 + u3 * u3)
        )
    )


def anisotropy_energy(coeffs: CoeffSet) -> float:
    """Integral of (u . normal)^2 from the coefficient table."""
    u1 = coeffs.data[0]
    return float(np.sum(u1 * u1))


def g_kappa(coeffs: CoeffSet, kappa: float) -> float:
    """Penalized energy dirichlet + kappa * anisotropy, in closed block form."""
    nstar = _nstar_grid(coeffs.band_limit)
    u1, u2, u3 = coeffs.data
    return float(
        np.sum(
            (nstar - 2.0 + kappa) * u1 * u1
            + (2.0 * u1 - np.sqrt(nstar) * u2) ** 2
            + nstar * u3 * u3
        )
    )


def norm_sq(coeffs: CoeffSet) -> float:
    """Squared L2 norm (sum of squared coefficients)."""
    return float(np.sum(coeffs.data * coeffs.data))


def anisotropy_energy_quadrature(u: SampledVectorField) -> float:
    """Quadrature-route integral of (u . normal)^2."""
    normal = normal_field(u.grid)
    radial = np.sum(u.values * normal.values, axis=-1)
    return integrate(SampledScalarField(grid=u.grid, values=radial * radial))


def norm_sq_quadrature(u: SampledVectorField) -> float:
    """Quadrature-route integral of |u|^2."""
    return inner_product(u, u)


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


def _breakdown_from_coeffs(coeffs: CoeffSet, kappa: float) -> EnergyBreakdown:
    dirichlet = dirichlet_energy(coeffs)
    anisotropy = anisotropy_energy(coeffs)
    return EnergyBreakdown(
        dirichlet=dirichlet,
        anisotropy=anisotropy,
        total=dirichlet + kappa * anisotropy,
        norm_sq=norm_sq(coeffs),
        kappa=kappa,
        route="spectral",
    )


def _relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def energy_report(subject, kappa: float, band_limit: int | None = None) -> EnergyBreakdown:
    """EnergyBreakdown of a coefficient table or a sampled field.

    Sampled input is analyzed at ``band_limit``; the quadrature-route
    numbers are then attached under ``.quadrature`` and the worst
    relative disagreement under ``.route_gap`` (a diagnostic, not an
    error).
    """
    if isinstance(subject, CoeffSet):
        return _breakdown_from_coeffs(subject, kappa)
    if not isinstance(subject, SampledVectorField):
        raise TypeError("expected a CoeffSet or a SampledVectorField")
    if band_limit is None:
        raise ValueError("band_limit is required for sampled input")
    coeffs = analyze(subject, band_limit)
    report = _breakdown_from_coeffs(coeffs, kappa)
    # Cartesian components of a band-N vector field are scalar band N+1.
    quad_dirichlet = dirichlet_energy_scalar_route(subject, band_limit + 1)
    quad_anisotropy = anisotropy_energy_quadrature(subject)
    report.quadrature = EnergyBreakdown(
        dirichlet=quad_dirichlet,
        anisotropy=quad_anisotropy,
        total=quad_dirichlet + kappa * quad_anisotropy,
        norm_sq=norm_sq_quadrature(subject),
        kappa=kappa,
        route="quadrature",
    )
    report.route_gap = max(
        _relative_gap(report.dirichlet, quad_dirichlet),
        _relative_gap(report.anisotropy, quad_anisotropy),
        _relative_gap(report.total, report.quadrature.total),
    )
    return report
