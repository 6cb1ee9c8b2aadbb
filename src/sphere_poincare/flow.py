"""Saturated-constraint energy, stationarity residual and gradient flow.

Fields here satisfy the pointwise unit-length constraint.  The negative
surface Laplacian is applied per Cartesian component through the scalar
spectral route at a chosen band limit (no finite differences, hence no
pole artifacts), and the flow is an explicit projected gradient descent
with pointwise renormalization after every step.  It is a qualitative
stability probe, not a performance solver.

The flow loop and the public diagnostics (``el_residual``,
``saturated_energy``, ``distance_to_normals``) share one set of
flat-array kernels, so each quantity has a single implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    FOUR_PI,
    SampledVectorField,
    dirichlet_energy_scalar_route,
    inner_product,
    normal_field,
    scalar_basis,
)

__all__ = [
    "FlowState",
    "FlowRecord",
    "FlowResult",
    "project_tangent",
    "normalize_field",
    "el_residual",
    "second_variation_normal",
    "saturated_energy",
    "distance_to_normals",
    "gradient_flow",
    "write_trajectory_csv",
]

_UNIT_TOL = 1e-8
_ENERGY_INCREASE_TOL = 1e-10


def _norms(values: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(values * values, axis=-1))


def _unit_gap(values: np.ndarray) -> float:
    """max | |u| - 1 | over the samples."""
    return float(np.max(np.abs(_norms(values) - 1.0)))


def _require_unit(u: SampledVectorField) -> None:
    gap = _unit_gap(u.values)
    if gap > _UNIT_TOL:
        raise ValueError(f"field is not pointwise unit (max | |u|-1 | = {gap:.3e})")


def normalize_field(u: SampledVectorField) -> SampledVectorField:
    """Pointwise projection onto the unit sphere."""
    norms = _norms(u.values)
    if np.any(norms == 0.0):
        raise ValueError("cannot normalize a field with zero-length samples")
    return SampledVectorField(grid=u.grid, values=u.values / norms[..., None])


def project_tangent(u: SampledVectorField, w: SampledVectorField) -> SampledVectorField:
    """Pointwise projection of w onto the plane orthogonal to u."""
    radial = np.sum(w.values * u.values, axis=-1)
    return SampledVectorField(
        grid=u.grid, values=w.values - radial[..., None] * u.values
    )


# Flat-array kernels shared by the public diagnostics and the flow loop.
# Arrays are (nodes, 3) field values and (modes, 3) scalar-route
# coefficients; the normal and the weights are flattened once by the caller.


def _laplacian(basis, coeffs: np.ndarray) -> np.ndarray:
    """Band-truncated -Laplacian node values from per-component coefficients."""
    return basis.matrix_flat.T @ (basis.eigenvalues[:, None] * coeffs)


def _energy(basis, coeffs, values, normal, weights, kappa: float) -> float:
    dirichlet = float(np.sum(basis.eigenvalues[:, None] * coeffs * coeffs))
    radial = np.sum(values * normal, axis=-1)
    return dirichlet + kappa * float(np.sum(weights * radial * radial))


def _residual(values, lap, normal, kappa: float) -> np.ndarray:
    radial = np.sum(values * normal, axis=-1)
    return np.cross(values, lap + kappa * radial[:, None] * normal)


def _distances(values, normal, weights) -> tuple[float, float]:
    d_plus = math.sqrt(float(np.sum(weights * np.sum((values - normal) ** 2, axis=-1))))
    d_minus = math.sqrt(float(np.sum(weights * np.sum((values + normal) ** 2, axis=-1))))
    scale = math.sqrt(FOUR_PI)
    return d_plus / scale, d_minus / scale


def _flat_normal(grid) -> np.ndarray:
    return normal_field(grid).values.reshape(-1, 3)


def el_residual(u: SampledVectorField, kappa: float, band_limit: int) -> SampledVectorField:
    """Stationarity residual u x (-lap u + kappa (u.n) n) of the
    saturated problem; vanishes exactly at critical points."""
    _require_unit(u)
    basis = scalar_basis(u.grid, band_limit)
    values = u.values.reshape(-1, 3)
    lap = _laplacian(basis, basis.weighted_flat @ values)
    residual = _residual(values, lap, _flat_normal(u.grid), kappa)
    return SampledVectorField(grid=u.grid, values=residual.reshape(u.values.shape))


def second_variation_normal(
    v: SampledVectorField, kappa: float, band_limit: int | None = None
) -> float:
    """Second variation of the saturated energy at the normal states.

    For a tangential perturbation v this is the quadratic form
    int |grad v|^2 - (kappa + 2) |v|^2, evaluated with the scalar-route
    Dirichlet energy.  Negative values certify instability.
    """
    normal = normal_field(v.grid).values
    radial_gap = float(np.max(np.abs(np.sum(v.values * normal, axis=-1))))
    if radial_gap > 1e-10:
        raise ValueError(f"perturbation is not tangential (max |v.n| = {radial_gap:.3e})")
    if band_limit is None:
        band_limit = min(v.grid.n_t - 1, (v.grid.n_phi - 1) // 2)
    dirichlet = dirichlet_energy_scalar_route(v, band_limit)
    return dirichlet - (kappa + 2.0) * inner_product(v, v)


def saturated_energy(u: SampledVectorField, kappa: float, band_limit: int) -> float:
    """Penalized energy of a unit field: band-truncated Dirichlet part
    plus kappa times the quadrature anisotropy integral."""
    basis = scalar_basis(u.grid, band_limit)
    values = u.values.reshape(-1, 3)
    return _energy(
        basis,
        basis.weighted_flat @ values,
        values,
        _flat_normal(u.grid),
        u.grid.weights.reshape(-1),
        kappa,
    )


def distance_to_normals(u: SampledVectorField) -> tuple[float, float]:
    """L2 distances to +normal and -normal, each normalized by sqrt(4 pi)."""
    return _distances(u.values.reshape(-1, 3), _flat_normal(u.grid), u.grid.weights.reshape(-1))


@dataclass
class FlowState:
    """Current flow iterate: unit field, weight, truncation, progress."""

    field: SampledVectorField
    kappa: float
    band_limit: int
    step: int
    energy: float


@dataclass(frozen=True)
class FlowRecord:
    step: int
    time: float
    energy: float
    dist_plus: float
    dist_minus: float
    residual_max: float


@dataclass
class FlowResult:
    kappa: float
    dt: float
    band_limit: int
    records: list[FlowRecord]
    state: FlowState

    @property
    def final_distance(self) -> float:
        last = self.records[-1]
        return min(last.dist_plus, last.dist_minus)

    @property
    def max_distance(self) -> float:
        return max(min(r.dist_plus, r.dist_minus) for r in self.records)


def _record(step, time, energy, values, lap, normal, weights, kappa) -> FlowRecord:
    """Trajectory row of an accepted iterate, given its Laplacian."""
    residual_max = float(np.max(_norms(_residual(values, lap, normal, kappa))))
    return FlowRecord(step, time, energy, *_distances(values, normal, weights), residual_max)


def gradient_flow(
    u0: SampledVectorField,
    kappa: float,
    dt: float,
    steps: int,
    band_limit: int,
    record_every: int = 1,
) -> FlowResult:
    """Projected explicit gradient descent on the saturated energy.

    Each step moves against the tangential part of the energy gradient
    -2 lap u + 2 kappa (u.n) n, projects back onto the resolved band and
    renormalizes pointwise.  The band projection is required for
    correctness, not cosmetics: components above the band limit carry no
    Dirichlet penalty in the truncated energy, so without the projection
    roundoff noise in that complement grows at rate -(kappa + 2) and
    destroys the probe for kappa > -2.  The step size must sit below the
    spectral stability bound 1/(N(N+1)); an energy increase beyond
    tolerance aborts with a diagnostic.
    """
    _require_unit(u0)
    if steps < 1:
        raise ValueError("need at least one step")
    if record_every < 1:
        raise ValueError("record_every must be positive")
    if band_limit < 1:
        raise ValueError("band limit must resolve at least degree 1")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    limit = 1.0 / (band_limit * (band_limit + 1))
    if not dt < limit:
        raise ValueError(f"dt={dt} not below the stability bound {limit:.6g}")

    grid = u0.grid
    basis = scalar_basis(grid, band_limit)
    normal = _flat_normal(grid)
    weights = grid.weights.reshape(-1)
    shape = u0.values.shape

    u = normalize_field(u0).values.reshape(-1, 3)
    coeffs = basis.weighted_flat @ u
    # One Laplacian per accepted iterate serves both its record and the next step.
    lap = _laplacian(basis, coeffs)
    energy = _energy(basis, coeffs, u, normal, weights, kappa)

    records = [_record(0, 0.0, energy, u, lap, normal, weights, kappa)]
    for step in range(1, steps + 1):
        radial = np.sum(u * normal, axis=-1)
        grad = 2.0 * lap + 2.0 * kappa * radial[:, None] * normal
        grad -= np.sum(grad * u, axis=-1)[:, None] * u
        candidate = u - dt * grad
        # Galerkin projection onto the resolved band before renormalizing.
        candidate = basis.matrix_flat.T @ (basis.weighted_flat @ candidate)
        candidate /= _norms(candidate)[:, None]
        coeffs = basis.weighted_flat @ candidate
        new_energy = _energy(basis, coeffs, candidate, normal, weights, kappa)
        if new_energy > energy + _ENERGY_INCREASE_TOL:
            raise RuntimeError(
                f"energy increased by {new_energy - energy:.3e} at step {step}; "
                "dt too large for this band limit"
            )
        u, energy = candidate, new_energy
        lap = _laplacian(basis, coeffs)
        if step % record_every == 0 or step == steps:
            records.append(_record(step, step * dt, energy, u, lap, normal, weights, kappa))

    final = SampledVectorField(grid=grid, values=u.reshape(shape))
    state = FlowState(field=final, kappa=kappa, band_limit=band_limit, step=steps, energy=energy)
    return FlowResult(kappa=kappa, dt=dt, band_limit=band_limit, records=records, state=state)


def write_trajectory_csv(result: FlowResult, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("step,time,energy,dist_to_plus_n,dist_to_minus_n,residual_max\n")
        for r in result.records:
            fh.write(
                f"{r.step},{r.time!r},{r.energy!r},{r.dist_plus!r},"
                f"{r.dist_minus!r},{r.residual_max!r}\n"
            )
