"""Saturated-constraint energy, stationarity residual and gradient flow.

Fields here satisfy the pointwise unit-length constraint.  The negative
surface Laplacian is applied per Cartesian component through the scalar
spectral route at a chosen band limit (no finite differences, hence no
pole artifacts), and the flow is an explicit projected gradient descent
with pointwise renormalization after every step.  It is a qualitative
stability probe, not a performance solver.

The flow loop and the public diagnostics (``normalize_field``,
``project_tangent``, ``el_residual``, ``saturated_energy``,
``distance_to_normals``) share one set of kernels, so each quantity has
a single implementation.  The kernels hold a field component-major, as
C-contiguous (3, nodes) rows: the pointwise dot and cross product are
``grid``'s row kernels ``_dot`` and ``_cross``, and a per-node scalar
times a field is one (3, nodes) * (nodes,) product.  Samples change
layout where they enter (one transposed copy of the start field or of a
diagnostic's input) and where they leave (one of the final or returned
field); the scalar transforms read the rows through their transpose.
Trajectories keep the bits of the node-major loop.  On 18 x 35 at band
8, with a trajectory row every step, the four transforms take about
40 % of a step and the pointwise work and the row about 60 %.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    FOUR_PI,
    SampledVectorField,
    _cross,
    _dot,
    _dot3,
    _write_text,
    dirichlet_energy_scalar_route,
    inner_product,
    scalar_basis,
)
from .legendre import MAX_DEGREE

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


def _unit_gap(values: np.ndarray) -> float:
    """max | |u| - 1 | over the samples."""
    return float(np.max(np.abs(np.sqrt(_dot3(values, values)) - 1.0)))


def _require_unit(u: SampledVectorField) -> None:
    gap = _unit_gap(u.values)
    if not gap <= _UNIT_TOL:  # a NaN gap fails too
        raise ValueError(f"field is not pointwise unit (max | |u|-1 | = {gap:.3e})")


def normalize_field(u: SampledVectorField) -> SampledVectorField:
    """Pointwise projection onto the unit sphere.

    A sample whose largest entry is positive and below 1e-150, where its
    squared length could underflow, is divided by that entry first.
    """
    return _field(u.grid, _normalize_rows(_rows_of(u.values)))


def project_tangent(u: SampledVectorField, w: SampledVectorField) -> SampledVectorField:
    """Pointwise projection of w onto the plane orthogonal to u."""
    rows = _rows_of(w.values)
    return _field(u.grid, _tangent_part(rows, _rows_of(u.values), rows, _Work(rows.shape[1])))


# Kernels shared by the diagnostics and the flow loop, on (3, nodes) rows and
# (modes, 3) coefficients.  The caller converts the normal once and computes
# u.n once per field; the flow allocates one _Work per run, a diagnostic one per call.


class _Work:
    """Preallocated (3, nodes) and (nodes,) work arrays for one node count."""

    def __init__(self, nodes: int):
        self.rows = np.empty((3, nodes))  # a dot's products, or a per-node scalar times the rows
        self.scalar = np.empty(nodes)  # a per-node dot, norm or weighted square
        self.radial = np.empty(nodes)  # u.n of the current iterate
        self.cross = np.empty((3, nodes))  # u x force, then its squares
        self.pair = np.empty((2, 3, nodes))  # values - normal and values + normal
        self.pair_dots = np.empty((2, nodes))


def _rows_of(values: np.ndarray) -> np.ndarray:
    """(3, nodes) rows of (..., 3) samples, a C-contiguous copy."""
    return np.ascontiguousarray(values.reshape(-1, 3).T)


def _field(grid, rows: np.ndarray) -> SampledVectorField:
    """The field on ``grid`` whose samples are the (3, nodes) ``rows``, copied node-major."""
    return SampledVectorField(grid=grid, values=np.ascontiguousarray(rows.T).reshape(grid.n_t, grid.n_phi, 3))


def _synthesized(basis, coeffs: np.ndarray) -> np.ndarray:
    """(3, nodes) rows of (modes, 3) coefficients; a copy only when the basis returns C-ordered samples."""
    return np.ascontiguousarray(basis.synthesize(coeffs).T)


def _unit_rows(values: np.ndarray, out: np.ndarray, lengths: np.ndarray, products: np.ndarray) -> np.ndarray:
    """values / |values|, node by node, into ``out`` (which may be values), the lengths into ``lengths``;
    a length that overflowed, is NaN or is zero raises ValueError before anything is divided."""
    norms = np.sqrt(_dot(values, values, lengths, products), out=lengths)
    longest = np.maximum.reduce(norms)  # NaN if any length is NaN
    if not longest < math.inf:
        raise ValueError(f"cannot normalize a field whose sample lengths overflow or are not finite (one is {longest})")
    if not np.minimum.reduce(norms) > 0.0:
        raise ValueError("cannot normalize a field with zero-length samples")
    return np.divide(values, norms, out=out)


def _normalize_rows(rows: np.ndarray) -> np.ndarray:
    """``normalize_field`` on (3, nodes) rows, in place."""
    largest = np.maximum.reduce(np.abs(rows), axis=0)
    short = (0.0 < largest) & (largest < 1e-150)
    if np.any(short):
        rows[:, short] /= largest[short]
    with np.errstate(over="ignore"):
        return _unit_rows(rows, rows, np.empty(rows.shape[1]), np.empty(rows.shape))


def _tangent_part(w: np.ndarray, u: np.ndarray, out: np.ndarray, work: _Work) -> np.ndarray:
    """w - (w.u) u, node by node, into ``out`` (which may be w)."""
    radial = _dot(w, u, work.scalar, work.rows)
    return np.subtract(w, np.multiply(u, radial, out=work.rows), out=out)


def _energy(basis, coeffs, radial, weights, kappa: float, work: _Work) -> float:
    weighted = np.multiply(weights, radial, out=work.scalar)
    weighted *= radial
    return basis.dirichlet(coeffs) + kappa * float(np.add.reduce(weighted))


def _finite(energy: float, step: int) -> float:
    """``energy`` if finite; an accepted iterate is unit and finite, so only kappa times its anisotropy overflows."""
    if not math.isfinite(energy):
        raise RuntimeError(f"energy is {energy} at step {step}; kappa times the anisotropy integral overflows")
    return energy


def _force(basis, coeffs, radial, normal, kappa: float, work: _Work) -> np.ndarray:
    """Half the energy gradient: -lap u + kappa (u.n) n, the Laplacian band-truncated."""
    lap = _synthesized(basis, basis.eigenvalues[:, None] * coeffs)
    lap += np.multiply(normal, np.multiply(radial, kappa, out=work.scalar), out=work.rows)
    return lap


def _distances(values, normal, weights, work: _Work) -> tuple[float, float]:
    """Both distances in one pass over the stacked values -+ normal."""
    plus, minus = work.pair
    np.subtract(values, normal, out=plus)
    np.add(values, normal, out=minus)
    squares = _dot(work.pair, work.pair, work.pair_dots, work.pair)
    squares *= weights
    sum_plus, sum_minus = np.add.reduce(squares, axis=-1)
    scale = math.sqrt(FOUR_PI)
    return math.sqrt(sum_plus) / scale, math.sqrt(sum_minus) / scale


def el_residual(u: SampledVectorField, kappa: float, band_limit: int) -> SampledVectorField:
    """Stationarity residual u x (-lap u + kappa (u.n) n) of the
    saturated problem; vanishes exactly at critical points."""
    _require_unit(u)
    basis = scalar_basis(u.grid, band_limit)
    values, normal = _rows_of(u.values), _rows_of(u.grid.frame[2])
    work = _Work(values.shape[1])
    force = _force(basis, basis.analyze(values.T), _dot(values, normal, work.radial, work.rows), normal, kappa, work)
    return _field(u.grid, _cross(values, force, work.cross, work.scalar))


def second_variation_normal(
    v: SampledVectorField, kappa: float, band_limit: int | None = None
) -> float:
    """Second variation of the saturated energy at the normal states.

    For a tangential perturbation v this is the quadratic form
    int |grad v|^2 - (kappa + 2) |v|^2, evaluated with the scalar-route
    Dirichlet energy.  Negative values certify instability.
    """
    normal = v.grid.frame[2]
    radial_gap = float(np.max(np.abs(_dot3(v.values, normal))))
    if radial_gap > 1e-10:
        raise ValueError(f"perturbation is not tangential (max |v.n| = {radial_gap:.3e})")
    if band_limit is None:
        band_limit = min(v.grid.n_t - 1, (v.grid.n_phi - 1) // 2, MAX_DEGREE)
    dirichlet = dirichlet_energy_scalar_route(v, band_limit)
    return dirichlet - (kappa + 2.0) * inner_product(v, v)


def saturated_energy(u: SampledVectorField, kappa: float, band_limit: int) -> float:
    """Penalized energy of a unit field: band-truncated Dirichlet part
    plus kappa times the quadrature anisotropy integral."""
    basis = scalar_basis(u.grid, band_limit)
    values = _rows_of(u.values)
    work = _Work(values.shape[1])
    radial = _dot(values, _rows_of(u.grid.frame[2]), work.radial, work.rows)
    return _energy(basis, basis.analyze(values.T), radial, u.grid.weights.reshape(-1), kappa, work)


def distance_to_normals(u: SampledVectorField) -> tuple[float, float]:
    """L2 distances to +normal and -normal, each normalized by sqrt(4 pi)."""
    values = _rows_of(u.values)
    return _distances(values, _rows_of(u.grid.frame[2]), u.grid.weights.reshape(-1), _Work(values.shape[1]))


@dataclass
class FlowState:
    """Final flow iterate: unit field and the number of steps taken."""

    field: SampledVectorField
    step: int


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


def _record(step, time, energy, values, force, normal, weights, work: _Work) -> FlowRecord:
    """Trajectory row of an accepted iterate, given its force."""
    residual = _cross(values, force, work.cross, work.scalar)
    # sqrt is monotone, so the root of the largest squared norm is the largest norm.
    residual_max = math.sqrt(np.maximum.reduce(_dot(residual, residual, work.scalar, residual)))
    return FlowRecord(step, time, energy, *_distances(values, normal, weights, work), residual_max)


@np.errstate(over="ignore", invalid="ignore")  # the length guard and the energy checks name an overflowing step
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
    spectral stability bound 1/(N(N+1)); sample lengths that overflow,
    are NaN or are zero, an energy increase beyond tolerance, or a
    non-finite energy (the start's too, as step 0) abort with a
    diagnostic that names the step.
    """
    _require_unit(u0)
    if steps < 1:
        raise ValueError("need at least one step")
    if record_every < 1:
        raise ValueError("record_every must be positive")
    if not 1 <= band_limit <= MAX_DEGREE:
        raise ValueError(f"band limit must resolve at least degree 1 and at most MAX_DEGREE = {MAX_DEGREE}")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if not math.isfinite(kappa):
        raise ValueError("kappa must be finite")
    limit = 1.0 / (band_limit * (band_limit + 1))
    if not dt < limit:
        raise ValueError(f"dt={dt} not below the stability bound {limit:.6g}")

    grid = u0.grid
    basis = scalar_basis(grid, band_limit)
    normal = _rows_of(grid.frame[2])
    weights = grid.weights.reshape(-1)

    u = _normalize_rows(_rows_of(u0.values))
    work = _Work(u.shape[1])
    grad = np.empty_like(u)
    coeffs = basis.analyze(u.T)
    radial = _dot(u, normal, work.radial, work.rows)
    energy = _finite(_energy(basis, coeffs, radial, weights, kappa, work), 0)
    # One force per accepted iterate serves its record and the next step;
    # the gradient is exactly twice it, as scaling by 2 is exact.
    force = _force(basis, coeffs, radial, normal, kappa, work)

    records = [_record(0, 0.0, energy, u, force, normal, weights, work)]
    for step in range(1, steps + 1):
        np.multiply(force, 2.0, out=grad)
        _tangent_part(grad, u, grad, work)
        grad *= dt
        candidate = np.subtract(u, grad, out=grad)
        # Galerkin projection onto the resolved band before renormalizing.
        candidate = _synthesized(basis, basis.analyze(candidate.T))
        try:
            _unit_rows(candidate, candidate, work.scalar, work.rows)
        except ValueError as exc:
            raise RuntimeError(f"{exc} at step {step}") from None
        coeffs = basis.analyze(candidate.T)
        radial = _dot(candidate, normal, work.radial, work.rows)
        new_energy = _finite(_energy(basis, coeffs, radial, weights, kappa, work), step)
        if not new_energy <= energy + _ENERGY_INCREASE_TOL:
            raise RuntimeError(
                f"energy increased by {new_energy - energy:.3e} at step {step}; "
                "dt too large for this band limit"
            )
        u, energy = candidate, new_energy
        force = _force(basis, coeffs, radial, normal, kappa, work)
        if step % record_every == 0 or step == steps:
            records.append(_record(step, step * dt, energy, u, force, normal, weights, work))

    return FlowResult(kappa, dt, band_limit, records, FlowState(field=_field(grid, u), step=steps))


def write_trajectory_csv(result: FlowResult, path) -> None:
    header = "step,time,energy,dist_to_plus_n,dist_to_minus_n,residual_max\n"
    rows = (
        f"{r.step},{r.time!r},{r.energy!r},{r.dist_plus!r},{r.dist_minus!r},{r.residual_max!r}\n"
        for r in result.records
    )
    _write_text(path, itertools.chain((header,), rows))
