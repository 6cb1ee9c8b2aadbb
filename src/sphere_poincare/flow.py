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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import (
    FOUR_PI,
    SampledVectorField,
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
    values = u.values.reshape(-1, 3)
    largest = np.max(np.abs(values), axis=1)
    short = (0.0 < largest) & (largest < 1e-150)
    if np.any(short):
        values = values.copy()
        values[short] /= largest[short, None]
    with np.errstate(over="ignore"):
        unit = _unit_rows(values, np.empty(values.shape), np.empty(len(values)))
    return SampledVectorField(grid=u.grid, values=unit.reshape(u.values.shape))


def project_tangent(u: SampledVectorField, w: SampledVectorField) -> SampledVectorField:
    """Pointwise projection of w onto the plane orthogonal to u."""
    values = w.values.reshape(-1, 3)
    tangent = _tangent_part(values, u.values.reshape(-1, 3), np.empty(values.shape), _Work(len(values)))
    return SampledVectorField(grid=u.grid, values=tangent.reshape(w.values.shape))


# Flat-array kernels shared by the public diagnostics and the flow loop.
# Arrays are (nodes, 3) field values and (modes, 3) coefficients of the
# node-major scalar basis transform; the caller flattens the normal
# (grid.frame[2]) and the weights and computes u.n once per field.
# Each kernel writes its intermediates into a _Work, which the flow
# allocates once per run and a diagnostic once per call.


class _Work:
    """Preallocated (nodes, 3) and (nodes,) work arrays for one node count."""

    def __init__(self, nodes: int):
        self.rows = np.empty((nodes, 3))  # a per-node scalar times the rows
        self.scalar = np.empty(nodes)  # a per-node dot, norm or weighted square
        self.radial = np.empty(nodes)  # u.n of the current iterate
        self.pair = np.empty((2, nodes, 3))  # values - normal and values + normal
        self.pair_dots = np.empty((2, nodes))


def _rows(op, values: np.ndarray, per_node: np.ndarray, out: np.ndarray) -> np.ndarray:
    """op(values, per_node[:, None]) into ``out``, each row with its node's scalar.

    Through transposed views in C order, so numpy's inner loop runs over
    the nodes; a (nodes, 1) by (nodes, 3) broadcast steps three elements
    at a time.  Multiplication commutes, so the products are the bits of
    ``per_node[:, None] * values`` too.
    """
    op(values.T, per_node, out=out.T, order="C")
    return out


def _unit_rows(values: np.ndarray, out: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """values / |values|, row by row, into ``out`` (which may be values), the lengths into ``lengths``;
    a length that overflowed, is NaN or is zero raises ValueError before anything is divided."""
    norms = np.sqrt(_dot3(values, values, lengths), out=lengths)
    longest = np.maximum.reduce(norms)  # NaN if any length is NaN
    if not longest < math.inf:
        raise ValueError(f"cannot normalize a field whose sample lengths overflow or are not finite (one is {longest})")
    if not np.minimum.reduce(norms) > 0.0:
        raise ValueError("cannot normalize a field with zero-length samples")
    return _rows(np.divide, values, norms, out)


def _tangent_part(w: np.ndarray, u: np.ndarray, out: np.ndarray, work: _Work) -> np.ndarray:
    """w - (w.u) u, row by row, into ``out`` (which may be w)."""
    radial = _dot3(w, u, work.scalar)
    return np.subtract(w, _rows(np.multiply, u, radial, work.rows), out=out)


def _energy(basis, coeffs, radial, weights, kappa: float, work: _Work) -> float:
    weighted = np.multiply(weights, radial, out=work.scalar)
    weighted *= radial
    return basis.dirichlet(coeffs) + kappa * float(np.add.reduce(weighted))


def _force(basis, coeffs, radial, normal, kappa: float, work: _Work) -> np.ndarray:
    """Half the energy gradient: -lap u + kappa (u.n) n, the Laplacian band-truncated."""
    lap = basis.synthesize(basis.eigenvalues[:, None] * coeffs)
    lap += _rows(np.multiply, normal, np.multiply(radial, kappa, out=work.scalar), work.rows)
    return lap


def _cross_columns(values, force) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns of values x force, each with the products np.cross forms."""
    v0, v1, v2 = values[:, 0], values[:, 1], values[:, 2]
    f0, f1, f2 = force[:, 0], force[:, 1], force[:, 2]
    return v1 * f2 - v2 * f1, v2 * f0 - v0 * f2, v0 * f1 - v1 * f0


def _distances(values, normal, weights, work: _Work) -> tuple[float, float]:
    """Both distances in one pass over the stacked values -+ normal."""
    plus, minus = work.pair
    np.subtract(values, normal, out=plus)
    np.add(values, normal, out=minus)
    squares = _dot3(work.pair, work.pair, work.pair_dots)
    squares *= weights
    sum_plus, sum_minus = np.add.reduce(squares, axis=-1)
    scale = math.sqrt(FOUR_PI)
    return math.sqrt(sum_plus) / scale, math.sqrt(sum_minus) / scale


def el_residual(u: SampledVectorField, kappa: float, band_limit: int) -> SampledVectorField:
    """Stationarity residual u x (-lap u + kappa (u.n) n) of the
    saturated problem; vanishes exactly at critical points."""
    _require_unit(u)
    basis = scalar_basis(u.grid, band_limit)
    values = u.values.reshape(-1, 3)
    normal = u.grid.frame[2].reshape(-1, 3)
    force = _force(basis, basis.analyze(values), _dot3(values, normal), normal, kappa, _Work(len(values)))
    residual = np.stack(_cross_columns(values, force), axis=-1)
    return SampledVectorField(grid=u.grid, values=residual.reshape(u.values.shape))


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
    values = u.values.reshape(-1, 3)
    return _energy(
        basis,
        basis.analyze(values),
        _dot3(values, u.grid.frame[2].reshape(-1, 3)),
        u.grid.weights.reshape(-1),
        kappa,
        _Work(len(values)),
    )


def distance_to_normals(u: SampledVectorField) -> tuple[float, float]:
    """L2 distances to +normal and -normal, each normalized by sqrt(4 pi)."""
    values = u.values.reshape(-1, 3)
    return _distances(values, u.grid.frame[2].reshape(-1, 3), u.grid.weights.reshape(-1), _Work(len(values)))


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
    r0, r1, r2 = _cross_columns(values, force)
    # Squares are never -0.0, so their sum needs no + 0.0 to be np.sum's;
    # sqrt is monotone, so the root of the largest one is the largest norm.
    r0 *= r0
    r1 *= r1
    r0 += r1
    r2 *= r2
    r0 += r2
    residual_max = math.sqrt(np.maximum.reduce(r0))
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
    non-finite energy abort with a diagnostic that names the step.
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
    if not math.isfinite(kappa):
        raise ValueError("kappa must be finite")
    limit = 1.0 / (band_limit * (band_limit + 1))
    if not dt < limit:
        raise ValueError(f"dt={dt} not below the stability bound {limit:.6g}")

    grid = u0.grid
    basis = scalar_basis(grid, band_limit)
    normal = grid.frame[2].reshape(-1, 3)
    weights = grid.weights.reshape(-1)
    shape = u0.values.shape

    u = normalize_field(u0).values.reshape(-1, 3)
    work = _Work(len(u))
    grad = np.empty_like(u)
    coeffs = basis.analyze(u)
    radial = _dot3(u, normal, work.radial)
    energy = _energy(basis, coeffs, radial, weights, kappa, work)
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
        candidate = basis.synthesize(basis.analyze(candidate))
        try:
            _unit_rows(candidate, candidate, work.scalar)
        except ValueError as exc:
            raise RuntimeError(f"{exc} at step {step}") from None
        coeffs = basis.analyze(candidate)
        radial = _dot3(candidate, normal, work.radial)
        new_energy = _energy(basis, coeffs, radial, weights, kappa, work)
        if not new_energy <= energy + _ENERGY_INCREASE_TOL:  # a NaN energy aborts too
            if not math.isfinite(new_energy):
                raise RuntimeError(f"energy is {new_energy} at step {step}; the iterate is no longer finite")
            raise RuntimeError(
                f"energy increased by {new_energy - energy:.3e} at step {step}; "
                "dt too large for this band limit"
            )
        u, energy = candidate, new_energy
        force = _force(basis, coeffs, radial, normal, kappa, work)
        if step % record_every == 0 or step == steps:
            records.append(_record(step, step * dt, energy, u, force, normal, weights, work))

    final = SampledVectorField(grid=grid, values=u.reshape(shape))
    return FlowResult(kappa, dt, band_limit, records, FlowState(field=final, step=steps))


def write_trajectory_csv(result: FlowResult, path) -> None:
    header = "step,time,energy,dist_to_plus_n,dist_to_minus_n,residual_max\n"
    rows = (
        f"{r.step},{r.time!r},{r.energy!r},{r.dist_plus!r},{r.dist_minus!r},{r.residual_max!r}\n"
        for r in result.records
    )
    _write_text(path, itertools.chain((header,), rows))
