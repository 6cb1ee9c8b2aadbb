"""Block-diagonal numeric recovery of the sharp constant and minimizers.

The penalized quadratic form decouples over (n, j): the (u1, u2) pair of
each degree n >= 1 sees the symmetric 2x2 block

    [[n* + 2 + kappa, -2 sqrt(n*)],
     [-2 sqrt(n*),     n*        ]]

while u3 sits in a decoupled channel with value n*, and degree 0 reduces
to the scalar kappa + 2 on u1 alone.  Minimizing the constrained energy
therefore reduces to a sweep of closed-form 2x2 eigensolves, which keeps
this module independent of any linear-algebra library and exact to
machine precision -- it is the brute-force oracle for the closed-form
sharp constant.  Its minimizer takes one of the block lemma's two shapes,
the degree-0 scalar or the degree-1 (u1, u2) block, or raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import FOUR_PI
from .vsh import CoeffSet, _unit_direction

__all__ = [
    "SpectralBlock",
    "block",
    "min_eigenpair",
    "gamma_numeric",
    "numeric_minimizer",
]

_TIE_TOL = 1e-12


@dataclass(frozen=True)
class SpectralBlock:
    """Quadratic-form block of one degree: 2x2 on (u1, u2), scalar u3 channel."""

    n: int
    kappa: float
    matrix: np.ndarray
    u3_eigenvalue: float


def block(n: int, kappa: float) -> SpectralBlock:
    """Build the degree-n block; degree 0 degenerates to the scalar kappa + 2."""
    if n < 0:
        raise ValueError("degree must be non-negative")
    nstar = float(n * (n + 1))
    if n == 0:
        matrix = np.array([[kappa + 2.0]])
    else:
        a, b, d = _block_entries(nstar, kappa)
        matrix = np.array([[a, b], [b, d]])
    return SpectralBlock(n=n, kappa=kappa, matrix=matrix, u3_eigenvalue=nstar)


def _block_entries(nstar, kappa):
    """Entries (a, b, d) of the degree block [[a, b], [b, d]], elementwise over arrays of n*."""
    return nstar + 2.0 + kappa, -2.0 * np.sqrt(nstar), nstar


def _smaller_eigenvalue(a, b, d):
    """Smaller eigenvalue of the symmetric [[a, b], [b, d]], elementwise over arrays."""
    return 0.5 * ((a + d) - np.sqrt((a - d) * (a - d) + 4.0 * b * b))


def min_eigenpair(blk: SpectralBlock) -> tuple[float, np.ndarray]:
    """Smaller eigenvalue and unit eigenvector of a degree >= 1 block.

    The eigenvector sign is fixed so u1 >= 0 (tie: u2 >= 0); the
    discriminant (kappa+2)^2 + 16 n* is always positive.
    """
    if blk.n < 1:
        raise ValueError("degree-0 block has no (u1, u2) eigenpair")
    a, b = blk.matrix[0, 0], blk.matrix[0, 1]
    value = _smaller_eigenvalue(a, b, blk.matrix[1, 1])
    vec = np.array([b, value - a])
    vec /= math.sqrt(float(vec @ vec))
    if vec[0] < 0.0 or (vec[0] == 0.0 and vec[1] < 0.0):
        vec = -vec
    return value, vec


def gamma_numeric(kappa: float, n_max: int = 20) -> tuple[float, tuple[tuple[int, str], ...]]:
    """Minimum over all channels up to degree n_max, with the argmin channels.

    Candidates: the degree-0 scalar kappa + 2, the smaller eigenvalue of
    every (u1, u2) block, and the decoupled u3 values n*.  Returns the
    minimum of the per-mode energy, i.e. the best constant for the
    normalized problem, together with every channel attaining it as a
    ``(degree, kind)`` tuple, kind one of ``"scalar"`` (degree 0 only),
    ``"block"`` and ``"u3"``, in candidate order.  The blocks of all
    degrees are solved in one array pass, from the ``_block_entries``
    that ``block`` also reads and with the eigenvalue formula of
    ``min_eigenpair``.
    """
    return _sweep([kappa], n_max)[0]


def _sweep(kappas, n_max: int) -> list[tuple[float, tuple[tuple[int, str], ...]]]:
    """``gamma_numeric`` at each of ``kappas``: every block of every weight in one array pass."""
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    kappas = np.asarray(kappas, dtype=float)
    n = np.arange(1, n_max + 1)
    nstar = (n * (n + 1)).astype(float)
    # Candidate order per weight: the scalar, then (block, u3) per degree.
    values = np.empty((len(kappas), 2 * n_max + 1))
    values[:, 0] = kappas + 2.0
    values[:, 1::2] = _smaller_eigenvalue(*_block_entries(nstar, kappas[:, None]))
    values[:, 2::2] = nstar
    best = values.min(axis=1)
    tol = _TIE_TOL * np.maximum(1.0, np.abs(best))
    hits = (np.flatnonzero(row).tolist() for row in values - best[:, None] <= tol[:, None])
    return [
        (value, tuple(((i + 1) // 2, "block" if i % 2 else "u3") if i else (0, "scalar") for i in hit))
        for value, hit in zip(best.tolist(), hits)
    ]


def numeric_minimizer(
    kappa: float,
    n_max: int = 20,
    direction=None,
    rng: np.random.Generator | None = None,
) -> CoeffSet:
    """Coefficient table attaining gamma_numeric, scaled to norm_sq = 4 pi.

    When the argmin is the degree-1 block, its eigenvector fixes the
    u2/u1 ratio and the order multiplicity is resolved by ``direction``
    (a 3-vector over j = -1, 0, 1); the default is the deterministic
    j = 0 axis, or a random direction when ``rng`` is given.  Ties
    prefer the degree-0 channel.  A first argmin channel other than these
    two (a u3 channel or a block of degree >= 2) raises ValueError.
    """
    return _minimizer_from_channels(kappa, gamma_numeric(kappa, n_max)[1], direction, rng)


def _minimizer_from_channels(kappa: float, winners, direction=None, rng=None) -> CoeffSet:
    """``numeric_minimizer`` from the argmin channels of one ``gamma_numeric`` sweep;
    at kappa in about [1.8e16, 3.6e16] the rounded degree-1 eigenvalue lets u3 come first."""
    scale = math.sqrt(FOUR_PI)
    out = CoeffSet(1)
    if winners[0] == (0, "scalar"):
        out[(1, 0, 0)] = scale
        return out
    if winners[0] != (1, "block"):
        raise ValueError(f"the first argmin channel {winners[0]} at kappa={kappa!r} is neither of the lemma's shapes")
    _, vec = min_eigenpair(block(1, kappa))
    if direction is None and rng is not None:
        direction = rng.standard_normal(3)
    d = _unit_direction(direction)
    for offset, j in enumerate((-1, 0, 1)):
        out[(1, 1, j)] = scale * vec[0] * d[offset]
        out[(2, 1, j)] = scale * vec[1] * d[offset]
    return out
