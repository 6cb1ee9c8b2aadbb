"""Closed-form sharp constant and the exact equality family.

For the penalized surface energy with anisotropy weight kappa, the best
constant of

    dirichlet + kappa * anisotropy >= gamma(kappa) * norm_sq

is

    gamma(kappa) = kappa + 2                                   kappa <= -4
                 = ((kappa+6) - sqrt(kappa^2+4kappa+36)) / 2    kappa > -4

and every equality field is supported on the radial degree-0 mode
(coefficient c0) and the degree-1 radial/gradient pair (coefficients
sigma_j, tau_j over j = -1, 0, 1), with regime-dependent relations:

* below (kappa < -4):    c0 = +-sqrt(4 pi), sigma = tau = 0;
* above (kappa > -4):    c0 = 0, tau_j = -2 sqrt(2)/(gamma-2) sigma_j,
  |sigma|^2 = 2 pi (-(kappa+2) + S)/S with S = sqrt(kappa^2+4kappa+36);
* critical (kappa = -4): tau_j = sigma_j sqrt(2)/2 and
  2 c0^2 + 3 |sigma|^2 = 8 pi.

Both tau/sigma relations live in ``_tau_ratio``, which ``build_minimizer``
and ``membership_check`` share; sigma's order direction defaults to the
j = 0 axis of ``vsh._unit_direction``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .grid import FOUR_PI
from .spectral import g_kappa, norm_sq
from .vsh import CoeffSet, _unit_direction

__all__ = [
    "Regime",
    "MinimizerSpec",
    "classify_regime",
    "gamma",
    "gamma_plus",
    "shifted_constant",
    "build_minimizer",
    "equality_residual",
    "membership_check",
    "gamma_table_rows",
    "write_gamma_table",
]

# Exact comparison after clamping: the formulas are continuous across the
# boundary, so classification within this tolerance is harmless.
_BOUNDARY_TOL = 1e-12

_NORMALIZATION_RTOL = 1e-6


class Regime(str, Enum):
    BELOW = "below"
    CRITICAL = "critical"
    ABOVE = "above"


def classify_regime(kappa: float) -> Regime:
    """Regime split of the anisotropy weight around the boundary -4."""
    _require_finite(kappa)
    if abs(kappa + 4.0) < _BOUNDARY_TOL:
        return Regime.CRITICAL
    return Regime.BELOW if kappa < -4.0 else Regime.ABOVE


def _require_finite(kappa: float) -> None:
    if not math.isfinite(kappa):
        raise ValueError("anisotropy weight must be finite")


def gamma_plus(kappa: float) -> float:
    """Smaller root of g^2 - (kappa+6) g + 2 kappa = 0, for all kappa."""
    _require_finite(kappa)
    return 0.5 * ((kappa + 6.0) - math.sqrt(kappa * kappa + 4.0 * kappa + 36.0))


def _gamma(kappa: float, plus: float) -> float:
    """gamma from kappa and its gamma_plus: kappa + 2 up to the boundary -4, ``plus`` beyond."""
    return kappa + 2.0 if kappa <= -4.0 else plus


def gamma(kappa: float) -> float:
    """Sharp constant: kappa + 2 up to the boundary -4, gamma_plus beyond."""
    return _gamma(kappa, gamma_plus(kappa))


def _shifted(kappa: float, gam: float) -> float | None:
    """|kappa| + gamma for kappa < 0; None from 0 up, where it is not defined."""
    return abs(kappa) + gam if kappa < 0.0 else None


def shifted_constant(kappa: float) -> float:
    """|kappa| + gamma(kappa), the non-negative constant of the rewritten
    inequality for kappa < 0 (gradient plus |kappa| times the tangential
    part bounds the norm)."""
    shifted = _shifted(kappa, gamma(kappa))
    if shifted is None:
        raise ValueError("shifted constant only defined for kappa < 0")
    return shifted


@dataclass(frozen=True)
class MinimizerSpec:
    """Free parameters of one equality-family member."""

    kappa: float
    regime: Regime
    c0: float
    sigma: tuple[float, float, float]
    tau: tuple[float, float, float]


def _tau_ratio(kappa: float) -> float:
    """tau_j / sigma_j on the equality family at or above the boundary."""
    if classify_regime(kappa) is Regime.CRITICAL:
        return math.sqrt(2.0) / 2.0
    gap = gamma(kappa) - 2.0
    if gap == 0.0:
        # At large kappa gamma = 2 - 8/kappa + ... rounds to 2 in the cancelling closed form.
        raise ValueError(f"gamma - 2 cancels to zero at kappa={kappa!r}, so tau/sigma cannot be formed")
    return -2.0 * math.sqrt(2.0) / gap


def build_minimizer(
    kappa: float,
    sign: float | None = None,
    direction=None,
    c0: float | None = None,
) -> tuple[MinimizerSpec, CoeffSet]:
    """Construct an equality-family member for the given regime.

    Free parameters: ``sign`` picks the normal orientation below the
    boundary (default +1); ``direction`` picks the degenerate order
    direction above it (magnitude is forced); at the boundary ``c0`` and
    ``direction`` mix the two families subject to 2 c0^2 + 3 |sigma|^2 = 8 pi.
    A sign from the boundary up, or a direction or c0 below it, is an error.
    """
    regime = classify_regime(kappa)
    if regime is Regime.BELOW:
        if direction is not None or c0 is not None:
            raise ValueError("below the boundary only the sign is free")
        if sign == 0.0:
            raise ValueError("sign must be nonzero")
        c0_val = math.copysign(math.sqrt(FOUR_PI), 1.0 if sign is None else sign)
        sigma = tau = np.zeros(3)
    else:
        if sign is not None:
            raise ValueError("the sign is free only below the boundary")
        if regime is Regime.ABOVE:
            if c0 is not None and c0 != 0.0:
                raise ValueError("above the boundary c0 must vanish")
            d = _unit_direction(direction)
            root = math.sqrt(kappa * kappa + 4.0 * kappa + 36.0)
            sigma_sq = 2.0 * math.pi * (-(kappa + 2.0) + root) / root
            if sigma_sq <= 0.0:
                raise ValueError(f"|sigma|^2 cancels to zero at kappa={kappa!r}, so the minimizer cannot be normalized")
            c0_val = 0.0
        else:
            c0_val = float(c0) if c0 is not None else math.sqrt(2.0 * math.pi)
            sigma_sq = (8.0 * math.pi - 2.0 * c0_val * c0_val) / 3.0
            if sigma_sq < -1e-12:
                raise ValueError("c0 too large: 2 c0^2 must not exceed 8 pi")
            if sigma_sq < 1e-12:  # snap the saturated case to exactly zero
                sigma_sq = 0.0
            d = _unit_direction(direction) if sigma_sq > 0.0 else np.zeros(3)
        sigma = math.sqrt(sigma_sq) * d
        tau = _tau_ratio(kappa) * sigma

    coeffs = CoeffSet(1)
    coeffs[(1, 0, 0)] = c0_val
    for offset, j in enumerate((-1, 0, 1)):
        coeffs[(1, 1, j)] = sigma[offset]
        coeffs[(2, 1, j)] = tau[offset]
    # Snap the norm to exactly 4 pi (pure rounding-level correction).
    scale = math.sqrt(FOUR_PI / norm_sq(coeffs))
    coeffs = scale * coeffs
    spec = MinimizerSpec(
        kappa=kappa,
        regime=regime,
        c0=scale * c0_val,
        sigma=tuple(scale * sigma),
        tau=tuple(scale * tau),
    )
    return spec, coeffs


def _require_normalized(coeffs: CoeffSet) -> None:
    nrm = norm_sq(coeffs)
    if abs(nrm - FOUR_PI) > _NORMALIZATION_RTOL * FOUR_PI:
        raise ValueError(f"coefficients must satisfy norm_sq = 4 pi, got {nrm}")


def equality_residual(coeffs: CoeffSet, kappa: float) -> float:
    """g_kappa minus its sharp lower bound 4 pi gamma(kappa).

    Non-negative up to rounding for every normalized table, and zero
    exactly on the equality family.
    """
    _require_finite(kappa)
    _require_normalized(coeffs)
    return g_kappa(coeffs, kappa) - FOUR_PI * gamma(kappa)


def membership_check(coeffs: CoeffSet, kappa: float, tol: float) -> bool:
    """True iff the table lies in the equality family within tol.

    Checks that all coefficients outside the family support vanish and
    that the regime-specific linear relations between c0, sigma and tau
    hold.  The input must already be normalized.
    """
    _require_finite(kappa)
    if not tol >= 0.0:
        raise ValueError(f"membership tolerance must be non-negative, got {tol!r}")
    _require_normalized(coeffs)
    leak = np.abs(coeffs.data)
    leak[:2, :2] = 0.0  # the support: families 1 and 2 at degrees 0 and 1
    if leak.max() > tol:
        return False

    c0 = coeffs[(1, 0, 0)]
    sigma = np.array([coeffs[(1, 1, j)] for j in (-1, 0, 1)])
    tau = np.array([coeffs[(2, 1, j)] for j in (-1, 0, 1)])
    regime = classify_regime(kappa)
    if regime is Regime.BELOW:
        return bool(np.max(np.abs(sigma)) <= tol and np.max(np.abs(tau)) <= tol)
    if regime is Regime.ABOVE and abs(c0) > tol:
        return False
    return bool(np.max(np.abs(tau - _tau_ratio(kappa) * sigma)) <= tol)


def gamma_table_rows(kappas) -> list[tuple[float, float, float, float | None]]:
    """Rows (kappa, gamma, gamma_plus, shifted-or-None) for the table.

    Raises ValueError if a constant is not finite (kappa^2 overflows from
    about |kappa| = 1.3e154).
    """
    rows = []
    for kappa in kappas:
        kappa = float(kappa)
        gam_plus = gamma_plus(kappa)  # validates kappa
        gam = _gamma(kappa, gam_plus)
        shifted = _shifted(kappa, gam)
        if not (math.isfinite(gam) and math.isfinite(gam_plus) and math.isfinite(shifted or 0.0)):
            raise ValueError(f"the constants are not finite at kappa={kappa!r}: kappa^2 overflows")
        rows.append((kappa, gam, gam_plus, shifted))
    return rows


def _gamma_table_lines(kappas) -> list[str]:
    """The constants table's CSV lines (shifted column empty for kappa >= 0)."""
    return ["kappa,gamma,gamma_plus,shifted\n"] + [
        f"{kappa!r},{gam!r},{gam_plus!r},{'' if shifted is None else repr(shifted)}\n"
        for kappa, gam, gam_plus, shifted in gamma_table_rows(kappas)
    ]


def write_gamma_table(fh, kappas) -> None:
    """Write the constants table as CSV; every row is checked before the first is written."""
    fh.writelines(_gamma_table_lines(kappas))
