"""Invariant batteries behind the `verify` command.

Each suite returns a list of named checks with the measured residual and
the tolerance it is held to, so reports always show both.  Boolean
checks are encoded as residual 0/1 against tolerance 0.

Per-draw, per-field and per-weight work runs as stacked array passes in
which each table or weight keeps the arithmetic it has alone, so every
report keeps its bytes: the fuzz draws in blocks of at most ``_BLOCK``
tables, the 50 orthonormality round trips as one pair of dense einsums
and its Gram matrix as the analysis of the stacked band-6 table, the
100 energy-routes fields (their draw, synthesis, analysis, both
routes' energies and their 400 route gaps) in one pass, and each lemma
sweep's weights in one ``eigensolver._sweep``.  The lemma still builds
one minimizer per weight, then checks all their entries in one pass.
The stacked dense einsums are split over the CPUs of the process
affinity (``vsh._split_stack``), which keeps every table's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eigensolver, sharp, spectral, vsh
from .grid import (
    FOUR_PI,
    _scalar_route_dirichlet,
    dirichlet_energy_scalar_route,
    normal_field,
    verification_grid,
)
from .spectral import _worst
from .vsh import CoeffSet

__all__ = ["Check", "SUITES", "run_suite"]

_MEMBERSHIP_TOL = 1e-8
# Fuzz draws are evaluated this many tables at a time, which keeps each
# block's arrays to a few hundred KB.
_BLOCK = 100


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)


def _bool_check(name: str, ok: bool) -> Check:
    return Check(name, 0.0 if ok else 1.0, 0.0)


def _draw_blocks(total: int, band_limit: int, rng, **kwargs):
    """``total`` random tables in stacked blocks of at most ``_BLOCK``, in draw order."""
    for start in range(0, total, _BLOCK):
        yield vsh._random_tables(band_limit, rng, min(_BLOCK, total - start), **kwargs)


def suite_orthonormality(seed: int) -> list[Check]:
    rng = np.random.default_rng(seed)
    checks = []

    grid = verification_grid(6)
    basis = vsh.vector_basis(grid, 6)
    gram = basis._analyze_values(basis.matrix)  # row n holds every mode's inner product with mode n
    checks.append(
        Check(
            "vsh-gram-identity-n<=6",
            float(np.max(np.abs(gram - np.eye(len(gram))))),
            1e-10,
        )
    )

    # The 50 round trips as one stacked pair of dense einsums.
    grid4 = verification_grid(4)
    basis4 = vsh.vector_basis(grid4, 4)
    drawn = vsh._random_tables(4, rng, 50)
    errors = np.abs(basis4._analyze_values(basis4._synthesize_tables(drawn)) - drawn[:, vsh._valid_mask(4)])
    checks.append(Check("analyze-synthesize-roundtrip-band4", _worst([errors]), 1e-11))
    return checks


def suite_energy_routes(seed: int) -> list[Check]:
    rng = np.random.default_rng(seed)
    checks = []

    def identity_gaps(data):
        lhs = spectral._g_kappa(data, -3.7)
        return spectral._relative_gap(lhs, spectral._dirichlet(data) - 3.7 * spectral._anisotropy(data))

    gaps = map(identity_gaps, _draw_blocks(1000, 4, rng))
    checks.append(Check("g-kappa-identity", _worst(gaps), 1e-12))

    # energy_report's two routes for 100 fields, in one pass over the stack.
    grid = verification_grid(4)
    basis = vsh.vector_basis(grid, 4)
    drawn = vsh._random_tables(4, rng, 100)
    fields = basis._synthesize_tables(drawn)
    analyzed = np.zeros_like(drawn)
    analyzed[:, vsh._valid_mask(4)] = basis._analyze_values(fields)
    route_gaps = spectral._route_gaps(
        (spectral._dirichlet(analyzed), spectral._anisotropy(analyzed)),
        # Cartesian components of a band-4 vector field are scalar band 5.
        (_scalar_route_dirichlet(grid, fields, 5), spectral._anisotropy_quadrature(grid, fields)),
        (-8.0, -4.0, 0.0, 6.0),
    )
    checks.append(Check("route-equivalence-band4", _worst([route_gaps]), 1e-8))
    parseval_gaps = np.abs(spectral._norm_sq(drawn) - spectral._norm_sq_quadrature(grid, fields))
    checks.append(Check("parseval-band4", _worst([parseval_gaps]), 1e-10))

    normal = normal_field(grid)
    checks.append(
        Check(
            "normal-field-dirichlet-8pi",
            abs(dirichlet_energy_scalar_route(normal, 4) - 8.0 * math.pi),
            1e-9,
        )
    )
    kappa = -8.0
    report = spectral.energy_report(normal, kappa, band_limit=1)
    checks.append(
        Check(
            "normal-field-total-4pi(kappa+2)",
            abs(report.total - FOUR_PI * (kappa + 2.0)),
            1e-9,
        )
    )
    return checks


def suite_inequality(seed: int) -> list[Check]:
    rng = np.random.default_rng(seed)
    checks = []

    kappas = np.linspace(-10.0, 10.0, 20)
    bounds = np.array([FOUR_PI * sharp.gamma(float(kappa)) for kappa in kappas])
    deficits = (
        bounds - (spectral._dirichlet(data)[:, None] + kappas * spectral._anisotropy(data)[:, None])
        for data in _draw_blocks(1000, 6, rng, norm_sq=FOUR_PI)
    )
    checks.append(Check("poincare-lower-bound", _worst(deficits), 1e-9))

    shifted_kappas = np.array([-8.0, -4.0, -1.0, -0.25])
    constants = np.array([sharp.shifted_constant(float(kappa)) for kappa in shifted_kappas])

    def rewritten_deficits(data):
        dirichlet = spectral._dirichlet(data)[:, None]
        aniso = spectral._anisotropy(data)[:, None]
        nrm = spectral._norm_sq(data)[:, None]
        return constants * nrm - (dirichlet + np.abs(shifted_kappas) * (nrm - aniso))

    deficits = map(rewritten_deficits, _draw_blocks(200, 6, rng, norm_sq=FOUR_PI))
    checks.append(Check("rewritten-form-negative-kappa", _worst(deficits), 1e-9))

    deficits = (
        2.0 * spectral._norm_sq(data) - spectral._dirichlet(data)
        for data in _draw_blocks(500, 6, rng, families=(2, 3), norm_sq=FOUR_PI)
    )
    checks.append(Check("tangential-lower-bound", _worst(deficits), 1e-9))

    equal = CoeffSet(1)
    equal[(2, 1, 0)] = math.sqrt(FOUR_PI)
    checks.append(
        Check(
            "tangential-equality-mode",
            abs(spectral.dirichlet_energy(equal) - 2.0 * spectral.norm_sq(equal)),
            1e-10,
        )
    )
    return checks


def suite_equality(seed: int) -> list[Check]:
    checks = []
    for kappa in (-8.0, -4.5, -4.0, -3.9, 0.0, 6.0, 100.0):
        _, coeffs = sharp.build_minimizer(kappa)
        checks.append(
            Check(
                f"equality-residual-kappa={kappa:g}",
                abs(sharp.equality_residual(coeffs, kappa)),
                1e-10,
            )
        )
        checks.append(
            Check(
                f"norm-4pi-kappa={kappa:g}",
                abs(spectral.norm_sq(coeffs) - FOUR_PI),
                1e-10,
            )
        )
        numeric = eigensolver.numeric_minimizer(kappa)
        checks.append(
            _bool_check(
                f"numeric-membership-kappa={kappa:g}",
                sharp.membership_check(numeric, kappa, _MEMBERSHIP_TOL),
            )
        )

    # Both one-sided families survive at the boundary.
    _, below_style = sharp.build_minimizer(-4.0, c0=math.sqrt(FOUR_PI))
    _, above_style = sharp.build_minimizer(-4.0, c0=0.0)
    boundary = _worst(abs(sharp.equality_residual(c, -4.0)) for c in (below_style, above_style))
    checks.append(Check("boundary-coexistence-kappa=-4", boundary, 1e-9))
    return checks


def suite_lemma(seed: int) -> list[Check]:
    # Each sweep solves all its weights in one pass; the 201 minimizers' entries are checked in one pass.
    kappas = np.linspace(-50.0, 50.0, 201)
    u3_rows, high_rows, degree1, argmin_excesses = [], [], [], []
    for kappa, (_, winners) in zip(kappas.tolist(), eigensolver._sweep(kappas, n_max=30)):
        argmin_excesses += [n - 1 for n, _ in winners] + [1 for _, kind in winners if kind == "u3"]
        data = eigensolver._minimizer_from_channels(kappa, winners).data
        band = data.shape[1] - 1
        u3_rows.append(data[2].ravel())
        high_rows.append(data[:, 2:, :].ravel())
        degree1.append(data[:2, 1, band - 1 : band + 2])  # (u1, u2) at j = -1, 0, 1
    u3_leaks, high_leaks = np.abs(np.concatenate(u3_rows)), np.abs(np.concatenate(high_rows))
    u1, u2 = np.stack(degree1, axis=1)
    sign_defects = (-u1 * u2)[(np.abs(u1) > 1e-12) | (np.abs(u2) > 1e-12)]
    kappas = np.linspace(-20.0, 20.0, 200)
    gaps = (
        abs(best - sharp.gamma(kappa))
        for kappa, (best, _) in zip(kappas.tolist(), eigensolver._sweep(kappas, n_max=20))
    )
    return [
        Check("minimizer-u3-channel-zero", _worst([u3_leaks]), 1e-12),
        Check("minimizer-no-degree>=2", _worst([high_leaks]), 1e-12),
        Check("minimizer-sign-agreement", _worst([sign_defects]), 1e-12),
        Check("argmin-degree<=1", _worst(argmin_excesses), 0.0),
        Check("gamma-closed-vs-numeric", _worst(gaps), 1e-12),
    ]


SUITES = {
    "orthonormality": suite_orthonormality,
    "energy-routes": suite_energy_routes,
    "inequality": suite_inequality,
    "equality": suite_equality,
    "lemma": suite_lemma,
}


def run_suite(name: str, seed: int) -> list[Check]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed)
