"""The verify suites compute each per-weight and per-field quantity once."""

import math
from collections import Counter

import numpy as np
import pytest

from sphere_poincare import eigensolver, sharp, suites, vsh
from sphere_poincare.grid import scalar_basis, verification_grid
from sphere_poincare.spectral import anisotropy_energy, dirichlet_energy, norm_sq
from sphere_poincare.vsh import CoeffSet, random_coeffs, vector_basis


def _counting(monkeypatch, module, name):
    calls = Counter()
    original = getattr(module, name)

    def wrapper(kappa, *args, **kwargs):
        calls[kappa] += 1
        return original(kappa, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_lemma_sweeps_once_per_weight(monkeypatch):
    rows = Counter()
    sweep = eigensolver._sweep

    def counting(kappas, n_max):
        rows.update((kappa, n_max) for kappa in np.asarray(kappas).tolist())
        return sweep(kappas, n_max)

    monkeypatch.setattr(eigensolver, "_sweep", counting)
    checks = suites.suite_lemma(0)
    assert all(check.passed for check in checks)
    # 201 weights at n_max 30 for the minimizer structure, 200 at n_max 20 for the constant.
    assert sum(rows.values()) == 201 + 200
    assert set(rows.values()) == {1}


def test_inequality_evaluates_each_constant_once(monkeypatch):
    calls = _counting(monkeypatch, sharp, "gamma")
    checks = suites.suite_inequality(0)
    assert all(check.passed for check in checks)
    assert len(calls) == 20 + 4
    assert set(calls.values()) == {1}


def test_energy_routes_analyzes_each_field_once(monkeypatch):
    fields = []
    analyze_values = vsh.VectorBasis._analyze_values

    def counting(self, values):
        fields.append(math.prod(values.shape[:-3]))
        return analyze_values(self, values)

    monkeypatch.setattr(vsh.VectorBasis, "_analyze_values", counting)
    checks = suites.suite_energy_routes(0)
    assert all(check.passed for check in checks)
    # 100 random band-4 fields at four weights each, and the normal field.
    assert sum(fields) == 100 + 1


def _recording_draws(monkeypatch):
    draws = []
    random_tables = vsh._random_tables

    def recording(band_limit, rng, count, families=(1, 2, 3), norm_sq=None):
        draws.append((band_limit, count, tuple(families), norm_sq))
        return random_tables(band_limit, rng, count, families, norm_sq)

    monkeypatch.setattr(vsh, "_random_tables", recording)
    return draws


def test_fuzz_suites_keep_their_draws_in_blocks_of_100(monkeypatch):
    draws = _recording_draws(monkeypatch)
    suites.suite_inequality(0)
    four_pi = suites.FOUR_PI
    assert draws == (
        [(6, 100, (1, 2, 3), four_pi)] * 12 + [(6, 100, (2, 3), four_pi)] * 5
    )
    draws.clear()
    suites.suite_energy_routes(0)
    assert draws == [(4, 100, (1, 2, 3), None)] * 11


def _relative_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _reference_checks(seed):
    """The stacked checks of orthonormality and energy-routes, one field at a time
    with the per-field products: the dense einsums, the weighted scalar table and
    np.sum's quadrature sums."""
    grid = verification_grid(4)
    basis = vector_basis(grid, 4)
    weights = grid.weights[..., None]

    def synthesized(c):
        return np.einsum("m,mijk->ijk", c.as_vector(), basis.matrix)

    def analyzed(values):
        return CoeffSet.from_vector(4, np.einsum("mijk,ijk->m", basis.matrix, values * weights))

    rng = np.random.default_rng(seed)
    roundtrip = 0.0
    for _ in range(50):
        c = random_coeffs(4, rng)
        roundtrip = max(roundtrip, float(np.max(np.abs(analyzed(synthesized(c)).data - c.data))))

    rng = np.random.default_rng(seed)
    for _ in range(10):  # the g-kappa identity's draws come first
        vsh._random_tables(4, rng, 100)
    scalar = scalar_basis(grid, 5)
    weighted_table = (scalar.matrix * grid.weights).reshape(len(scalar.degrees), -1)
    route, parseval = 0.0, 0.0
    for _ in range(100):
        c = random_coeffs(4, rng)
        values = synthesized(c)
        coeffs = analyzed(values)
        d, a = dirichlet_energy(coeffs), anisotropy_energy(coeffs)
        components = weighted_table @ values.reshape(-1, 3)
        terms = scalar.eigenvalues[:, None] * components
        terms *= components
        dq = float(np.add.reduce(terms, axis=None))
        radial = np.sum(values * grid.frame[2], axis=-1)
        aq = float(np.sum(grid.weights * (radial * radial)))
        nq = float(np.sum(grid.weights * np.sum(values * values, axis=-1)))
        for kappa in (-8.0, -4.0, 0.0, 6.0):
            gaps = (_relative_gap(d, dq), _relative_gap(a, aq), _relative_gap(d + kappa * a, dq + kappa * aq))
            route = max(route, *gaps)
        parseval = max(parseval, abs(norm_sq(c) - nq))
    return {
        "analyze-synthesize-roundtrip-band4": roundtrip,
        "route-equivalence-band4": route,
        "parseval-band4": parseval,
    }


@pytest.mark.parametrize("seed", range(10))
def test_stacked_suites_are_the_per_field_loop_bitwise(seed):
    # energy-routes is host-dependent in tools/output_digest.py, so the
    # portable-output test cannot see its residuals move; this can, anywhere.
    expected = _reference_checks(seed)
    residuals = {
        check.name: check.residual
        for suite in (suites.suite_orthonormality, suites.suite_energy_routes)
        for check in suite(seed)
    }
    for name, value in expected.items():
        assert value > 0.0
        assert np.float64(residuals[name]).tobytes() == np.float64(value).tobytes(), name


def test_run_suite_rejects_an_unknown_name():
    # argparse's choices shield the CLI from this; library callers reach it.
    with pytest.raises(ValueError, match="unknown suite 'nope'; choose from"):
        suites.run_suite("nope", 0)
