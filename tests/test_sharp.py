import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphere_poincare.eigensolver import gamma_numeric, numeric_minimizer
from sphere_poincare.sharp import (
    Regime,
    _tau_ratio,
    build_minimizer,
    classify_regime,
    equality_residual,
    gamma,
    gamma_plus,
    membership_check,
    shifted_constant,
    write_gamma_table,
)
from sphere_poincare.spectral import g_kappa, norm_sq
from sphere_poincare.vsh import CoeffSet, mode_list, random_coeffs

FOUR_PI = 4.0 * math.pi


def test_gamma_values():
    assert gamma(-4.0) == -2.0
    assert gamma(-8.0) == -6.0
    assert_allclose(gamma(6.0), 6.0 - 2.0 * math.sqrt(6.0), rtol=0, atol=1e-14)
    assert gamma(0.0) == 0.0


def test_gamma_rejects_non_finite():
    with pytest.raises(ValueError):
        gamma(math.nan)
    with pytest.raises(ValueError):
        gamma_plus(math.inf)


def test_gamma_plus_values():
    assert gamma_plus(-4.0) == -2.0
    assert gamma_plus(0.0) == 0.0
    # saturates at 2 from below
    assert abs(gamma_plus(1e6) - 2.0) < 1e-4


def test_gamma_continuous_increasing_bounded():
    kappas = np.linspace(-20.0, 20.0, 100_000)
    values = np.array([gamma(float(k)) for k in kappas])
    diffs = np.diff(values)
    assert np.all(diffs > 0.0)  # strictly increasing
    step = kappas[1] - kappas[0]
    assert np.max(diffs) < 2.0 * step  # slope at most ~1: continuity
    assert np.all(values < 2.0)
    above = kappas > -4.0
    assert np.all(values[above] < kappas[above] + 2.0)


def test_gamma_matches_numeric_oracle():
    for kappa in np.linspace(-20.0, 20.0, 200):
        kappa = float(kappa)
        value, _ = gamma_numeric(kappa, 20)
        assert abs(value - gamma(kappa)) < 1e-12


def test_shifted_constant():
    assert shifted_constant(-4.0) == 2.0
    assert shifted_constant(-8.0) == 2.0
    assert abs(shifted_constant(-1e-8)) < 1e-8  # continuity toward 0
    with pytest.raises(ValueError):
        shifted_constant(0.0)
    with pytest.raises(ValueError):
        shifted_constant(3.0)


def test_shifted_constant_bounds():
    for kappa in np.linspace(-30.0, -1e-3, 500):
        kappa = float(kappa)
        value = shifted_constant(kappa)
        assert 0.0 - 1e-12 <= value <= abs(kappa) + 1e-12


def test_classify_regime():
    assert classify_regime(-10.0) is Regime.BELOW
    assert classify_regime(-4.0) is Regime.CRITICAL
    assert classify_regime(-4.0 + 5e-13) is Regime.CRITICAL
    assert classify_regime(-3.9) is Regime.ABOVE


@pytest.mark.parametrize("kappa", [-8.0, -4.5, -4.0, -3.9, 0.0, 6.0, 100.0])
def test_build_minimizer_attains_sharp_constant(kappa):
    spec, coeffs = build_minimizer(kappa)
    assert abs(norm_sq(coeffs) - FOUR_PI) <= 1e-10
    assert abs(equality_residual(coeffs, kappa)) <= 1e-10
    assert membership_check(coeffs, kappa, 1e-8)
    assert spec.regime is classify_regime(kappa)


def test_build_minimizer_below_sign():
    _, plus = build_minimizer(-9.0, sign=+1.0)
    _, minus = build_minimizer(-9.0, sign=-1.0)
    assert_allclose(plus[(1, 0, 0)], math.sqrt(FOUR_PI), rtol=1e-15)
    assert_allclose(minus[(1, 0, 0)], -math.sqrt(FOUR_PI), rtol=1e-15)
    with pytest.raises(ValueError):
        build_minimizer(-9.0, direction=(1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        build_minimizer(-9.0, sign=0.0)


def test_build_minimizer_above_kappa0_magnitudes():
    spec, coeffs = build_minimizer(0.0, direction=(0.0, 1.0, 0.0))
    assert_allclose(coeffs[(1, 1, 0)] ** 2, FOUR_PI / 3.0, rtol=1e-12)
    # tau = sqrt(2) sigma at kappa = 0 since gamma(0) = 0
    assert_allclose(
        coeffs[(2, 1, 0)] / coeffs[(1, 1, 0)], math.sqrt(2.0), rtol=1e-12
    )
    assert spec.c0 == 0.0


def test_build_minimizer_above_norm_split():
    rng = np.random.default_rng(23)
    for _ in range(100):
        kappa = float(rng.uniform(-3.999, 60.0))
        direction = rng.standard_normal(3)
        spec, coeffs = build_minimizer(kappa, direction=direction)
        sigma_sq = sum(coeffs[(1, 1, j)] ** 2 for j in (-1, 0, 1))
        tau_sq = sum(coeffs[(2, 1, j)] ** 2 for j in (-1, 0, 1))
        assert_allclose(sigma_sq + tau_sq, FOUR_PI, rtol=1e-11)
        ratio = 8.0 / (gamma(kappa) - 2.0) ** 2
        assert_allclose(tau_sq / sigma_sq, ratio, rtol=1e-9)


def test_build_minimizer_above_rejects_bad_params():
    with pytest.raises(ValueError):
        build_minimizer(6.0, direction=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        build_minimizer(6.0, c0=1.0)


@pytest.mark.parametrize("kappa", [-4.0, 6.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_build_minimizer_rejects_a_sign_from_the_boundary_up(kappa, sign):
    with pytest.raises(ValueError, match="sign is free only below"):
        build_minimizer(kappa, sign=sign)


@pytest.mark.parametrize("tol", [-1e-8, -1.0, math.nan])
def test_membership_check_rejects_a_negative_tolerance(tol):
    _, coeffs = build_minimizer(6.0)
    with pytest.raises(ValueError, match="membership tolerance"):
        membership_check(coeffs, 6.0, tol)
    assert membership_check(coeffs, 6.0, 1e-8)


def test_build_minimizer_critical_family():
    # c0 = 2 sqrt(pi) saturates 2 c0^2 = 8 pi: pure radial member, g = -8 pi.
    spec, coeffs = build_minimizer(-4.0, c0=2.0 * math.sqrt(math.pi))
    assert_allclose(g_kappa(coeffs, -4.0), -8.0 * math.pi, rtol=1e-13)
    assert np.max(np.abs(coeffs.data[1:])) == 0.0

    # mixed member keeps the constraint 2 c0^2 + 3 |sigma|^2 = 8 pi
    spec, coeffs = build_minimizer(-4.0, c0=1.0, direction=(0.0, 0.0, 1.0))
    sigma_sq = sum(coeffs[(1, 1, j)] ** 2 for j in (-1, 0, 1))
    assert_allclose(2.0 * spec.c0**2 + 3.0 * sigma_sq, 8.0 * math.pi, rtol=1e-12)
    assert abs(equality_residual(coeffs, -4.0)) < 1e-10

    with pytest.raises(ValueError):
        build_minimizer(-4.0, c0=10.0)


def test_regime_boundary_coexistence():
    # Both one-sided limits are equality members exactly at the boundary.
    _, below_style = build_minimizer(-4.0, c0=math.sqrt(FOUR_PI))
    _, above_style = build_minimizer(-4.0, c0=0.0)
    assert abs(equality_residual(below_style, -4.0)) <= 1e-9
    assert abs(equality_residual(above_style, -4.0)) <= 1e-9
    assert membership_check(below_style, -4.0, 1e-9)
    assert membership_check(above_style, -4.0, 1e-9)


def test_equality_residual_positive_off_family(rng):
    c = CoeffSet(1)
    c[(1, 0, 0)] = math.sqrt(FOUR_PI)
    expected = FOUR_PI * (8.0 - (6.0 - 2.0 * math.sqrt(6.0)))
    assert_allclose(equality_residual(c, 6.0), expected, rtol=1e-13)
    for _ in range(20):
        coeffs = random_coeffs(3, rng, norm_sq=FOUR_PI)
        assert equality_residual(coeffs, -2.0) > -1e-9


def test_equality_residual_rejects_unnormalized():
    c = CoeffSet(1)
    c[(1, 0, 0)] = 1.0
    with pytest.raises(ValueError):
        equality_residual(c, 0.0)


def test_membership_rejects_perturbed_minimizer():
    _, coeffs = build_minimizer(6.0)
    perturbed = coeffs.with_band_limit(2)
    perturbed[(3, 2, 0)] = 1e-3
    # renormalize so only the support test can fail
    perturbed = math.sqrt(FOUR_PI / norm_sq(perturbed)) * perturbed
    assert not membership_check(perturbed, 6.0, 1e-6)


def test_membership_accepts_numeric_minimizer():
    for kappa in (-7.0, -4.0, 2.0, 6.0):
        numeric = numeric_minimizer(kappa)
        assert membership_check(numeric, kappa, 1e-8)


def test_membership_checks_linear_relations():
    _, coeffs = build_minimizer(6.0)
    broken = coeffs.copy()
    broken[(2, 1, 0)] = broken[(2, 1, 0)] * 1.001
    broken = math.sqrt(FOUR_PI / norm_sq(broken)) * broken
    assert not membership_check(broken, 6.0, 1e-6)


def test_gamma_table_csv_format():
    buffer = io.StringIO()
    write_gamma_table(buffer, [-4.0, 0.0, 2.0])
    lines = buffer.getvalue().strip().split("\n")
    assert lines[0] == "kappa,gamma,gamma_plus,shifted"
    row = lines[1].split(",")
    assert float(row[0]) == -4.0
    assert float(row[1]) == -2.0
    assert float(row[3]) == 2.0  # |kappa| + gamma = 4 - 2
    assert lines[2].split(",")[3] == ""  # shifted empty for kappa >= 0
    assert lines[3].split(",")[3] == ""


def _reference_membership(coeffs, kappa, tol):
    """Per-mode membership test, the reference for the vectorized one."""
    support = {(1, 0, 0)} | {(1, 1, j) for j in (-1, 0, 1)} | {(2, 1, j) for j in (-1, 0, 1)}
    leak = 0.0
    for mode in mode_list(coeffs.band_limit):
        if (mode.family, mode.n, mode.j) not in support:
            leak = max(leak, abs(coeffs[mode]))
    if leak > tol:
        return False
    c0 = coeffs[(1, 0, 0)]
    sigma = np.array([coeffs[(1, 1, j)] for j in (-1, 0, 1)])
    tau = np.array([coeffs[(2, 1, j)] for j in (-1, 0, 1)])
    regime = classify_regime(kappa)
    if regime is Regime.BELOW:
        return bool(np.max(np.abs(sigma)) <= tol and np.max(np.abs(tau)) <= tol)
    if regime is Regime.ABOVE:
        if abs(c0) > tol:
            return False
        return bool(np.max(np.abs(tau - _tau_ratio(kappa) * sigma)) <= tol)
    return bool(np.max(np.abs(tau - (math.sqrt(2.0) / 2.0) * sigma)) <= tol)


@pytest.mark.parametrize("band", [0, 1, 3])
@pytest.mark.parametrize("kappa", [-8.0, -4.0, 6.0])
def test_membership_matches_per_mode_reference(kappa, band, rng):
    tol = 1e-8
    tables = [random_coeffs(band, rng, norm_sq=FOUR_PI)]
    if band >= 1 or kappa < -4.0:
        tables.append(build_minimizer(kappa)[1].with_band_limit(band))
    leak_modes = [(3, 1, 0)] * (band >= 1) + [(2, 2, 1)] * (band >= 2)
    verdicts = []
    for table in tables:
        cases = [table]
        for mode in leak_modes:
            for size in (0.5 * tol, 2.0 * tol):
                leaky = table.copy()
                leaky[mode] = size
                cases.append(math.sqrt(FOUR_PI / norm_sq(leaky)) * leaky)
        for case in cases:
            verdict = membership_check(case, kappa, tol)
            assert verdict == _reference_membership(case, kappa, tol)
            verdicts.append(verdict)
    if len(tables) == 2:  # the family member: kept at 0.5 tol, lost at 2 tol
        member_verdicts = verdicts[-len(cases):]
        assert member_verdicts == [True] + [True, False] * len(leak_modes)
