import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphere_poincare.eigensolver import (
    _block_entries,
    _minimizer_from_channels,
    _smaller_eigenvalue,
    _sweep,
    block,
    gamma_numeric,
    min_eigenpair,
    numeric_minimizer,
)
from sphere_poincare.sharp import equality_residual, gamma, gamma_plus, membership_check
from sphere_poincare.spectral import norm_sq

FOUR_PI = 4.0 * math.pi


def test_block_degree1():
    blk = block(1, -2.5)
    assert_allclose(
        blk.matrix,
        [[4.0 - 2.5, -2.0 * math.sqrt(2.0)], [-2.0 * math.sqrt(2.0), 2.0]],
        rtol=1e-15,
    )
    assert blk.u3_eigenvalue == 2.0
    assert_allclose(np.trace(blk.matrix), 2 * 2.0 + 2.0 - 2.5, rtol=1e-15)


def test_block_degree0_degenerates_to_scalar():
    blk = block(0, 3.0)
    assert blk.matrix.shape == (1, 1)
    assert blk.matrix[0, 0] == 5.0
    with pytest.raises(ValueError):
        min_eigenpair(blk)


def test_block_degree2():
    blk = block(2, 0.0)
    assert_allclose(
        blk.matrix, [[8.0, -2.0 * math.sqrt(6.0)], [-2.0 * math.sqrt(6.0), 6.0]], rtol=1e-15
    )


def test_block_rejects_negative_degree():
    with pytest.raises(ValueError):
        block(-1, 0.0)


def test_min_eigenpair_degree1_matches_gamma_plus():
    for kappa in (-9.0, -4.0, -1.2, 0.0, 3.7, 42.0):
        value, vec = min_eigenpair(block(1, kappa))
        assert_allclose(value, gamma_plus(kappa), rtol=0, atol=1e-13)
        # residual of the eigen equation
        residual = block(1, kappa).matrix @ vec - value * vec
        assert np.max(np.abs(residual)) < 1e-12
        assert vec[0] >= 0.0


def test_min_eigenpair_boundary_eigenvector():
    value, vec = min_eigenpair(block(1, -4.0))
    assert_allclose(value, -2.0, rtol=0, atol=1e-14)
    assert_allclose(vec, [math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 3.0)], rtol=0, atol=1e-14)
    # u2/u1 ratio matches the boundary mixing ratio sqrt(2)/2
    assert_allclose(vec[1] / vec[0], math.sqrt(2.0) / 2.0, rtol=0, atol=1e-14)


def test_min_eigenpair_degree2_stays_above_gamma():
    value, _ = min_eigenpair(block(2, 0.0))
    assert value > gamma(0.0)


def test_gamma_numeric_examples():
    value, winners = gamma_numeric(-8.0, 20)
    assert_allclose(value, -6.0, rtol=0, atol=1e-13)
    assert winners == ((0, "scalar"),)

    value, winners = gamma_numeric(6.0, 20)
    assert_allclose(value, 6.0 - 2.0 * math.sqrt(6.0), rtol=0, atol=1e-13)
    assert winners == ((1, "block"),)

    value, winners = gamma_numeric(-4.0, 20)
    assert_allclose(value, -2.0, rtol=0, atol=1e-12)
    assert set(winners) == {(0, "scalar"), (1, "block")}


def test_gamma_numeric_monotone_in_cutoff():
    for kappa in (-17.0, -4.0, 2.5, 30.0):
        values = [gamma_numeric(kappa, n)[0] for n in (2, 5, 10, 20, 30)]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
        assert max(values) - min(values) < 1e-14


def test_gamma_numeric_rejects_small_cutoff():
    with pytest.raises(ValueError):
        gamma_numeric(0.0, 1)


def test_numeric_minimizer_below():
    coeffs = numeric_minimizer(-8.0)
    assert_allclose(coeffs[(1, 0, 0)], math.sqrt(FOUR_PI), rtol=1e-14)
    assert_allclose(norm_sq(coeffs), FOUR_PI, rtol=1e-14)
    assert np.max(np.abs(coeffs.data[1:])) == 0.0


def test_numeric_minimizer_above():
    coeffs = numeric_minimizer(6.0)
    assert abs(equality_residual(coeffs, 6.0)) < 1e-10
    assert coeffs[(1, 0, 0)] == 0.0
    # deterministic default direction: order j = 0 only
    assert coeffs[(1, 1, -1)] == 0.0 and coeffs[(1, 1, 1)] == 0.0
    assert coeffs[(1, 1, 0)] != 0.0


def test_numeric_minimizer_kappa0_magnitude():
    coeffs = numeric_minimizer(0.0)
    sigma_sq = sum(coeffs[(1, 1, j)] ** 2 for j in (-1, 0, 1))
    assert_allclose(sigma_sq, FOUR_PI / 3.0, rtol=0, atol=1e-12)


def test_numeric_minimizer_direction_spread(rng):
    direction = (1.0, -2.0, 2.0)
    coeffs = numeric_minimizer(6.0, direction=direction)
    sigma = np.array([coeffs[(1, 1, j)] for j in (-1, 0, 1)])
    unit = np.array(direction) / 3.0
    assert_allclose(sigma / np.linalg.norm(sigma), unit, rtol=0, atol=1e-14)
    assert_allclose(norm_sq(coeffs), FOUR_PI, rtol=1e-13)
    random_coeffs = numeric_minimizer(6.0, rng=rng)
    assert abs(equality_residual(random_coeffs, 6.0)) < 1e-10


def test_u3_channel_never_wins():
    for kappa in np.linspace(-50.0, 50.0, 101):
        _, winners = gamma_numeric(float(kappa), 30)
        assert not any(kind == "u3" for _, kind in winners)


def test_argmin_degree_at_most_one():
    for kappa in np.linspace(-50.0, 50.0, 101):
        _, winners = gamma_numeric(float(kappa), 30)
        assert max(n for n, _ in winners) <= 1


def test_minimizer_sign_agreement():
    for kappa in np.linspace(-3.9, 50.0, 60):
        coeffs = numeric_minimizer(float(kappa))
        for j in (-1, 0, 1):
            u1, u2 = coeffs[(1, 1, j)], coeffs[(2, 1, j)]
            if abs(u1) > 1e-12 or abs(u2) > 1e-12:
                assert u1 * u2 > 0.0


def _per_degree_gamma_numeric(kappa, n_max):
    """gamma_numeric as one block/min_eigenpair solve per degree."""
    candidates = [(kappa + 2.0, (0, "scalar"))]
    for n in range(1, n_max + 1):
        blk = block(n, kappa)
        value, _ = min_eigenpair(blk)
        candidates.append((value, (n, "block")))
        candidates.append((blk.u3_eigenvalue, (n, "u3")))
    best = min(value for value, _ in candidates)
    tol = 1e-12 * max(1.0, abs(best))
    return best, tuple(channel for value, channel in candidates if value - best <= tol)


# -4 ties the scalar with the degree-1 block; from about 1e10 the degree-1
# block ties its u3 channel.
_SWEEP = sorted({*np.linspace(-50.0, 50.0, 101).tolist(), -4.0, -3.9, 0.5, 17.0, 1e10, 1e13, 1e15, -1e15})
# The lemma suite's two sweeps.
_LEMMA_SWEEP = [*np.linspace(-50.0, 50.0, 201).tolist(), *np.linspace(-20.0, 20.0, 200).tolist()]


def test_block_eigenvalues_of_all_degrees_are_min_eigenpair():
    # (a - d)**2 on numpy scalars calls libm pow, which misrounds some
    # squares; at these kappas that moves the degree-1 eigenvalue by a bit.
    # The kernel's product rounds alike on scalars and arrays.
    misrounded = [13.543, 19.179, 22.914, 26.543, 42.144, 46.511]
    n = np.arange(1, 31)
    nstar = (n * (n + 1)).astype(float)
    for kappa in misrounded + _LEMMA_SWEEP + _SWEEP:
        batched = _smaller_eigenvalue(nstar + 2.0 + kappa, -2.0 * np.sqrt(nstar), nstar)
        expected = [min_eigenpair(block(int(k), kappa))[0] for k in n]
        assert batched.tobytes() == np.array(expected).tobytes(), kappa


@pytest.mark.parametrize("n_max", range(2, 31))
def test_gamma_numeric_is_the_per_degree_sweep(n_max):
    winners_seen = set()
    for kappa in _SWEEP:
        value, winners = gamma_numeric(kappa, n_max)
        expected_value, expected_winners = _per_degree_gamma_numeric(kappa, n_max)
        assert np.float64(value).tobytes() == np.float64(expected_value).tobytes(), kappa
        assert winners == expected_winners, kappa
        winners_seen.add(winners)
    assert ((0, "scalar"), (1, "block")) in winners_seen
    assert ((1, "block"), (1, "u3")) in winners_seen


def test_gamma_numeric_reads_the_parts_of_its_own_n_max():
    # The lemma suite's two sweeps, each solved in one stacked pass, at
    # three interleaved sizes.  At -1e15 the tie tolerance admits every
    # block up to degree 31, so the winners name n_max.
    kappas = _LEMMA_SWEEP + [-1e15, -4.0, 1e13]
    for n_max in (30, 2, 20):
        for kappa, (value, winners) in zip(kappas, _sweep(kappas, n_max)):
            expected_value, expected_winners = _per_degree_gamma_numeric(kappa, n_max)
            assert np.float64(value).tobytes() == np.float64(expected_value).tobytes(), (kappa, n_max)
            assert winners == expected_winners, (kappa, n_max)
    assert len(gamma_numeric(-1e15, 2)[1]) == 3


def test_block_eigenvalue_never_decreases_with_the_degree():
    # d lambda / d n* = 1 - 4 / sqrt((kappa + 2)^2 + 16 n*) >= 0 for n* >= 1, and it
    # holds in floating point too: so the sweep's argmin over n <= n_max, and the
    # minimizer's two shapes, speak for every degree.
    magnitudes = np.logspace(-12.0, 150.0, 4001)
    kappas = np.concatenate([_LEMMA_SWEEP, magnitudes, -magnitudes])
    nstar = np.arange(1, 31) * np.arange(2, 32.0)
    values = _smaller_eigenvalue(*_block_entries(nstar, kappas[:, None]))
    assert np.all(np.isfinite(values))
    assert np.all(np.diff(values, axis=1) >= 0.0)


@pytest.mark.parametrize("winner", [(1, "u3"), (2, "block"), (2, "u3")])
def test_minimizer_builds_only_the_lemma_shapes(winner):
    message = rf"first argmin channel {re.escape(repr(winner))} at kappa=6.0 is neither of the lemma's shapes"
    with pytest.raises(ValueError, match=message):
        _minimizer_from_channels(6.0, (winner,))


def test_numeric_minimizer_where_rounding_puts_u3_first_raises_or_is_a_member():
    # From about 1.8e16 to 3.6e16 the cancelling smaller eigenvalue rounds the
    # degree-1 block's to 4.0, above the u3 channel's 2, so u3 comes first.
    kappa = 2.5e16
    try:
        coeffs = numeric_minimizer(kappa)
    except ValueError as exc:
        assert "neither of the lemma's shapes" in str(exc)
    else:
        assert membership_check(coeffs, kappa, 1e-8)
