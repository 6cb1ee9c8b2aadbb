import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphere_poincare import flow
from sphere_poincare.flow import (
    FlowRecord,
    distance_to_normals,
    el_residual,
    gradient_flow,
    normalize_field,
    project_tangent,
    saturated_energy,
    second_variation_normal,
    write_trajectory_csv,
)
from sphere_poincare.grid import (
    SampledVectorField,
    build_grid,
    dirichlet_energy_scalar_route,
    normal_field,
    scalar_basis,
    verification_grid,
)
from sphere_poincare.vsh import CoeffSet, random_coeffs, synthesize

FOUR_PI = 4.0 * math.pi


def _tangential_bump(grid, scale=1.0):
    c = CoeffSet(1)
    c[(2, 1, 0)] = scale * math.sqrt(FOUR_PI)
    return synthesize(c, grid)


def _perturbed_normal(grid, eps):
    n = normal_field(grid)
    bump = _tangential_bump(grid)
    return normalize_field(
        SampledVectorField(grid=grid, values=n.values + eps * bump.values)
    )


@pytest.mark.parametrize("kappa", [-8.0, -4.0, 0.0, 6.0])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_normal_states_are_stationary(kappa, sign):
    grid = build_grid(8, 17)
    n = normal_field(grid)
    u = SampledVectorField(grid=grid, values=sign * n.values)
    residual = el_residual(u, kappa, 2)
    assert np.max(np.linalg.norm(residual.values, axis=-1)) < 1e-9


def test_constant_field_not_stationary():
    grid = build_grid(8, 17)
    values = np.zeros((8, 17, 3))
    values[..., 2] = 1.0
    u = SampledVectorField(grid=grid, values=values)
    residual = el_residual(u, 1.0, 4)
    assert np.max(np.linalg.norm(residual.values, axis=-1)) > 1e-2


def test_el_residual_rejects_non_unit():
    grid = build_grid(6, 13)
    n = normal_field(grid)
    u = SampledVectorField(grid=grid, values=1.5 * n.values)
    with pytest.raises(ValueError):
        el_residual(u, 0.0, 2)


def test_normalize_field_keeps_the_bits_of_finite_input():
    grid = build_grid(6, 11)
    scales = 10.0 ** np.linspace(-150, 150, 66).reshape(6, 11, 1)
    values = np.random.default_rng(3).standard_normal((6, 11, 3)) * scales
    expected = values / np.sqrt(np.sum(values * values, axis=-1))[..., None]
    assert normalize_field(SampledVectorField(grid=grid, values=values)).values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("length", [1e300, math.inf, math.nan])
def test_normalize_field_names_a_sample_whose_length_is_not_finite(length):
    grid = build_grid(6, 11)
    values = normal_field(grid).values.copy()
    values[2, 3] = (0.0, length, 0.0)
    with pytest.raises(ValueError, match="overflow or are not finite"):
        normalize_field(SampledVectorField(grid=grid, values=values))


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 5e-324])
def test_normalize_field_scales_a_short_sample_up_first(scale):
    # Squared, 1e-170 underflows to 0 and 1e-160 to a subnormal that has lost digits.
    grid = build_grid(6, 11)
    values = normal_field(grid).values.copy()
    values[2, 3] = (3.0 * scale, -4.0 * scale, 0.0)
    unit = normalize_field(SampledVectorField(grid=grid, values=values)).values
    assert_allclose(unit[2, 3], (0.6, -0.8, 0.0), rtol=0, atol=1e-15)
    others = np.ones((6, 11), dtype=bool)
    others[2, 3] = False
    assert unit[others].tobytes() == normalize_field(normal_field(grid)).values[others].tobytes()


def test_normalize_field_rejects_a_zero_length_sample():
    grid = build_grid(6, 11)
    values = normal_field(grid).values.copy()
    values[2, 3] = 0.0
    with pytest.raises(ValueError, match="zero-length samples"):
        normalize_field(SampledVectorField(grid=grid, values=values))


@pytest.mark.parametrize("kappa", [-2.0, 1.0, 6.0])
def test_second_variation_closed_value(kappa):
    grid = verification_grid(4)
    v = _tangential_bump(grid)
    assert_allclose(
        second_variation_normal(v, kappa), -FOUR_PI * kappa, rtol=0, atol=1e-8
    )


def test_second_variation_default_band_is_capped_at_max_degree():
    # This grid resolves band 65, one above MAX_DEGREE.
    grid = build_grid(66, 133)
    v = _tangential_bump(grid)
    assert_allclose(second_variation_normal(v, 6.0), -FOUR_PI * 6.0, rtol=0, atol=1e-8)


def test_second_variation_zero_field():
    grid = verification_grid(2)
    v = SampledVectorField(grid=grid, values=np.zeros((grid.n_t, grid.n_phi, 3)))
    assert second_variation_normal(v, 3.0) == 0.0


def test_second_variation_rejects_radial_input():
    grid = verification_grid(2)
    with pytest.raises(ValueError):
        second_variation_normal(normal_field(grid), 0.0)


def test_second_variation_negative_kappa_bound(rng):
    # coercivity bound for stabilizing weights
    grid = verification_grid(4)
    for _ in range(10):
        coeffs = random_coeffs(3, rng, families=(2, 3))
        v = synthesize(coeffs, grid)
        norm = float(np.sum(grid.weights * np.sum(v.values**2, axis=-1)))
        for kappa in (-7.0, -2.5, -0.1):
            assert second_variation_normal(v, kappa) >= -kappa * norm - 1e-8


def test_second_variation_matches_quadratic_coefficient(rng):
    # The saturated energy expands as F(eps) = F(0) + eps^2 * Q + O(eps^4)
    # along normalize(n + eps v); Q is what second_variation_normal returns.
    grid = verification_grid(8)
    n = normal_field(grid)
    eps = 1e-4
    for _ in range(10):
        coeffs = random_coeffs(3, rng, families=(2, 3), norm_sq=FOUR_PI)
        v = synthesize(coeffs, grid)
        kappa = float(rng.uniform(-6.0, 6.0))
        expected = second_variation_normal(v, kappa, band_limit=8)

        def saturated(e):
            u = normalize_field(
                SampledVectorField(grid=grid, values=n.values + e * v.values)
            )
            return saturated_energy(u, kappa, 8)

        quad_coeff = (saturated(eps) - 2.0 * saturated(0.0) + saturated(-eps)) / (
            2.0 * eps * eps
        )
        assert abs(quad_coeff - expected) <= 1e-3 * max(1.0, abs(expected))


def test_project_tangent_properties(rng):
    grid = build_grid(6, 13)
    u = normal_field(grid)
    assert np.max(np.abs(project_tangent(u, u).values)) < 1e-15
    w_values = rng.standard_normal((6, 13, 3))
    w = SampledVectorField(grid=grid, values=w_values)
    once = project_tangent(u, w)
    twice = project_tangent(u, once)
    assert np.max(np.abs(once.values - twice.values)) < 1e-14
    tangential = _tangential_bump(grid)
    assert np.max(np.abs(project_tangent(u, tangential).values - tangential.values)) < 1e-13


def test_flow_stationary_at_normal():
    grid = verification_grid(4)
    n = normal_field(grid)
    result = gradient_flow(n, kappa=2.0, dt=0.02, steps=100, band_limit=4, record_every=10)
    assert result.max_distance <= 1e-9


def test_flow_returns_for_negative_kappa():
    grid = verification_grid(4)
    u0 = _perturbed_normal(grid, 0.05)
    result = gradient_flow(u0, kappa=-1.0, dt=0.02, steps=500, band_limit=4, record_every=25)
    assert result.final_distance <= 1e-3
    energies = [r.energy for r in result.records]
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))


def test_flow_escapes_for_positive_kappa():
    grid = verification_grid(4)
    u0 = _perturbed_normal(grid, 0.05)
    result = gradient_flow(u0, kappa=1.0, dt=0.02, steps=600, band_limit=4, record_every=25)
    assert result.final_distance > 0.5
    energies = [r.energy for r in result.records]
    assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))


def test_flow_keeps_unit_norm():
    grid = verification_grid(4)
    u0 = _perturbed_normal(grid, 0.1)
    result = gradient_flow(u0, kappa=-2.0, dt=0.01, steps=50, band_limit=4)
    norms = np.linalg.norm(result.state.field.values, axis=-1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_flow_rejects_unstable_dt():
    grid = verification_grid(4)
    u0 = normal_field(grid)
    with pytest.raises(ValueError):
        gradient_flow(u0, kappa=0.0, dt=0.06, steps=10, band_limit=4)


def test_flow_rejects_non_unit_start():
    grid = verification_grid(4)
    n = normal_field(grid)
    bad = SampledVectorField(grid=grid, values=2.0 * n.values)
    with pytest.raises(ValueError):
        gradient_flow(bad, kappa=0.0, dt=0.01, steps=10, band_limit=4)


@pytest.mark.parametrize(
    "count, message",
    [
        ({"steps": 0}, "need at least one step"),
        ({"record_every": 0}, "record_every must be positive"),
        ({"band_limit": 0}, "band limit must resolve at least degree 1"),
    ],
)
def test_flow_rejects_a_count_below_one(count, message):
    u0 = normal_field(verification_grid(4))
    with pytest.raises(ValueError, match=message):
        gradient_flow(u0, **{"kappa": 0.0, "dt": 0.01, "steps": 10, "band_limit": 4, **count})


def test_flow_keeps_the_max_degree_cap():
    # verification_grid(64) resolves band 65, and the scalar basis reaches it.
    u0 = normal_field(verification_grid(64))
    with pytest.raises(ValueError, match="band limit must resolve .* at most MAX_DEGREE = 64"):
        gradient_flow(u0, kappa=0.0, dt=1e-5, steps=1, band_limit=65)


@pytest.mark.parametrize("kappa, values", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)])
def test_flow_rejects_non_finite_input(kappa, values):
    grid = verification_grid(4)
    u0 = SampledVectorField(grid=grid, values=values * normal_field(grid).values)
    with pytest.raises(ValueError):
        gradient_flow(u0, kappa=kappa, dt=0.01, steps=10, band_limit=4)


@pytest.mark.parametrize(
    "kappa, message",
    [
        (1e17, "energy increased by .* at step 2; dt too large"),
        # The step's sample lengths overflow, or the start's energy already does.
        pytest.param(
            1e200, r"cannot normalize .* not finite \(one is inf\) at step 1$", id="1e+200-inf length at step 1"
        ),
        pytest.param(
            1e308,
            r"energy is inf at step 0; kappa times the anisotropy integral overflows$",
            id="1e+308-inf energy at step 0",
        ),
    ],
)
def test_flow_aborts_on_a_rising_or_non_finite_energy(kappa, message):
    u0 = _perturbed_normal(build_grid(10, 19), 0.05)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="^" + message):
            gradient_flow(u0, kappa=kappa, dt=0.02, steps=2, band_limit=4)


def test_flow_aborts_at_the_step_whose_energy_overflows():
    # A tiny step at a huge weight turns a nearly tangential start towards the normal:
    # its lengths stay finite, but kappa times its radial part overflows.
    grid = build_grid(10, 19)
    tilted = SampledVectorField(grid=grid, values=_tangential_bump(grid).values + 0.1 * normal_field(grid).values)
    u0 = normalize_field(tilted)
    with pytest.raises(RuntimeError, match=r"^energy is inf at step 1; kappa times the anisotropy integral overflows$"):
        gradient_flow(u0, kappa=1e308, dt=1e-200, steps=2, band_limit=4)


def test_flow_aborts_at_the_step_whose_doubled_force_overflows():
    # Far from the normal the start's energy stays finite (kappa times an anisotropy of
    # about 0.8), but kappa (u.n) at the nodes next to the poles overflows when doubled,
    # so the step's tangent part and its sample lengths are NaN.
    u0 = _perturbed_normal(build_grid(10, 19), 5.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=r"^cannot normalize .* not finite \(one is nan\) at step 1$"):
            gradient_flow(u0, kappa=1.7e308, dt=0.02, steps=2, band_limit=4)


@pytest.mark.parametrize(
    "perturb, step",
    # Near the normal the start's anisotropy is about 4 pi and its energy already -inf;
    # far from it the start is finite and the first step turns it towards the normal.
    [(0.01, 0), (10.0, 1)],
)
def test_flow_aborts_at_the_step_whose_energy_is_minus_inf(perturb, step):
    u0 = _perturbed_normal(build_grid(10, 19), perturb)
    message = rf"^energy is -inf at step {step}; kappa times the anisotropy integral overflows$"
    with pytest.raises(RuntimeError, match=message):
        gradient_flow(u0, kappa=-1e308, dt=1e-200, steps=2, band_limit=4)


def test_flow_aborts_at_the_step_whose_sample_lengths_overflow():
    # Without the guard the step divides by infinite lengths and accepts the all-zero iterate.
    # No errstate here: the flow keeps numpy's overflow quiet itself.
    u0 = _perturbed_normal(build_grid(10, 19), 0.05)
    with pytest.raises(RuntimeError, match=r"overflow or are not finite \(one is inf\) at step 1$"):
        gradient_flow(u0, kappa=1e300, dt=0.02, steps=1, band_limit=4)


@pytest.mark.parametrize("kappa", [-2.0, -1.0, -0.5, 0.25, 0.5, 1.0])
def test_flow_step_scales_the_distance_to_the_normal_by_one_plus_two_kappa_dt(kappa):
    # Along the degree-1 gradient mode the second variation at n is -kappa |v|^2
    # (the tangential constant 2), so each linearized step multiplies v by 1 + 2 kappa dt.
    dt = 0.005
    u0 = _perturbed_normal(build_grid(10, 19), 1e-6)
    result = gradient_flow(u0, kappa=kappa, dt=dt, steps=50, band_limit=4)
    distances = np.array([r.dist_plus for r in result.records])
    assert_allclose(distances[1:] / distances[:-1], 1.0 + 2.0 * kappa * dt, rtol=1e-8, atol=0)


def test_distance_to_normals():
    grid = build_grid(6, 13)
    n = normal_field(grid)
    d_plus, d_minus = distance_to_normals(n)
    assert d_plus < 1e-13
    assert_allclose(d_minus, 2.0, rtol=0, atol=1e-12)


def test_trajectory_csv(tmp_path):
    grid = verification_grid(4)
    u0 = _perturbed_normal(grid, 0.05)
    result = gradient_flow(u0, kappa=-1.0, dt=0.02, steps=40, band_limit=4, record_every=10)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(result, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,time,energy,dist_to_plus_n,dist_to_minus_n,residual_max"
    assert len(lines) == 1 + len(result.records)
    last = lines[-1].split(",")
    assert int(last[0]) == 40
    assert_allclose(float(last[1]), 0.8, rtol=1e-12)


def _reference_flow(u0, kappa, dt, steps, band_limit, record_every):
    """The original explicit flow loop, kept verbatim as a bitwise reference."""
    grid = u0.grid
    basis = scalar_basis(grid, band_limit)
    normal = normal_field(grid).values.reshape(-1, 3)
    weights = grid.weights.reshape(-1)
    shape = u0.values.shape

    u = normalize_field(u0).values.reshape(-1, 3)
    # The basis keeps its flat tables private, so the reference builds its own.
    matrix_flat = basis.matrix.reshape(len(basis.matrix), -1)
    weighted_flat = (basis.matrix * grid.weights).reshape(len(basis.matrix), -1)

    def truncated_coeffs(values):
        return weighted_flat @ values

    def energy_of(values, coeffs):
        dirichlet = float(np.sum(basis.eigenvalues[:, None] * coeffs * coeffs))
        radial = np.sum(values * normal, axis=-1)
        return dirichlet + kappa * float(np.sum(weights * radial * radial))

    def residual_max_of(values, coeffs):
        lap = matrix_flat.T @ (basis.eigenvalues[:, None] * coeffs)
        radial = np.sum(values * normal, axis=-1)
        effective = lap + kappa * radial[:, None] * normal
        res = np.cross(values, effective)
        return float(np.max(np.sqrt(np.sum(res * res, axis=-1))))

    def distances(values):
        d_plus = math.sqrt(float(np.sum(weights * np.sum((values - normal) ** 2, axis=-1))))
        d_minus = math.sqrt(float(np.sum(weights * np.sum((values + normal) ** 2, axis=-1))))
        scale = math.sqrt(FOUR_PI)
        return d_plus / scale, d_minus / scale

    coeffs = truncated_coeffs(u)
    energy = energy_of(u, coeffs)
    records = [FlowRecord(0, 0.0, energy, *distances(u), residual_max_of(u, coeffs))]

    for step in range(1, steps + 1):
        lap = matrix_flat.T @ (basis.eigenvalues[:, None] * coeffs)
        radial = np.sum(u * normal, axis=-1)
        grad = 2.0 * lap + 2.0 * kappa * radial[:, None] * normal
        grad -= np.sum(grad * u, axis=-1)[:, None] * u
        candidate = u - dt * grad
        candidate = matrix_flat.T @ (weighted_flat @ candidate)
        candidate /= np.sqrt(np.sum(candidate * candidate, axis=-1))[:, None]
        new_coeffs = truncated_coeffs(candidate)
        new_energy = energy_of(candidate, new_coeffs)
        assert new_energy <= energy + 1e-10
        u, coeffs, energy = candidate, new_coeffs, new_energy
        if step % record_every == 0 or step == steps:
            records.append(
                FlowRecord(step, step * dt, energy, *distances(u), residual_max_of(u, coeffs))
            )
    return records, u.reshape(shape)


@pytest.mark.parametrize("kappa", [-1.0, 1.0])
@pytest.mark.parametrize(
    "band, dt, steps, record_every",
    # The last case is the band-8 probe that the benchmark and the digest run, on 18 x 35.
    [(4, 0.02, 300, 1), (8, 0.01, 400, 25), (8, 0.5 / 72, 432, 1)],
)
def test_flow_matches_reference_loop_bitwise(kappa, band, dt, steps, record_every):
    grid = verification_grid(band)
    u0 = _perturbed_normal(grid, 0.05)
    result = gradient_flow(u0, kappa, dt, steps, band, record_every)
    records, final = _reference_flow(u0, kappa, dt, steps, band, record_every)
    assert result.records == records
    assert np.array_equal(result.state.field.values, final)


@pytest.mark.parametrize("kappa", [-1.0, 1.0])
@pytest.mark.parametrize("band", [10, 12])
def test_flow_above_the_dense_crossover_matches_reference_loop(kappa, band):
    # Above band 9 the scalar basis transforms through its separable tables, the
    # reference through the dense ones, so they agree to rounding, not bitwise.
    grid = verification_grid(band)
    u0 = _perturbed_normal(grid, 0.05)
    dt = 0.5 / (band * (band + 1))
    result = gradient_flow(u0, kappa, dt, 40, band)
    records, final = _reference_flow(u0, kappa, dt, 40, band, 1)
    assert_allclose([astuple(r) for r in result.records], [astuple(r) for r in records], rtol=1e-11, atol=0)
    assert_allclose(result.state.field.values, final, rtol=0, atol=1e-13)


@pytest.mark.parametrize("kappa", [-1.0, 2.0])
@pytest.mark.parametrize("band, dt, steps, record_every", [(4, 0.02, 100, 1), (8, 0.5 / 72, 60, 7)])
def test_flow_from_the_unperturbed_normal_matches_reference_loop_bitwise(kappa, band, dt, steps, record_every):
    # The start of `flow --perturb 0`: a stationary iterate, whose tangential
    # parts and residuals are zeros, so the field is compared with its signs.
    u0 = _perturbed_normal(verification_grid(band), 0.0)
    result = gradient_flow(u0, kappa, dt, steps, band, record_every)
    records, final = _reference_flow(u0, kappa, dt, steps, band, record_every)
    assert result.records == records
    assert result.state.field.values.tobytes() == final.tobytes()


def test_component_dot_bytes_are_the_summed_products():
    # Every pair of triples over signed zeros, ones, subnormals, an infinity and NaN,
    # one pair per node, and the stacked pair the distances reduce: a sum of three
    # -0.0 products (or of products that underflow to -0.0) is +0.0, as in np.sum.
    pool = np.array([0.0, -0.0, 1.0, -1.0, 1e-320, -1e-320, np.inf, np.nan])
    triples = np.array(list(itertools.product(pool, repeat=3)))
    a = np.repeat(triples, len(triples), axis=0)
    b = np.tile(triples, (len(triples), 1))
    rows = np.stack([a.T, b.T])
    with np.errstate(invalid="ignore"):
        products = a * b
        expected = np.sum(products, axis=-1)
        got = flow._dot(rows[0], rows[1], np.empty(len(a)), np.empty(rows[0].shape))
        stacked = flow._dot(rows, rows[::-1], np.empty((2, len(a))), np.empty(rows.shape))
    negative_zeros = np.all(products == 0.0, axis=-1) & np.all(np.signbit(products), axis=-1)
    assert negative_zeros.sum() > 0 and np.signbit(expected[negative_zeros]).sum() == 0
    assert got.tobytes() == expected.tobytes()
    assert stacked.tobytes() == np.stack([expected, expected]).tobytes()


@pytest.mark.parametrize("kappa", [-1.5, 0.0, 1.2])
def test_el_residual_is_the_cross_product_bitwise(kappa):
    grid = verification_grid(4)
    basis = scalar_basis(grid, 4)
    normal = normal_field(grid).values.reshape(-1, 3)
    for u in _unit_fields(grid, np.random.default_rng(7)):
        values = u.values.reshape(-1, 3)
        lap = basis.synthesize(basis.eigenvalues[:, None] * basis.analyze(values))
        radial = np.sum(values * normal, axis=-1)
        expected = np.cross(values, lap + kappa * radial[:, None] * normal)
        assert el_residual(u, kappa, 4).values.tobytes() == expected.reshape(u.values.shape).tobytes()


def test_diagnostics_match_flow_records():
    grid = verification_grid(4)
    u0 = _perturbed_normal(grid, 0.05)
    result = gradient_flow(u0, 1.0, 0.02, 300, 4, record_every=300)
    last = result.records[-1]
    u = result.state.field
    assert distance_to_normals(u) == (last.dist_plus, last.dist_minus)
    residual = el_residual(u, 1.0, 4)
    assert float(np.max(np.linalg.norm(residual.values, axis=-1))) == pytest.approx(
        last.residual_max, rel=1e-12
    )
    assert saturated_energy(u, 1.0, 4) == last.energy


def _unit_fields(grid, rng):
    """The normal, a perturbed normal and three random unit fields."""
    fields = [normal_field(grid), _perturbed_normal(grid, 0.05)]
    for _ in range(3):
        values = rng.standard_normal((grid.n_t, grid.n_phi, 3))
        fields.append(normalize_field(SampledVectorField(grid=grid, values=values)))
    return fields


@pytest.mark.parametrize("band", [2, 4, 8])
def test_saturated_energy_at_zero_kappa_is_the_scalar_route(band):
    grid = verification_grid(band)
    for u in _unit_fields(grid, np.random.default_rng(band)):
        assert saturated_energy(u, 0.0, band) == dirichlet_energy_scalar_route(u, band)


class _TransformOnly:
    """A scalar basis seen only through the four names the flow may use."""

    __slots__ = ("analyze", "synthesize", "eigenvalues", "dirichlet")

    def __init__(self, basis):
        self.analyze = basis.analyze
        self.synthesize = basis.synthesize
        self.eigenvalues = basis.eigenvalues
        self.dirichlet = basis.dirichlet


def _flow_outputs(u0, kappa, band):
    result = gradient_flow(u0, kappa, 0.02, 60, band, record_every=7)
    return (
        result.records,
        result.state.field.values.tobytes(),
        el_residual(u0, kappa, band).values.tobytes(),
        saturated_energy(u0, kappa, band),
    )


@pytest.mark.parametrize("kappa", [-1.0, 1.0])
def test_flow_needs_only_the_scalar_transform_interface(kappa, monkeypatch):
    grid = verification_grid(4)
    u0 = _perturbed_normal(grid, 0.05)
    expected = _flow_outputs(u0, kappa, 4)
    real = flow.scalar_basis
    monkeypatch.setattr(flow, "scalar_basis", lambda g, band: _TransformOnly(real(g, band)))
    assert _flow_outputs(u0, kappa, 4) == expected
