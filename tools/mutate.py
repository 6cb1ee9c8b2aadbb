"""Mutation checks: each row of ``MUTANTS`` is a source edit that named tests must catch.

    python3 tools/mutate.py

A row is (name, file, exact snippet, replacement, tests).  For each row
the tool copies ``src/``, ``tests/``, ``tools/`` and ``pyproject.toml``
of this checkout into a temporary directory, replaces the snippet there
(it must occur exactly once in the file) and runs the row's tests with
pytest.  The mutant is killed when a test fails (pytest exit 1).  Before
any mutant runs, every row's tests run once on an unmutated copy and
must pass, so a kill means a test caught the edit.  A mutant that breaks
collection or the run itself (an import or syntax error: pytest exit 2
or above) is an error, not a kill.

Prints one line per row (killed, survived, error or no-match, and
seconds) and exits nonzero unless every row is killed.  It takes about
a minute, so it is not part of the test suite.  A change that fixes a subtle
property adds the mutant that breaks it here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_COPIED = ("src", "tests", "tools", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


_BASIS_BYTES = "tests/test_basis_bytes.py"
_REFERENCE_FLOW = "tests/test_flow.py::test_flow_matches_reference_loop_bitwise"
_FRAME_ROUTE = "tests/test_vsh.py::test_frame_route_matches_the_dense_table"
_LEGENDRE_ORACLE = "tests/test_legendre_oracle.py"
_SEPARABLE_ROUTE = "tests/test_grid.py::test_separable_route_matches_the_dense_table"
_FAMILY_BLOCKS = "tests/test_vsh.py::test_block_built_matrix_is_the_per_mode_loop"
_BAD_INPUT = "tests/test_cli.py::test_bad_input_gives_one_line_error"
_CRITERION = "tests/test_acceptance.py::test_criterion_"
_RATE = "tests/test_flow.py::test_flow_step_scales_the_distance_to_the_normal_by_one_plus_two_kappa_dt"
_STACKED_SUITES = "tests/test_suites.py::test_stacked_suites_are_the_per_field_loop_bitwise"
_GRAM = "tests/test_vsh.py::test_gram_is_the_analysis_of_the_table_bytewise"
_BAND32_TRANSFORMS = "tests/test_vsh.py::test_band32_transforms_round_trip_are_adjoint_and_peak_near_the_tables"

MUTANTS = (
    # The scalar transform and its callers.
    Mutant(
        "grid: per-component Dirichlet sum",
        "src/sphere_poincare/grid.py",
        "return basis.dirichlet(basis.analyze(values.reshape(values.shape[:-3] + (-1, 3))))",
        "return sum(basis.dirichlet(basis.analyze(values[..., k].reshape(values.shape[:-3] + (-1, 1))))"
        " for k in range(3))",
        ("tests/test_flow.py::test_saturated_energy_at_zero_kappa_is_the_scalar_route",),
    ),
    Mutant(
        "grid: dirichlet without the eigenvalues",
        "src/sphere_poincare/grid.py",
        "terms = self.eigenvalues[:, None] * coeffs",
        "terms = 1.0 * coeffs",
        ("tests/test_grid.py::test_dirichlet_scalar_route_normal_field",),
    ),
    Mutant(
        "grid: synthesis through the weighted table",
        "src/sphere_poincare/grid.py",
        "return (coeffs.T @ self._table).T",
        "return (coeffs.T @ self._weighted).T",
        (_BASIS_BYTES + "::test_scalar_basis_bytes_match_reference",
         "tests/test_grid.py::test_scalar_roundtrip_band_limited"),
    ),
    Mutant(
        "flow: no band projection before renormalizing",
        "src/sphere_poincare/flow.py",
        "candidate = _synthesized(basis, basis.analyze(candidate.T))",
        "candidate = candidate",
        (_REFERENCE_FLOW,),
    ),
    Mutant(
        "cli: gamma --range accepts a fractional STEPS",
        "src/sphere_poincare/cli.py",
        "if not (steps.is_integer() and 1 <= steps <= _MAX_RANGE_STEPS):",
        "if not 1 <= steps <= _MAX_RANGE_STEPS:",
        ("tests/test_cli.py::test_bad_input_gives_one_line_error",),
    ),
    Mutant(
        "cli: --grid NPHI uncapped",
        "src/sphere_poincare/cli.py",
        "if n_t > _MAX_GRID_NT or n_phi > _MAX_GRID_NPHI:",
        "if n_t > _MAX_GRID_NT:",
        ("tests/test_cli.py::test_bad_input_gives_one_line_error",),
    ),
    # Batched oracles and grid lifetimes.
    Mutant(
        "spectral: _dirichlet sums rows first",
        "src/sphere_poincare/spectral.py",
        "nstar * (u2 * u2 + u3 * u3)\n    return np.sum(terms, axis=(-2, -1))",
        "nstar * (u2 * u2 + u3 * u3)\n    return np.sum(np.sum(terms, axis=-1), axis=-1)",
        ("tests/test_spectral.py::test_stacked_energy_kernels_are_the_per_table_functions",),
    ),
    Mutant(
        "spectral: _norm_sq sums families last",
        "src/sphere_poincare/spectral.py",
        "return np.sum(data * data, axis=(-3, -2, -1))",
        "return np.sum(np.sum(data * data, axis=(-2, -1)), axis=-1)",
        ("tests/test_spectral.py::test_stacked_energy_kernels_are_the_per_table_functions",),
    ),
    Mutant(
        "vsh: _random_tables draws transposed",
        "src/sphere_poincare/vsh.py",
        "data[:, mask] = rng.standard_normal((count, int(mask.sum())))",
        "data[:, mask] = rng.standard_normal((int(mask.sum()), count)).T",
        ("tests/test_vsh.py::test_random_tables_are_sequential_random_coeffs",),
    ),
    Mutant(
        "vsh: _random_tables rescaling sum reordered",
        "src/sphere_poincare/vsh.py",
        "current = np.sum(data * data, axis=(-3, -2, -1))",
        "current = np.sum(np.sum(data * data, axis=(-2, -1)), axis=-1)",
        ("tests/test_vsh.py::test_random_tables_are_sequential_random_coeffs",),
    ),
    Mutant(
        "eigensolver: libm pow squares the discriminant",
        "src/sphere_poincare/eigensolver.py",
        "np.sqrt((a - d) * (a - d) + 4.0 * b * b)",
        "np.sqrt((a - d) ** 2 + 4.0 * b * b)",
        ("tests/test_eigensolver.py::test_block_eigenvalues_of_all_degrees_are_min_eigenpair",),
    ),
    Mutant(
        "eigensolver: channel kinds swapped",
        "src/sphere_poincare/eigensolver.py",
        '"block" if i % 2 else "u3"',
        '"u3" if i % 2 else "block"',
        ("tests/test_eigensolver.py::test_gamma_numeric_is_the_per_degree_sweep",),
    ),
    Mutant(
        "vsh: VectorBasis holds its grid strongly",
        "src/sphere_poincare/vsh.py",
        "self._grid = weakref.ref(grid)",
        "self._grid = lambda: grid",
        ("tests/test_grid.py::test_grid_dies_with_its_last_reference",
         "tests/test_grid.py::test_cli_op_leaves_no_grid_alive"),
    ),
    Mutant(
        "grid: ScalarBasis holds its grid",
        "src/sphere_poincare/grid.py",
        "self.band_limit = band_limit\n",
        "self.band_limit = band_limit\n        self.grid = grid\n",
        ("tests/test_grid.py::test_grid_dies_with_its_last_reference",
         "tests/test_grid.py::test_cli_op_leaves_no_grid_alive"),
    ),
    Mutant(
        "spectral: one kappa's quadrature total drops the weighted anisotropy",
        "src/sphere_poincare/spectral.py",
        "EnergyBreakdown(dq, aq, dq + kappa * aq,",
        "EnergyBreakdown(dq, aq, dq,",
        ("tests/test_spectral.py::test_energy_report_normal_field",),
    ),
    Mutant(
        "suites: four energy_report calls per field",
        "src/sphere_poincare/suites.py",
        "analyzed[:, vsh._valid_mask(4)] = basis._analyze_values(fields)",
        "analyzed[:, vsh._valid_mask(4)] = basis._analyze_values(fields)\n"
        "    [spectral.energy_report(spectral.SampledVectorField(grid=grid, values=v), k, band_limit=4)"
        " for v in fields for k in (-8.0, -4.0, 0.0, 6.0)]",
        ("tests/test_suites.py::test_energy_routes_analyzes_each_field_once",),
    ),
    # The stacked suites against their per-field reference loop.
    Mutant(
        "spectral: the stacked quadrature norm reads field 0 for every field",
        "src/sphere_poincare/spectral.py",
        "return _integral(grid, _dot3(values, values))",
        "return _integral(grid, _dot3(*(values[(0,) * (values.ndim - 3)],) * 2))",
        (_STACKED_SUITES,),
    ),
    Mutant(
        "spectral: the stacked route gap drops the total-energy term",
        "src/sphere_poincare/spectral.py",
        "return np.maximum(terms, totals)",
        "return np.broadcast_to(terms, totals.shape)",
        (_STACKED_SUITES,),
    ),
    Mutant(
        "spectral: the stacked anisotropy reads field 0 for every field",
        "src/sphere_poincare/spectral.py",
        "radial = _dot3(values, grid.frame[2])",
        "radial = _dot3(values[(0,) * (values.ndim - 3)], grid.frame[2])",
        (_STACKED_SUITES,),
    ),
    Mutant(
        "eigensolver: the per-n_max channel degrees read at another n_max",
        "src/sphere_poincare/eigensolver.py",
        "n = np.arange(1, n_max + 1)",
        "n = np.arange(31 - n_max, 31)",
        ("tests/test_eigensolver.py::test_gamma_numeric_reads_the_parts_of_its_own_n_max",),
    ),
    Mutant(
        "eigensolver: the sweep reads weight 0 for every row",
        "src/sphere_poincare/eigensolver.py",
        "_block_entries(nstar, kappas[:, None])",
        "_block_entries(nstar, kappas[:1, None])",
        ("tests/test_eigensolver.py::test_gamma_numeric_reads_the_parts_of_its_own_n_max",),
    ),
    Mutant(
        "flow: perturbed cross product",
        "src/sphere_poincare/grid.py",
        "row -= np.multiply(a[k], b[j], out=scratch)",
        "row += np.multiply(a[k], b[j], out=scratch)",
        (_REFERENCE_FLOW,),
    ),
    Mutant(
        "flow: stale radial part after a step",
        "src/sphere_poincare/flow.py",
        "radial = _dot(candidate, normal, work.radial, work.rows)\n"
        "        new_energy = _finite(_energy(basis, coeffs, radial, weights, kappa, work), step)",
        "new_energy = _finite(_energy(basis, coeffs, _dot(candidate, normal, np.empty(len(weights)), work.rows),"
        " weights, kappa, work), step)",
        (_REFERENCE_FLOW,),
    ),
    # The lean flow step.
    Mutant(
        "grid: _dot3 without + 0.0",
        "src/sphere_poincare/grid.py",
        "    out += 0.0\n",
        "",
        ("tests/test_grid.py::test_dot3_bytes_are_the_summed_products",),
    ),
    Mutant(
        "flow: grad = force",
        "src/sphere_poincare/flow.py",
        "np.multiply(force, 2.0, out=grad)",
        "np.copyto(grad, force)",
        (_REFERENCE_FLOW,),
    ),
    Mutant(
        "flow: one residual column with its factors swapped",
        "src/sphere_poincare/grid.py",
        "zip(out, (1, 2, 0), (2, 0, 1))",
        "zip(out, (1, 0, 0), (2, 2, 1))",
        ("tests/test_flow.py::test_el_residual_is_the_cross_product_bitwise",),
    ),
    Mutant(
        "flow: _distances uses values - normal twice",
        "src/sphere_poincare/flow.py",
        "np.add(values, normal, out=minus)",
        "np.subtract(values, normal, out=minus)",
        (_REFERENCE_FLOW,),
    ),
    # The buffered flow step and record.
    Mutant(
        "flow: distances reduced over the stacked pair, not over the nodes",
        "src/sphere_poincare/flow.py",
        "np.add.reduce(squares, axis=-1)",
        "np.add.reduce(squares, axis=0)[:2]",
        (_REFERENCE_FLOW,),
    ),
    Mutant(
        "flow: the doubling folded into dt",
        "src/sphere_poincare/flow.py",
        "np.multiply(force, 2.0, out=grad)\n        _tangent_part(grad, u, grad, work)\n        grad *= dt\n",
        "np.copyto(grad, force)\n        _tangent_part(grad, u, grad, work)\n        grad *= 2.0 * dt\n",
        ("tests/test_flow.py::test_flow_aborts_at_the_step_whose_doubled_force_overflows",),
    ),
    Mutant(
        "flow: a record writes u - n over the iterate the next step reads",
        "src/sphere_poincare/flow.py",
        "np.subtract(values, normal, out=plus)",
        "np.subtract(values, normal, out=values)\n    np.copyto(plus, values)",
        (_REFERENCE_FLOW,),
    ),
    Mutant(
        "flow: the energy's weighted squares written over u.n before the force reads it",
        "src/sphere_poincare/flow.py",
        "weighted = np.multiply(weights, radial, out=work.scalar)",
        "weighted = np.multiply(weights, radial, out=radial)",
        (_REFERENCE_FLOW,),
    ),
    Mutant(
        "flow: per-node broadcasts with a row's scalar taken from the wrong node",
        "src/sphere_poincare/flow.py",
        "np.multiply(u, radial, out=work.rows)",
        "np.multiply(u, radial[::-1], out=work.rows)",
        (_REFERENCE_FLOW,),
    ),
    Mutant(
        "vsh: family 2 and 3 blocks read the scalar rows one row early",
        "src/sphere_poincare/vsh.py",
        "d_phi[1:], d_t[1:]",
        "d_phi[:-1], d_t[:-1]",
        (_BASIS_BYTES + "::test_vector_basis_bytes_match_reference",),
    ),
    # The frame-component vector transform above the crossover band.
    Mutant(
        "vsh: c3 with the sign of B u_phi flipped",
        "src/sphere_poincare/vsh.py",
        "a_u[1] - b_u[0]",
        "a_u[1] + b_u[0]",
        (_FRAME_ROUTE,),
    ),
    Mutant(
        "vsh: u_phi and u_t swapped in synthesis",
        "src/sphere_poincare/vsh.py",
        "u_phi, u_t = a_c[0] - b_c[1], b_c[0] + a_c[1]",
        "u_t, u_phi = a_c[0] - b_c[1], b_c[0] + a_c[1]",
        (_FRAME_ROUTE,),
    ),
    Mutant(
        "vsh: synthesis products transposed (A.T @ c[1:].T; same bits, more scratch)",
        "src/sphere_poincare/vsh.py",
        "a_c, b_c = c[1:] @ self._a, c[1:] @ self._b  # (2, nodes): families 2 and 3\n"
        "        u_phi, u_t = a_c[0] - b_c[1], b_c[0] + a_c[1]",
        "a_c, b_c = self._a.T @ c[1:].T, self._b.T @ c[1:].T\n"
        "        u_phi, u_t = a_c[:, 0] - b_c[:, 1], b_c[:, 0] + a_c[:, 1]",
        (_BAND32_TRANSFORMS,),
    ),
    Mutant(
        "vsh: family 3 of the frame analysis with its sign flipped",
        "src/sphere_poincare/vsh.py",
        "c2, c3 = a_u[0] + b_u[1], a_u[1] - b_u[0]",
        "c2, c3 = a_u[0] + b_u[1], b_u[0] - a_u[1]",
        (_BAND32_TRANSFORMS,),
    ),
    Mutant(
        "vsh: analysis stacks u.e_t above u.e_phi",
        "src/sphere_poincare/vsh.py",
        "[_dot3(weighted, eps_phi).reshape(-1), _dot3(weighted, eps_t).reshape(-1)]",
        "[_dot3(weighted, eps_t).reshape(-1), _dot3(weighted, eps_phi).reshape(-1)]",
        (_FRAME_ROUTE,),
    ),
    Mutant(
        "vsh: analysis reads B where A belongs",
        "src/sphere_poincare/vsh.py",
        "a_u, b_u = tangential @ self._a.T,",
        "a_u, b_u = tangential @ self._b.T,",
        (_FRAME_ROUTE,),
    ),
    Mutant(
        "vsh: tables A and B swapped",
        "src/sphere_poincare/vsh.py",
        "for table in (a, b))",
        "for table in (b, a))",
        (_FRAME_ROUTE,),
    ),
    Mutant(
        "vsh: radial family analyzed from the weighted samples (weights applied twice)",
        "src/sphere_poincare/vsh.py",
        "_dot3(u.values, normal)",
        "_dot3(weighted, normal)",
        (_FRAME_ROUTE,),
    ),
    Mutant(
        "vsh: radial family synthesized from the family-2 coefficients",
        "src/sphere_poincare/vsh.py",
        ".synthesize(c[0])",
        ".synthesize(c[1])",
        (_FRAME_ROUTE,),
    ),
    Mutant(
        "vsh: table B without 1/sqrt(n(n+1))",
        "src/sphere_poincare/vsh.py",
        "dx *= scale * s",
        "dx *= s",
        (_FRAME_ROUTE,),
    ),
    Mutant(
        "grid: crossover band 0",
        "src/sphere_poincare/grid.py",
        "_DENSE_MAX_BAND = 8",
        "_DENSE_MAX_BAND = 0",
        (_BASIS_BYTES + "::test_vector_transforms_bytes_are_the_dense_einsums",),
    ),
    Mutant(
        "cli: the flow's start perturbation scaled by 1 + 1e-6",
        "src/sphere_poincare/cli.py",
        "normal.values + args.perturb * bump.values",
        "normal.values + args.perturb * (1.0 + 1e-6) * bump.values",
        ("tests/test_flow_reference.py::test_band8_flow_matches_the_committed_reference",),
    ),
    Mutant(
        "suites: 900 instead of 1000 g-kappa draws",
        "src/sphere_poincare/suites.py",
        "map(identity_gaps, _draw_blocks(1000, 4, rng))",
        "map(identity_gaps, _draw_blocks(900, 4, rng))",
        ("tests/test_suites.py::test_fuzz_suites_keep_their_draws_in_blocks_of_100",),
    ),
    # The scipy Legendre oracle, the bulk field CSV and the shared parser.
    Mutant(
        "legendre: Y_{12,3} negated",
        "src/sphere_poincare/legendre.py",
        "_norm_factor(n, m) if m <= n else 0.0",
        "_norm_factor(n, m) * (-1.0 if (n, m) == (12, 3) else 1.0) if m <= n else 0.0",
        (_LEGENDRE_ORACLE,),
    ),
    Mutant(
        "legendre: one order's cosine and sine rows swapped in scalar_sh_table",
        "src/sphere_poincare/legendre.py",
        "cos, sin = np.cos(angle), np.sin(angle)",
        "cos, sin = np.cos(angle), np.sin(angle)\n    cos[2:3], sin[2:3] = np.sin(angle[2:3]), np.cos(angle[2:3])",
        (_BASIS_BYTES + "::test_scalar_basis_bytes_match_reference",),
    ),
    Mutant(
        "legendre: _norm_factor sign rule flipped for j > 10",
        "src/sphere_poincare/legendre.py",
        "sign = -1.0 if j % 2 else 1.0",
        "sign = -1.0 if (j % 2) != (j > 10) else 1.0",
        (_LEGENDRE_ORACLE,),
    ),
    Mutant(
        "grid: field CSV with the t and phi loops swapped",
        "src/sphere_poincare/grid.py",
        "itertools.product(map(repr, grid.t.tolist()), map(repr, grid.phi.tolist()))",
        "itertools.product(map(repr, grid.phi.tolist()), map(repr, grid.t.tolist()))",
        ("tests/test_grid.py::test_export_vector_field_csv_bytes_are_the_per_node_writer",),
    ),
    Mutant(
        "cli: build_parser's cache holds nothing",
        "src/sphere_poincare/cli.py",
        "@functools.cache\n",
        "@functools.lru_cache(maxsize=0)\n",
        ("tests/test_cli.py::test_main_builds_one_parser",),
    ),
    # The separable scalar transform above the scalar crossover band.
    Mutant(
        "grid: cosine and sine slots swapped in the separable gather",
        "src/sphere_poincare/grid.py",
        "(2 * np.abs(j) + (j > 0))",
        "(2 * np.abs(j) + (j < 0))",
        (_SEPARABLE_ROUTE,),
    ),
    Mutant(
        "grid: weighted trig table without w_phi",
        "src/sphere_poincare/grid.py",
        "self._trig, self._trig_w = trig, trig * grid.w_phi",
        "self._trig, self._trig_w = trig, trig",
        (_SEPARABLE_ROUTE,),
    ),
    Mutant(
        "grid: scalar crossover lowered to _DENSE_MAX_BAND",
        "src/sphere_poincare/grid.py",
        "self._dense = band_limit <= _DENSE_MAX_BAND + 1",
        "self._dense = band_limit <= _DENSE_MAX_BAND",
        (_BASIS_BYTES + "::test_scalar_basis_bytes_match_reference",),
    ),
    Mutant(
        "grid: separable table without the Condon-Shortley sign",
        "src/sphere_poincare/grid.py",
        "(x,) = _order_tables(band_limit, grid.t, grad=False)",
        "(x,) = _order_tables(band_limit, grid.t, grad=False)\n"
        "        x = x * (-1.0) ** np.arange(band_limit + 1)[:, None, None]",
        (_SEPARABLE_ROUTE,),
    ),
    # Gauss-Legendre nodes once per size and the dense vector table in family blocks.
    Mutant(
        "grid: Gauss-Legendre nodes left writable",
        "src/sphere_poincare/grid.py",
        "array.setflags(write=False)",
        "array.setflags(write=True)",
        ("tests/test_grid.py::test_grids_of_one_size_share_read_only_gauss_legendre_nodes",),
    ),
    Mutant(
        "vsh: family-3 cross product with its operands swapped",
        "src/sphere_poincare/vsh.py",
        "for block in (normal, gradient, curl))",
        "for block in (gradient, normal, curl))",
        (_FAMILY_BLOCKS,),
    ),
    Mutant(
        "vsh: family-2 scale sqrt(n(n+2))",
        "src/sphere_poincare/vsh.py",
        "np.sqrt(n * (n + 1))",
        "np.sqrt(n * (n + 2))",
        (_FAMILY_BLOCKS,),
    ),
    Mutant(
        "vsh: the cross product's second products in a fresh array, not in dY/dphi",
        "src/sphere_poincare/vsh.py",
        "curl)), d_phi)",
        "curl)), None)",
        ("tests/test_vsh.py::test_lazy_band20_matrix_peaks_one_family_block_above_the_table",),
    ),
    Mutant(
        "legendre: dP/dt without the (n+j) P_{n-1,j} term",
        "src/sphere_poincare/legendre.py",
        "below *= n + j",
        "below *= 0.0",
        (_LEGENDRE_ORACLE + "::test_legendre_tables_next_to_the_poles_are_50_digit_mpmath",),
    ),
    Mutant(
        "sharp: tau/sigma formed from a cancelled gamma - 2",
        "src/sphere_poincare/sharp.py",
        "if gap == 0.0:",
        "if False:",
        (_BAD_INPUT,),
    ),
    Mutant(
        "sharp: |sigma|^2 cancelled to zero is not caught",
        "src/sphere_poincare/sharp.py",
        "if sigma_sq <= 0.0:",
        "if False:",
        (_BAD_INPUT,),
    ),
    Mutant(
        "sharp: non-finite constants go into the table",
        "src/sphere_poincare/sharp.py",
        "if not (math.isfinite(gam) and",
        "if False and not (math.isfinite(gam) and",
        (_BAD_INPUT,),
    ),
    # One definition per relation: the block entries, the boundary ratio, the
    # default axis, the run epilogue; and the direction rescale.
    Mutant(
        "eigensolver: block off-diagonal with its sign flipped",
        "src/sphere_poincare/eigensolver.py",
        "-2.0 * np.sqrt(nstar)",
        "2.0 * np.sqrt(nstar)",
        ("tests/test_eigensolver.py::test_block_degree1",),
    ),
    Mutant(
        "sharp: boundary tau/sigma ratio sqrt(2)/3",
        "src/sphere_poincare/sharp.py",
        "return math.sqrt(2.0) / 2.0",
        "return math.sqrt(2.0) / 3.0",
        ("tests/test_sharp.py::test_build_minimizer_critical_family",),
    ),
    Mutant(
        "vsh: default order direction along j = -1",
        "src/sphere_poincare/vsh.py",
        "(0.0, 1.0, 0.0) if direction is None",
        "(1.0, 0.0, 0.0) if direction is None",
        ("tests/test_eigensolver.py::test_numeric_minimizer_above",),
    ),
    Mutant(
        "cli: a failed run exits 0",
        "src/sphere_poincare/cli.py",
        "return 0 if report.passed else 1",
        "return 0",
        ("tests/test_cli.py::test_run_epilogue_prints_writes_and_gives_the_exit_code",),
    ),
    Mutant(
        "vsh: direction squared without the rescale",
        "src/sphere_poincare/vsh.py",
        "if not 1e-150 <= largest <= 1e150:",
        "if False:",
        ("tests/test_cli.py::test_minimize_direction_scale_keeps_the_bytes",),
    ),
    # Each minimize option used only by its regime; a non-negative tolerance.
    Mutant(
        "sharp: a sign accepted from the boundary up",
        "src/sphere_poincare/sharp.py",
        "        if sign is not None:\n",
        "        if False:\n",
        (_BAD_INPUT,),
    ),
    Mutant(
        "sharp: a negative membership tolerance accepted",
        "src/sphere_poincare/sharp.py",
        "if not tol >= 0.0:",
        "if False:",
        ("tests/test_sharp.py::test_membership_check_rejects_a_negative_tolerance",),
    ),
    # One worst-violation reducer, and the inputs it now rejects.
    Mutant(
        "spectral: _worst drops a NaN (a plain max)",
        "src/sphere_poincare/spectral.py",
        "return math.nan if any(map(math.isnan, peaks)) else max([0.0, *peaks])",
        "return max([0.0, *peaks])",
        ("tests/test_worst.py",),
    ),
    Mutant(
        "grid: dirichlet of a coefficient vector is an outer product",
        "src/sphere_poincare/grid.py",
        "coeffs = coeffs.reshape(coeffs.shape[:-2] + (modes, -1))",
        "coeffs = coeffs",
        ("tests/test_grid.py::test_dirichlet_takes_the_coefficient_vector_analyze_returns",),
    ),
    Mutant(
        "flow: normalize_field divides by an overflowed length",
        "src/sphere_poincare/flow.py",
        "if not longest < math.inf:",
        "if False:",
        ("tests/test_flow.py::test_normalize_field_names_a_sample_whose_length_is_not_finite",),
    ),
    Mutant(
        "cli: flow row cap counts no first row",
        "src/sphere_poincare/cli.py",
        "1 + -(-args.steps // args.record_every) > _MAX_RANGE_STEPS",
        "-(-args.steps // args.record_every) > _MAX_RANGE_STEPS",
        ("tests/test_cli.py::test_flow_keeps_at_most_one_million_rows",),
    ),
    # The package namespace, the one-line parse errors and the short samples.
    Mutant(
        "package: one layer dropped from the re-export",
        "src/sphere_poincare/__init__.py",
        "from .vsh import *  # noqa: F403\n",
        "",
        ("tests/test_package.py::test_each_package_name_is_its_layers_object",),
    ),
    Mutant(
        "cli: argparse's usage-block error restored",
        "src/sphere_poincare/cli.py",
        "def error(self, message):",
        "def _one_line_error(self, message):",
        ("tests/test_cli.py::test_parse_error_gives_one_line_error",),
    ),
    Mutant(
        "cli: argparse's negative-number pattern restored",
        "src/sphere_poincare/cli.py",
        r'r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$"',
        r'r"^-\d+$|^-\d*\.\d+$"',
        ("tests/test_cli.py::test_exponent_form_negative_numbers_are_values",),
    ),
    Mutant(
        "flow: normalize_field squares a short sample",
        "src/sphere_poincare/flow.py",
        "rows[:, short] /= largest[short]",
        "pass",
        ("tests/test_flow.py::test_normalize_field_scales_a_short_sample_up_first",),
    ),
    Mutant(
        "flow: gradient_flow warns on an overflowing iterate",
        "src/sphere_poincare/flow.py",
        '@np.errstate(over="ignore", invalid="ignore")',
        "",
        (_BAD_INPUT, "tests/test_flow.py::test_flow_aborts_at_the_step_whose_sample_lengths_overflow"),
    ),
    # One PINNED tolerance of each suite loosened tenfold.
    Mutant(
        "suites: orthonormality round trip held to 1e-10",
        "src/sphere_poincare/suites.py",
        'Check("analyze-synthesize-roundtrip-band4", _worst([errors]), 1e-11)',
        'Check("analyze-synthesize-roundtrip-band4", _worst([errors]), 1e-10)',
        (_CRITERION + "6_orthonormality_and_transforms",),
    ),
    Mutant(
        "suites: energy-routes route gap held to 1e-7",
        "src/sphere_poincare/suites.py",
        'Check("route-equivalence-band4", _worst([route_gaps]), 1e-8)',
        'Check("route-equivalence-band4", _worst([route_gaps]), 1e-7)',
        (_CRITERION + "4_sequence_space_representation",),
    ),
    Mutant(
        "suites: inequality lower bound held to 1e-8",
        "src/sphere_poincare/suites.py",
        'Check("poincare-lower-bound", _worst(deficits), 1e-9)',
        'Check("poincare-lower-bound", _worst(deficits), 1e-8)',
        (_CRITERION + "2_poincare_inequality_fuzzing",),
    ),
    Mutant(
        "suites: equality boundary coexistence held to 1e-8",
        "src/sphere_poincare/suites.py",
        'Check("boundary-coexistence-kappa=-4", boundary, 1e-9)',
        'Check("boundary-coexistence-kappa=-4", boundary, 1e-8)',
        (_CRITERION + "3_equality_family",),
    ),
    Mutant(
        "suites: lemma closed-vs-numeric gap held to 1e-11",
        "src/sphere_poincare/suites.py",
        'Check("gamma-closed-vs-numeric", _worst(gaps), 1e-12)',
        'Check("gamma-closed-vs-numeric", _worst(gaps), 1e-11)',
        (_CRITERION + "1_sharp_constant_reproduction",),
    ),
    # Every other numeric PINNED tolerance loosened tenfold (a loop's row covers all its checks).
    Mutant(
        "suites: orthonormality Gram identity held to 1e-9",
        "src/sphere_poincare/suites.py",
        "float(np.max(np.abs(gram - np.eye(len(gram))))),\n            1e-10,",
        "float(np.max(np.abs(gram - np.eye(len(gram))))),\n            1e-9,",
        (_CRITERION + "6_orthonormality_and_transforms",),
    ),
    Mutant(
        "suites: energy-routes g_kappa identity held to 1e-11",
        "src/sphere_poincare/suites.py",
        'Check("g-kappa-identity", _worst(gaps), 1e-12)',
        'Check("g-kappa-identity", _worst(gaps), 1e-11)',
        (_CRITERION + "4_sequence_space_representation",),
    ),
    Mutant(
        "suites: energy-routes Parseval gap held to 1e-9",
        "src/sphere_poincare/suites.py",
        'Check("parseval-band4", _worst([parseval_gaps]), 1e-10)',
        'Check("parseval-band4", _worst([parseval_gaps]), 1e-9)',
        (_CRITERION + "4_sequence_space_representation",),
    ),
    Mutant(
        "suites: energy-routes normal-field Dirichlet energy held to 1e-8",
        "src/sphere_poincare/suites.py",
        "8.0 * math.pi),\n            1e-9,",
        "8.0 * math.pi),\n            1e-8,",
        (_CRITERION + "4_sequence_space_representation",),
    ),
    Mutant(
        "suites: energy-routes normal-field total held to 1e-8",
        "src/sphere_poincare/suites.py",
        "FOUR_PI * (kappa + 2.0)),\n            1e-9,",
        "FOUR_PI * (kappa + 2.0)),\n            1e-8,",
        (_CRITERION + "4_sequence_space_representation",),
    ),
    Mutant(
        "suites: inequality rewritten form held to 1e-8",
        "src/sphere_poincare/suites.py",
        'Check("rewritten-form-negative-kappa", _worst(deficits), 1e-9)',
        'Check("rewritten-form-negative-kappa", _worst(deficits), 1e-8)',
        (_CRITERION + "2_poincare_inequality_fuzzing",),
    ),
    Mutant(
        "suites: inequality tangential lower bound held to 1e-8",
        "src/sphere_poincare/suites.py",
        'Check("tangential-lower-bound", _worst(deficits), 1e-9)',
        'Check("tangential-lower-bound", _worst(deficits), 1e-8)',
        (_CRITERION + "5_tangential_sharp_constant",),
    ),
    Mutant(
        "suites: inequality tangential equality mode held to 1e-9",
        "src/sphere_poincare/suites.py",
        "2.0 * spectral.norm_sq(equal)),\n            1e-10,",
        "2.0 * spectral.norm_sq(equal)),\n            1e-9,",
        (_CRITERION + "5_tangential_sharp_constant",),
    ),
    Mutant(
        "suites: equality residuals held to 1e-9 (7 checks)",
        "src/sphere_poincare/suites.py",
        "abs(sharp.equality_residual(coeffs, kappa)),\n                1e-10,",
        "abs(sharp.equality_residual(coeffs, kappa)),\n                1e-9,",
        (_CRITERION + "3_equality_family",),
    ),
    Mutant(
        "suites: equality norms held to 1e-9 (7 checks)",
        "src/sphere_poincare/suites.py",
        "abs(spectral.norm_sq(coeffs) - FOUR_PI),\n                1e-10,",
        "abs(spectral.norm_sq(coeffs) - FOUR_PI),\n                1e-9,",
        (_CRITERION + "3_equality_family",),
    ),
    Mutant(
        "suites: lemma u3 channel held to 1e-11",
        "src/sphere_poincare/suites.py",
        'Check("minimizer-u3-channel-zero", _worst([u3_leaks]), 1e-12)',
        'Check("minimizer-u3-channel-zero", _worst([u3_leaks]), 1e-11)',
        (_CRITERION + "7_minimizer_structure",),
    ),
    Mutant(
        "suites: lemma degree >= 2 leak held to 1e-11",
        "src/sphere_poincare/suites.py",
        'Check("minimizer-no-degree>=2", _worst([high_leaks]), 1e-12)',
        'Check("minimizer-no-degree>=2", _worst([high_leaks]), 1e-11)',
        (_CRITERION + "7_minimizer_structure",),
    ),
    Mutant(
        "suites: lemma sign agreement held to 1e-11",
        "src/sphere_poincare/suites.py",
        'Check("minimizer-sign-agreement", _worst([sign_defects]), 1e-12)',
        'Check("minimizer-sign-agreement", _worst([sign_defects]), 1e-11)',
        (_CRITERION + "7_minimizer_structure",),
    ),
    # Each input path used alone, and no family option on the numeric member.
    Mutant(
        "cli: gamma takes --kappa and --range together",
        "src/sphere_poincare/cli.py",
        "if (args.kappa is None) == (args.range is None):",
        "if args.kappa is None and args.range is None:",
        (_BAD_INPUT,),
    ),
    Mutant(
        "cli: gamma --range accepts B < A",
        "src/sphere_poincare/cli.py",
        "if hi < lo:",
        "if False:",
        (_BAD_INPUT,),
    ),
    # The CLI reads only its argv, and minimize checks membership at the pinned 1e-8.
    Mutant(
        "cli: verify reads its seed from the environment",
        "src/sphere_poincare/cli.py",
        "def cmd_verify(args) -> int:\n",
        'def cmd_verify(args) -> int:\n    args.seed = int(__import__("os").environ.get("SPHERE_POINCARE_SEED", args.seed))\n',
        ("tests/test_cli.py::test_verify_reads_no_seed_from_the_environment",),
    ),
    Mutant(
        "cli: minimize membership tolerance tenfold",
        "src/sphere_poincare/cli.py",
        "from .suites import _MEMBERSHIP_TOL, SUITES, Check, _bool_check, run_suite",
        "from .suites import SUITES, Check, _bool_check, run_suite\n\n_MEMBERSHIP_TOL = 1e-7",
        ("tests/test_portable_outputs.py::test_portable_outputs_match_the_committed_listing",),
    ),
    Mutant(
        "cli: minimize --method numeric takes the family options",
        "src/sphere_poincare/cli.py",
        'if args.method == "numeric" and (args.sign, args.direction, args.c0) != (None, None, None):',
        "if False:",
        (_BAD_INPUT,),
    ),
    # One guard per boundary: the step's length check, the CLI's floating-point policy,
    # and the step's rate 1 + 2 kappa dt at the normal states.
    Mutant(
        "flow: the step divides by its lengths unchecked",
        "src/sphere_poincare/flow.py",
        "_unit_rows(candidate, candidate, work.scalar, work.rows)",
        "np.divide(candidate, np.sqrt(_dot(candidate, candidate, work.scalar, work.rows)), out=candidate)",
        ("tests/test_flow.py::test_flow_aborts_at_the_step_whose_sample_lengths_overflow",),
    ),
    Mutant(
        "cli: main without its floating-point policy",
        "src/sphere_poincare/cli.py",
        'with np.errstate(over="raise", divide="raise", invalid="raise"):',
        "if True:",
        (_BAD_INPUT,),
    ),
    Mutant(
        "flow: kappa scaled by 1.01 in the force",
        "src/sphere_poincare/flow.py",
        "np.multiply(radial, kappa, out=work.scalar)",
        "np.multiply(radial, 1.01 * kappa, out=work.scalar)",
        (_RATE,),
    ),
    Mutant(
        "flow: the step scaled by dt twice",
        "src/sphere_poincare/flow.py",
        "grad *= dt\n",
        "grad *= dt\n        grad *= dt\n",
        (_RATE,),
    ),
    # The component-major kernels: each pointwise dot starts from +0.0, the
    # samples leave in node order, and the separable route runs the same loop.
    Mutant(
        "flow: the component dot starts from its first product, not from +0.0",
        "src/sphere_poincare/grid.py",
        "return np.add.reduce(products, axis=-2, out=out)",
        "return np.add.reduce(products, axis=-2, out=out, initial=None)",
        ("tests/test_flow.py::test_component_dot_bytes_are_the_summed_products",),
    ),
    Mutant(
        "flow: a returned field reads the rows without transposing them back",
        "src/sphere_poincare/flow.py",
        "np.ascontiguousarray(rows.T).reshape(grid.n_t, grid.n_phi, 3)",
        "rows.reshape(grid.n_t, grid.n_phi, 3)",
        (_REFERENCE_FLOW,),
    ),
    Mutant(
        "flow: the force's Laplacian skips the degree-n eigenvalues",
        "src/sphere_poincare/flow.py",
        "lap = _synthesized(basis, basis.eigenvalues[:, None] * coeffs)",
        "lap = _synthesized(basis, coeffs)",
        ("tests/test_flow.py::test_flow_above_the_dense_crossover_matches_reference_loop",),
    ),
    # The portable byte contract.
    Mutant(
        "sharp: gamma table rows rounded to 15 digits",
        "src/sphere_poincare/sharp.py",
        'f"{kappa!r},{gam!r},',
        'f"{kappa!r},{gam:.15g},',
        ("tests/test_portable_outputs.py::test_portable_outputs_match_the_committed_listing",),
    ),
    Mutant(
        "sharp: the gamma table renders lines before every weight is checked",
        "src/sphere_poincare/sharp.py",
        "        _gamma_row(kappa)  # a bad weight raises before the first line exists",
        "        pass",
        (_BAD_INPUT,),
    ),
    Mutant(
        "sharp: the gamma table reads a one-shot iterable twice",
        "src/sphere_poincare/sharp.py",
        "kappas = list(kappas) if iter(kappas) is kappas else kappas",
        "kappas = kappas",
        ("tests/test_sharp.py::test_gamma_table_reads_a_generator_once_and_writes_every_row",),
    ),
    # The lemma's two minimizer shapes, an input guard that had no test, and the
    # Legendre tables one degree above MAX_DEGREE for the scalar energy route.
    Mutant(
        "eigensolver: the minimizer's guard deleted",
        "src/sphere_poincare/eigensolver.py",
        'raise ValueError(f"the first argmin channel {winners[0]} at kappa={kappa!r} is neither of the lemma\'s shapes")',
        "pass",
        ("tests/test_eigensolver.py::test_minimizer_builds_only_the_lemma_shapes",),
    ),
    Mutant(
        "vsh: from_csv's header check deleted",
        "src/sphere_poincare/vsh.py",
        'raise ValueError(f"unexpected header {header!r}")',
        "pass",
        ("tests/test_vsh.py::test_coeffset_csv_rejects_a_bad_header_or_field_count",),
    ),
    Mutant(
        "legendre: the tables stop at MAX_DEGREE",
        "src/sphere_poincare/legendre.py",
        "n_max <= MAX_DEGREE + 1:",
        "n_max <= MAX_DEGREE:",
        ("tests/test_grid.py::test_scalar_route_runs_one_degree_above_max_degree",),
    ),
    # Stacked dense transforms split over the CPUs, each table keeping its bits.
    Mutant(
        "vsh: analysis split over the node axis instead of the table axis",
        "src/sphere_poincare/vsh.py",
        "return _split_stack(\n"
        '            lambda v, out: np.einsum("mijk,...ijk->...m", matrix, v * weights, out=out), values, 3,'
        " matrix.shape[:1]\n        )",
        'return sum(np.einsum("mijk,...ijk->...m", matrix[:, h], values[..., h, :, :] * weights[h])'
        " for h in np.array_split(np.arange(matrix.shape[1]), 2))",
        (_GRAM, _STACKED_SUITES),
    ),
    Mutant(
        "vsh: the pool's chunks run under numpy's default floating-point policy",
        "src/sphere_poincare/vsh.py",
        "with np.errstate(**policy):",
        "with np.errstate():",
        ("tests/test_vsh.py::test_a_pool_chunk_keeps_the_callers_floating_point_policy",
         "tests/test_cli.py::test_a_floating_point_error_in_a_pool_chunk_is_one_error_line"),
    ),
    Mutant(
        "vsh: the caller's own chunk never written into the result",
        "src/sphere_poincare/vsh.py",
        "    kernel(first, head)\n",
        "    kernel(first, None)\n",
        ("tests/test_vsh.py::test_split_stacks_are_the_per_table_calls_bytewise",),
    ),
    Mutant(
        "vsh: concurrent.futures imported with the package",
        "src/sphere_poincare/vsh.py",
        "import itertools\nimport math\nimport os\n",
        "import concurrent.futures\nimport itertools\nimport math\nimport os\n",
        ("tests/test_package.py::test_import_loads_no_thread_pool",),
    ),
    # Every energy the flow accepts is finite, the start's included.
    Mutant(
        "flow: the start's energy unchecked",
        "src/sphere_poincare/flow.py",
        "energy = _finite(_energy(basis, coeffs, radial, weights, kappa, work), 0)",
        "energy = _energy(basis, coeffs, radial, weights, kappa, work)",
        ("tests/test_flow.py::test_flow_aborts_at_the_step_whose_energy_is_minus_inf",),
    ),
    Mutant(
        "flow: a step's energy checked only by the increase test",
        "src/sphere_poincare/flow.py",
        "new_energy = _finite(_energy(basis, coeffs, radial, weights, kappa, work), step)",
        "new_energy = _energy(basis, coeffs, radial, weights, kappa, work)",
        ("tests/test_cli.py::test_flow_whose_energy_overflows_to_minus_inf_is_one_error_line",),
    ),
    # One per-order factor table builds every harmonic table.
    Mutant(
        "legendre: sqrt2 also applied to the order-0 factor rows",
        "src/sphere_poincare/legendre.py",
        "x[1:] *= _SQRT2",
        "x *= _SQRT2",
        (_LEGENDRE_ORACLE + "::test_scalar_sh_table_rows_are_the_scipy_harmonics",),
    ),
    Mutant(
        "legendre: order-0 dY/dphi rows left as m X (-0.0 where X < 0)",
        "src/sphere_poincare/legendre.py",
        "    d_phi[np.arange(band_limit + 1) * np.arange(1, band_limit + 2)] = 0.0",
        "    pass",
        ("tests/test_legendre.py::test_table_rows_are_the_single_mode_rows_bytewise",),
    ),
    Mutant(
        "legendre: the order-0 wave left as cos(0 * phi) (NaN at a non-finite phi)",
        "src/sphere_poincare/legendre.py",
        "cos[0], sin[0] = 1.0, 0.0",
        "cos[0], sin[0] = cos[0], sin[0]",
        ("tests/test_legendre.py::test_order_zero_table_rows_ignore_a_non_finite_phi",),
    ),
    Mutant(
        "vsh: frame table A divided by s twice",
        "src/sphere_poincare/vsh.py",
        "x *= m[:, None, None, None] * scale / s",
        "x *= m[:, None, None, None] * scale / s / s",
        (_FRAME_ROUTE,),
    ),
    Mutant(
        "cli: verify accepts a negative seed",
        "src/sphere_poincare/cli.py",
        "if args.seed < 0:",
        "if False:",
        (_BAD_INPUT,),
    ),
    Mutant(
        "flow: the abort blames a non-finite iterate",
        "src/sphere_poincare/flow.py",
        "kappa times the anisotropy integral overflows\")",
        "the iterate is no longer finite\")",
        ("tests/test_flow.py::test_flow_aborts_at_the_step_whose_energy_overflows",
         "tests/test_cli.py::test_flow_whose_energy_overflows_to_minus_inf_is_one_error_line"),
    ),
)


def _copy_tree(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for name in _COPIED:
        source = os.path.join(REPO, name)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(dest, name), ignore=ignore)
        else:
            shutil.copy2(source, os.path.join(dest, name))


def _pytest(root: str, tests) -> int:
    """pytest's exit code for ``tests`` run against the tree at ``root``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(
        command, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def _matches(mutant: Mutant) -> int:
    with open(os.path.join(REPO, mutant.path), encoding="utf-8") as fh:
        return fh.read().count(mutant.snippet)


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'error (...)' for one row."""
    with tempfile.TemporaryDirectory(prefix="mutate-") as root:
        _copy_tree(root)
        path = os.path.join(root, mutant.path)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(source.replace(mutant.snippet, mutant.replacement))
        code = _pytest(root, mutant.tests)
    if code == 1:
        return "killed"
    if code == 0:
        return "survived"
    return "error (collection)" if code == 2 else f"error (exit {code})"


def main() -> int:
    tests = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutate-") as root:
        _copy_tree(root)
        code = _pytest(root, tests)
    if code != 0:
        print(f"the unmutated tests fail (pytest exit {code}); no mutant was run", file=sys.stderr)
        return 1
    failed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        count = _matches(mutant)
        outcome = run(mutant) if count == 1 else f"no-match ({count} occurrences)"
        failed += outcome != "killed"
        print(f"{outcome:<24} {time.perf_counter() - start:6.1f} s  {mutant.name}", flush=True)
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
