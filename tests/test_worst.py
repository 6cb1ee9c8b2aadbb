"""A check's residual is its worst violation, and a NaN anywhere in it fails the check.

Python's ``max`` keeps its first argument unless a later one is larger,
so it drops a NaN that does not come first.  Each case here puts one
NaN in the middle of a sweep.
"""

import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from sphere_poincare import cli, eigensolver, spectral
from sphere_poincare.cli import main
from sphere_poincare.grid import normal_field, verification_grid
from sphere_poincare.spectral import _worst


def test_worst_is_the_largest_violation_and_at_least_zero():
    assert _worst([1e-3, np.array([2.0, -5.0]), 3]) == 3.0
    assert _worst([np.array([[1.0, 4.0], [2.0, 0.5]]), 3.5]) == 4.0
    assert _worst([]) == 0.0
    assert _worst([np.empty((3, 0)), -2.0]) == 0.0
    for clamped in (_worst([-1.0]), _worst([-0.0]), _worst([np.array([-0.0])])):
        assert clamped == 0.0 and math.copysign(1.0, clamped) == 1.0


@pytest.mark.parametrize("position", range(4))
def test_worst_keeps_a_nan_anywhere(position):
    items = [0.5, np.array([1.0, 2.0]), 3.0, np.array([0.25])]
    items[position] = np.array([1.0, math.nan]) if position % 2 else math.nan
    assert math.isnan(_worst(items))


def test_worst_consumes_every_item_in_order():
    seen = []
    assert math.isnan(_worst(seen.append(i) or (math.nan if i == 0 else float(i)) for i in range(4)))
    assert seen == [0, 1, 2, 3]


def _spoil_call(monkeypatch, module, name, call, spoil):
    """The ``call``-th call (from 0) of ``module.name`` returns ``spoil`` of its result."""
    original = getattr(module, name)
    calls = itertools.count()

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        return spoil(result) if next(calls) == call else result

    monkeypatch.setattr(module, name, wrapper)


def _nan_row(values):
    values = values.copy()
    values[37] = math.nan
    return values


def _nan_field(values):
    values = values.copy()
    values[57] = math.nan
    return values


def _nan_weight(results):
    results = list(results)
    results[57] = (math.nan, results[57][1])
    return results


def _nan(result):
    return math.nan


@pytest.mark.parametrize(
    "suite, module, name, call, spoil, check",
    [
        # The g-kappa identity draws 10 blocks of 100 tables.
        ("energy-routes", spectral, "_g_kappa", 6, _nan_row, "g-kappa-identity"),
        # One quadrature term of field 57 of the 100 stacked fields.
        ("energy-routes", spectral, "_anisotropy_quadrature", 0, _nan_field, "route-equivalence-band4"),
        # Blocks 0-9 are the lower bound, 10-11 the rewritten form, 12-16 the tangential bound.
        ("inequality", spectral, "_dirichlet", 4, _nan_row, "poincare-lower-bound"),
        ("inequality", spectral, "_dirichlet", 11, _nan_row, "rewritten-form-negative-kappa"),
        ("inequality", spectral, "_dirichlet", 14, _nan_row, "tangential-lower-bound"),
        # The structure sweep of 201 weights comes first, then the comparison of 200.
        ("lemma", eigensolver, "_sweep", 1, _nan_weight, "gamma-closed-vs-numeric"),
    ],
)
def test_one_nan_in_a_sweep_fails_its_check(suite, module, name, call, spoil, check, monkeypatch, capsys):
    _spoil_call(monkeypatch, module, name, call, spoil)
    code = main(["verify", "--suite", suite, "--json"])
    report = json.loads(capsys.readouterr().out)
    failed = {c["name"]: c["residual"] for c in report["checks"] if not c["passed"]}
    assert list(failed) == [check]
    assert math.isnan(failed[check])
    assert math.isnan(report["max_residual"])
    assert code == 1


def test_a_nan_quadrature_term_is_the_route_gap(monkeypatch):
    monkeypatch.setattr(spectral, "anisotropy_energy_quadrature", _nan)
    report = spectral.energy_report(normal_field(verification_grid(4)), -8.0, band_limit=4)
    assert math.isnan(report.route_gap)


def test_a_nan_energy_fails_the_monotone_check(tmp_path, monkeypatch, capsys):
    flow = cli.gradient_flow

    def spoiled(*args, **kwargs):
        result = flow(*args, **kwargs)
        result.records[2] = dataclasses.replace(result.records[2], energy=math.nan)
        return result

    monkeypatch.setattr(cli, "gradient_flow", spoiled)
    code = main(["flow", "--kappa=-1", "--steps", "5", "--json", "--out", str(tmp_path / "t.csv")])
    report = json.loads(capsys.readouterr().out)
    residuals = {c["name"]: c["residual"] for c in report["checks"]}
    assert math.isnan(residuals["energy-monotone"])
    assert math.isnan(report["max_residual"])
    assert code == 1
