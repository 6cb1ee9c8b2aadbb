import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphere_poincare.cli import main

FOUR_PI = 4.0 * math.pi


def test_gamma_single_kappa(capsys):
    assert main(["gamma", "--kappa", "-4"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "kappa,gamma,gamma_plus,shifted"
    row = out[1].split(",")
    assert float(row[1]) == -2.0


def test_gamma_range_monotone(tmp_path):
    path = tmp_path / "gamma.csv"
    assert main(["gamma", "--range", "-10", "10", "201", "--out", str(path)]) == 0
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 202
    gammas = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b > a for a, b in zip(gammas, gammas[1:]))


def test_gamma_requires_argument(capsys):
    assert main(["gamma"]) == 2


def test_gamma_rejects_bad_range(tmp_path):
    assert main(["gamma", "--range", "5", "-5", "11"]) == 2


def test_gamma_deterministic_output(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["gamma", "--range", "-3", "3", "41", "--out", str(a)])
    main(["gamma", "--range", "-3", "3", "41", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize(
    "suite", ["orthonormality", "energy-routes", "inequality", "equality", "lemma"]
)
def test_verify_suites_pass(suite, capsys):
    assert main(["verify", "--suite", suite, "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "FAIL" not in out
    assert "tol=" in out  # tolerances listed next to residuals


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_verify_json_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code = main(
        ["verify", "--suite", "equality", "--seed", "3", "--json", "--out", str(path)]
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert payload["passed"] is True
    assert payload["parameters"]["seed"] == 3
    assert all({"name", "residual", "tolerance", "passed"} <= set(c) for c in payload["checks"])


def test_verify_lemma_json_report(capsys):
    assert main(["verify", "--suite", "lemma", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert all(type(c["passed"]) is bool for c in payload["checks"])


def test_verify_seed_env_override(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("SPHERE_POINCARE_SEED", "99")
    path = tmp_path / "report.json"
    main(["verify", "--suite", "equality", "--seed", "3", "--json", "--out", str(path)])
    payload = json.loads(path.read_text())
    assert payload["parameters"]["seed"] == 99


def test_minimize_below_regime_field_is_normal(tmp_path, capsys):
    prefix = tmp_path / "km8"
    code = main(["minimize", "--kappa", "-8", "--out", str(prefix)])
    assert code == 0
    coeff_lines = (tmp_path / "km8_coeffs.csv").read_text().strip().split("\n")
    assert coeff_lines[0] == "i,n,j,value"
    assert len(coeff_lines) == 2
    i, n, j, value = coeff_lines[1].split(",")
    assert (i, n, j) == ("1", "0", "0")
    assert_allclose(abs(float(value)), math.sqrt(FOUR_PI), rtol=1e-12)

    field_lines = (tmp_path / "km8_field.csv").read_text().strip().split("\n")
    assert field_lines[0] == "phi,t,ux,uy,uz"
    for line in field_lines[1:4]:
        phi, t, ux, uy, uz = (float(x) for x in line.split(","))
        s = math.sqrt(1.0 - t * t)
        expected = np.array([s * math.cos(phi), s * math.sin(phi), t])
        assert_allclose([ux, uy, uz], expected, rtol=0, atol=1e-12)


def test_minimize_above_regime(tmp_path, capsys):
    prefix = tmp_path / "k6"
    code = main(["minimize", "--kappa", "6", "--method", "numeric", "--out", str(prefix)])
    assert code == 0
    out = capsys.readouterr().out
    assert "closed-membership" in out and "numeric-membership" in out
    # tangential-dominant: the gradient-family coefficient beats the radial one
    rows = (tmp_path / "k6_coeffs.csv").read_text().strip().split("\n")[1:]
    table = {(r.split(",")[0], r.split(",")[1], r.split(",")[2]): float(r.split(",")[3]) for r in rows}
    assert abs(table[("2", "1", "0")]) > abs(table[("1", "1", "0")])


def test_minimize_critical_mixed(tmp_path):
    prefix = tmp_path / "km4"
    code = main(["minimize", "--kappa", "-4", "--c0", "1.5", "--out", str(prefix)])
    assert code == 0


def test_minimize_rejects_zero_direction(tmp_path, capsys):
    prefix = tmp_path / "bad"
    code = main(
        ["minimize", "--kappa", "6", "--direction", "0", "0", "0", "--out", str(prefix)]
    )
    assert code == 2


def test_minimize_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["minimize", "--kappa", "6", "--out", str(a)])
    main(["minimize", "--kappa", "6", "--out", str(b)])
    assert (tmp_path / "a_coeffs.csv").read_bytes() == (tmp_path / "b_coeffs.csv").read_bytes()
    assert (tmp_path / "a_field.csv").read_bytes() == (tmp_path / "b_field.csv").read_bytes()


def _flow_args(kappa, steps, out, perturb="0.05"):
    return [
        "flow",
        "--kappa", str(kappa),
        "--perturb", perturb,
        "--dt", "0.02",
        "--steps", str(steps),
        "--record-every", "10",
        "--out", str(out),
    ]


def test_flow_returned_verdict(tmp_path, capsys):
    path = tmp_path / "traj.csv"
    code = main(_flow_args(-1.0, 600, path))
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict = returned" in out
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,time,energy,dist_to_plus_n,dist_to_minus_n,residual_max"


def test_flow_escaped_verdict(tmp_path, capsys):
    code = main(_flow_args(1.0, 600, tmp_path / "traj.csv"))
    assert code == 0
    assert "verdict = escaped" in capsys.readouterr().out


def test_flow_stationary_verdict(tmp_path, capsys):
    code = main(_flow_args(2.0, 100, tmp_path / "traj.csv", perturb="0"))
    assert code == 0
    assert "verdict = stationary" in capsys.readouterr().out


def test_flow_rejects_unstable_dt(tmp_path, capsys):
    code = main(
        ["flow", "--kappa", "1", "--dt", "0.2", "--steps", "10", "--out", str(tmp_path / "t.csv")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv, seed_env",
    [
        (["gamma", "--kappa", "nan"], None),
        (["minimize", "--kappa", "inf", "--out", "{tmp}/m"], None),
        (["minimize", "--kappa", "6", "--grid", "1", "1", "--out", "{tmp}/m"], None),
        (["minimize", "--kappa", "6", "--c0", "1.5", "--out", "{tmp}/m"], None),
        (["verify", "--suite", "equality"], "abc"),
        (["flow", "--kappa", "1", "--dt", "0", "--out", "{tmp}/t.csv"], None),
        (["flow", "--kappa", "1", "--dt=-0.01", "--out", "{tmp}/t.csv"], None),
        (["gamma", "--kappa", "nan", "--out", "{tmp}/g.csv"], None),
    ],
)
def test_bad_input_gives_one_line_error(argv, seed_env, tmp_path, capsys, monkeypatch):
    if seed_env is not None:
        monkeypatch.setenv("SPHERE_POINCARE_SEED", seed_env)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []
