import argparse
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sphere_poincare import cli, flow, grid, vsh
from sphere_poincare.cli import RunReport, main
from sphere_poincare.suites import Check

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


def test_gamma_rejects_bad_range(tmp_path, capsys):
    assert main(["gamma", "--range", "5", "-5", "11"]) == 2
    assert capsys.readouterr().err == "error: --range A B STEPS needs A <= B\n"


def test_gamma_deterministic_output(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["gamma", "--range", "-3", "3", "41", "--out", str(a)])
    main(["gamma", "--range", "-3", "3", "41", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gamma_table_on_stdout_has_the_bytes_of_the_out_file(tmp_path, capsys):
    path = tmp_path / "g.csv"
    assert main(["gamma", "--range", "-10", "10", "201", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["gamma", "--range", "-10", "10", "201"]) == 0
    assert capsys.readouterr().out.encode() == path.read_bytes()


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_gamma_table_streams_its_rows(tmp_path):
    # VmHWM is the child's own peak; ru_maxrss would start from the forked test process's.
    script = textwrap.dedent(
        """
        import sys
        from sphere_poincare.cli import main

        def peak():
            with open("/proc/self/status") as fh:
                return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

        before = peak()
        assert main(["gamma", "--range", "0", "1", "200000", "--out", sys.argv[1]]) == 0
        print(peak() - before)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = tmp_path / "g.csv"
    run = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
    )
    assert path.read_bytes().count(b"\n") == 200001
    # 1.6 MiB measured, the weights' array; holding every row and line before writing peaked 54 MiB.
    assert int(run.stdout) <= 8 * 2**20


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


def test_verify_reads_no_seed_from_the_environment(capsys, monkeypatch):
    argv = ["verify", "--suite", "inequality", "--seed", "3", "--json"]
    assert main(argv) == 0
    unset = json.loads(capsys.readouterr().out)
    monkeypatch.setenv("SPHERE_POINCARE_SEED", "99")
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["parameters"]["seed"] == 3
    del unset["wall_time_s"], payload["wall_time_s"]
    assert payload == unset


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
    "argv",
    [
        ["gamma", "--kappa", "nan"],
        ["minimize", "--kappa", "inf", "--out", "{tmp}/m"],
        ["minimize", "--kappa", "6", "--grid", "1", "1", "--out", "{tmp}/m"],
        ["minimize", "--kappa", "6", "--c0", "1.5", "--out", "{tmp}/m"],
        ["flow", "--kappa", "1", "--dt", "0", "--out", "{tmp}/t.csv"],
        ["flow", "--kappa", "1", "--dt=-0.01", "--out", "{tmp}/t.csv"],
        ["gamma", "--kappa", "nan", "--out", "{tmp}/g.csv"],
        ["minimize", "--kappa", "6", "--out", "{tmp}/missing/m"],
        ["verify", "--suite", "equality", "--out", "{tmp}/missing/r.json"],
        ["flow", "--kappa", "nan", "--out", "{tmp}/t.csv"],
        ["flow", "--kappa", "1", "--perturb", "inf", "--out", "{tmp}/t.csv"],
        ["minimize", "--kappa", "-8", "--sign", "nan", "--out", "{tmp}/m"],
        ["gamma", "--range", "0", "inf", "3"],
        ["gamma", "--range", "0", "1", "1000001"],
        ["gamma", "--range", "0", "1", "2.5"],
        ["minimize", "--kappa", "1", "--grid", "131", "16", "--out", "{tmp}/m"],
        ["flow", "--kappa", "1", "--steps", "1", "--grid", "10", "260", "--out", "{tmp}/t.csv"],
        # Huge weights: gamma - 2 or |sigma|^2 cancels to zero, or kappa^2 overflows.
        ["minimize", "--kappa", "1e10", "--out", "{tmp}/m"],
        ["minimize", "--kappa=3.2668450216178864e+16", "--out", "{tmp}/m"],
        ["minimize", "--kappa", "1e154", "--out", "{tmp}/m"],
        ["gamma", "--kappa", "1e300", "--out", "{tmp}/g.csv"],
        ["gamma", "--kappa=-1e300"],
        # Options the regime does not use.
        ["minimize", "--kappa=-8", "--direction", "1", "0", "0", "--out", "{tmp}/m"],
        ["minimize", "--kappa=-8", "--c0", "0.3", "--out", "{tmp}/m"],
        ["minimize", "--kappa", "1", "--sign=-1", "--out", "{tmp}/m"],
        ["minimize", "--kappa=-4", "--sign", "1", "--out", "{tmp}/m"],
        # A perturbation whose squared length, or the perturbation itself, overflows.
        ["flow", "--kappa", "1", "--perturb", "1e300", "--out", "{tmp}/t.csv"],
        ["flow", "--kappa", "1", "--perturb", "1.7e308", "--out", "{tmp}/t.csv"],
        ["flow", "--kappa", "1", "--perturb", "1e200", "--steps", "3", "--out", "{tmp}/t.csv"],
        # A weight whose force, or the iterate it moves, overflows within the flow.
        ["flow", "--kappa", "1e300", "--steps", "2", "--out", "{tmp}/t.csv"],
        ["flow", "--kappa=-1e300", "--steps", "1", "--out", "{tmp}/t.csv"],
        # More than 1,000,000 trajectory rows.
        ["flow", "--kappa", "1", "--steps", "1000000000", "--out", "{tmp}/t.csv"],
        ["flow", "--kappa", "1", "--steps", "1000000", "--out", "{tmp}/t.csv"],
        ["flow", "--kappa", "1", "--steps", "9999991", "--record-every", "10", "--out", "{tmp}/t.csv"],
        # The eigensolver fixes the numeric member: no family option applies to it.
        ["minimize", "--kappa", "6", "--method", "numeric", "--direction", "1", "0", "0", "--out", "{tmp}/m"],
        ["minimize", "--kappa=-4", "--method", "numeric", "--c0", "1.5", "--out", "{tmp}/m"],
        ["minimize", "--kappa=-8", "--method", "numeric", "--sign=-1", "--out", "{tmp}/m"],
        # Both table inputs at once.
        ["gamma", "--kappa", "1", "--range", "0", "1", "3"],
        ["gamma", "--kappa", "1", "--range", "0", "1", "3", "--out", "{tmp}/g.csv"],
        # A step whose sample lengths overflow, and a weight whose numeric route overflows.
        ["flow", "--kappa", "1e300", "--steps", "1", "--out", "{tmp}/t.csv"],
        ["minimize", "--kappa=-1e300", "--out", "{tmp}/m"],
        ["minimize", "--kappa=-1e300", "--method", "numeric", "--out", "{tmp}/m"],
        # A descending table.
        ["gamma", "--range", "1", "0", "3"],
        # A negative seed, which equality and lemma once ran with and passed.
        ["verify", "--suite", "inequality", "--seed=-1"],
        ["verify", "--suite", "orthonormality", "--seed=-1"],
        ["verify", "--suite", "energy-routes", "--seed=-1"],
        ["verify", "--suite", "equality", "--seed=-1"],
        ["verify", "--suite", "lemma", "--seed=-1"],
        # A table whose last weight overflows: checked before the first line is written.
        ["gamma", "--range", "1", "1e300", "3", "--out", "{tmp}/g.csv"],
        ["gamma", "--range", "1", "1e300", "3"],
    ],
    # Each row keeps the id it had while this test also took an environment
    # seed, so no row changes its name; ids 4, 13 and 24 were the rows of
    # that seed and of the removed minimize --tol.
    ids=[f"argv{i}-None" for i in range(53) if i not in (4, 13, 24)],
)
def test_bad_input_gives_one_line_error(argv, tmp_path, capsys):
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("method", ["closed", "numeric"])
def test_floating_point_error_names_the_command_and_its_float_options(method, tmp_path, capsys):
    assert main(["minimize", "--kappa=-1e300", "--method", method, "--out", str(tmp_path / "m")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert captured.err == "error: minimize --kappa=-1e+300: overflow encountered in multiply\n"


def test_a_floating_point_error_in_a_pool_chunk_is_one_error_line(monkeypatch, capsys):
    # numpy's einsum sets no floating-point status, so the error comes from the weighting of
    # orthonormality's stacked analysis, under an underflow policy that the CLI's own keeps.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with np.errstate(under="raise"):
        assert main(["verify", "--suite", "orthonormality"]) == 0
    capsys.readouterr()
    random_tables = vsh._random_tables

    def tiny_last(*args, **kwargs):
        tables = random_tables(*args, **kwargs)
        with np.errstate(under="ignore"):
            tables[-1] *= 1e-307  # the last round trip, in the pool's chunk, underflows when weighted
        return tables

    monkeypatch.setattr(vsh, "_random_tables", tiny_last)
    with np.errstate(under="raise"):
        assert main(["verify", "--suite", "orthonormality"]) == 2
    assert capsys.readouterr() == ("", "error: verify: underflow encountered in multiply\n")


def test_flow_whose_energy_overflows_to_minus_inf_is_one_error_line(tmp_path, capsys):
    # The energy -inf passed the energy-increase test once, so this exited 0 with result PASS.
    argv = ["flow", "--kappa", "-1e308", "--dt", "1e-200", "--steps", "1", "--perturb", "10"]
    assert main(argv + ["--out", str(tmp_path / "t.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and list(tmp_path.iterdir()) == []
    assert captured.err == "error: energy is -inf at step 1; kappa times the anisotropy integral overflows\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gamma", "--kappa", "abc"],
        ["verify", "--suite", "nope"],
        ["flow", "--out", "{tmp}/x.csv"],
        ["minimize", "--kappa", "1", "--grid", "16", "--out", "{tmp}/m"],
        ["gamma", "--kappa", "1", "--out", "{tmp}/g.csv", "x\ny"],
        [],
        # minimize checks membership at its pinned 1e-8 and takes no tolerance.
        ["minimize", "--kappa", "6", "--tol", "nan", "--out", "{tmp}/m"],
        ["minimize", "--kappa", "1", "--tol=-1", "--out", "{tmp}/r"],
        ["minimize", "--kappa", "6", "--tol", "1e-6", "--out", "{tmp}/m"],
    ],
)
def test_parse_error_gives_one_line_error(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([arg.format(tmp=tmp_path) for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "exponent, decimal",
    [
        (["gamma", "--kappa", "-1e2"], ["gamma", "--kappa", "-100"]),
        (["gamma", "--kappa", "-1E+2"], ["gamma", "--kappa", "-100"]),
        (["gamma", "--range", "-1e2", "1", "3"], ["gamma", "--range", "-100", "1", "3"]),
        (
            ["minimize", "--kappa", "1", "--direction", "-1e-3", "0", "1"],
            ["minimize", "--kappa", "1", "--direction", "-0.001", "0", "1"],
        ),
    ],
)
def test_exponent_form_negative_numbers_are_values(exponent, decimal, tmp_path, capsys):
    outputs = []
    for name, argv in (("exponent", exponent), ("decimal", decimal)):
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        outputs.append([p.read_bytes() for p in sorted(tmp_path.glob(f"{name}*"))])
    assert outputs[0] == outputs[1]
    assert all(outputs[0])


@pytest.mark.parametrize("perturb", ["1.7e308", "1e300", "1e200"])
def test_an_overflowing_perturbation_is_named(perturb, tmp_path, capsys):
    # The perturbation itself overflows, or the start's squared lengths do.
    argv = ["flow", "--kappa", "1", "--perturb", perturb, "--steps", "3", "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: --perturb {float(perturb):g} gives no unit start field: ")
    assert list(tmp_path.iterdir()) == []


def test_flow_with_a_non_finite_energy_exits_2_without_a_trajectory(tmp_path, capsys):
    out = tmp_path / "t.csv"
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["flow", "--kappa=1e200", "--steps", "2", "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "error: cannot normalize a field whose sample lengths overflow or are not finite (one is inf) at step 1"
    )
    assert not out.exists()


# Rows: step 0, every record_every-th step and the last step.
@pytest.mark.parametrize(
    "steps, record_every, rows",
    [
        (432, 1, 433),
        (2500, 1, 2501),
        (999_999, 1, 1_000_000),
        (1_000_000, 1, 1_000_001),
        (9_999_990, 10, 1_000_000),
        (9_999_981, 10, 1_000_000),
        (9_999_991, 10, 1_000_001),
        (999_999_000, 1000, 1_000_000),
        (1_000_000_000, 1000, 1_000_001),
    ],
)
def test_flow_keeps_at_most_one_million_rows(steps, record_every, rows, tmp_path, capsys, monkeypatch):
    def reached(sizes):
        raise RuntimeError("grid reached")

    monkeypatch.setattr(cli, "_grid", reached)  # accepted runs stop before the grid
    argv = ["flow", "--kappa", "1", "--steps", str(steps), "--record-every", str(record_every)]
    assert main([*argv, "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert (err == "error: grid reached\n") == (rows <= 1_000_000)


def test_max_residual_keeps_a_nan():
    report = RunReport("c", {}, [Check("a", 0.0, 1.0), Check("b", math.nan, 1.0)], 0.0)
    assert math.isnan(report.max_residual)
    assert "max residual: nan" in report.to_text()
    assert math.isnan(json.loads(report.to_json())["max_residual"])
    finite = RunReport("c", {}, [Check("a", 0.5, 1.0), Check("b", 2.0, 1.0)], 0.0)
    assert finite.max_residual == 2.0
    assert RunReport("c", {}, [], 0.0).max_residual == 0.0


def test_grid_caps_are_accepted(tmp_path):
    argv = ["flow", "--kappa", "1", "--steps", "1", "--grid", "130", "259", "--out", str(tmp_path / "t.csv")]
    assert main(argv) == 0
    # The band cap too: its scalar transform holds about 9 MiB, not 2 GiB of dense tables.
    assert main(["flow", "--kappa=1", "--band", "64", "--dt", "1e-4", *argv[3:]]) == 0


def test_main_builds_one_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["gamma"]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["gamma", "--kappa", "abc"])
    assert exc.value.code == 2
    shared = str(tmp_path / "shared")
    assert main(["minimize", "--kappa", "6", "--direction", "1", "0", "0", "--out", str(tmp_path / "d")]) == 0
    assert main(["minimize", "--kappa", "6", "--out", shared]) == 0
    assert main(["verify", "--suite", "equality"]) == 0
    assert main(["flow", "--kappa", "1", "--steps", "2", "--out", str(tmp_path / "t.csv")]) == 0
    # One parser and its four subparsers, built by the first call only.
    assert len(built) == 5
    assert built[0] == "sphere-poincare"

    cli.build_parser.cache_clear()
    fresh = str(tmp_path / "fresh")
    assert main(["minimize", "--kappa", "6", "--out", fresh]) == 0
    assert len(built) == 10
    for suffix in ("_field.csv", "_coeffs.csv"):
        with open(shared + suffix, "rb") as a, open(fresh + suffix, "rb") as b:
            assert a.read() == b.read()


@pytest.mark.parametrize("kappa", ["-4", "1"])
@pytest.mark.parametrize("scale", ["1e300", "1e-170"])
def test_minimize_direction_scale_keeps_the_bytes(kappa, scale, tmp_path, capsys):
    # Squaring 1e300 overflows and 1e-170 underflows; both divide back to (1, 1, 0) exactly.
    for name, direction in (("unit", ["1", "1", "0"]), ("scaled", [scale, scale, "0"])):
        argv = ["minimize", f"--kappa={kappa}", "--direction", *direction, "--out", str(tmp_path / name)]
        assert main(argv) == 0
    for suffix in ("_coeffs.csv", "_field.csv"):
        assert (tmp_path / f"scaled{suffix}").read_bytes() == (tmp_path / f"unit{suffix}").read_bytes()
    assert len((tmp_path / "unit_coeffs.csv").read_text().splitlines()) > 2  # the direction is used


@pytest.mark.parametrize("as_json", [False, True])
def test_run_epilogue_prints_writes_and_gives_the_exit_code(as_json, tmp_path, capsys):
    args = argparse.Namespace(json=as_json)
    out = tmp_path / "report"
    for residual, code in ((0.5, 0), (2.0, 1)):
        assert cli._report(args, 0.0, "c", {"p": 1}, [Check("a", residual, 1.0)], str(out)) == code
        printed = capsys.readouterr().out
        assert out.read_text() == printed
        passed = json.loads(printed)["passed"] if as_json else printed.endswith("result: PASS\n")
        assert passed == (code == 0)


def test_every_output_file_goes_through_the_one_writer(tmp_path, monkeypatch, capsys):
    written = []
    write_text = grid._write_text

    def recording(path, chunks):
        written.append(path)
        write_text(path, chunks)

    for module in (cli, flow, grid, vsh):
        monkeypatch.setattr(module, "_write_text", recording)
    runs = [
        ["gamma", "--range", "-1", "1", "3", "--out", "g.csv"],
        ["verify", "--suite", "equality", "--out", "r.txt"],
        ["minimize", "--kappa", "6", "--out", "m"],
        ["flow", "--kappa", "1", "--steps", "2", "--out", "t.csv"],
    ]
    for argv in runs:
        assert main([*argv[:-1], str(tmp_path / argv[-1])]) == 0
    names = ["g.csv", "r.txt", "m_coeffs.csv", "m_field.csv", "t.csv"]
    assert written == [str(tmp_path / name) for name in names]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(names)
