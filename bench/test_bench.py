"""Self-tests of the benchmark: python3 -m pytest bench -q

* every workload runs at a minimal op count and prints every metric that
  BENCHMARK.json names, with its unit, traced and untraced;
* rescaling latencies by the reference cancels a host slowdown but not a
  slower program;
* the oracles are not vacuous: a perturbed gamma value, a wrong flow
  verdict, a bad round trip and a failing text report each count as a
  failed op;
* no op of a full cli-mix cycle fails, kappa draws stay in the domain
  where the seed has no defect, and the inputs outside it are probed;
* op inputs are a pure function of the seed;
* without the program's sources the benchmark exits nonzero and prints no
  result.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from setup_probe import import_program  # noqa: E402

import_program()

import run  # noqa: E402
import workloads  # noqa: E402
from sphere_poincare import cli, sharp  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_every_metric_present_with_unit(name, trace, capsys):
    result = run.run_one(name, seed=5, seconds=0, trace=trace, import_s=0.0,
                         min_ops=3, setup_children=0, trace_ops=3)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
    assert result["attempted"] >= 3
    assert result["failed"] == 0
    assert result["correct"] is True
    assert "known seed defects, probed once outside the ops:" in capsys.readouterr().out


def test_reference_scaling_cancels_a_host_slowdown():
    lat = [0.010, 0.012, 0.050, 0.011] * 5
    refs = [0.002] * len(lat)
    base = run.reference_scaled_ms(lat, refs)
    # The same ops on a host 1.4x slower for a stretch: the references slow with them.
    slow = [x * (1.4 if 5 <= i < 15 else 1.0) for i, x in enumerate(lat)]
    slow_refs = [r * (1.4 if 5 <= i < 15 else 1.0) for i, r in enumerate(refs)]
    scaled = run.reference_scaled_ms(slow, slow_refs, window=0)
    assert scaled == pytest.approx(base)
    assert base[0] == pytest.approx(0.010 / 0.002 * run.Reference.NOMINAL_MS)
    # A slower program on the same host is not cancelled.
    assert run.reference_scaled_ms([x * 1.2 for x in lat], refs) == pytest.approx([x * 1.2 for x in base])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _judge_one(workload, inp):
    _, by_kind, _ = run.judge(workload, [inp], [workload.run(inp)])
    return by_kind


def test_gamma_oracle_counts_a_perturbed_value(monkeypatch, tmp_path):
    workload = workloads.CliMix(seed=1, workdir=str(tmp_path))
    inp = {"label": "gamma:single", "rows": 1, "argv": ["gamma", "--kappa=3.5"]}
    assert not _judge_one(workload, inp)

    original = sharp.gamma_plus
    monkeypatch.setattr(sharp, "gamma_plus", lambda kappa: original(kappa) * (1.0 + 1e-10))
    assert _judge_one(workload, inp) == {"oracle_miss": 1}


def test_gamma_oracle_table_level():
    buf = io.StringIO()
    sharp.write_gamma_table(buf, [-8.0, 6.0])
    good = buf.getvalue()
    assert workloads.gamma_table_misses(good, 2) == []
    row = good.splitlines()[2].split(",")
    row[1] = repr(float(row[1]) * (1.0 + 1e-10))
    bad = good.replace(good.splitlines()[2], ",".join(row))
    assert workloads.gamma_table_misses(bad, 2) == [6.0]
    assert workloads.gamma_table_misses(good, 3) is None


def test_flow_oracle_counts_a_wrong_verdict(monkeypatch, tmp_path):
    workload = workloads.CliMix(seed=1, workdir=str(tmp_path))
    inp = workload.flow_input(np.random.default_rng(0), "returned")
    assert inp["kappa"] < 0
    assert not _judge_one(workload, inp)

    monkeypatch.setattr(cli, "_flow_verdict", lambda result: "escaped")
    assert _judge_one(workload, inp) == {"verdict_wrong": 1}


def test_text_report_oracle_counts_a_failed_check(tmp_path):
    workload = workloads.CliMix(seed=1, workdir=str(tmp_path))
    inp = {"label": "verify:lemma", "argv": ["verify", "--suite", "lemma", "--seed", "3"]}
    assert workload.check(inp, workloads.Outcome(rc=0, stdout="result: PASS\n")).kind is None
    assert workload.check(inp, workloads.Outcome(rc=0, stdout="result: FAIL\n")).kind == "report_failed"
    assert workload.check(inp, workloads.Outcome(rc=1, stdout="result: FAIL\n")).kind == "exit_nonzero"


def test_no_op_of_a_cli_mix_cycle_fails(tmp_path):
    workload = workloads.CliMix(seed=3, workdir=str(tmp_path))
    inputs = [workload.make_input(i) for i in range(len(workload.mix))]
    _, by_kind, _ = run.judge(workload, inputs, [workload.run(i) for i in inputs])
    assert not by_kind


def test_known_defects_are_probed_with_the_ops_oracle(tmp_path):
    probed = workloads.probe_known_defects(str(tmp_path))
    assert len(probed) == len(workloads.known_defect_inputs(str(tmp_path)))
    for command, kind in probed:
        assert command.split()[0] in ("verify", "minimize", "gamma")
        assert kind is None or isinstance(kind, str)


def test_roundtrip_oracle_counts_a_bad_transform(monkeypatch, tmp_path):
    workload = workloads.RoundTripB20(seed=1, workdir=str(tmp_path))
    workload.band = 4  # small band: the oracle, not the scale, is under test
    workload.setup()
    inp = workload.make_input(0)
    assert not _judge_one(workload, inp)

    from sphere_poincare import vsh

    original = vsh.analyze

    def skewed(u, band_limit):
        out = original(u, band_limit)
        out.data[0, 0, band_limit] += 1e-9
        return out

    monkeypatch.setattr(vsh, "analyze", skewed)
    assert _judge_one(workload, inp) == {"roundtrip_miss": 1}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name, tmp_path):
    cls = workloads.WORKLOADS[name]

    def inputs(seed):
        workload = cls(seed=seed, workdir=str(tmp_path))
        if name == "roundtrip-b20":
            workload.band = 4
            workload.setup()
            return [workload.make_input(i).data.tolist() for i in range(25)]
        return [workload.make_input(i)["argv"] for i in range(25)]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_kappa_draws_stay_where_the_seed_has_no_defect(tmp_path):
    workload = workloads.CliMix(seed=0, workdir=str(tmp_path))
    kappas = []
    for i in range(400):
        inp = workload.make_input(i)
        if inp["argv"][0] == "gamma" and inp["rows"] > 1:
            lo, hi = (float(x) for x in inp["argv"][2:4])
            kappas += list(np.linspace(lo, hi, inp["rows"]))
        elif inp["argv"][0] != "verify":
            kappas.append(float(inp["argv"][1].split("=", 1)[1]))
    magnitudes = np.abs(kappas)
    assert magnitudes.min() >= workloads.KAPPA_MIN and magnitudes.max() <= workloads.KAPPA_MAX
    assert min(kappas) < -40 and max(kappas) > 40


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
