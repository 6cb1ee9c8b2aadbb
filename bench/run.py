"""Benchmark of sphere_poincare: one workload, one seed, one run.

    python3 bench/run.py --workload roundtrip-b20 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Load is a closed loop with one client in one process: the next op starts
only after the previous one ends.  BLAS keeps its default thread count.

``--trace 0`` prints the end-to-end metrics (tracing off).  Ops run for
``--seconds`` and at least ``MIN_OPS`` (so at least ten latency samples lie
beyond p90), then every output is checked.  Latencies and throughput are
reported in ``ref_ms`` (see ``Reference``); their wall-clock values are
printed above the JSON line.  ``setup_s`` is the median of
fresh set-ups (import of sphere_poincare and of the workloads, plus the
workload's warm-up): this process's own, and one in a child interpreter
before, between and after the ``SEGMENTS`` parts of the timed loop.

``--trace 1`` prints the per-layer metrics.  It replays a fixed number of
ops per workload (so counts repeat exactly for a seed) once untraced and
once with every layer wrapped by ``tracing.Tracer``; the wall-time
difference is ``trace.overhead_frac``.  The spans are written to
``bench/_traces/<workload>.npz``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each op whose output is wrong or that errored
is counted in ``failed`` and broken out by kind above the JSON line;
``correct`` is true only when no op failed.  The inputs on which the seed
commit fails lie outside every workload; they are probed once a run and
listed above the JSON line, outside ``attempted`` and ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

from setup_probe import BENCH_DIR, ROOT, ProgramMissing, import_program

MIN_OPS = 100
# The timed loop runs in SEGMENTS parts.  Before, between and after them
# SETUP_CHILDREN fresh set-ups are timed in child interpreters, so the
# set-up samples span the run as the latencies do.
SEGMENTS = 4
SETUP_CHILDREN = 1
# Hard stop for the timed loop, so a run ends well inside 180 s even on a
# machine several times slower than the one the bounds were set on.
MAX_LOOP_S = 120.0
CHILD_TIMEOUT_S = 150.0


def run_ops(workload, indices, stop=None, reference=None):
    """Closed loop over op indices; returns (inputs, outcomes, latencies, refs, wall).

    With ``reference``, that computation is timed after every op, outside
    the op's latency; ``refs`` holds its times and ``wall`` excludes them.
    """
    inputs, outcomes, latencies, refs = [], [], [], []
    begin = time.perf_counter()
    for index in indices:
        inp = workload.make_input(index)
        start = time.perf_counter()
        outcome = workload.run(inp)
        end = time.perf_counter()
        inputs.append(inp)
        outcomes.append(outcome)
        latencies.append(end - start)
        if reference is not None:
            refs.append(reference())
        if stop is not None and stop(len(latencies), time.perf_counter() - begin):
            break
    return inputs, outcomes, latencies, refs, time.perf_counter() - begin - sum(refs)


class Reference:
    """A fixed computation, independent of the program, timed after every op.

    The host's speed moves between levels up to 1.4x apart, for seconds or
    for minutes, and every op moves with it.  Latencies are therefore also
    reported rescaled by the reference timed around them: ``ref_ms`` reads
    as milliseconds on a host where one reference call takes ``NOMINAL_MS``.
    A change to the program moves them; a change of host speed does not.
    """

    NOMINAL_MS = 2.5
    WINDOW = 4  # an op is rescaled by the median of the 2 * WINDOW + 1 nearest references

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.matrix = rng.random((200, 200))
        self.vector = rng.random(200)

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(30000):
            acc += i * i
        for _ in range(20):
            self.matrix @ self.vector
        return time.perf_counter() - start


def reference_scaled_ms(latencies, refs, window=Reference.WINDOW):
    """Each latency in ``ref_ms``: divided by the median of the references
    timed nearest to it and multiplied by ``Reference.NOMINAL_MS``."""
    scaled = []
    for i, lat in enumerate(latencies):
        local = statistics.median(refs[max(0, i - window):i + window + 1])
        scaled.append(lat / local * Reference.NOMINAL_MS)
    return scaled


def judge(workload, inputs, outcomes):
    """Verdicts, and failures counted by kind and by op."""
    verdicts = [workload.check(inp, out) for inp, out in zip(inputs, outcomes)]
    by_kind, by_op = Counter(), Counter()
    for inp, v in zip(inputs, verdicts):
        if v.kind:
            by_kind[v.kind] += 1
            by_op[op_label(inp)] += 1
    return verdicts, by_kind, by_op


def op_label(inp) -> str:
    if isinstance(inp, dict):
        return inp.get("label", inp["argv"][0])
    return "roundtrip"


def child_setup_s(name) -> float:
    """One fresh set-up, timed in a child interpreter by setup_probe.py."""
    child = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), name],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(child.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload_cls, seed, seconds, workdir, import_s, min_ops, setup_children):
    workload = workload_cls(seed, workdir)
    start = time.perf_counter()
    workload.setup()
    samples = [import_s + time.perf_counter() - start]
    reference = Reference()
    inputs, outcomes, lat, refs, wall = [], [], [], [], 0.0
    for segment in range(1, SEGMENTS + 1):
        samples += [child_setup_s(workload_cls.name) for _ in range(setup_children)]
        done = len(lat)

        def stop(n, elapsed):
            return ((SEGMENTS * (done + n) >= segment * min_ops and elapsed >= seconds / SEGMENTS)
                    or elapsed >= MAX_LOOP_S / SEGMENTS)

        part = run_ops(workload, range(done, 10**9), stop, reference)
        inputs += part[0]
        outcomes += part[1]
        lat += part[2]
        refs += part[3]
        wall += part[4]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples += [child_setup_s(workload_cls.name) for _ in range(setup_children)]
    _, by_kind, by_op = judge(workload, inputs, outcomes)
    failed = sum(by_kind.values())
    scaled = reference_scaled_ms(lat, refs)
    p90 = statistics.quantiles(scaled, n=10)[-1]
    metrics = {
        "setup_s": metric(statistics.median(samples), "s"),
        "op_ref_ms.p50": metric(statistics.median(scaled), "ref_ms"),
        "op_ref_ms.p90": metric(p90, "ref_ms"),
        "ops_per_ref_s": metric(len(lat) / (sum(scaled) / 1e3), "1/ref_s"),
        "peak_rss_mb": metric(peak, "MiB"),
        "ok_frac": metric(1.0 - failed / len(lat), "ratio"),
    }
    lat_ms = [x * 1e3 for x in lat]
    ref_q = statistics.quantiles([r * 1e3 for r in refs], n=4)
    notes = [
        f"ops {len(lat)} in {wall:.3f} s; latency samples {len(lat)}, "
        f"{sum(x > p90 for x in scaled)} beyond p90",
        f"wall clock: op_ms.p50 {statistics.median(lat_ms):.4f} ms, "
        f"op_ms.p90 {statistics.quantiles(lat_ms, n=10)[-1]:.4f} ms, ops_per_s {len(lat) / wall:.4f} 1/s",
        f"reference ms: quartiles {ref_q[0]:.4f} {ref_q[1]:.4f} {ref_q[2]:.4f} "
        f"(ref_ms = ms x {Reference.NOMINAL_MS} / nearby reference ms)",
        "setup samples (s): " + ", ".join(f"{s:.4f}" for s in samples),
        f"fail_frac = {failed / len(lat):.6f} ratio ({failed} of {len(lat)})",
    ]
    return metrics, len(lat), failed, by_kind, by_op, notes


def per_layer(workload_cls, seed, workdir, ops):
    from tracing import Tracer

    tracer = Tracer()
    workload = workload_cls(seed, workdir)
    tracer.install()
    try:
        with tracer.span("bench.setup", -1):
            workload.setup()
    finally:
        tracer.uninstall()
    indices = range(ops)
    plain = run_ops(workload, indices)
    tracer.install()
    try:
        traced_inputs, traced_outcomes = [], []
        begin = time.perf_counter()
        for index in indices:
            inp = workload.make_input(index)
            with tracer.span("bench.op", index):
                outcome = workload.run(inp)
            traced_inputs.append(inp)
            traced_outcomes.append(outcome)
        traced_wall = time.perf_counter() - begin
    finally:
        tracer.uninstall()
    tracer.write(os.path.join(BENCH_DIR, "_traces", f"{workload.name}.npz"))

    _, plain_kind, plain_op = judge(workload, plain[0], plain[1])
    verdicts, by_kind, by_op = judge(workload, traced_inputs, traced_outcomes)
    metrics = layer_metrics(tracer, verdicts)
    metrics["trace.overhead_frac"] = metric((traced_wall - plain[4]) / plain[4], "ratio")
    attempted = len(plain[1]) + len(traced_outcomes)
    failed = sum(plain_kind.values()) + sum(by_kind.values())
    notes = [
        f"ops {ops} untraced in {plain[4]:.3f} s, then traced in {traced_wall:.3f} s",
        f"spans {len(tracer.start)} written to bench/_traces/{workload.name}.npz",
    ]
    return metrics, attempted, failed, plain_kind + by_kind, plain_op + by_op, notes


def layer_metrics(tracer, verdicts) -> dict:
    totals = tracer.totals()
    counts, calls = tracer.counts, tracer.calls

    def spans(prefix):
        return sum(t["spans"] for n, t in totals.items() if n.startswith(prefix))

    def self_s(*names):
        return sum((totals[n]["self_s"] for n in names if n in totals), 0.0)

    def layer_self(layer):
        return sum(t["self_s"] for n, t in totals.items() if n.startswith(layer + "."))

    def total_s(name):
        return totals[name]["total_s"] if name in totals else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    steps = counts["flow.steps"]
    m = {
        "legendre.calls": metric(spans("legendre."), "count"),
        "legendre.self_s": metric(layer_self("legendre"), "s"),
    }
    for prefix, build, cache in (
        ("grid.scalar_basis", "grid.scalar_basis.build", "grid.scalar_basis"),
        ("vsh.basis", "vsh.basis.build", "vsh.vector_basis"),
    ):
        m[f"{prefix}.build_s"] = metric(total_s(build), "s")
        m[f"{prefix}.builds"] = metric(calls[build], "count")
        lookups, misses = tracer.cache_misses(cache, build)
        m[f"{prefix}.hit_ratio"] = metric(ratio(lookups - misses, lookups), "ratio")
        m[f"{prefix}.bytes"] = metric(counts[f"{prefix}.bytes"], "B")
    m.update({
        "grid.scalar_route_s": metric(self_s("grid.dirichlet_energy_scalar_route", "grid.scalar_analyze"), "s"),
        "grid.scalar_transform_calls": metric(counts["grid.scalar_transform.calls"], "count"),
        "grid.scalar_transform_flops_computed": metric(counts["grid.scalar_transform.flops"], "flop"),
        "grid.scalar_transform_bytes_computed": metric(counts["grid.scalar_transform.bytes"], "B"),
        "grid.csv_write_s": metric(total_s("grid.export_vector_field_csv"), "s"),
        "grid.csv_bytes": metric(counts["grid.csv_bytes"], "B"),
        "vsh.synthesize_s": metric(self_s("vsh.synthesize"), "s"),
        "vsh.analyze_s": metric(self_s("vsh.analyze"), "s"),
        "vsh.transform_calls": metric(counts["vsh.transform.calls"], "count"),
        "vsh.transform_flops_computed": metric(counts["vsh.transform.flops"], "flop"),
        "vsh.transform_bytes_computed": metric(counts["vsh.transform.bytes"], "B"),
        "vsh.roundtrip_resid_ratio": metric(max((v.roundtrip_ratio for v in verdicts), default=0.0), "ratio"),
        "spectral.route_gap_ratio": metric(max((v.route_gap_ratio for v in verdicts), default=0.0), "ratio"),
        "spectral.energy_report_self_s": metric(self_s("spectral.energy_report"), "s"),
        "spectral.calls": metric(spans("spectral."), "count"),
        "sharp.self_s": metric(layer_self("sharp"), "s"),
        "sharp.calls": metric(spans("sharp."), "count"),
        "sharp.oracle_misses": metric(sum(len(v.missed_kappas) for v in verdicts), "count"),
        "eigensolver.self_s": metric(layer_self("eigensolver"), "s"),
        "eigensolver.blocks_solved": metric(calls["eigensolver.min_eigenpair"], "count"),
        "flow.steps": metric(steps, "count"),
        "flow.step_ms": metric(ratio(self_s("flow.gradient_flow") * 1e3, steps), "ms"),
        "flow.aborts": metric(counts["flow.gradient_flow.raised.RuntimeError"], "count"),
        "flow.traj_csv_s": metric(total_s("flow.write_trajectory_csv"), "s"),
        "flow.matvec_flops_computed": metric(counts["flow.matvec_flops"], "flop"),
        "flow.matvec_bytes_computed": metric(counts["flow.matvec_bytes"], "B"),
    })
    for suite in ("orthonormality", "energy-routes", "inequality", "equality", "lemma"):
        m[f"suites.{suite}_s"] = metric(self_s(f"suites.{suite}"), "s")
    m["cli.self_s"] = metric(layer_self("cli"), "s")
    m["cli.exit_nonzero"] = metric(counts["cli.exit_nonzero"], "count")
    m["cli.exceptions"] = metric(
        sum(c for k, c in counts.items() if k.startswith("cli.main.raised.")), "count"
    )
    m["trace.spans"] = metric(len(tracer.start), "count")
    return m


def run_one(name, seed, seconds, trace, import_s, min_ops=MIN_OPS, setup_children=SETUP_CHILDREN,
            trace_ops=None) -> dict:
    """One workload run; the keyword arguments shrink it for the self-tests."""
    from workloads import WORKLOADS, probe_known_defects

    work_root = os.path.join(BENCH_DIR, "_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    try:
        if trace:
            ops = WORKLOADS[name].trace_ops if trace_ops is None else trace_ops
            result = per_layer(WORKLOADS[name], seed, workdir, ops)
        else:
            result = end_to_end(WORKLOADS[name], seed, seconds, workdir, import_s, min_ops, setup_children)
        defects = probe_known_defects(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, attempted, failed, by_kind, by_op, notes = result
    print(f"workload {name}  seed {seed}  trace {int(trace)}")
    for line in notes:
        print("  " + line)
    for key, m in metrics.items():
        print(f"  {key:<40} {m['value']!r:>24} {m['unit']}")
    print("  failures by kind: " + (", ".join(f"{k}={c}" for k, c in sorted(by_kind.items())) or "none"))
    print("  failures by op:   " + (", ".join(f"{k}={c}" for k, c in sorted(by_op.items())) or "none"))
    print("  known seed defects, probed once outside the ops:")
    for command, kind in defects:
        print(f"    {command:<40} {kind or 'passes (fixed)'}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own fresh interpreter, so peak RSS stays per workload."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 30,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            raise RuntimeError(f"workload {name} exited {child.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    return combined


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="roundtrip-b20, cli-mix or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The program's seed override must not replace the generated inputs.
    os.environ.pop("SPHERE_POINCARE_SEED", None)
    # Timed as setup_probe.py times a child set-up.
    start = time.perf_counter()
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    import_s = time.perf_counter() - start

    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        result = run_one(args.workload, args.seed, args.seconds, args.trace, import_s)
    else:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
