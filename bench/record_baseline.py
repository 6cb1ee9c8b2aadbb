"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/record_baseline.py --sets 2 --seeds 10 --out bench/baseline/seed.json

Each set runs every workload once per seed (seeds 1..N in set 1,
N+1..2N in set 2, and so on), untraced, then once traced with the first
seed.  For every end-to-end metric it reports the median, the quartiles
and the spread (third minus first quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them), and whether each spread
is within the metric's bound in BENCHMARK.json and below a third of it.
The record also names the machine: commit, nproc, numpy and OpenBLAS
versions and the BLAS thread count.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def machine() -> dict:
    import numpy as np

    info = {
        "commit": None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": np.__config__.CONFIG["Build Dependencies"]["blas"].get("version"),
        "blas_threads": None,
        "platform": platform.platform(),
    }
    try:
        info["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = fn()
                break
    return info


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["run_wall_s"] = time.perf_counter() - start
    result["wall_clock"] = next((x.strip() for x in lines if "wall clock:" in x), None)
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else 0.0
    return {
        "median": median, "q1": q1, "q3": q3, "spread": spread,
        "within_bound": spread <= bound, "below_third_of_bound": spread < bound / 3,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10, help="seeds per set")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    record = {"machine": machine(), "run_seconds": spec["run_seconds"], "sets": []}
    for set_index in range(args.sets):
        seeds = [set_index * args.seeds + i + 1 for i in range(args.seeds)]
        entry = {"seeds": seeds, "workloads": {}}
        for workload in workloads:
            runs = [run(workload, seed, spec["run_seconds"], 0) for seed in seeds]
            metrics = {
                name: summarize([r["metrics"][name]["value"] for r in runs], bound)
                for name, bound in bounds.items()
            }
            entry["workloads"][workload] = {
                "correct": [r["correct"] for r in runs],
                "attempted": [r["attempted"] for r in runs],
                "failed": [r["failed"] for r in runs],
                "run_wall_s": [r["run_wall_s"] for r in runs],
                "wall_clock": [r["wall_clock"] for r in runs],
                "metrics": metrics,
            }
            traced = run(workload, seeds[0], spec["run_seconds"], 1)
            entry["workloads"][workload]["traced"] = {
                k: v["value"] for k, v in traced["metrics"].items()
            }
            for name, s in metrics.items():
                print(f"set {set_index + 1} {workload:<14} {name:<12} median {s['median']:.6g} "
                      f"spread {s['spread']:.4f} (bound {bounds[name]})", flush=True)
        record["sets"].append(entry)
    if args.sets >= 2:
        record["second_vs_first"] = {
            w: {
                name: record["sets"][1]["workloads"][w]["metrics"][name]["median"]
                / record["sets"][0]["workloads"][w]["metrics"][name]["median"]
                for name in bounds
            }
            for w in workloads
        }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
