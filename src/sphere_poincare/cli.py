"""Command-line interface: gamma tables, verification suites, minimizer
construction and gradient-flow runs.

All outputs are CSV-first (plot-ready); reports can be emitted as JSON
with --json.  Identical command and seed give byte-identical files.
The environment variable SPHERE_POINCARE_SEED overrides --seed.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .eigensolver import numeric_minimizer
from .flow import _unit_gap, gradient_flow, normalize_field, write_trajectory_csv
from .grid import FOUR_PI, SampledVectorField, build_grid, export_vector_field_csv, normal_field
from .sharp import (
    build_minimizer,
    classify_regime,
    equality_residual,
    gamma,
    membership_check,
    write_gamma_table,
)
from .spectral import norm_sq
from .suites import SUITES, Check, _bool_check, run_suite
from .vsh import CoeffSet, synthesize


@dataclass
class RunReport:
    """Per-run record: command echo, parameters, checks, timing."""

    command: str
    parameters: dict
    checks: list[Check]
    wall_time_s: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max((c.residual for c in self.checks), default=0.0)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for key, value in self.parameters.items():
            lines.append(f"  {key} = {value}")
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"[{status}] {c.name}: residual={c.residual:.3e} tol={c.tolerance:.3e}")
        lines.append(f"max residual: {self.max_residual:.3e}")
        lines.append(f"wall time: {self.wall_time_s:.3f} s")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "parameters": self.parameters,
                "checks": [
                    {
                        "name": c.name,
                        "residual": c.residual,
                        "tolerance": c.tolerance,
                        "passed": c.passed,
                    }
                    for c in self.checks
                ],
                "max_residual": self.max_residual,
                "wall_time_s": self.wall_time_s,
                "passed": self.passed,
            },
            indent=2,
        )


def _resolve_seed(seed: int) -> int:
    env = os.environ.get("SPHERE_POINCARE_SEED")
    try:
        return seed if env is None else int(env)
    except ValueError:
        raise ValueError(f"SPHERE_POINCARE_SEED must be an integer, got {env!r}") from None


def _emit(report: RunReport, as_json: bool, out_path=None) -> None:
    text = report.to_json() if as_json else report.to_text()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_gamma(args) -> int:
    if args.kappa is None and args.range is None:
        raise ValueError("provide --kappa or --range")
    if args.kappa is not None:
        kappas = [args.kappa]
    else:
        lo, hi, steps = args.range
        steps = int(steps)
        if steps < 1 or hi < lo:
            raise ValueError("bad range")
        kappas = np.linspace(lo, hi, steps)
    # Rendered before --out is opened, so a bad weight leaves no file behind.
    table = io.StringIO()
    write_gamma_table(table, kappas)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(table.getvalue())
    else:
        sys.stdout.write(table.getvalue())
    return 0


def cmd_verify(args) -> int:
    seed = _resolve_seed(args.seed)
    start = time.perf_counter()
    checks = run_suite(args.suite, seed)
    report = RunReport(
        command=f"verify --suite {args.suite}",
        parameters={"suite": args.suite, "seed": seed},
        checks=checks,
        wall_time_s=time.perf_counter() - start,
    )
    _emit(report, args.json, args.out)
    return 0 if report.passed else 1


def cmd_minimize(args) -> int:
    start = time.perf_counter()
    kappa = args.kappa
    regime = classify_regime(kappa)
    if regime.value == "below":
        kwargs = {"sign": args.sign}
    else:
        kwargs = {"direction": tuple(args.direction)}
        if args.c0 is not None:
            kwargs["c0"] = args.c0
    _, closed = build_minimizer(kappa, **kwargs)
    numeric = numeric_minimizer(kappa)
    chosen = closed if args.method == "closed" else numeric

    grid = build_grid(args.grid[0], args.grid[1])
    field = synthesize(chosen, grid)
    coeff_path = f"{args.out}_coeffs.csv"
    field_path = f"{args.out}_field.csv"
    chosen.to_csv(coeff_path)
    export_vector_field_csv(field, field_path)

    tol = args.tol
    checks = [
        Check("closed-equality-residual", abs(equality_residual(closed, kappa)), 1e-10),
        Check("closed-norm-4pi", abs(norm_sq(closed) - FOUR_PI), 1e-10),
        _bool_check("closed-membership", membership_check(closed, kappa, tol)),
        _bool_check("numeric-membership", membership_check(numeric, kappa, tol)),
    ]
    report = RunReport(
        command=f"minimize --kappa {kappa:g} --method {args.method}",
        parameters={
            "kappa": kappa,
            "regime": regime.value,
            "gamma": gamma(kappa),
            "method": args.method,
            "membership_tol": tol,
            "coeffs_csv": coeff_path,
            "field_csv": field_path,
        },
        checks=checks,
        wall_time_s=time.perf_counter() - start,
    )
    _emit(report, args.json)
    return 0 if report.passed else 1


def _flow_verdict(result) -> str:
    if result.max_distance <= 1e-6:
        return "stationary"
    if result.final_distance <= 1e-3:
        return "returned"
    if result.final_distance > 0.5:
        return "escaped"
    return "undecided"


def cmd_flow(args) -> int:
    start = time.perf_counter()
    grid = build_grid(args.grid[0], args.grid[1])
    normal = normal_field(grid)
    mode = CoeffSet(1)
    mode[(2, 1, 0)] = math.sqrt(FOUR_PI)
    bump = synthesize(mode, grid)
    u0 = normalize_field(
        SampledVectorField(grid=grid, values=normal.values + args.perturb * bump.values)
    )
    result = gradient_flow(
        u0,
        args.kappa,
        dt=args.dt,
        steps=args.steps,
        band_limit=args.band,
        record_every=args.record_every,
    )
    write_trajectory_csv(result, args.out)

    monotone_gap = max(
        (
            later.energy - earlier.energy
            for earlier, later in zip(result.records, result.records[1:])
        ),
        default=0.0,
    )
    verdict = _flow_verdict(result)
    checks = [
        Check("energy-monotone", max(monotone_gap, 0.0), 1e-10),
        Check("unit-norm", _unit_gap(result.state.field.values), 1e-12),
    ]
    report = RunReport(
        command=f"flow --kappa {args.kappa:g}",
        parameters={
            "kappa": args.kappa,
            "perturb": args.perturb,
            "dt": args.dt,
            "steps": args.steps,
            "band": args.band,
            "final_distance": result.final_distance,
            "verdict": verdict,
            "trajectory_csv": args.out,
        },
        checks=checks,
        wall_time_s=time.perf_counter() - start,
    )
    _emit(report, args.json)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sphere-poincare",
        description="Sharp Poincare-type inequality on the sphere: tables, "
        "verification suites, equality-family fields and stability flows.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gamma = sub.add_parser("gamma", help="sharp-constant table as CSV")
    p_gamma.add_argument("--kappa", type=float, default=None)
    p_gamma.add_argument(
        "--range", nargs=3, type=float, metavar=("A", "B", "STEPS"), default=None
    )
    p_gamma.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_gamma.set_defaults(func=cmd_gamma)

    p_verify = sub.add_parser("verify", help="run an invariant battery")
    p_verify.add_argument("--suite", required=True, choices=sorted(SUITES))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None, help="write the report here too")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_min = sub.add_parser("minimize", help="build an equality-family field")
    p_min.add_argument("--kappa", type=float, required=True)
    p_min.add_argument("--method", choices=("closed", "numeric"), default="closed")
    p_min.add_argument(
        "--direction", nargs=3, type=float, default=(0.0, 1.0, 0.0),
        metavar=("D-1", "D0", "D+1"),
    )
    p_min.add_argument("--sign", type=float, default=1.0)
    p_min.add_argument("--c0", type=float, default=None)
    p_min.add_argument("--grid", nargs=2, type=int, default=(16, 33), metavar=("NT", "NPHI"))
    p_min.add_argument("--tol", type=float, default=1e-8, help="membership tolerance")
    p_min.add_argument("--out", required=True, help="output file prefix")
    p_min.add_argument("--json", action="store_true")
    p_min.set_defaults(func=cmd_minimize)

    p_flow = sub.add_parser("flow", help="projected gradient flow from a perturbed normal state")
    p_flow.add_argument("--kappa", type=float, required=True)
    p_flow.add_argument("--perturb", type=float, default=0.05)
    p_flow.add_argument("--dt", type=float, default=0.02)
    p_flow.add_argument("--steps", type=int, default=2500)
    p_flow.add_argument("--band", type=int, default=4)
    p_flow.add_argument("--grid", nargs=2, type=int, default=(10, 19), metavar=("NT", "NPHI"))
    p_flow.add_argument("--record-every", type=int, default=1)
    p_flow.add_argument("--out", required=True, help="trajectory CSV path")
    p_flow.add_argument("--json", action="store_true")
    p_flow.set_defaults(func=cmd_flow)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not hasattr(args, "json"):
        args.json = False
    try:
        return args.func(args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
