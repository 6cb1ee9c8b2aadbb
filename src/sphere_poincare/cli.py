"""Command-line interface: gamma tables, verification suites, minimizer
construction and gradient-flow runs.

All outputs are CSV-first (plot-ready); reports can be emitted as JSON
with --json.  Identical command and seed give byte-identical CSV files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .eigensolver import numeric_minimizer
from .flow import _unit_gap, gradient_flow, normalize_field, write_trajectory_csv
from .grid import FOUR_PI, SampledVectorField, _write_text, build_grid, export_vector_field_csv, normal_field
from .legendre import MAX_DEGREE
from .sharp import (
    _gamma_table_lines,
    build_minimizer,
    classify_regime,
    equality_residual,
    gamma,
    membership_check,
)
from .spectral import _worst, norm_sq
from .suites import _MEMBERSHIP_TOL, SUITES, Check, _bool_check, run_suite
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
        """Largest check residual; NaN when any residual is NaN."""
        return _worst(c.residual for c in self.checks)

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


def _report(args, start: float, command: str, parameters: dict, checks: list[Check], out_path=None) -> int:
    """Print a run's report (and write it to ``out_path``); exit code 0 if it passed, else 1."""
    report = RunReport(command, parameters, checks, wall_time_s=time.perf_counter() - start)
    text = report.to_json() if args.json else report.to_text()
    if out_path:
        _write_text(out_path, (text, "\n"))
    print(text)
    return 0 if report.passed else 1


# gamma --range rows and flow trajectory rows; the flow holds its records in memory.
_MAX_RANGE_STEPS = 1_000_000
# --grid NT NPHI at most the size of verification_grid(MAX_DEGREE); the Gauss
# nodes come from an NT x NT eigenproblem, so NT must stay small.
_MAX_GRID_NT = 2 * MAX_DEGREE + 2
_MAX_GRID_NPHI = 4 * MAX_DEGREE + 3


def _grid(sizes):
    n_t, n_phi = sizes
    if n_t > _MAX_GRID_NT or n_phi > _MAX_GRID_NPHI:
        raise ValueError(f"--grid NT NPHI must be at most {_MAX_GRID_NT} {_MAX_GRID_NPHI}")
    return build_grid(n_t, n_phi)


def cmd_gamma(args) -> int:
    if (args.kappa is None) == (args.range is None):
        raise ValueError("provide exactly one of --kappa and --range")
    if args.kappa is not None:
        kappas = [args.kappa]
    else:
        lo, hi, steps = args.range
        if not (steps.is_integer() and 1 <= steps <= _MAX_RANGE_STEPS):
            raise ValueError(f"--range STEPS must be an integer from 1 to {_MAX_RANGE_STEPS}")
        if hi < lo:
            raise ValueError("--range A B STEPS needs A <= B")
        kappas = np.linspace(lo, hi, int(steps))
    # Every weight is checked before --out is opened, so a bad one leaves no file behind.
    lines = _gamma_table_lines(kappas)
    if args.out:
        _write_text(args.out, lines)
    else:
        sys.stdout.writelines(lines)
    return 0


def cmd_verify(args) -> int:
    start = time.perf_counter()
    if args.seed < 0:  # numpy rejects it in some suites only, and without naming the option
        raise ValueError("--seed must be a non-negative integer")
    checks = run_suite(args.suite, args.seed)
    parameters = {"suite": args.suite, "seed": args.seed}
    return _report(args, start, f"verify --suite {args.suite}", parameters, checks, args.out)


def cmd_minimize(args) -> int:
    start = time.perf_counter()
    kappa = args.kappa
    # The eigensolver's argmin fixes the numeric member: it has no free sign, direction or c0.
    if args.method == "numeric" and (args.sign, args.direction, args.c0) != (None, None, None):
        raise ValueError("--method numeric takes no --sign, --direction or --c0")
    _, closed = build_minimizer(kappa, sign=args.sign, direction=args.direction, c0=args.c0)
    numeric = numeric_minimizer(kappa)
    chosen = closed if args.method == "closed" else numeric
    # Checked before any file is written, so a check that raises leaves none behind.
    checks = [
        Check("closed-equality-residual", abs(equality_residual(closed, kappa)), 1e-10),
        Check("closed-norm-4pi", abs(norm_sq(closed) - FOUR_PI), 1e-10),
        _bool_check("closed-membership", membership_check(closed, kappa, _MEMBERSHIP_TOL)),
        _bool_check("numeric-membership", membership_check(numeric, kappa, _MEMBERSHIP_TOL)),
    ]

    grid = _grid(args.grid)
    field = synthesize(chosen, grid)
    coeff_path = f"{args.out}_coeffs.csv"
    field_path = f"{args.out}_field.csv"
    chosen.to_csv(coeff_path)
    export_vector_field_csv(field, field_path)
    parameters = {
        "kappa": kappa,
        "regime": classify_regime(kappa).value,
        "gamma": gamma(kappa),
        "method": args.method,
        "membership_tol": _MEMBERSHIP_TOL,
        "coeffs_csv": coeff_path,
        "field_csv": field_path,
    }
    return _report(args, start, f"minimize --kappa {kappa:g} --method {args.method}", parameters, checks)


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
    # Step 0, one row per record_every steps, and the last step.
    if args.record_every >= 1 and 1 + -(-args.steps // args.record_every) > _MAX_RANGE_STEPS:
        raise ValueError(f"--steps / --record-every must give at most {_MAX_RANGE_STEPS} trajectory rows")
    grid = _grid(args.grid)
    normal = normal_field(grid)
    mode = CoeffSet(1)
    mode[(2, 1, 0)] = math.sqrt(FOUR_PI)
    bump = synthesize(mode, grid)
    try:
        u0 = normalize_field(SampledVectorField(grid=grid, values=normal.values + args.perturb * bump.values))
    except (ValueError, FloatingPointError) as exc:  # the perturbation, or the start's squared lengths, overflow
        raise ValueError(f"--perturb {args.perturb:g} gives no unit start field: {exc}") from None
    result = gradient_flow(
        u0,
        args.kappa,
        dt=args.dt,
        steps=args.steps,
        band_limit=args.band,
        record_every=args.record_every,
    )
    write_trajectory_csv(result, args.out)

    increases = (later.energy - earlier.energy for earlier, later in zip(result.records, result.records[1:]))
    verdict = _flow_verdict(result)
    checks = [
        Check("energy-monotone", _worst(increases), 1e-10),
        Check("unit-norm", _unit_gap(result.state.field.values), 1e-12),
    ]
    parameters = {
        "kappa": args.kappa,
        "perturb": args.perturb,
        "dt": args.dt,
        "steps": args.steps,
        "band": args.band,
        "final_distance": result.final_distance,
        "verdict": verdict,
        "trajectory_csv": args.out,
    }
    return _report(args, start, f"flow --kappa {args.kappa:g}", parameters, checks)


class _Parser(argparse.ArgumentParser):
    """argparse with one-line errors and exponent-form negative numbers.

    ``error`` prints one ``error:`` line, as ``main`` does for every other
    bad input, in place of the usage block.  The negative-number pattern
    takes exponents too, so ``--range -1e2 1 3`` reads -1e2 as a value, not
    as an option.  Subparsers are built from the same class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        print("error:", " ".join(message.splitlines()), file=sys.stderr)
        raise SystemExit(2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call.

    ``parse_args`` gives each call a fresh namespace and every default is
    immutable, so calls share no state; callers must not alter the parser.
    """
    parser = _Parser(
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
        "--direction", nargs=3, type=float, default=None,
        metavar=("D-1", "D0", "D+1"),
    )
    p_min.add_argument("--sign", type=float, default=None, help="below the boundary only (default +1)")
    p_min.add_argument("--c0", type=float, default=None)
    p_min.add_argument("--grid", nargs=2, type=int, default=(16, 33), metavar=("NT", "NPHI"))
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
    given = {name: v if isinstance(v, (list, tuple)) else [v] for name, v in vars(args).items()}
    floats = {f"--{name.replace('_', '-')}": vs for name, vs in given.items() if all(isinstance(v, float) for v in vs)}
    try:
        for option, values in floats.items():
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{option} must be finite")
        # A numpy overflow, invalid or divide event is one error line, never warnings and a PASS.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return args.func(args)
    except (ValueError, RuntimeError, OSError, FloatingPointError) as exc:
        if isinstance(exc, FloatingPointError):  # numpy's text names the operation; add the command and its floats
            shown = (f"{option}={' '.join(map(repr, values))}" for option, values in floats.items())
            exc = f"{' '.join([args.command, *shown])}: {exc}"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
