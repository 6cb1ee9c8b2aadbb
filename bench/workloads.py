"""The two benchmark workloads: seeded inputs, the ops, and their oracles.

Every op input is a pure function of (workload seed, op index), so a run
can be replayed exactly; the program receives only the generated inputs.
An op is one user-visible call: a round trip through the library for
``roundtrip-b20``, one in-process ``cli.main`` invocation for the others.

Ops are timed alone; their outputs are checked after the timed loop, so
the 50-digit reference arithmetic never lands inside a latency sample.
An op fails, and is counted by kind, when it raises, exits nonzero,
reports ``passed: false``, misses a 50-digit ``decimal`` reference for a
``gamma`` row by more than 1e-12 relative, or gives a flow verdict that
contradicts sign(kappa).  The ops' inputs lie where the seed commit has
no failure; the inputs on which it fails are probed once a run by
``probe_known_defects`` and reported apart from the ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from decimal import Decimal, localcontext

import numpy as np

from sphere_poincare import cli, grid, spectral, vsh

ROUNDTRIP_TOL = 1e-11
ROUTE_GAP_TOL = 1e-8
GAMMA_RTOL = Decimal("1e-12")


@dataclass
class Outcome:
    """What one op returned: exit code, exception type and captured stdout."""

    rc: int | None = None
    raised: str | None = None
    stdout: str = ""
    data: dict = field(default_factory=dict)


@dataclass
class Verdict:
    """Oracle result for one op: failure kind (None if it passed) and ratios."""

    kind: str | None
    roundtrip_ratio: float = 0.0
    route_gap_ratio: float = 0.0
    missed_kappas: list[float] = field(default_factory=list)


def op_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def run_cli(argv: list[str]) -> Outcome:
    """One in-process ``cli.main`` call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    outcome = Outcome()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            outcome.rc = cli.main(argv)
    except SystemExit as exc:
        outcome.rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the op failed; the benchmark counts it and goes on
        outcome.raised = type(exc).__name__
    outcome.stdout = out.getvalue()
    return outcome


def cli_failure(outcome: Outcome) -> str | None:
    """Failure kind shared by every CLI op, before any command-specific oracle."""
    if outcome.raised is not None:
        return f"raised:{outcome.raised}"
    if outcome.rc != 0:
        return "exit_nonzero"
    return None


def json_report(outcome: Outcome) -> dict | None:
    try:
        report = json.loads(outcome.stdout)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def check_ratio(report: dict, name: str) -> float:
    """Residual / tolerance of the named check in a ``--json`` report (0 if absent)."""
    for check in report.get("checks", ()):
        if check.get("name") == name and check.get("tolerance"):
            return float(check["residual"]) / float(check["tolerance"])
    return 0.0


# -- the 50-digit gamma oracle ---------------------------------------------


def gamma_reference(kappa: float) -> tuple[Decimal, Decimal, Decimal | None]:
    """(gamma, gamma_plus, shifted-or-None) at the exact binary value of kappa."""
    with localcontext() as ctx:
        ctx.prec = 50
        k = Decimal(kappa)
        root = (k * k + 4 * k + 36).sqrt()
        plus = ((k + 6) - root) / 2
        gam = k + 2 if k <= -4 else plus
        shifted = abs(k) + gam if k < 0 else None
        return +gam, +plus, (None if shifted is None else +shifted)


def _misses(value: str, ref: Decimal) -> bool:
    with localcontext() as ctx:
        ctx.prec = 50
        return abs(Decimal(float(value)) - ref) > GAMMA_RTOL * abs(ref)


def gamma_table_misses(csv_text: str, expected_rows: int) -> list[float] | None:
    """Kappas of the ``gamma`` CSV rows that miss the reference; None if the
    table is malformed."""
    lines = csv_text.strip().splitlines()
    if not lines or lines[0] != "kappa,gamma,gamma_plus,shifted" or len(lines) != expected_rows + 1:
        return None
    missed = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 4:
            return None
        kappa = float(parts[0])
        gam, plus, shifted = gamma_reference(kappa)
        if (shifted is None) != (parts[3] == ""):
            return None
        miss = _misses(parts[1], gam) or _misses(parts[2], plus)
        if shifted is not None:
            miss = miss or _misses(parts[3], shifted)
        if miss:
            missed.append(kappa)
    return missed


def expected_verdict(kappa: float) -> str:
    """Normal states attract for kappa < 0 and repel for kappa > 0."""
    return "returned" if kappa < 0 else "escaped"


# -- workloads ------------------------------------------------------------


class Workload:
    """Base: ``make_input(i)`` -> ``run(inp)`` (timed) -> ``check(inp, outcome)``."""

    name = ""
    trace_ops = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Warm-up paid once before timing (none unless overridden)."""

    def make_input(self, index: int):
        raise NotImplementedError

    def run(self, inp) -> Outcome:
        raise NotImplementedError

    def check(self, inp, outcome: Outcome) -> Verdict:
        raise NotImplementedError


class RoundTripB20(Workload):
    """synthesize -> analyze -> 4 x energy_report on the band-20 verification grid."""

    name = "roundtrip-b20"
    trace_ops = 75
    band = 20
    kappas = (-8.0, -4.0, 0.0, 6.0)

    def setup(self) -> None:
        self.grid = grid.verification_grid(self.band)
        vsh.vector_basis(self.grid, self.band)
        # energy_report runs the scalar route one degree above the band.
        grid.scalar_basis(self.grid, self.band + 1)
        n = np.arange(self.band + 1)[:, None]
        j = np.arange(-self.band, self.band + 1)[None, :]
        valid = np.abs(j) <= n
        self.mask = np.stack([valid, valid & (n >= 1), valid & (n >= 1)])

    def make_input(self, index: int) -> vsh.CoeffSet:
        data = np.zeros(self.mask.shape)
        data[self.mask] = op_rng(self.seed, index).standard_normal(int(self.mask.sum()))
        return vsh.CoeffSet(self.band, data)

    def run(self, coeffs) -> Outcome:
        outcome = Outcome()
        try:
            field_ = vsh.synthesize(coeffs, self.grid)
            back = vsh.analyze(field_, self.band)
            gaps = [
                spectral.energy_report(field_, kappa, band_limit=self.band).route_gap
                for kappa in self.kappas
            ]
        except Exception as exc:  # counted as a failed op
            outcome.raised = type(exc).__name__
            return outcome
        outcome.data = {"back": back.data, "gaps": gaps}
        return outcome

    def check(self, coeffs, outcome: Outcome) -> Verdict:
        if outcome.raised is not None:
            return Verdict(f"raised:{outcome.raised}")
        resid = float(np.max(np.abs(outcome.data["back"] - coeffs.data)))
        gap = max(outcome.data["gaps"])
        verdict = Verdict(None, resid / ROUNDTRIP_TOL, gap / ROUTE_GAP_TOL)
        if not resid <= ROUNDTRIP_TOL:
            verdict.kind = "roundtrip_miss"
        elif not gap <= ROUTE_GAP_TOL:
            verdict.kind = "route_gap_miss"
        return verdict


# cli-mix kappa magnitudes.  Beyond 50 the seed's minimize exits 1 or
# raises and its gamma misses the 50-digit reference; below about 1e-3
# gamma_plus = ((k + 6) - sqrt(k^2 + 4k + 36)) / 2 loses digits to
# cancellation.  The benchmark's ops stay inside, where no op fails;
# ``known_defect_inputs`` probes the outside once a run.
KAPPA_MIN = 0.01
KAPPA_MAX = 50.0


def draw_kappa(rng: np.random.Generator, sign: float | None = None) -> float:
    """|kappa| uniform in [KAPPA_MIN, KAPPA_MAX], sign uniform unless given."""
    if sign is None:
        sign = -1.0 if rng.random() < 0.5 else 1.0
    return sign * float(rng.uniform(KAPPA_MIN, KAPPA_MAX))


def positional(x: float) -> str:
    """Shortest round-trip decimal without an exponent, which argparse
    accepts as a negative positional value."""
    return np.format_float_positional(x, trim="0")


class CliMix(Workload):
    """Fixed repeating mix of verify / minimize / gamma / flow via in-process ``cli.main``."""

    name = "cli-mix"
    # 23 ops a cycle.  Sorted by latency a cycle runs gamma (9 ops), the
    # equality suite, minimize (7), then the four heavy suites and the two
    # flow probes.  So p50 falls on the second-fastest minimize op of a
    # cycle and p90 inside the heavy block, neither on an edge between two
    # kinds of op, where a small shift of either would move it a lot.
    mix = (
        ("verify", "orthonormality"),
        ("gamma", "single"),
        ("minimize", "closed"),
        ("flow", "returned"),
        ("gamma", "range"),
        ("gamma", "single"),
        ("verify", "energy-routes"),
        ("minimize", "numeric"),
        ("gamma", "range"),
        ("verify", "inequality"),
        ("minimize", "closed"),
        ("gamma", "single"),
        ("minimize", "numeric"),
        ("verify", "equality"),
        ("gamma", "range"),
        ("flow", "escaped"),
        ("minimize", "closed"),
        ("gamma", "single"),
        ("verify", "lemma"),
        ("minimize", "numeric"),
        ("gamma", "range"),
        ("minimize", "closed"),
        ("gamma", "single"),
    )
    trace_ops = 10 * len(mix)
    range_steps = 101
    flow_band = 8
    flow_horizon = 3.0
    # The seed's lemma suite cannot print --json (``known_defect_inputs``),
    # so its text report is checked instead.
    text_suites = frozenset({"lemma"})

    def make_input(self, index: int) -> dict:
        rng = op_rng(self.seed, index)
        command, variant = self.mix[index % len(self.mix)]
        if command == "verify":
            argv = ["verify", "--suite", variant, "--seed", str(int(rng.integers(0, 2**31)))]
            if variant not in self.text_suites:
                argv.append("--json")
            return {"label": f"verify:{variant}", "argv": argv}
        if command == "minimize":
            return minimize_input(variant, draw_kappa(rng), self.workdir)
        if command == "flow":
            return self.flow_input(rng, variant)
        if variant == "single":
            kappa = draw_kappa(rng)
            return {"label": "gamma:single", "rows": 1, "argv": ["gamma", f"--kappa={kappa!r}"]}
        # Both ends on one side of 0, so no row lands in the cancellation zone.
        sign = -1.0 if rng.random() < 0.5 else 1.0
        lo, hi = sorted((draw_kappa(rng, sign), draw_kappa(rng, sign)))
        argv = ["gamma", "--range", positional(lo), positional(hi), str(self.range_steps)]
        return {"label": "gamma:range", "rows": self.range_steps, "argv": argv}

    def flow_input(self, rng: np.random.Generator, verdict: str) -> dict:
        """``flow --json`` at band 8 on an 18 x 35 grid, t = 3 at dt = 0.5/(N(N+1)):
        432 steps.  The sign of kappa decides the verdict it must give."""
        magnitude = rng.uniform(1.0, 2.0)
        perturb = rng.uniform(0.02, 0.1)
        kappa = -magnitude if verdict == "returned" else magnitude
        dt = 0.5 / (self.flow_band * (self.flow_band + 1))
        steps = round(self.flow_horizon / dt)
        argv = [
            "flow", f"--kappa={kappa!r}", "--perturb", repr(perturb), "--dt", repr(dt),
            "--steps", str(steps), "--band", str(self.flow_band), "--grid", "18", "35",
            "--out", os.path.join(self.workdir, "traj.csv"), "--json",
        ]
        return {"label": "flow", "kappa": kappa, "argv": argv}

    def run(self, inp) -> Outcome:
        return run_cli(inp["argv"])

    def check(self, inp, outcome: Outcome) -> Verdict:
        kind = cli_failure(outcome)
        if kind:
            return Verdict(kind)
        if inp["argv"][0] == "flow":
            return flow_verdict(inp, outcome)
        if inp["argv"][0] == "gamma":
            missed = gamma_table_misses(outcome.stdout, inp["rows"])
            if missed is None:
                return Verdict("bad_output")
            return Verdict("oracle_miss" if missed else None, missed_kappas=missed)
        if "--json" not in inp["argv"]:
            lines = outcome.stdout.strip().splitlines()
            return Verdict(None if lines and lines[-1] == "result: PASS" else "report_failed")
        report = json_report(outcome)
        if report is None:
            return Verdict("bad_output")
        verdict = Verdict(
            None,
            check_ratio(report, "analyze-synthesize-roundtrip-band4"),
            check_ratio(report, "route-equivalence-band4"),
        )
        if report.get("passed") is not True:
            verdict.kind = "report_failed"
        return verdict


def flow_verdict(inp: dict, outcome: Outcome) -> Verdict:
    report = json_report(outcome)
    if report is None:
        return Verdict("bad_output")
    if report.get("passed") is not True:
        return Verdict("report_failed")
    if report.get("parameters", {}).get("verdict") != expected_verdict(inp["kappa"]):
        return Verdict("verdict_wrong")
    return Verdict(None)


def minimize_input(variant: str, kappa: float, workdir: str) -> dict:
    argv = ["minimize", f"--kappa={kappa!r}", "--method", variant,
            "--out", os.path.join(workdir, "min"), "--json"]
    return {"label": f"minimize:{variant}", "argv": argv}


def known_defect_inputs(workdir: str) -> list[dict]:
    """Inputs outside the ops' domain on which the seed commit fails."""
    return [
        {"label": "verify:lemma --json",
         "argv": ["verify", "--suite", "lemma", "--seed", "3", "--json"]},
        minimize_input("closed", 1e10, workdir),
        minimize_input("closed", 1e5, workdir),
        minimize_input("closed", 1e8, workdir),
        minimize_input("closed", -1e10, workdir),
        {"label": "gamma:single", "rows": 1, "argv": ["gamma", "--kappa=100000.0"]},
        {"label": "gamma:single", "rows": 1, "argv": ["gamma", "--kappa=0.000102139142505564"]},
    ]


def probe_known_defects(workdir: str) -> list[tuple[str, str | None]]:
    """(command line, failure kind or None) for each known-defect input.

    Run once a run, outside the op count: the ops avoid these inputs, so
    this is where the seed's defects, or their fixes, show."""
    mix = CliMix(0, workdir)
    probed = []
    for inp in known_defect_inputs(workdir):
        argv = inp["argv"]
        if "--out" in argv:
            at = argv.index("--out")
            argv = argv[:at] + argv[at + 2:]
        probed.append((" ".join(argv), mix.check(inp, mix.run(inp)).kind))
    return probed


WORKLOADS = {cls.name: cls for cls in (RoundTripB20, CliMix)}
