"""Hash every byte-contracted CLI output of this checkout.

    python3 tools/output_digest.py > digest.txt
    python3 tools/output_digest.py --portable > tests/portable_outputs.txt

Runs each command in-process, from this checkout's ``src/``, into a
temporary directory, and prints one ``sha256  label`` line per output.
JSON reports are hashed without ``wall_time_s`` and without the
parameters that hold output paths, so the listing names no path.  Diff
the listings of two commits to see whether a change kept every output's
bytes.  Some hashes depend on the host's BLAS and SIMD code paths, so
compare whole listings made on one host only.

``--portable`` prints only the outputs outside ``HOST_DEPENDENT``,
after a first ``#`` line naming the numpy and BLAS versions.  That is
the listing ``tests/test_portable_outputs.py`` compares with, so a change
that moves these bytes on purpose regenerates it in the same commit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from sphere_poincare import cli  # noqa: E402
from sphere_poincare.suites import SUITES  # noqa: E402

_PATH_PARAMETERS = ("coeffs_csv", "field_csv", "trajectory_csv")

# Label prefixes of the outputs whose bytes moved with the code path on one
# host (OPENBLAS_CORETYPE=Prescott or Sandybridge, or AVX-512 masked out by
# NPY_DISABLE_CPU_FEATURES): the energy-routes reports, orthonormality at
# seed 3, and every flow.  The other outputs kept their bytes on every path.
HOST_DEPENDENT = ("verify-energy-routes-", "verify-orthonormality-seed=3", "flow-")

SEEDS = (0, 3, 2024)
MINIMIZE_KAPPAS = ("-8", "-4", "-3.9", "0.5", "6", "17")
FLOWS = {
    # The three README examples (band 4 on the default 10 x 19 grid).
    "flow-readme-returned": ["--kappa=-1", "--perturb", "0.05", "--dt", "0.02", "--steps", "2500"],
    "flow-readme-escaped": ["--kappa=1"],
    "flow-readme-stationary": ["--kappa=1", "--perturb", "0"],
    # Band-8 probes on an 18 x 35 grid, t = 3 at dt = 0.5/(N(N+1)).
    "flow-b8-kappa=-1.5": ["--kappa=-1.5", "--band", "8", "--grid", "18", "35",
                           "--dt", repr(0.5 / 72), "--steps", "432"],
    "flow-b8-kappa=1.2": ["--kappa=1.2", "--band", "8", "--grid", "18", "35",
                          "--dt", repr(0.5 / 72), "--steps", "432"],
}


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited {rc}")
    return out.getvalue()


def _report(text: str) -> bytes:
    report = json.loads(text)
    report.pop("wall_time_s")
    for key in _PATH_PARAMETERS:
        report["parameters"].pop(key, None)
    return json.dumps(report, indent=2).encode()


def _file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def portable(label: str) -> bool:
    """Whether an output's bytes are the same on every code path tried (see ``HOST_DEPENDENT``)."""
    return not label.startswith(HOST_DEPENDENT)


def versions() -> str:
    """The numpy version and the BLAS that numpy was built with, as the portable listing's first line names them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its configuration only
        blas = {}
    return f"numpy {np.__version__}, {blas.get('name', 'BLAS')} {blas.get('version', 'unknown')}"


def outputs(workdir: str, keep=lambda label: True):
    """(label, bytes) of every byte-contracted output whose command ``keep`` accepts, in a fixed order.

    ``keep`` is called with the output's label, or with the label stem
    (``minimize ...``, ``flow-...``) of a command that writes several.
    """
    if keep("gamma-range-10-10-201"):
        yield "gamma-range-10-10-201", _run(["gamma", "--range", "-10", "10", "201"]).encode()
    if keep("gamma-range-10-10-201 --out"):
        path = os.path.join(workdir, "gamma.csv")
        _run(["gamma", "--range", "-10", "10", "201", "--out", path])
        yield "gamma-range-10-10-201 --out", _file(path)
    if keep("gamma-kappa=-4"):
        yield "gamma-kappa=-4", _run(["gamma", "--kappa=-4"]).encode()
    for suite in SUITES:
        for seed in SEEDS:
            label = f"verify-{suite}-seed={seed}"
            if keep(label):
                yield label, _report(_run(["verify", "--suite", suite, "--seed", str(seed), "--json"]))
    minimize = [[f"--kappa={k}", "--method", m] for k in MINIMIZE_KAPPAS for m in ("closed", "numeric")]
    minimize.append(["--kappa=-4", "--c0", "1.5"])
    # Field CSVs off the default 16 x 33 grid, up to the --grid cap.
    minimize += [["--kappa=-3.9", "--grid", "18", "35"], ["--kappa=6", "--grid", "130", "259"]]
    for args in minimize:
        label = "minimize " + " ".join(args)
        if not keep(label):
            continue
        prefix = os.path.join(workdir, "m")
        text = _run(["minimize", *args, "--out", prefix, "--json"])
        yield f"{label} report", _report(text)
        yield f"{label} coeffs.csv", _file(f"{prefix}_coeffs.csv")
        yield f"{label} field.csv", _file(f"{prefix}_field.csv")
    for label, args in FLOWS.items():
        if not keep(label):
            continue
        path = os.path.join(workdir, "traj.csv")
        text = _run(["flow", *args, "--out", path, "--json"])
        yield f"{label} report", _report(text)
        yield f"{label} trajectory.csv", _file(path)


def listing(workdir: str, keep=lambda label: True) -> list[str]:
    """One ``sha256  label`` line per output that ``keep`` accepts."""
    return [f"{hashlib.sha256(data).hexdigest()}  {label}" for label, data in outputs(workdir, keep)]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args not in ([], ["--portable"]):
        raise SystemExit("usage: python3 tools/output_digest.py [--portable]")
    only_portable = args == ["--portable"]
    with tempfile.TemporaryDirectory() as workdir:
        lines = listing(workdir, portable) if only_portable else listing(workdir)
    if only_portable:
        lines.insert(0, f"# {versions()}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
