"""The host-dependent band-8 flows of ``tools/output_digest.py`` against committed values.

Their bytes move with the BLAS and SIMD code path, so the portable-output
listing leaves them out.  This test holds every number they report to
``tests/flow_b8_reference.json`` within a stated tolerance instead: the
report's ``final_distance`` and, on each trajectory row, the energy, both
distances and ``residual_max``.

Tolerance: |got - ref| <= ATOL + RTOL |ref|.  Across the default,
``OPENBLAS_CORETYPE=Prescott``, ``OPENBLAS_CORETYPE=Sandybridge`` and
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` code paths on
one host, the largest spreads were 1.3e-12 relative (2.1e-11 absolute) in
energy, 1.2e-9 relative (9.9e-14 absolute) in a distance and 4.0e-9
relative (1.3e-11 absolute) in ``residual_max``; the last two are small
numbers near convergence.  No spread used more than 6 % of the tolerance,
and a start perturbed by a relative 1e-6 more exceeds it about 1000-fold.

Regenerate the reference, on purpose only, with

    PYTHONPATH=src python3 tests/test_flow_reference.py
"""

import contextlib
import importlib.util
import io
import json
import os
import tempfile

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "tests", "flow_b8_reference.json")
_spec = importlib.util.spec_from_file_location("output_digest", os.path.join(ROOT, "tools", "output_digest.py"))
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)

ATOL, RTOL = 1e-12, 1e-8
LABELS = ("flow-b8-kappa=-1.5", "flow-b8-kappa=1.2")
COLUMNS = ("step", "energy", "dist_to_plus_n", "dist_to_minus_n", "residual_max")


def _flow(label, path):
    """The report's final distance and the trajectory's rows, as COLUMNS, of one digest flow."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = output_digest.cli.main(["flow", *output_digest.FLOWS[label], "--out", path, "--json"])
    assert code == 0, label
    with open(path, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    names = header.split(",")
    rows = [dict(zip(names, line.split(","))) for line in lines]
    table = [[int(row["step"]), *(float(row[name]) for name in COLUMNS[1:])] for row in rows]
    return json.loads(out.getvalue())["parameters"]["final_distance"], table


@pytest.mark.parametrize("label", LABELS)
def test_band8_flow_matches_the_committed_reference(label, tmp_path):
    with open(REFERENCE, encoding="utf-8") as fh:
        expected = json.load(fh)["flows"][label]
    final_distance, rows = _flow(label, str(tmp_path / "traj.csv"))
    assert [row[0] for row in rows] == [row[0] for row in expected["rows"]]
    pairs = [("final_distance", final_distance, expected["final_distance"])]
    for row, ref in zip(rows, expected["rows"]):
        pairs += [(f"step {row[0]} {name}", got, want) for name, got, want in zip(COLUMNS[1:], row[1:], ref[1:])]
    outside = [(name, got, want) for name, got, want in pairs if not abs(got - want) <= ATOL + RTOL * abs(want)]
    assert not outside, f"{len(outside)} values outside the tolerance, first {outside[:3]}"


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        flows = {label: _flow(label, os.path.join(workdir, "traj.csv")) for label in LABELS}
    entries = []
    for label, (final_distance, rows) in flows.items():
        table = ",\n".join(f"      {json.dumps(row)}" for row in rows)
        entries.append(f'    "{label}": {{"final_distance": {final_distance!r}, "rows": [\n{table}\n    ]}}')
    header = f'  "versions": {json.dumps(output_digest.versions())},\n  "columns": {json.dumps(COLUMNS)},\n'
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + header + '  "flows": {\n' + ",\n".join(entries) + "\n  }\n}\n")


if __name__ == "__main__":
    main()
