"""The portable part of the byte contract: same command and seed, same bytes.

Recomputes, in-process, every output of ``tools/output_digest.py`` whose
bytes held on every BLAS and SIMD code path tried (both ``gamma``
outputs, the equality, inequality and lemma reports, orthonormality at
seeds 0 and 2024, and every ``minimize`` report and CSV), and compares
their sha256 with ``tests/portable_outputs.txt``.  A change that moves
these bytes on purpose regenerates that listing with
``python3 tools/output_digest.py --portable``.  The host-dependent
outputs stay with the tool.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LISTING = os.path.join(ROOT, "tests", "portable_outputs.txt")
_spec = importlib.util.spec_from_file_location("output_digest", os.path.join(ROOT, "tools", "output_digest.py"))
output_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_digest)


def _by_label(lines):
    return {label: digest for digest, label in (line.split("  ", 1) for line in lines)}


def test_portable_outputs_match_the_committed_listing(tmp_path):
    with open(LISTING, encoding="utf-8") as fh:
        header, *lines = fh.read().splitlines()
    expected = _by_label(lines)
    got = _by_label(output_digest.listing(str(tmp_path), output_digest.portable))
    moved = [label for label in expected.keys() | got.keys() if expected.get(label) != got.get(label)]
    versions = output_digest.versions()
    note = "" if header == f"# {versions}" else f" (the listing was made with {header[2:]}; this run has {versions})"
    assert not moved, f"{len(moved)} portable outputs moved: {', '.join(sorted(moved))}{note}"
    assert len(expected) == 58
