"""Every row of ``tools/mutate.py`` still targets live code and live tests.

The tool itself takes about a minute, so it is not part of the test
suite; this check is, and it fails as soon as a refactor moves a row's
snippet or renames one of its tests.
"""

import importlib.util
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("mutate", os.path.join(ROOT, "tools", "mutate.py"))
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


def _read(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("row", mutate.MUTANTS, ids=[m.name for m in mutate.MUTANTS])
def test_row_targets_one_snippet_and_existing_tests(row):
    count = _read(row.path).count(row.snippet)
    assert count == 1, f"the snippet occurs {count} times in {row.path}"
    assert row.replacement != row.snippet
    for test in row.tests:
        path, _, name = test.partition("::")
        assert os.path.isfile(os.path.join(ROOT, path)), test
        if name:
            assert re.search(rf"^def {re.escape(name)}\(", _read(path), re.MULTILINE), test
