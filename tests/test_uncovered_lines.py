"""Every entry of ``tools/uncovered_lines.txt`` still names a line of ``src/`` and says why.

The listing comes from ``tools/line_coverage.py``, which runs the whole
suite under a line tracer and so is not part of it; this check is, and it
fails as soon as a refactor moves or rewrites a listed line.
"""

import ast
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("line_coverage", os.path.join(ROOT, "tools", "line_coverage.py"))
line_coverage = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(line_coverage)


def _entries():
    with open(os.path.join(ROOT, "tools", "uncovered_lines.txt"), encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                yield line.rstrip("\n")


def test_every_entry_names_a_statement_line_of_src_and_a_reason():
    for entry in _entries():
        listed, _, reason = entry.rpartition(" | ")
        path, lineno, text = listed.split(":", 2)
        assert reason.strip() and listed, entry
        assert path.startswith("src/") and os.path.isfile(os.path.join(ROOT, path)), entry
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            source = fh.read()
        assert source.splitlines()[int(lineno) - 1].strip() == text.strip(), entry
        statements = {stmt.lineno for stmt in line_coverage._body_statements(ast.parse(source))}
        assert int(lineno) in statements, entry


def test_the_tool_counts_function_body_statements_by_their_header_lines():
    source = (
        "x = 1\n\ndef f(a):\n    \"\"\"Doc.\"\"\"\n    if a:\n        return (\n            a)\n"
        "    try:\n        pass\n    except ValueError:\n        raise\n\nclass C:\n    y = 2\n\n"
        "    def g(self):\n        \"\"\"Doc.\"\"\"\n        def h():\n            \"\"\"Doc.\"\"\"\n            return 1\n"
    )
    statements = sorted(line_coverage._body_statements(ast.parse(source)), key=lambda stmt: stmt.lineno)
    # Module and class-body statements, docstrings and the bare try are left out;
    # a nested function's statements count once.
    assert [stmt.lineno for stmt in statements] == [5, 6, 9, 11, 18, 20]
    assert [list(line_coverage._own_lines(stmt)) for stmt in statements[:4]] == [[5], [6, 7], [9], [11]]
