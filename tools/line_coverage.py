"""Statement lines of ``src/`` that the test suite never runs.

    python3 tools/line_coverage.py

Runs the test suite (``tests/``) in-process under a line tracer, as a
pytest plugin, and prints one line per statement inside a function body
of ``src/`` that no test ran, as ``path:line: source text``; it exits
with pytest's exit code.  The tracer is set with ``sys.settrace`` and,
for the threads started during the run (the dense transforms' thread
pool), with ``threading.settrace``.  Module
and class bodies and ``def`` lines run at import time, before any test,
so only function bodies count, and their docstrings are left out.  A
statement counts as run when any line of it ran (of a compound
statement, any line of its header).  Code that a test runs only in a
subprocess is not seen.

``tools/uncovered_lines.txt`` holds the committed listing, each entry
followed by `` | `` and the reason the line stays; the suite's
``tests/test_uncovered_lines.py`` checks that every entry still names
its line.  Traced, the suite takes about 25 s instead of 14 s on a
2-CPU host, so the tool is not part of it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def _own_lines(stmt: ast.stmt) -> range:
    """The lines whose execution shows that ``stmt`` ran: all of a simple statement's, a compound one's header."""
    bodies = [getattr(stmt, field) for field in ("body", "handlers", "cases") if getattr(stmt, field, None)]
    end = min(body[0].lineno for body in bodies) - 1 if bodies else stmt.end_lineno
    return range(stmt.lineno, max(end, stmt.lineno) + 1)


def _body_statements(tree: ast.Module) -> list[ast.stmt]:
    """Every statement inside a function body, nested ones once, docstrings and bare ``try`` excepted."""
    scopes = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    docstrings = {id(node.body[0]) for node in scopes if ast.get_docstring(node, clean=False) is not None}
    found = {}
    for node in scopes:
        if not isinstance(node, ast.ClassDef):
            for stmt in (inner for top in node.body for inner in ast.walk(top)):
                if isinstance(stmt, ast.stmt) and not isinstance(stmt, ast.Try) and id(stmt) not in docstrings:
                    found[id(stmt)] = stmt
    return list(found.values())


class LineTracer:
    """Records every (file, line) run in a frame whose code lives under ``src/``."""

    def __init__(self) -> None:
        self.seen: dict[str, set[int]] = {}

    def _global(self, frame, event, arg):
        filename = frame.f_code.co_filename
        lines = self.seen.get(filename)
        if lines is None:
            if not filename.startswith(SRC + os.sep):
                return None
            lines = self.seen[filename] = set()

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def pytest_sessionstart(self, session) -> None:
        threading.settrace(self._global)
        sys.settrace(self._global)

    def pytest_sessionfinish(self, session, exitstatus) -> None:
        sys.settrace(None)
        threading.settrace(None)

    def uncovered(self):
        """(path relative to the repo, line, stripped text) of every statement never run."""
        for folder, _, files in sorted(os.walk(SRC)):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                seen = self.seen.get(path, set())
                source = text.splitlines()
                missed = {
                    stmt.lineno
                    for stmt in _body_statements(ast.parse(text))
                    if not seen.intersection(_own_lines(stmt))
                }
                for line in sorted(missed):
                    yield os.path.relpath(path, REPO), line, source[line - 1].strip()


def main() -> int:
    sys.path.insert(0, SRC)
    tracer = LineTracer()
    code = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(REPO, "tests")], plugins=[tracer])
    for path, line, text in tracer.uncovered():
        print(f"{path}:{line}: {text}")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main())
