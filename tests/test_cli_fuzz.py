"""The CLI holds its input contract on argv drawn from its own option table.

Each option of each command is drawn from in-range values, 0, negatives,
subnormals, +-1e+-300, every cap +-1 and the regime boundary kappa = -4
+- 1 ulp; choices also draw an unknown name, and ``--out`` a path in a
missing directory.  Whatever the draw, ``main`` exits 0, 1 or 2 and
raises nothing else (numpy's RuntimeWarnings are errors in this suite),
and exit 2 means one ``error:`` line on stderr, nothing on stdout and no
file written.  A flow's ``--steps`` and ``--band`` are drawn small, so
each example runs in milliseconds.
"""

import argparse
import contextlib
import io
import math
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, note, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from sphere_poincare import cli  # noqa: E402
from sphere_poincare.legendre import MAX_DEGREE  # noqa: E402

_PARSER = cli.build_parser()
_COMMANDS = next(a for a in _PARSER._actions if isinstance(a, argparse._SubParsersAction)).choices

_CAPS = (MAX_DEGREE, cli._MAX_GRID_NT, cli._MAX_GRID_NPHI, cli._MAX_RANGE_STEPS)
_EDGE_INTS = [0, -1, -2, 1, *(cap + d for cap in _CAPS for d in (-1, 0, 1))]
_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, 1e300, -1e300,
    math.nextafter(-4.0, -math.inf), -4.0, math.nextafter(-4.0, math.inf),
    *map(float, _EDGE_INTS),
]
# A flow runs every step at its band, so these two stay small.
_FLOW_STEPS = st.integers(-2, 6)
_FLOW_BAND = st.one_of(st.integers(-1, 6), st.sampled_from([MAX_DEGREE - 1, MAX_DEGREE, MAX_DEGREE + 1]))


def _in_range(action: argparse.Action, index: int):
    """Values near the option's default, or small ones where it has none."""
    default = action.default[index] if isinstance(action.default, tuple) else action.default
    if action.dest == "range" and index == 2:
        return st.integers(1, 50).map(float)
    if action.type is int:
        return st.integers(default // 2, 2 * default) if default else st.integers(0, 40)
    return st.floats(default / 2, 2 * default) if default else st.floats(-20.0, 20.0)


def _word(command: str, action: argparse.Action, index: int, tmp: str):
    """A strategy for the index-th argv word that follows one option."""
    if action.dest == "out":
        return st.sampled_from([os.path.join(tmp, "o"), os.path.join(tmp, "missing", "o")])
    if action.choices:
        return st.sampled_from([*action.choices, "nope"])
    if command == "flow" and action.dest in ("steps", "band"):
        return (_FLOW_STEPS if action.dest == "steps" else _FLOW_BAND).map(str)
    if action.type is int:
        return st.one_of(_in_range(action, index), st.sampled_from(_EDGE_INTS)).map(str)
    return st.one_of(_in_range(action, index), st.sampled_from(_EDGE_FLOATS)).map(repr)


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_cli_holds_its_input_contract_on_drawn_argv(data):
    command = data.draw(st.sampled_from(sorted(_COMMANDS)), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        argv = [command]
        for action in _COMMANDS[command]._actions:
            if not action.option_strings or isinstance(action, argparse._HelpAction):
                continue
            # A flow always draws its steps: the default 2500 would not run in milliseconds.
            always = command == "flow" and action.dest == "steps"
            # A required option is left out one time in eight; the simplest draw keeps it.
            present = st.integers(1, 8).map(lambda k: k < 8) if action.required else st.booleans()
            if always or data.draw(present):
                argv.append(action.option_strings[-1])
                count = 1 if action.nargs is None else action.nargs  # 0 for --json
                argv += [data.draw(_word(command, action, i, tmp)) for i in range(count)]
        note(f"argv: {argv}")
        code, out, err = _run(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            assert out == ""
            assert os.listdir(tmp) == []
