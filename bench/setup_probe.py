"""Locate and import the program from the checkout; time one fresh set-up.

Run as ``python3 bench/setup_probe.py WORKLOAD`` it imports
``sphere_poincare`` in a fresh interpreter, runs the workload's warm-up
and prints the elapsed seconds: one sample of the ``setup_s`` metric.
Only the standard library is imported before the clock starts, so the
sample includes the numpy import the program pulls in.
"""

from __future__ import annotations

import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


class ProgramMissing(RuntimeError):
    pass


def import_program() -> None:
    """Import sphere_poincare from this checkout's src/.

    Raises ProgramMissing when the checkout holds no sources or the import
    resolves to a copy outside it.
    """
    if not os.path.isfile(os.path.join(SRC, "sphere_poincare", "__init__.py")):
        raise ProgramMissing(f"no sphere_poincare package under {SRC}")
    sys.path.insert(0, SRC)
    import sphere_poincare

    origin = os.path.realpath(sphere_poincare.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ProgramMissing(f"sphere_poincare imported from {origin}, not from {SRC}")


def main(argv: list[str]) -> int:
    start = time.perf_counter()
    import_program()
    from workloads import WORKLOADS

    WORKLOADS[argv[0]](seed=0, workdir=BENCH_DIR).setup()
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
