"""Span tracing of sphere_poincare from outside the package.

``Tracer.install`` replaces the public functions of every package module
(and a few methods of the two dense basis classes) with timing wrappers,
in every module namespace that bound them, and ``Tracer.uninstall``
restores the originals.  Nothing under ``src/`` is edited.

A span records its name, start, end, parent span and op id.  A call opens
a span only when it enters a module from outside it: calls that stay
inside one module (``gamma`` -> ``gamma_plus``) are absorbed into the
caller's span, except for the kernels marked ``always`` (basis builds,
basis caches, suites, the flow solver), which are the layers the per-layer
metrics name.  A layer's self time is its span duration minus the time
covered by its child spans.

Spans are kept in flat arrays (a span costs 28 bytes) and written out as
one ``.npz`` when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("legendre", "grid", "vsh", "spectral", "sharp", "eigensolver", "flow", "suites", "cli")

# Names that open a span on every call, also from inside their own module.
ALWAYS = frozenset(
    {
        "grid.scalar_basis",
        "grid.scalar_basis.build",
        "vsh.vector_basis",
        "vsh.basis.build",
        "flow.gradient_flow",
        "flow.write_trajectory_csv",
        "grid.export_vector_field_csv",
    }
)

_FLOAT_BYTES = 8


def owned_nbytes(obj) -> int:
    """Bytes held by the numpy arrays an object owns (views excluded)."""
    return sum(
        v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray) and v.base is None
    )


def dense_transform_cost(basis, n_in: int, n_out: int) -> tuple[int, int]:
    """Computed (flops, bytes) of one dense transform against ``basis.matrix``.

    A multiply-add per table entry, and the table plus input and output
    read or written once.  Cache misses are ignored, so the bytes are a
    lower bound on traffic, labelled "computed" in the metrics.
    """
    table = int(basis.matrix.size)
    return 2 * table, _FLOAT_BYTES * (table + n_in + n_out)


class Tracer:
    """In-memory span recorder plus the counters measured at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[tuple[int, str]] = []
        self.op_id = -1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.op.append(self.op_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append((idx, name.partition(".")[0]))
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, op_id: int):
        """Root span the benchmark opens around one op (or the set-up, op -1)."""
        self.op_id = op_id
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- wrapping ---------------------------------------------------------

    def wrap(self, fn, name: str, after=None, always=None):
        """Timing wrapper around ``fn``; ``after(args, kwargs, result)`` runs on success."""
        module = name.partition(".")[0]
        always = name in ALWAYS if always is None else always
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            stack = tracer.stack
            if not always and stack and stack[-1][1] == module:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.close(idx)
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            tracer.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def counting(self, fn, name: str, cost):
        """Counter-only wrapper (no span) adding ``cost(args, result)`` = (flops, bytes)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            flops, nbytes = cost(args, result)
            tracer.counts[f"{name}.calls"] += 1
            tracer.counts[f"{name}.flops"] += flops
            tracer.counts[f"{name}.bytes"] += nbytes
            return result

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_everywhere(self, original, replacement) -> None:
        """Rebind every package-level name that refers to ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sphere_poincare" or mod_name.startswith("sphere_poincare.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, replacement)

    def install(self) -> None:
        """Wrap the public functions of every layer module and the basis kernels."""
        import sphere_poincare  # noqa: F401  (loads every layer module)
        from sphere_poincare import cli, grid, suites, vsh

        hooks = {
            "grid.export_vector_field_csv": self._csv_hook,
            "flow.gradient_flow": self._flow_hook,
        }
        for layer in LAYERS:
            if layer == "cli":
                continue
            mod = sys.modules[f"sphere_poincare.{layer}"]
            for public in getattr(mod, "__all__", ()):
                obj = getattr(mod, public)
                if not callable(obj) or isinstance(obj, type):
                    continue
                name = f"{layer}.{public}"
                self._patch_everywhere(obj, self.wrap(obj, name, hooks.get(name)))
        self._patch(cli, "main", self.wrap(cli.main, "cli.main", self._cli_hook))

        self._patch(grid.ScalarBasis, "__init__", self.wrap(
            grid.ScalarBasis.__init__, "grid.scalar_basis.build", self._build_hook("grid.scalar_basis")))
        self._patch(vsh.VectorBasis, "__init__", self.wrap(
            vsh.VectorBasis.__init__, "vsh.basis.build", self._build_hook("vsh.basis")))

        def scalar_analyze_cost(args, result):
            basis, values = args[0], args[1]
            return dense_transform_cost(basis, values.size, result.size)

        def scalar_synth_cost(args, result):
            basis, coeffs = args[0], args[1]
            return dense_transform_cost(basis, np.size(coeffs), result.size)

        def vector_synth_cost(args, result):
            basis = args[0]
            return dense_transform_cost(basis, basis.matrix.shape[0], result.values.size)

        def vector_analyze_cost(args, result):
            basis, field = args[0], args[1]
            return dense_transform_cost(basis, field.values.size, basis.matrix.shape[0])

        self._patch(grid.ScalarBasis, "analyze", self.counting(
            grid.ScalarBasis.analyze, "grid.scalar_transform", scalar_analyze_cost))
        self._patch(grid.ScalarBasis, "synthesize", self.counting(
            grid.ScalarBasis.synthesize, "grid.scalar_transform", scalar_synth_cost))
        self._patch(vsh.VectorBasis, "synthesize", self.counting(
            vsh.VectorBasis.synthesize, "vsh.transform", vector_synth_cost))
        self._patch(vsh.VectorBasis, "analyze", self.counting(
            vsh.VectorBasis.analyze, "vsh.transform", vector_analyze_cost))

        for suite, fn in list(suites.SUITES.items()):
            suites.SUITES[suite] = self.wrap(fn, f"suites.{suite}", always=True)
            self._patches.append((suites.SUITES, suite, fn))

    def uninstall(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- hooks measured at the boundaries -----------------------------------

    def _build_hook(self, prefix: str):
        def hook(args, kwargs, result):
            self.counts[f"{prefix}.bytes"] += owned_nbytes(args[0])

        return hook

    def _csv_hook(self, args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["grid.csv_bytes"] += os.path.getsize(path)

    def _flow_hook(self, args, kwargs, result):
        """Steps run and the computed cost of the band-limited matvecs.

        The explicit step applies the scalar basis (M x nodes) to the
        three field components four times (Laplacian, two-sided band
        projection, new coefficients) plus once per recorded step for the
        residual, and twice before the first step.
        """
        nodes = args[0].grid.n_nodes
        m = (result.band_limit + 1) ** 2  # rows of the dense ScalarBasis
        steps = result.state.step
        matvecs = 2 + 4 * steps + (len(result.records) - 1)
        self.counts["flow.steps"] += steps
        self.counts["flow.matvecs"] += matvecs
        self.counts["flow.matvec_flops"] += matvecs * 2 * m * nodes * 3
        self.counts["flow.matvec_bytes"] += matvecs * _FLOAT_BYTES * (m * nodes + 3 * nodes + 3 * m)

    def _cli_hook(self, args, kwargs, result):
        if result != 0:
            self.counts["cli.exit_nonzero"] += 1

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(name id, duration, self time) per span."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return names, dur, dur - child_time

    def cache_misses(self, lookup: str, build: str) -> tuple[int, int]:
        """(lookups, lookups that built): spans named ``lookup`` with a ``build`` child."""
        if lookup not in self._name_ids or build not in self._name_ids:
            return self.calls[lookup], 0
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        built = parent[(names == self._name_ids[build]) & (parent >= 0)]
        return self.calls[lookup], int(np.count_nonzero(names[np.unique(built)] == self._name_ids[lookup]))

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: span count, inclusive seconds, self seconds."""
        names, dur, self_time = self.self_times()
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = {
                "spans": int(np.count_nonzero(sel)),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
            }
        return out

    def write(self, path) -> None:
        """Write every span to ``path`` (.npz: names, name_id, parent, op, start, end)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )
