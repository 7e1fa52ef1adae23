"""Run one shrinkerlab command with each layer's entry points wrapped in spans.

    python3 perfbench/trace.py SPANS_JSON CLI_ARGS...

runs `shrinkerlab.cli.main(CLI_ARGS)` in this process, after wrapping, from
outside the package:

- every public module-level function of each layer module (plus
  `spectral._symmetric_form`), rebound in every shrinkerlab module that
  imported it with `from ... import`, so calls made through those names are
  caught as well;
- every cached property of `operators.Operators` (its first access is the
  assembly of that operator) and `operators.OperatorHandle.apply`;
- `scipy.sparse.linalg.lobpcg`, only to count its iterations, as the
  applications of its preconditioner (one per iteration; `maxiter + 1` when
  the loop runs out). The count goes through a delegating operator, so the
  arithmetic is unchanged.

Spans are `[name, start, end, parent]` and stay in memory until the command
ends. Then they are written to SPANS_JSON with the counters the hooks keep,
a record of the run environment, and `overhead_s`: the time spent in this
file's own code (installing the wrappers, span and counter bookkeeping, the
BLAS query), measured in this process. The exit code is the command's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from functools import cached_property

LAYERS = (
    "cli",
    "models",
    "grid",
    "fields",
    "operators",
    "spectral",
    "propagation",
    "verification",
    "reports",
)
# private functions that a per-layer metric needs as a span of its own
EXTRA = {"spectral": ("_symmetric_form",)}
# helpers called on every field product; a span each would cost more than
# the work it measures
SKIP = {"models": ("sym_pairs", "pair_multiplicity"), "fields": ("components_for",)}


class Tracer:
    """In-memory span recorder for a single-threaded program."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.overhead_s = 0.0

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a span `name`; `after(args, kwargs, result)` runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, kwargs, result)
            self.overhead_s += span[1] - entered + time.perf_counter() - span[2]
            return result

        return traced


def _bound(fn, args, kwargs) -> dict:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _hooks(tracer: Tracer, mods: dict) -> dict:
    """Counters read from the arguments and results of traced calls."""

    def grid_built(args, kwargs, result):
        tracer.peak("grid.nodes", result[0].n_nodes)

    def solved(args, kwargs, pairs):
        arg = _bound(mods["spectral"].lowest_eigenpairs, args, kwargs)
        tracer.peak("spectral.unknowns", arg["operator"].matrix.shape[1])
        tracer.count("spectral.pairs_requested", arg["count"])
        tracer.count(
            "spectral.pairs_converged", sum(p.residual <= arg["tolerance"] for p in pairs)
        )

    def p_assembled(args, kwargs, result):
        tracer.peak("operators.p_nnz", result.nnz)

    def report_written(args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        tracer.count("reports.bytes", os.path.getsize(path))

    return {
        "grid.build_grid": grid_built,
        "spectral.lowest_eigenpairs": solved,
        "operators.Operators.op_p": p_assembled,
        **{f"reports.{n}": report_written for n in vars(mods["reports"]) if n.startswith("write_")},
    }


def instrument(tracer: Tracer) -> None:
    pkg = importlib.import_module("shrinkerlab")
    mods = {layer: importlib.import_module(f"shrinkerlab.{layer}") for layer in LAYERS}
    hooks = _hooks(tracer, mods)
    namespaces = [pkg, *mods.values()]
    for layer, mod in mods.items():
        for attr, fn in list(vars(mod).items()):
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and attr not in EXTRA.get(layer, ()):
                continue
            if attr in SKIP.get(layer, ()):
                continue
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(name, fn, hooks.get(name))
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        setattr(ns, key, wrapped)

    ops_cls = mods["operators"].Operators
    for attr, prop in list(vars(ops_cls).items()):
        if isinstance(prop, cached_property):
            name = f"operators.Operators.{attr}"
            new = cached_property(tracer.wrap(name, prop.func, hooks.get(name)))
            new.__set_name__(ops_cls, attr)
            setattr(ops_cls, attr, new)
    handle_cls = mods["operators"].OperatorHandle
    handle_cls.apply = tracer.wrap("operators.OperatorHandle.apply", handle_cls.apply)

    import scipy.sparse.linalg as spla

    lobpcg = spla.lobpcg

    @functools.wraps(lobpcg)
    def counted_lobpcg(*args, **kwargs):
        entered = time.perf_counter()
        arg = _bound(lobpcg, args, kwargs)
        pre = arg["M"]
        applied = [0]

        def counted(x):
            applied[0] += 1
            return pre @ x

        if pre is not None:
            arg["M"] = spla.LinearOperator(pre.shape, matvec=counted, matmat=counted,
                                           dtype=pre.dtype)
        started = time.perf_counter()
        result = lobpcg(**arg)
        ended = time.perf_counter()
        tracer.count("spectral.iterations", applied[0])
        if applied[0] > (arg["maxiter"] or 20):
            tracer.count("spectral.maxiter_hits")
        tracer.overhead_s += started - entered + time.perf_counter() - ended
        return result

    spla.lobpcg = counted_lobpcg


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import numpy
    import scipy
    from shrinkerlab import cli  # imported by an untraced run too

    tracer = Tracer()
    started = time.perf_counter()
    instrument(tracer)
    tracer.overhead_s += time.perf_counter() - started
    try:
        code = cli.main(cli_args)
    finally:
        started = time.perf_counter()
        env = {
            "nproc": os.cpu_count(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": blas_threads(),
        }
        tracer.overhead_s += time.perf_counter() - started
        doc = {
            "spans": tracer.spans,
            "counters": tracer.counters,
            "env": env,
            "overhead_s": tracer.overhead_s,
        }
        with open(out_path, "w") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
