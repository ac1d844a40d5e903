"""Span recorder for the traced in-process run.

``Tracer.install()`` wraps every public function defined in the bumplab
modules (``cli``, ``grid``, ``orlicz``, ``weights``, ``operators``,
``compactness``, ``io``, ``_threads``) and rebinds each wrapper under every
name that holds the original, in every bumplab module, so calls such as
``bumplab.weights.maximal_fn(...)`` are traced too. Nothing under ``src/``
changes; ``uninstall()`` restores the originals.

Each call records a span: id, name, parent id, start, end and thread. The
parent is the innermost open span of the calling thread. Items that
``_threads.parallel_map`` runs get a span ``_threads.parallel_map.item``
whose parent is the map's span, so work in pool threads keeps its parent.

Computed work counts are derived from each call's arguments or result by the
hooks in ``_COUNT_HOOKS``; ``COUNTERS`` gives each count's unit and formula.
They count work, they do not time it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from dataclasses import dataclass

MODULES = ("cli", "grid", "orlicz", "weights", "operators", "compactness", "io", "_threads")
PARALLEL_MAP = "_threads.parallel_map"
PARALLEL_ITEM = "_threads.parallel_map.item"
_CUBE_FUNCTIONS = ("grid.cube_family", "grid.dyadic_cubes", "grid.shifted_dyadic_cubes")


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float
    end: float
    thread: int


def _kernel_block(a, result):
    # K_eta sampled on every (row, column) pair: len(x_rows) * len(x_cols)
    return {"operators.kernel_evals": len(a["x_rows"]) * len(a["x_cols"])}


def _sharp(a, result):
    # T# evaluates K on the full m x m block grid once: m^2
    m = a["f"].grid.cells
    return {"operators.kernel_evals": m * m}


def _dense(a, result):
    # one m x m float64 array: 8 * m^2 bytes
    return {"operators.dense_bytes": 8 * result.shape[0] * result.shape[1]}


def _svd(a, result):
    # Golub-Reinsch SVD of an m x n matrix (m >= n) with U_1 and V:
    # 14 m n^2 + 8 n^3 flops (Golub & Van Loan, Matrix Computations, 5.4.5)
    m, n = a["matrix"].shape
    m, n = max(m, n), min(m, n)
    return {"compactness.svd_flops": 14 * m * n * n + 8 * n ** 3}


def _maximal(a, result):
    # one running-max filter pass per window width 2..m: m - 1
    return {"operators.maximal_fn.windows": a["f"].grid.cells - 1}


def _cubes(a, result):
    # cubes in the family returned to a caller outside the grid module
    return {"grid.cubes": len(result)}


def _orlicz(a, result):
    # the bracketing + bisection iteration count the function returns
    return {"orlicz.iterations": int(result[1])}


_COUNT_HOOKS = {
    "operators.truncated_kernel_block": _kernel_block,
    "operators.maximal_truncation": _sharp,
    "operators.truncated_kernel_matrix": _dense,
    "operators.commutator_matrix": _dense,
    "compactness.operator_matrix": _dense,
    "compactness.singular_values": _svd,
    "operators.maximal_fn": _maximal,
    "grid.cube_family": _cubes,
    "grid.dyadic_cubes": _cubes,
    "grid.shifted_dyadic_cubes": _cubes,
    "orlicz.orlicz_average_values": _orlicz,
}

# Computed work counts: name -> (unit, formula). Each count is derived from
# call arguments or results by the matching function in _COUNT_HOOKS.
COUNTERS = {
    "operators.kernel_evals": (
        "count", "len(x_rows)*len(x_cols) per truncated_kernel_block + m^2 per "
                 "maximal_truncation"),
    "operators.dense_bytes": (
        "bytes", "8*m^2 per truncated_kernel_matrix, commutator_matrix or "
                 "operator_matrix result"),
    "compactness.svd_flops": (
        "flop", "14*m*n^2 + 8*n^3 per singular_values call on an m x n matrix, m >= n"),
    "operators.maximal_fn.windows": ("count", "m - 1 per maximal_fn call"),
    "grid.cubes": ("count", "len(result) of cube-family calls made outside grid"),
    "orlicz.iterations": ("count", "sum of iteration counts orlicz_average_values returns"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._names: dict[int, str] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"bumplab.{name}") for name in MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(f"{short}.{name}", obj)
        for mod in [importlib.import_module("bumplab"), *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._restore):
            setattr(mod, name, obj)
        self._restore.clear()

    def reset(self) -> None:
        self.spans = []
        self.counts = {}
        self._names = {}

    # -- recording --------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, sid: int, name: str, parent: int | None, fn, args, kwargs):
        self._names[sid] = name
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, parent, start, end, threading.get_ident()))

    def _wrap(self, name: str, fn):
        tracer = self
        counter = _COUNT_HOOKS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            if name == PARALLEL_MAP:
                bound = sig.bind(*args, **kwargs)
                bound.arguments["fn"] = tracer._item_fn(bound.arguments["fn"], sid)
                args, kwargs = bound.args, bound.kwargs
            result = tracer._span(sid, name, parent, fn, args, kwargs)
            if counter is not None:
                if name in _CUBE_FUNCTIONS and tracer._names.get(parent) in _CUBE_FUNCTIONS:
                    return result  # counted by the outer cube-family call
                bound = sig.bind(*args, **kwargs)
                with tracer._lock:
                    for key, n in counter(bound.arguments, result).items():
                        tracer.counts[key] = tracer.counts.get(key, 0) + n
            return result

        return traced

    def _item_fn(self, fn, map_sid: int):
        def item(x):
            return self._span(next(self._ids), PARALLEL_ITEM, map_sid, fn, (x,), {})
        return item

    # -- summaries --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Sum per span name of duration minus the time its children cover."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        totals: dict[str, float] = {}
        for s in self.spans:
            covered, cursor = 0.0, s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start) - covered
        return totals

    def call_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0) + 1
        return out

    def parallel_map_stats(self) -> tuple[int, float]:
        """Largest number of distinct threads that ran one map's items, and
        the summed item durations over the summed map durations."""
        items: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.name == PARALLEL_ITEM:
                items.setdefault(s.parent, []).append(s)
        workers, busy, wall = 0, 0.0, 0.0
        for s in self.spans:
            if s.name == PARALLEL_MAP:
                mine = items.get(s.sid, [])
                workers = max(workers, len({c.thread for c in mine}))
                busy += sum(c.end - c.start for c in mine)
                wall += s.end - s.start
        return workers, (busy / wall if wall > 0 else 0.0)

    def span_records(self) -> list[dict]:
        return [{"id": s.sid, "name": s.name, "parent": s.parent, "start": s.start,
                 "end": s.end, "thread": s.thread} for s in self.spans]
