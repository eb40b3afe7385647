"""Spans around calls into edgrow, installed from outside the package.

:class:`Tracer` replaces functions in the ``edgrow`` module namespaces with
wrappers that record one span per call: ``(name, parent, start, end)``,
where ``parent`` is the index of the enclosing span (``-1`` for a root).
Spans stay in memory until the run ends.  A function imported by name into
another module (``diagnostics`` imports ``equilibrium_profile``, ``cli``
calls ``_sweep_row`` through its own globals) is wrapped in every namespace
that holds it, so calls are counted wherever they are made from.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("kernels", "equilibrium", "dynamics", "thermo", "diagnostics", "cli")

# Functions outside the modules' ``__all__`` that carry per-layer metrics:
# the RHS the stepper calls, the sweep row body and the CSV writers.
EXTRA_TARGETS = (
    ("dynamics", "_rhs_from_c"),
    ("cli", "cmd_check_kernel"),
    ("cli", "cmd_equilibrium"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_sweep"),
    ("cli", "cmd_weights"),
    ("cli", "_sweep_row"),
    ("cli", "_write_trajectory_csv"),
    ("cli", "_write_summary_csv"),
)

# ``cli.main`` is the call the benchmark times; wrapping it would make the
# coverage share trivially 1.
SKIPPED = {("cli", "main")}


class TraceTargetMissing(RuntimeError):
    """A function the trace expects is gone from edgrow; the run must not
    silently report zero for it."""


def _is_function(obj) -> bool:
    return isinstance(obj, (types.FunctionType, functools._lru_cache_wrapper))


def _modules() -> dict:
    """Every loaded edgrow module, keyed by its short name."""
    import edgrow.cli  # noqa: F401  (cli is not imported by the package)

    return {
        name.rpartition(".")[2]: module
        for name, module in sys.modules.items()
        if name == "edgrow" or name.startswith("edgrow.")
    }


def targets(modules: dict) -> list:
    """``(layer, attribute)`` pairs to wrap; raises if one does not exist."""
    found = []
    for layer in LAYERS:
        module = modules.get(layer)
        if module is None:
            raise TraceTargetMissing(f"edgrow.{layer} is not importable")
        for attr in getattr(module, "__all__", ()):
            if (layer, attr) not in SKIPPED and _is_function(getattr(module, attr, None)):
                found.append((layer, attr))
    for layer, attr in EXTRA_TARGETS:
        if not _is_function(getattr(modules[layer], attr, None)):
            raise TraceTargetMissing(f"edgrow.{layer}.{attr} is missing or not a function")
        found.append((layer, attr))
    return found


class Tracer:
    """Install wrappers with :meth:`install`, always undo with :meth:`restore`."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []  # (module, attribute, original)
        self._caches: dict = {}  # span name -> (lru original, misses at install)

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = _modules()
        wrappers = set()
        for layer, attr in targets(modules):
            original = getattr(modules[layer], attr)
            if original in wrappers:  # exported by two modules: one span name
                continue
            name = f"{layer}.{attr}"
            wrapper = self._wrap(name, original)
            wrappers.add(wrapper)
            if hasattr(original, "cache_info"):
                self._caches[name] = (original, original.cache_info().misses)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, key, original = self._patched.pop()
            setattr(module, key, original)

    def cache_misses(self) -> dict:
        """Cache misses since :meth:`install` of each ``lru_cache`` target."""
        return {
            name: original.cache_info().misses - start
            for name, (original, start) in self._caches.items()
        }


def summarize(spans: list) -> dict:
    """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``.

    Self time is a span's duration minus the durations of its direct
    children; calls are strictly nested, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for i, (name, parent, start, end) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += (end - start) - child_time[i]
    return out


def root_time(spans: list) -> float:
    """Wall time covered by root spans (they never overlap)."""
    return sum(end - start for _, parent, start, end in spans if parent < 0)
