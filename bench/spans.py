"""Per-layer tracing installed from outside the program.

Every public function of each ``cflow`` module is wrapped, and the wrapper is
installed on every name under which a ``cflow`` module holds it: on
``cflow.annihilator.find_roots`` (the callers inside ``annihilator``) and on
``cflow.flow.find_roots`` (the name ``flow`` imported).  A call made through
any of those names becomes a span, so nesting under ``build_flow`` or
``evaluate_flow`` follows from the call stack.  ``CompanionFlow`` and
``HighPrecisionFlow`` methods are wrapped on the class.

Spans are aggregated in memory as they close: per span name the number of
calls, the total duration and the self time, which is the duration minus the
time covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("numeric", "annihilator", "basis", "flow", "highprec", "matfile", "cli")
TRACED_CLASSES = {"flow": ("CompanionFlow",), "highprec": ("HighPrecisionFlow",)}


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Wraps the ``cflow`` layers while installed; restores them on exit."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._child_time: list[float] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())
        child_time = self._child_time

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child_time.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = child_time.pop()
                if child_time:
                    child_time[-1] += duration
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - children

        return span

    def __enter__(self):
        modules = {name: importlib.import_module(f"cflow.{name}") for name in LAYERS}
        modules["__init__"] = importlib.import_module("cflow")
        for layer in LAYERS:
            module = modules[layer]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj)
                for holder in modules.values():
                    for held, value in list(vars(holder).items()):
                        if value is obj:
                            self._set(holder, held, wrapped)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
                        label = "init" if attr == "__init__" else attr
                        self._set(cls, attr, self.wrap(f"{layer}.{cls_name}.{label}", obj))
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()
        return False

    def _set(self, holder, attr, value):
        self._undo.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)
