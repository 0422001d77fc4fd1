"""Outside-in tracing of radd's public functions.

:class:`Tracer` replaces every public function of the traced modules at
every place it is looked up (the defining module, the package namespace and
each module that imported it by name, such as ``radd.cli.load`` and
``radd.metrics.retrieve_batch``) with a wrapper that records a span, and
puts the originals back on exit. Spans stay in memory as
``[name, parent, start, end, attrs]`` lists; :func:`layer_totals` turns them
into per-layer busy time, self time, call counts and summed attributes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

TRACED_MODULES = ("store", "retrieval", "ensemble", "metrics", "ablation", "synthetic")
LOOKUP_SITES = ("", "cli") + TRACED_MODULES


class Tracer:
    """Records spans while installed. *observers* maps a span name to
    ``fn(bound_args, result)``, which returns the call's attributes (a dict of
    numbers, plus an optional ``strategy`` string)."""

    def __init__(self, package, observers=None):
        self.package = package
        self.observers = observers or {}
        self.spans: list[list] = []
        self._stack = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _parent(self) -> int | None:
        stack = getattr(self._stack, "items", None)
        return stack[-1] if stack else None

    def _open(self, name: str) -> int:
        if not hasattr(self._stack, "items"):
            self._stack.items = []
        self.spans.append([name, self._parent(), time.perf_counter(), None, None])
        index = len(self.spans) - 1
        self._stack.items.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        self._stack.items.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a CLI command, a pass);
        yields its index in :attr:`spans`."""
        index = self._open(name)
        try:
            yield index
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)
        observe = self.observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if observe is not None:
                self.spans[index][4] = observe(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{self.package.__name__}.{short}")
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value.__module__ == module.__name__ and not attr.startswith("_"):
                    wrappers[id(value)] = self._wrap(f"{short}.{attr}", value)
        for short in LOOKUP_SITES:
            module = importlib.import_module(f"{self.package.__name__}.{short}" if short else self.package.__name__)
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] is not None:
            out[s[1]] -= s[3] - s[2]
    return out


def subtree(spans: list[list], root: int) -> list[int]:
    """Indices of *root* and all its descendants (spans are stored in
    opening order, so descendants follow their ancestor)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][1] in inside:
            inside.add(i)
    return sorted(inside)


def layer_totals(spans: list[list], indices) -> dict[str, dict[str, float]]:
    """Per span name: summed ``s`` (busy time), ``self_s``, ``calls`` and
    every numeric attribute. A ``strategy`` attribute also books the time
    under ``<module>.<strategy>``."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i in indices:
        name, _, start, end, attrs = spans[i]
        entry = totals[name]
        entry["s"] += end - start
        entry["self_s"] += selfs[i]
        entry["calls"] += 1
        for key, value in (attrs or {}).items():
            if key == "strategy":
                totals[f"{name.split('.')[0]}.{value}"]["s"] += end - start
            else:
                entry[key] += value
    return totals
