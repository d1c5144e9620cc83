"""Spans around the calls into each `esl` module's public functions.

The tracer wraps functions from outside the package: for every public
function defined in a traced module it replaces each module attribute that
refers to it (the defining module, re-exports such as `report.lct_monomial`,
and the package namespace), so calls are seen whichever name the caller uses.
`uninstall` restores the originals.

Spans are kept in memory: parallel lists of name, start, end, parent span,
error and an optional work count, appended as calls start.
Self time is a span's duration minus its children's; the package runs
single-threaded here, so children of one span never overlap.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from types import ModuleType
from typing import Callable

PACKAGE = "esl"
LAYERS = ("cli", "mapspec", "report", "suites", "polys", "lct", "simplex",
          "exponents", "realnum", "padic")


class Tracer:
    """Wraps the public functions of the traced modules and records spans.

    `counters` maps a span name to a function of the call's bound arguments
    and its result that gives the span's work count (rows, cells, minors).
    """

    def __init__(self, counters: dict[str, Callable] | None = None):
        self.counters = counters or {}
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.error: list[str | None] = []
        self.count: list[int] = []
        self._stack: list[int] = []
        self._patches: list[tuple[ModuleType, str, Callable]] = []

    # -- installation -----------------------------------------------------

    def _modules(self) -> list[ModuleType]:
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        modules = self._modules()
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for alias, value in vars(holder).items():
                        if value is fn:
                            self._patches.append((holder, alias, fn))
                            setattr(holder, alias, wrapped)

    def uninstall(self) -> None:
        for holder, alias, fn in reversed(self._patches):
            setattr(holder, alias, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        names, start, end, parent, error, count, stack = (
            self.names, self.start, self.end, self.parent, self.error, self.count, self._stack)
        counter = self.counters.get(name)
        signature = inspect.signature(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            error.append(None)
            count.append(0)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                error[index] = type(exc).__name__
                raise
            finally:
                end[index] = clock()
                stack.pop()
            if counter is not None:
                count[index] = counter(signature.bind(*args, **kwargs).arguments, out)
            return out

        return traced

    # -- analysis ---------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span, for slicing the spans of one round."""
        return len(self.names)

    def self_times(self, lo: int = 0, hi: int | None = None) -> dict[str, float]:
        """Total self time per span name over spans lo..hi."""
        hi = len(self.names) if hi is None else hi
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            up = self.parent[i]
            if up >= lo:
                child[up - lo] += self.end[i] - self.start[i]
        totals: dict[str, float] = defaultdict(float)
        for i in range(lo, hi):
            totals[self.names[i]] += self.end[i] - self.start[i] - child[i - lo]
        return dict(totals)

    def totals(self, lo: int = 0, hi: int | None = None) -> dict[str, tuple[int, int]]:
        """(calls, summed work count) per span name over spans lo..hi."""
        hi = len(self.names) if hi is None else hi
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for i in range(lo, hi):
            entry = out[self.names[i]]
            entry[0] += 1
            entry[1] += self.count[i]
        return {name: (calls, work) for name, (calls, work) in out.items()}
