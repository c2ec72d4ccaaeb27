"""Spans around calls into cavray's public functions, recorded from outside.

``Tracer.install`` replaces every public function and public method of
the package's modules with a wrapper that records a span (name, start,
end, parent, op id). It also rebinds every name that another module or
tuple bound to the original with ``from ... import``, so calls made
through ``cli``, ``experiment``, ``validation`` and the package namespace
are seen too. ``Tracer.uninstall`` puts the originals back. Spans stay in
memory; ``flush`` folds them into per-name totals between ops, and
``write_csv`` writes out the ones kept.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

ROOT_NAME = "op"


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the parent span, -1 for an op's root
    op: int
    error: bool
    size: int = 0  # work items handled, for names given a size function


def _public_callables(module: ModuleType, short: str):
    """(owner, attribute, raw attribute, function, span name) for each public callable."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, name, obj, obj, f"{short}.{name}"
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                func = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if inspect.isfunction(func):
                    yield obj, attr, raw, func, f"{short}.{name}.{attr}"


class Tracer:
    """Records nested spans for calls into a set of modules."""

    def __init__(self, modules: dict[str, ModuleType],
                 sizes: dict[str, Callable] | None = None):
        self.sizes = sizes or {}
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self.totals: dict[str, Totals] = defaultdict(Totals)
        self.kept: list[tuple] = []
        self.flushed = 0
        self._patches: list[tuple[object, str, object, object]] = []
        wrapped: dict[int, Callable] = {}
        for short, module in modules.items():
            for owner, attr, raw, func, name in _public_callables(module, short):
                wrapper = self._wrap(func, name)
                wrapped[id(func)] = wrapper
                if isinstance(raw, classmethod):
                    replacement = classmethod(wrapper)
                elif isinstance(raw, staticmethod):
                    replacement = staticmethod(wrapper)
                else:
                    replacement = wrapper
                self._patches.append((owner, attr, raw, replacement))
        # names bound elsewhere to the originals, e.g. ``from .x import f``
        # or the ALL_CHECKS tuple, must call the wrappers as well
        patched = {(id(owner), attr) for owner, attr, _, _ in self._patches}
        for module in modules.values():
            for attr, value in vars(module).items():
                if (id(module), attr) in patched:
                    continue
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._patches.append((module, attr, value, wrapped[id(value)]))
                elif isinstance(value, tuple) and any(id(v) in wrapped for v in value):
                    swapped = tuple(wrapped.get(id(v), v) for v in value)
                    self._patches.append((module, attr, value, swapped))

    def _wrap(self, func: Callable, name: str) -> Callable:
        spans, stack = self.spans, self._stack
        size_of = self.sizes.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0, 0, stack[-1] if stack else -1, self.op, False)
            spans.append(span)
            stack.append(index)
            span.start_ns = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end_ns = time.perf_counter_ns()
                stack.pop()
            if size_of is not None:
                span.size = size_of(args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def run_op(self, op: int, func: Callable, *args):
        """Call func(*args) inside a root span for op ``op``; returns (result, span)."""
        self.op = op
        index = len(self.spans)
        result = self._wrap(func, ROOT_NAME)(*args)
        return result, self.spans[index]

    def flush(self, keep: bool) -> None:
        """Fold the buffered spans into ``totals``; keep them for write_csv if ``keep``.

        Call between ops: an op's spans only point at spans of the same op.
        """
        for name, t in totals_by_name(self.spans).items():
            self.totals[name].add(t)
        if keep:
            offset = self.flushed
            self.kept.extend(
                (i + offset, s.op, s.parent + offset if s.parent >= 0 else -1, s.name,
                 s.start_ns, s.end_ns, int(s.error), s.size)
                for i, s in enumerate(self.spans))
        self.flushed += len(self.spans)
        self.spans.clear()

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,op,parent,name,start_ns,end_ns,error,size\n")
            for row in self.kept:
                fh.write(",".join(map(str, row)) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time covered by its direct children."""
    own = [s.end_ns - s.start_ns for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end_ns - s.start_ns
    return own


@dataclass
class Totals:
    calls: int = 0
    busy_ns: int = 0  # span durations, callees included
    self_ns: int = 0  # span durations less their wrapped callees
    errors: int = 0
    size: int = 0

    def add(self, other: "Totals") -> None:
        self.calls += other.calls
        self.busy_ns += other.busy_ns
        self.self_ns += other.self_ns
        self.errors += other.errors
        self.size += other.size


def totals_by_name(spans: list[Span]) -> dict[str, Totals]:
    out: dict[str, Totals] = defaultdict(Totals)
    for span, own in zip(spans, self_times(spans)):
        t = out[span.name]
        t.calls += 1
        t.busy_ns += span.end_ns - span.start_ns
        t.self_ns += own
        t.errors += span.error
        t.size += span.size
    return out
