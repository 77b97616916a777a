"""Call spans recorded from outside the program.

A `Tracer` replaces public functions of `treelike` where their callers bind
them (for example `treelike.verify.tlt_survey`, which `verify` imported by
name) with wrappers that time each call. Calls are kept as a calling-context
tree: every call of one function, at one size `n`, under one parent span is
folded into a single span that counts its calls. A span's `start` and `end`
are its first entry and last exit; `total_s` is the time spent inside it and
`self_s` that time minus the time inside its child spans.

A generator function's span covers only the time spent inside `next()`, up
to exhaustion, and counts the items yielded as `objects`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
from time import perf_counter


class Span:
    __slots__ = (
        "id", "name", "n", "parent", "children", "calls", "objects",
        "total_s", "start", "end", "hits", "misses",
    )

    def __init__(self, sid: int, name: str, n, parent: "Span | None"):
        self.id = sid
        self.name = name
        self.n = n
        self.parent = parent
        self.children: dict = {}
        self.calls = 0
        self.objects = 0
        self.total_s = 0.0
        self.start: float | None = None
        self.end: float | None = None
        self.hits: int | None = None
        self.misses: int | None = None

    def record(self, t0: float, t1: float) -> None:
        self.total_s += t1 - t0
        if self.start is None:
            self.start = t0
        self.end = t1

    @property
    def self_s(self) -> float:
        return self.total_s - sum(c.total_s for c in self.children.values())

    def walk(self):
        yield self
        for child in self.children.values():
            yield from child.walk()


def _size_arg(args) -> int | None:
    for a in args:
        if type(a) is int:
            return a
    return None


class Tracer:
    """Owns the span tree of one process and the wrappers that feed it."""

    def __init__(self, workload: str):
        self.workload = workload
        self._next_id = 0
        self.root = self._new_span("root", None, None)
        self.stack = [self.root]
        self._patched: list[tuple[object, str, object]] = []

    def _new_span(self, name, n, parent):
        self._next_id += 1
        return Span(self._next_id, name, n, parent)

    def child(self, name: str, n=None) -> Span:
        parent = self.stack[-1]
        key = (name, n)
        node = parent.children.get(key)
        if node is None:
            node = parent.children[key] = self._new_span(name, n, parent)
        return node

    # -- explicit phases -------------------------------------------------

    @contextlib.contextmanager
    def phase(self, name: str):
        """A span around a block of benchmark code, such as the timed phase."""
        node = self.child(name)
        self.stack.append(node)
        t0 = perf_counter()
        try:
            yield node
        finally:
            t1 = perf_counter()
            self.stack.pop()
            node.record(t0, t1)
            node.calls += 1

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn, name):
        """Wrap `fn`; `name` is a span name or a callable of the call's
        arguments that returns one."""
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        return self._wrap_call(fn, name)

    def _wrap_call(self, fn, name):
        tracer = self
        cache_info = getattr(fn, "cache_info", None)
        named = callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            node = tracer.child(name(*args) if named else name, _size_arg(args))
            before = cache_info() if cache_info is not None else None
            tracer.stack.append(node)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                node.record(t0, t1)
                node.calls += 1
            if before is not None:
                after = cache_info()
                missed = after.misses - before.misses
                node.hits = (node.hits or 0) + after.hits - before.hits
                node.misses = (node.misses or 0) + missed
            else:
                missed = 1
            count = getattr(result, "count", None)
            if missed and type(count) is int:
                node.objects += count
            return result

        return wrapper

    def _wrap_generator(self, fn, name):
        tracer = self
        named = callable(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            node = tracer.child(name(*args) if named else name, _size_arg(args))
            node.calls += 1
            inner = fn(*args, **kwargs)
            stack = tracer.stack
            while True:
                stack.append(node)
                t0 = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    node.record(t0, t1)
                node.objects += 1
                yield item

        return wrapper

    def patch(self, module_name: str, attr: str, name) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(original, name))

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    # -- output ------------------------------------------------------------

    def lines(self):
        """One JSON-ready dict per span, root excluded."""
        pid = os.getpid()
        for span in self.root.walk():
            if span is self.root:
                continue
            cache = None
            if span.misses is not None:
                cache = {"hits": span.hits, "misses": span.misses}
            yield {
                "name": span.name,
                "workload": self.workload,
                "pid": pid,
                "id": span.id,
                "parent": span.parent.id if span.parent is not self.root else None,
                "n": span.n,
                "calls": span.calls,
                "objects": span.objects,
                "start": span.start,
                "end": span.end,
                "ms": span.total_s * 1e3,
                "self_ms": span.self_s * 1e3,
                "peak_kb": None,
                "cache": cache,
            }
