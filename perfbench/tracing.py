"""In-memory span tracing at the rlattice module boundaries.

A traced pass replaces each of the package's public entry points, in
every rlattice module that holds a reference to it, with a wrapper that
records one span per call: name, parent span, start, end, and a work
count read from the call's result.  Calls the benchmark makes and calls
one module makes into another both go through those references, so the
spans nest the way the layers do.  Nothing under `src/` is changed, and
untraced passes run the original functions.

A span's layer is its name without the last dotted part, so
`models.search.search_model` belongs to `models.search`.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "work", "kind", "label")

    def __init__(self, id_: int, parent: int | None, name: str, start: float):
        self.id = id_
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.work = 0
        self.kind = None
        self.label = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.rsplit(".", 1)[0]


class Tracer:
    """Collects spans in memory; `dump` writes them out at the end."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, measure):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                s.work, s.kind = measure(result)
            return result
        return traced

    @contextmanager
    def instrument(self, modules, targets):
        """Wrap every module-level reference to a target function.

        `targets` maps a function to (span name, measure), where
        `measure(result)` returns (work count, kind).  The originals are
        restored on exit.
        """
        wrappers = {id(fn): self._wrap(fn, name, measure)
                    for fn, (name, measure) in targets.items()}
        saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def label_last(self, name: str, label: str) -> None:
        """Attach a label to the most recent finished span called `name`."""
        for s in reversed(self.spans):
            if s.name == name:
                s.label = label
                return

    def subtree(self, root: Span) -> list[Span]:
        """`root` and every span nested under it (spans are in start order)."""
        inside = {root.id}
        out = [root]
        for s in self.spans[root.id + 1:]:
            if s.parent in inside:
                inside.add(s.id)
                out.append(s)
        return out

    def dump(self, path) -> None:
        rows = [
            {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
             "end": s.end, "work": s.work, "kind": s.kind, "label": s.label}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
            fh.write("\n")


class NullTracer:
    """Stands in for Tracer in untraced passes; records nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str):
        yield None

    @contextmanager
    def instrument(self, modules, targets):
        yield

    def label_last(self, name: str, label: str) -> None:
        pass


def self_seconds(spans: list[Span]) -> dict[str, float]:
    """Per layer: span time minus the time covered by its child spans."""
    children = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.seconds
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.layer] += s.seconds - children[s.id]
    return out
