"""In-memory spans around library calls, and the self times derived from them.

``patched`` swaps layer functions for span-recording wrappers under the
names the library's modules call them by, for the length of a block, so a
protocol call made inside it is traced as it is, with no copy of its code.
A span is ``[name, start, end, parent, run]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``run`` the repetition it belongs
to.  Spans stay in memory while the benchmark runs and are written out once
at the end, so recording one costs two clock reads and a list append.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # work done at the span boundaries
        self.kept: list = []  # results whose work is tallied after the root span closes
        self.run = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.run]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        span = self._open(name)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, tally=None):
        """``fn`` with a span called ``name`` around each call.

        ``tally(tracer, args, result)`` then adds the call's work to
        ``counts``.  A call made from directly inside a span of the same name
        (a layer function calling its sibling by the patched name) runs
        untraced, so its work is counted once.
        """

        def traced(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return fn(*args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if tally:
                tally(self, args, result)
            return result

        return traced

    @contextmanager
    def patched(self, layers, modules):
        """Within the block, every module in ``modules`` that holds a layer
        function under its name holds the ``wrap`` of it instead.

        ``layers`` holds (span name, defining module, attribute, tally).
        """
        saved = []
        try:
            for name, home, attr, tally in layers:
                fn = getattr(home, attr)
                traced = self.wrap(name, fn, tally)
                for module in modules:
                    if getattr(module, attr, None) is fn:
                        saved.append((module, attr, fn))
                        setattr(module, attr, traced)
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def durations(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """(total time, self time, calls) per span name.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of one root's tree sum to its duration.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child[i]
            calls[name] += 1
        return total, own, calls

    def write(self, path, **header) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "run"], "spans": self.spans}, fh)
