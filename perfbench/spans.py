"""In-memory span recorder for the traced benchmark run.

A span has a name, a start, an end and the index of the span that was open
when it began. The layer of a span is the part of its name before the first
dot, so `linalg.cholesky` belongs to `linalg`; spans the benchmark opens for
its own bookkeeping use the `bench` layer. Spans stay in memory until `dump`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or None]
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str, under: str | None = None) -> list[float]:
        """Durations of the spans called `name`, optionally only those
        opened inside a span called `under`."""
        return [end - start for i, (n, start, end, _) in enumerate(self.spans)
                if n == name and (under is None or self._inside(i, under))]

    def _inside(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def self_time_by_layer(self) -> dict[str, float]:
        """Per layer, span time not covered by the span's own children."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), covered in zip(self.spans, child_time):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - covered
        return out

    def dump(self, path) -> None:
        rows = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)
