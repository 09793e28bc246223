"""In-memory spans for the traced run.

A span is (name, start, end, parent, ok): times in seconds from
time.perf_counter, parent the index of the enclosing span or -1, ok False
when the call inside raised. Spans stay in memory and are written once, at
the end of the run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        rec = [name, time.perf_counter(), None, parent, False]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield rec
            rec[4] = True
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Durations of the spans called name whose call returned."""
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[4]]

    def write(self, path, **header) -> None:
        keys = ("name", "start", "end", "parent", "ok")
        doc = dict(header, spans=[dict(zip(keys, s)) for s in self.spans])
        with open(path, "w") as fh:
            json.dump(doc, fh)
