"""In-memory spans recorded around calls into the program.

A span has a name, a start and an end (perf_counter seconds), the span
that caused it and a trace id shared by the spans of one pass. Spans stay
in memory until the run ends and are written out in one piece.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class NullTracer:
    """Stand-in for untraced passes: no clock reads, no records."""

    @staticmethod
    def span(name, **attrs):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []
        self.trace = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name, "trace": self.trace,
               "parent": self._stack[-1] if self._stack else None,
               "attrs": attrs, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Span id -> its duration minus the time its children cover."""
        kids = defaultdict(list)
        for s in self.spans:
            if s["parent"] is not None:
                kids[s["parent"]].append((s["start"], s["end"]))
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s["start"]
            for a, b in sorted(kids[s["id"]]):
                a, b = max(a, reach), min(b, s["end"])
                if b > a:
                    covered += b - a
                    reach = b
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out
