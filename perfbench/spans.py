"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a layer, recorded by the benchmark around a
public function of the program: its name (``<layer>.<function>``),
start and end on the ``perf_counter_ns`` clock, the span that was open
when it started, and the id of the operation it belongs to.  Spans
stay in memory while a run measures and are written out once, when it
ends.  A layer's self time is the duration of its spans minus the part
covered by their child spans.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import defaultdict

# fields of one span record
SID, PARENT, OP, NAME, START, END, CALLS = range(7)


class Tracer:
    """Collects spans; ``op`` is the id stamped on every span opened next."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op = -1

    def begin(self, name: str) -> list:
        rec = [
            len(self.spans),
            self._open[-1] if self._open else -1,
            self.op,
            name,
            time.perf_counter_ns(),
            0,
            1,
        ]
        self.spans.append(rec)
        self._open.append(rec[SID])
        return rec

    def end(self, rec: list):
        rec[END] = time.perf_counter_ns()
        self._open.pop()

    def span(self, name: str):
        return _Span(self, name)

    def aggregate(self, name: str, total_ns: int, calls: int):
        """One child span of the open span standing for ``calls`` calls
        too short and too many to record one by one."""
        parent = self.spans[self._open[-1]]
        start = parent[START]
        self.spans.append(
            [len(self.spans), parent[SID], self.op, name, start, start + total_ns, calls]
        )

    def wrap(self, fn, name: str):
        """``fn`` with a span around every call."""

        def traced(*args, **kwargs):
            rec = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(rec)

        return traced

    def durations_ns(self, name: str) -> list:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def self_ns_by_layer(self) -> dict:
        """Total self time per layer, the layer being the name's prefix."""
        child_ns = defaultdict(int)
        for s in self.spans:
            if s[PARENT] >= 0:
                child_ns[s[PARENT]] += s[END] - s[START]
        out = defaultdict(int)
        for s in self.spans:
            layer = s[NAME].split(".", 1)[0]
            out[layer] += s[END] - s[START] - child_ns[s[SID]]
        return dict(out)

    def dump(self, path):
        """Write every span as one JSON line, gzip-compressed."""
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "calls")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "rec")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.rec = self.tracer.begin(self.name)
        return self.rec

    def __exit__(self, *exc):
        self.tracer.end(self.rec)
        return False
