"""In-memory span recorder for the traced benchmark run.

A span is (name, parent, start, end) with ``parent`` the index of the
enclosing span or -1.  Spans are kept in memory while the run lasts and
written out once at the end.  A layer's self time is its spans' durations
minus the part of each span that its direct children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Dict, List


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._stack: List[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> float:
        end = time.perf_counter()
        self.ends[idx] = end
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")
        return end - self.starts[idx]

    def durations(self, name: str) -> List[float]:
        return [
            e - s
            for n, s, e in zip(self.names, self.starts, self.ends)
            if n == name
        ]

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        child_time = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child_time[p] += self.ends[i] - self.starts[i]
        out: Dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += self.ends[i] - self.starts[i] - child_time[i]
        return dict(out)

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for name in self.names:
            out[name] += 1
        return dict(out)

    def write(self, path) -> None:
        table = sorted(set(self.names))
        code = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [
            [code[n], p, round(s - t0, 9), round(e - t0, 9)]
            for n, p, s, e in zip(self.names, self.parents, self.starts, self.ends)
        ]
        with open(path, "w") as fh:
            json.dump({"names": table, "columns": ["name", "parent", "start_s", "end_s"],
                       "spans": rows}, fh, separators=(",", ":"))


class _Span:
    __slots__ = ("tracer", "name", "idx", "seconds")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.seconds = 0.0

    def __enter__(self) -> "_Span":
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = self.tracer._close(self.idx)
