"""Spans recorded by the benchmark around the qharm calls it makes.

A span has a name, a start and an end, the span that encloses it and the
round it belongs to.  Spans stay in memory until the run ends.  A layer's
self time is its span's duration minus the time its child spans cover;
spans here nest only where the benchmark nests its own calls (a round
encloses its requests), never inside qharm.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.round: Optional[int] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "round": self.round,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_ms_by_round(self) -> Dict[int, Dict[str, float]]:
        """{round: {name: self time in ms}} over the spans of traced rounds."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            if s["round"] is not None:
                busy = s["end"] - s["start"] - child[s["id"]]
                out[s["round"]][s["name"]] += busy * 1e3
        return out

    def calls_by_round(self) -> Dict[int, Dict[str, int]]:
        out: Dict[int, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for s in self.spans:
            if s["round"] is not None:
                out[s["round"]][s["name"]] += 1
        return out


class NullTracer:
    """Same interface, records nothing: the untraced rounds use it."""

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)
