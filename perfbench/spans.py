"""In-memory spans recorded by the benchmark around its calls into the
library.  Nothing here reaches into the library itself."""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    items: int = 1  # calls a sweep span covers; the per-call time divides by it

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records (name, start, end, parent) for each `span` block."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, items: int = 1) -> Iterator[None]:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, time.perf_counter_ns(), 0, parent, items)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec.end_ns = time.perf_counter_ns()

    def self_ns(self) -> dict[str, int]:
        """Total self time by span name: each span's duration less the part
        its children cover (children run one after another, never nested
        across siblings)."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_ns[s.parent] += s.duration_ns
        out: dict[str, int] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0) + s.duration_ns - child_ns[s.id]
        return out

    def per_call_ns(self, name: str) -> float:
        """Mean time of one call under spans named `name`."""
        chosen = [s for s in self.spans if s.name == name]
        if not chosen:
            raise KeyError(f"no span named {name!r}")
        return sum(s.duration_ns for s in chosen) / sum(s.items for s in chosen)

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
             "parent": s.parent, "items": s.items}
            for s in self.spans
        ]


class NullTracer:
    """Tracing off: the same calls, no records."""

    _null = nullcontext()

    def span(self, name: str, items: int = 1):
        return self._null
