"""A tiny in-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files, around the calls
into each layer's public functions; nothing inside ``src/`` is read or
changed.  One recorder = one trace id = one workload.  Spans stay in
memory and are written out as JSONL when the run ends.

A span's *self time* is its duration minus the part of that interval
its direct children cover.  The traced run is single-threaded, so a
plain stack gives the parent of each span.
"""

from __future__ import annotations

import functools
import json
import time
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    trace_id: str
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects the spans of one traced workload run."""

    def __init__(self, trace_id: str | None = None):
        self.trace_id = trace_id or uuid.uuid4().hex
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self.trace_id, name, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def wrap(self, owner, attribute: str, name: str):
        """Record a span around every call of ``owner.attribute`` made
        inside the ``with`` block (the layer boundary is the function's
        public name, looked up at call time by its callers)."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, traced)
        try:
            yield
        finally:
            setattr(owner, attribute, original)

    # -- arithmetic ----------------------------------------------------
    def self_times(self) -> dict[int, float]:
        """``span_id -> duration - Σ direct children durations``."""
        own = {span.span_id: span.duration for span in self.spans}
        for span in self.spans:
            if span.parent_id is not None:
                own[span.parent_id] -= span.duration
        return own

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(span.duration for span in self.spans if span.name == name)

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)

    def self_total(self, name: str) -> float:
        own = self.self_times()
        return sum(own[span.span_id] for span in self.spans if span.name == name)

    def coverage(self, roots: tuple[str, ...]) -> float:
        """Share of the root spans' wall time that lies inside some
        named child span: ``1 - Σ root self time / Σ root duration``."""
        wall = sum(self.total(root) for root in roots)
        if wall <= 0:
            return 0.0
        return 1.0 - sum(self.self_total(root) for root in roots) / wall

    def dump(self, path: Path) -> None:
        own = self.self_times()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                row = asdict(span)
                row["duration"] = span.duration
                row["self"] = own[span.span_id]
                handle.write(json.dumps(row) + "\n")
