"""Structured JSONL slow-query log.

Requests slower than a threshold get one JSON line each with enough
context to diagnose them after the fact: trace/span IDs, endpoint and
status, wall time, the deadline budget (if the hop carried one), and
per-request annotations contributed by the layers the request crossed
— cache hit/miss from the engine, scatter fan-out width from the
router, kernel counter snapshots.  Layers annotate through a
contextvar (:func:`annotate`), so the handler that finally decides
"this was slow" sees everything the request touched without any layer
knowing about the log.

Records look like::

    {"ts": ..., "event": "slow_query", "trace_id": "...", "span_id": "...",
     "endpoint": "/contained", "status": 200, "duration_ms": 154.2,
     "threshold_ms": 100.0, "role": "server", "deadline_ms": 2000,
     "cache": "miss", "fanout": 4, "kernel_pairs": 123456}

The file is size-bounded the same way the span ring is: it rotates to
``<path>.1`` after ``max_records`` lines.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from pathlib import Path

from repro.obs import catalogue

__all__ = [
    "SlowQueryLog",
    "annotate",
    "get_slow_log",
    "install_slow_log",
    "request_annotations",
    "uninstall_slow_log",
]

DEFAULT_MAX_RECORDS = 10000

#: Per-request annotation dict; handlers bind a fresh one per request.
_ANNOTATIONS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "repro_obs_slowlog_annotations", default=None
)


def begin_request():
    """Bind a fresh annotation dict for this request; returns a token."""
    return _ANNOTATIONS.set({})


def end_request(token) -> None:
    _ANNOTATIONS.reset(token)


def annotate(**fields) -> None:
    """Attach fields to the current request's eventual slow record.

    A no-op outside a request (the engine can annotate
    unconditionally; CLI compute paths simply have no bound dict).
    """
    current = _ANNOTATIONS.get()
    if current is not None:
        current.update(fields)


def request_annotations() -> dict:
    """The current request's annotations (empty outside a request)."""
    current = _ANNOTATIONS.get()
    return dict(current) if current else {}


def _kernel_counters() -> dict:
    """Process kernel-counter totals at record time.

    Queries don't run kernels themselves, but a slow query racing a
    background recompute is a classic cause — the snapshot lets the
    reader correlate without joining against a scrape.
    """
    return {
        "kernel_calls": int(catalogue.KERNEL_CALLS.total()),
        "kernel_pairs": int(catalogue.KERNEL_PAIRS.total()),
    }


class SlowQueryLog:
    """Threshold-gated, size-bounded JSONL log of slow requests."""

    def __init__(
        self,
        path: str | os.PathLike,
        threshold_ms: float = 100.0,
        max_records: int = DEFAULT_MAX_RECORDS,
    ):
        self.path = Path(path)
        self.threshold_ms = float(threshold_ms)
        self.max_records = max_records
        self._lock = threading.Lock()
        self._handle = None
        self._file_records = 0
        self._recorded = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def maybe_record(
        self,
        endpoint: str,
        duration_s: float,
        status: int | None = None,
        trace_id: str | None = None,
        span_id: str | None = None,
        **fields,
    ) -> dict | None:
        """Record the request if it crossed the threshold.

        Merges the per-request annotations bound via :func:`annotate`;
        explicit keyword fields win.  Returns the record written, or
        None when the request was fast enough.
        """
        duration_ms = duration_s * 1000.0
        if duration_ms < self.threshold_ms:
            return None
        record = {
            "ts": time.time(),
            "event": "slow_query",
            "trace_id": trace_id,
            "span_id": span_id,
            "endpoint": endpoint,
            "status": status,
            "duration_ms": round(duration_ms, 3),
            "threshold_ms": self.threshold_ms,
        }
        record.update(request_annotations())
        record.update({k: v for k, v in fields.items() if v is not None})
        record.update(_kernel_counters())
        with self._lock:
            self._recorded += 1
            try:
                if self._handle is None:
                    self._handle = open(self.path, "a", encoding="utf-8")
                    self._file_records = sum(
                        1 for _ in open(self.path, encoding="utf-8")
                    )
                self._handle.write(json.dumps(record, default=str) + "\n")
                self._handle.flush()
                self._file_records += 1
                if self._file_records >= self.max_records:
                    self._handle.close()
                    os.replace(self.path, f"{self.path}.1")
                    self._handle = open(self.path, "a", encoding="utf-8")
                    self._file_records = 0
            except OSError:
                catalogue.OBS_SLOWLOG_WRITE_ERRORS.inc()
                try:
                    if self._handle is not None:
                        self._handle.close()
                except OSError:
                    pass
                self._handle = None
        catalogue.OBS_SLOW_QUERIES.inc(endpoint=endpoint)
        return record

    def stats(self) -> dict:
        with self._lock:
            return {
                "path": str(self.path),
                "threshold_ms": self.threshold_ms,
                "recorded_total": self._recorded,
            }

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None


# ----------------------------------------------------------------------
# Process-wide log

_LOG: SlowQueryLog | None = None
_LOG_LOCK = threading.Lock()


def install_slow_log(
    path: str | os.PathLike,
    threshold_ms: float = 100.0,
    max_records: int = DEFAULT_MAX_RECORDS,
) -> SlowQueryLog:
    """Get-or-create the process-wide slow-query log (first call wins)."""
    global _LOG
    with _LOG_LOCK:
        if _LOG is None:
            _LOG = SlowQueryLog(path, threshold_ms=threshold_ms, max_records=max_records)
        return _LOG


def get_slow_log() -> SlowQueryLog | None:
    return _LOG


def uninstall_slow_log() -> None:
    global _LOG
    with _LOG_LOCK:
        if _LOG is not None:
            _LOG.close()
            _LOG = None
