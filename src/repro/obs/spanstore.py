"""Bounded per-process span store with optional JSONL ring persistence.

Every finished span (see :mod:`repro.obs.tracing`) can be fed to a
:class:`SpanStore` — a thread-safe bounded ring of span records that
is queryable by trace ID.  Servers install the process-wide store at
boot (:func:`install_span_store`) and serve it on
``GET /debug/trace/<trace_id>``; the cluster router scatter/gathers
the shard stores and assembles one tree (:func:`assemble_trace`),
rendered by ``repro trace <id>`` (:func:`render_trace`).

Persistence is a two-file JSONL ring per process: records append to
``spans-<pid>.jsonl`` inside the configured directory and the file
rotates to ``spans-<pid>.jsonl.1`` once it holds ``max_records``
lines, so disk usage is bounded at roughly two rings regardless of
uptime.  Pool workers handed a span directory through the fan-out
metadata write their own per-PID ring into the same directory, which
is what lets ``repro trace --dir`` assemble a compute run's tree
across worker processes.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from pathlib import Path

from repro.obs import catalogue

__all__ = [
    "SpanStore",
    "assemble_trace",
    "get_span_store",
    "install_span_store",
    "read_span_files",
    "render_trace",
    "uninstall_span_store",
]

#: Environment variable servers and pool workers consult for a default
#: persistence directory (set by ``--span-dir`` / fan-out metadata).
SPAN_DIR_ENV = "REPRO_SPAN_DIR"

DEFAULT_MAX_RECORDS = 4096


class SpanStore:
    """Thread-safe bounded ring of span records, queryable by trace."""

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        max_records: int = DEFAULT_MAX_RECORDS,
    ):
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=max_records)
        self.max_records = max_records
        self._dir: Path | None = Path(path) if path else None
        self._handle = None
        self._file_records = 0
        self._recorded = 0
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)
            self._current = self._dir / f"spans-{os.getpid()}.jsonl"

    # ------------------------------------------------------------------
    def record(self, record: dict) -> None:
        """Append one finished-span record (usable as a span sink)."""
        with self._lock:
            self._ring.append(record)
            self._recorded += 1
            if self._dir is not None:
                self._write_locked(record)
        catalogue.OBS_SPANS_RECORDED.inc()

    def _write_locked(self, record: dict) -> None:
        try:
            if self._handle is None:
                self._handle = open(self._current, "a", encoding="utf-8")
                self._file_records = sum(1 for _ in open(self._current, encoding="utf-8"))
            self._handle.write(json.dumps(record, default=str) + "\n")
            self._handle.flush()
            self._file_records += 1
            if self._file_records >= self.max_records:
                self._handle.close()
                os.replace(self._current, f"{self._current}.1")
                self._handle = open(self._current, "a", encoding="utf-8")
                self._file_records = 0
                catalogue.OBS_SPANSTORE_ROTATIONS.inc()
        except OSError:
            # Persistence is best-effort: a full disk must not take the
            # traced request down with it.
            catalogue.OBS_SPANSTORE_WRITE_ERRORS.inc()
            try:
                if self._handle is not None:
                    self._handle.close()
            except OSError:
                pass
            self._handle = None

    # ------------------------------------------------------------------
    def spans_for(self, trace_id: str) -> list[dict]:
        """All ring records belonging to ``trace_id`` (oldest first)."""
        with self._lock:
            return [r for r in self._ring if r.get("trace_id") == trace_id]

    def recent(self, limit: int = 50) -> list[dict]:
        with self._lock:
            items = list(self._ring)
        return items[-limit:]

    def trace_ids(self, limit: int = 50) -> list[str]:
        """Most recently seen trace IDs, newest first, deduplicated."""
        seen: dict[str, None] = {}
        with self._lock:
            for record in reversed(self._ring):
                tid = record.get("trace_id")
                if tid and tid not in seen:
                    seen[tid] = None
                    if len(seen) >= limit:
                        break
        return list(seen)

    def stats(self) -> dict:
        with self._lock:
            return {
                "spans": len(self._ring),
                "recorded_total": self._recorded,
                "max_records": self.max_records,
                "dir": str(self._dir) if self._dir else None,
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
# Process-wide store

_STORE: SpanStore | None = None
_STORE_LOCK = threading.Lock()


def install_span_store(
    path: str | os.PathLike | None = None,
    max_records: int = DEFAULT_MAX_RECORDS,
) -> SpanStore:
    """Get-or-create the process-wide store and hook it to the tracer.

    ``path`` defaults to ``$REPRO_SPAN_DIR`` when set, else the store
    is memory-only.  Idempotent: repeat calls return the existing
    store (the first caller's configuration wins).
    """
    global _STORE
    from repro.obs import tracing

    with _STORE_LOCK:
        if _STORE is None:
            if path is None:
                path = os.environ.get(SPAN_DIR_ENV) or None
            _STORE = SpanStore(path=path, max_records=max_records)
            tracing.add_span_sink(_STORE.record)
        return _STORE


def get_span_store() -> SpanStore | None:
    """The installed process-wide store, if any."""
    return _STORE


def uninstall_span_store() -> None:
    """Detach and drop the process-wide store (tests)."""
    global _STORE
    from repro.obs import tracing

    with _STORE_LOCK:
        if _STORE is not None:
            tracing.remove_span_sink(_STORE.record)
            _STORE.close()
            _STORE = None


# ----------------------------------------------------------------------
# Reading rings back and assembling trees


def read_span_files(target: str | os.PathLike, trace_id: str | None = None) -> list[dict]:
    """Load span records from a JSONL file or a span directory.

    A directory is scanned for every ``spans-*.jsonl`` ring (current
    and rotated), which covers multi-process runs — server plus pool
    workers writing their own per-PID rings.  Unparseable lines (a
    torn tail from a killed process) are skipped.
    """
    path = Path(target)
    files: list[Path]
    if path.is_dir():
        files = sorted(path.glob("spans-*.jsonl*"))
    else:
        files = [path]
    records: list[dict] = []
    for file in files:
        try:
            with open(file, encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except ValueError:
                        continue
                    if trace_id is None or record.get("trace_id") == trace_id:
                        records.append(record)
        except OSError:
            continue
    return records


def assemble_trace(records: list[dict]) -> list[dict]:
    """Build parent/child trees from span records of one trace.

    Records may come from several processes (router + shards + pool
    workers); they are deduplicated by span ID and stitched by
    ``parent_id``.  Returns the list of root nodes, each
    ``{"record": <span record>, "children": [<node>, ...]}``, roots
    and children ordered by wall-clock start.  Spans whose parent is
    missing from the set (e.g. evicted from a ring) surface as roots
    rather than disappearing.
    """
    by_id: dict[str, dict] = {}
    for record in records:
        span_id = record.get("span_id")
        if span_id and span_id not in by_id:
            by_id[span_id] = record
    nodes = {
        span_id: {"record": record, "children": []}
        for span_id, record in by_id.items()
    }
    roots: list[dict] = []
    for span_id, node in nodes.items():
        parent_id = node["record"].get("parent_id")
        if parent_id and parent_id in nodes and parent_id != span_id:
            nodes[parent_id]["children"].append(node)
        else:
            roots.append(node)
    start = lambda node: node["record"].get("start") or 0.0  # noqa: E731
    for node in nodes.values():
        node["children"].sort(key=start)
    roots.sort(key=start)
    return roots


def _node_ms(record: dict) -> float:
    return (record.get("duration_ns") or 0) / 1e6


def _self_ms(node: dict) -> float:
    own = _node_ms(node["record"])
    children = sum(_node_ms(child["record"]) for child in node["children"])
    return max(0.0, own - children)


def render_trace(records: list[dict]) -> str:
    """Render one trace's records as an indented tree.

    Each line shows the span name, where it ran (the ``role`` field
    servers stamp on request spans), total and self wall time, and —
    for hops that carried an ``X-Deadline-Ms`` budget — how much of
    the budget the hop consumed, so a deadline overrun points at the
    hop that spent it.
    """
    roots = assemble_trace(records)
    if not roots:
        return "(no spans)\n"
    trace_id = roots[0]["record"].get("trace_id", "?")
    total = len({r.get("span_id") for r in records if r.get("span_id")})
    lines = [f"trace {trace_id} — {total} spans"]

    def walk(node: dict, depth: int) -> None:
        record = node["record"]
        fields = record.get("fields") or {}
        parts = [f"{'  ' * depth}{record.get('span', '?')}"]
        role = fields.get("role")
        if role:
            parts.append(f"[{role}]")
        for key in ("endpoint", "path", "shard", "replica", "status"):
            if key in fields:
                parts.append(f"{key}={fields[key]}")
        own = _node_ms(record)
        parts.append(f"{own:.2f}ms")
        if node["children"]:
            parts.append(f"(self {_self_ms(node):.2f}ms)")
        budget = fields.get("deadline_ms")
        if budget is not None:
            try:
                spent = 100.0 * own / float(budget) if float(budget) > 0 else 0.0
                parts.append(f"budget={budget}ms spent={spent:.0f}%")
            except (TypeError, ValueError):
                parts.append(f"budget={budget}")
        if record.get("error"):
            parts.append(f"ERROR: {record['error']}")
        lines.append("  ".join(parts))
        for child in node["children"]:
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines) + "\n"
