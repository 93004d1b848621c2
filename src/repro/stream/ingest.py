"""Streaming observation ingest: tail a source, batch, insert.

The pump reads observation lines from a source (stdin, or a watched
directory of batch files), parses them into new-observation entries,
and drives the incremental lattice-signature-pruned delta path —
either in-process through :meth:`QueryEngine.insert` or over HTTP via
``POST /observations`` against a live server.

Two line grammars (``docs/streaming.md``):

``csv``
    One observation per line, ``uri,dataset,dimensions,measures``
    where ``dimensions`` is ``dim=code`` pairs joined by ``|`` and
    ``measures`` is measure URIs joined by ``|``.  Blank lines, ``#``
    comments and a literal header row are skipped.

``ntriples``
    Standard N-Triples, parsed with :mod:`repro.rdf.ntriples`.  An
    observation's triples must be contiguous (subject-grouped, the
    usual dump order); the observation is emitted when its subject
    ends.  With a ``--schema`` cube graph, predicates are classified
    against the declared DSD exactly as :func:`repro.qb.loader
    .load_cubespace` does; without one, URI-valued predicates are
    dimensions and literal-valued predicates are measures.

Backpressure is structural: at most ``max_inflight`` batches are in
flight at once and the pump blocks on a semaphore before dispatching
the next, so a slow engine slows the source read loop instead of
growing an unbounded queue.  A batch is flushed when it reaches
``batch_size`` or when ``flush_interval`` elapses with data pending
(queue-depth-aware flush).
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.obs import catalogue
from repro.rdf.namespaces import QB, RDF
from repro.rdf.ntriples import iter_ntriples
from repro.rdf.terms import Literal, URIRef

__all__ = [
    "IngestError",
    "IngestStats",
    "CsvObservationParser",
    "NTriplesObservationParser",
    "make_parser",
    "sniff_format",
    "EngineSink",
    "HttpSink",
    "StreamIngester",
    "FileBoundary",
    "IDLE",
    "watch_directory",
]

#: Control item a line source may yield while idle: the pump checks
#: ``flush_interval`` against any pending partial batch instead of
#: letting it sit buffered until the next real line arrives.
IDLE = object()

class IngestError(ReproError):
    """A fatal ingest failure (bad source, unreachable sink)."""


@dataclass
class IngestStats:
    """What one pump run accomplished."""

    observations: int = 0
    batches: int = 0
    parse_errors: int = 0
    failed_batches: int = 0
    retries: int = 0
    seconds: float = 0.0
    last_offset: int | None = None

    @property
    def obs_per_sec(self) -> float:
        return self.observations / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "observations": self.observations,
            "batches": self.batches,
            "parse_errors": self.parse_errors,
            "failed_batches": self.failed_batches,
            "retries": self.retries,
            "seconds": round(self.seconds, 3),
            "obs_per_sec": round(self.obs_per_sec, 1),
            "last_offset": self.last_offset,
        }


# ----------------------------------------------------------------------
# Line parsers
# ----------------------------------------------------------------------
CSV_HEADER = ("uri", "dataset", "dimensions", "measures")


class CsvObservationParser:
    """``uri,dataset,dim=code|dim=code,measure|measure`` lines."""

    format = "csv"

    def __init__(self):
        self.errors = 0

    def feed(self, line: str) -> list[dict]:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return []
        try:
            row = next(csv.reader(io.StringIO(stripped)))
        except (csv.Error, StopIteration):
            self._bad(line)
            return []
        if tuple(cell.strip().lower() for cell in row) == CSV_HEADER:
            return []  # header row
        if len(row) < 2:
            self._bad(line)
            return []
        uri, dataset = row[0].strip(), row[1].strip()
        if not uri or not dataset:
            self._bad(line)
            return []
        dimensions: dict[str, str] = {}
        for pair in (row[2] if len(row) > 2 else "").split("|"):
            pair = pair.strip()
            if not pair:
                continue
            dim, eq, code = pair.partition("=")
            if not eq or not dim.strip() or not code.strip():
                self._bad(line)
                return []
            dimensions[dim.strip()] = code.strip()
        measures = [
            m.strip() for m in (row[3] if len(row) > 3 else "").split("|") if m.strip()
        ]
        return [
            {
                "uri": uri,
                "dataset": dataset,
                "dimensions": dimensions,
                "measures": measures,
            }
        ]

    def finish(self) -> list[dict]:
        return []

    def _bad(self, line: str) -> None:
        self.errors += 1
        catalogue.STREAM_INGEST_PARSE_ERRORS.inc()


class NTriplesObservationParser:
    """Subject-grouped N-Triples lines → observation entries.

    ``schema`` maps dataset URI → (dimension URIs, measure URIs); when
    present, predicates are classified against it (the
    :func:`repro.qb.loader.load_cubespace` contract) and unknown
    predicates are ignored.  Without a schema, URI objects are
    dimension values and literal objects are measure values.
    """

    format = "ntriples"

    def __init__(self, schema: dict[URIRef, tuple[frozenset, frozenset]] | None = None):
        self.schema = schema
        self.errors = 0
        self._subject: URIRef | None = None
        self._triples: list[tuple] = []

    def feed(self, line: str) -> list[dict]:
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return []
        try:
            triple = next(iter_ntriples([line]))
        except (ReproError, ValueError, StopIteration) as exc:
            self.errors += 1
            catalogue.STREAM_INGEST_PARSE_ERRORS.inc()
            return []
        subject = triple[0]
        out: list[dict] = []
        if self._subject is not None and subject != self._subject:
            out.extend(self._finalize())
        self._subject = subject
        self._triples.append(triple)
        return out

    def finish(self) -> list[dict]:
        return self._finalize()

    def _finalize(self) -> list[dict]:
        triples, subject = self._triples, self._subject
        self._triples, self._subject = [], None
        if not triples or subject is None:
            return []
        dataset = None
        dims: dict[str, str] = {}
        measures: list[str] = []
        for _, predicate, obj in triples:
            if predicate == QB.dataSet and isinstance(obj, URIRef):
                dataset = obj
            elif predicate == RDF.type:
                continue
            elif self.schema is not None:
                continue  # classified below, once the dataset is known
            elif isinstance(obj, URIRef):
                dims[str(predicate)] = str(obj)
            elif isinstance(obj, Literal):
                if str(predicate) not in measures:
                    measures.append(str(predicate))
        if dataset is None:
            self.errors += 1
            catalogue.STREAM_INGEST_PARSE_ERRORS.inc()
            return []
        if self.schema is not None:
            declared = self.schema.get(dataset)
            if declared is None:
                self.errors += 1
                catalogue.STREAM_INGEST_PARSE_ERRORS.inc()
                return []
            dim_props, measure_props = declared
            for _, predicate, obj in triples:
                if predicate in dim_props and isinstance(obj, URIRef):
                    dims[str(predicate)] = str(obj)
                elif predicate in measure_props and str(predicate) not in measures:
                    measures.append(str(predicate))
        return [
            {
                "uri": str(subject),
                "dataset": str(dataset),
                "dimensions": dims,
                "measures": sorted(measures),
            }
        ]


def schema_from_graph(graph) -> dict[URIRef, tuple[frozenset, frozenset]]:
    """Dataset → (dimensions, measures) from a cube definition graph."""
    from repro.qb.loader import _component_properties

    schema: dict[URIRef, tuple[frozenset, frozenset]] = {}
    for ds_term in graph.subjects(RDF.type, QB.DataSet):
        dsd = graph.value(ds_term, QB.structure, None)
        if dsd is None or not isinstance(ds_term, URIRef):
            continue
        dimensions, measures, _ = _component_properties(graph, dsd)
        schema[ds_term] = (
            frozenset(d for d, _ in dimensions),
            frozenset(measures),
        )
    return schema


def sniff_format(line: str) -> str:
    """Guess ``csv`` vs ``ntriples`` from the first non-blank line."""
    stripped = line.strip()
    if stripped.startswith("<") and stripped.endswith("."):
        return "ntriples"
    return "csv"


def make_parser(fmt: str, schema=None):
    if fmt == "csv":
        return CsvObservationParser()
    if fmt == "ntriples":
        return NTriplesObservationParser(schema=schema)
    raise IngestError(f"unknown ingest format {fmt!r} (expected csv or ntriples)")


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
def _to_engine_tuples(batch: list[dict]):
    return [
        (
            URIRef(entry["uri"]),
            URIRef(entry["dataset"]),
            {URIRef(k): URIRef(v) for k, v in entry["dimensions"].items()},
            [URIRef(m) for m in entry["measures"]],
        )
        for entry in batch
    ]


class EngineSink:
    """Apply batches in-process through a :class:`QueryEngine`."""

    def __init__(self, engine):
        self.engine = engine

    def send(self, batch: list[dict], trace_id: str | None = None) -> dict:
        from repro.obs import bind_trace

        with bind_trace(trace_id):
            delta = self.engine.insert(_to_engine_tuples(batch))
        return {
            "inserted": len(batch),
            "generation": self.engine.generation,
            "pairs_added": delta.total_added(),
            "feed_offset": getattr(self.engine, "feed_offset", None),
        }

    def close(self) -> None:
        pass


class HttpSink:
    """Apply batches with ``POST /observations`` against a live server.

    Honors the server's backpressure: a 503 (overloaded / breaker
    open) is retried after its ``Retry-After`` hint, connection errors
    back off exponentially, and a 4xx is fatal for the batch (the
    payload will not get better by retrying).
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        max_retries: int = 8,
        retry_backoff: float = 0.25,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff

    def send(self, batch: list[dict], trace_id: str | None = None) -> dict:
        body = json.dumps({"observations": batch}).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        if trace_id:
            headers["X-Trace-Id"] = trace_id
        delay = self.retry_backoff
        attempts = 0
        while True:
            request = urllib.request.Request(
                f"{self.base_url}/observations", data=body, headers=headers, method="POST"
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    return json.loads(response.read() or b"{}")
            except urllib.error.HTTPError as exc:
                retry_after = exc.headers.get("Retry-After") if exc.headers else None
                exc.close()
                if exc.code in (503, 504) and attempts < self.max_retries:
                    attempts += 1
                    catalogue.STREAM_INGEST_RETRIES.inc()
                    try:
                        wait = float(retry_after) if retry_after else delay
                    except ValueError:
                        wait = delay
                    time.sleep(min(max(wait, 0.05), 5.0))
                    delay = min(delay * 2, 5.0)
                    continue
                raise IngestError(
                    f"POST /observations failed with HTTP {exc.code}"
                ) from exc
            except (urllib.error.URLError, OSError, TimeoutError) as exc:
                if attempts < self.max_retries:
                    attempts += 1
                    catalogue.STREAM_INGEST_RETRIES.inc()
                    time.sleep(delay)
                    delay = min(delay * 2, 5.0)
                    continue
                raise IngestError(f"server unreachable: {exc}") from exc

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# The pump
# ----------------------------------------------------------------------
@dataclass
class _Batch:
    entries: list[dict] = field(default_factory=list)
    first_at: float = 0.0


class StreamIngester:
    """Batching, backpressured pump from a line source into a sink."""

    def __init__(
        self,
        sink,
        parser,
        batch_size: int = 200,
        flush_interval: float = 1.0,
        max_inflight: int = 2,
        on_batch=None,
    ):
        if batch_size < 1:
            raise IngestError("batch_size must be >= 1")
        if max_inflight < 1:
            raise IngestError("max_inflight must be >= 1")
        self.sink = sink
        self.parser = parser
        self.batch_size = batch_size
        self.flush_interval = flush_interval
        self.max_inflight = max_inflight
        self.on_batch = on_batch
        self._slots = threading.Semaphore(max_inflight)
        self._lock = threading.Lock()
        self._errors: list[IngestError] = []
        self._threads: list[threading.Thread] = []

    def run(self, lines, stop=None) -> IngestStats:
        """Pump ``lines`` until exhausted (or ``stop`` is set).

        Besides text lines, ``lines`` may interleave control items:
        :data:`IDLE` ticks (flush a pending partial batch once
        ``flush_interval`` elapses on a quiet source) and
        :class:`FileBoundary` markers, which force a flush **and an
        acknowledgement barrier** before the spool file is renamed
        ``.done`` — a crash before every batch is acked re-ingests the
        file on restart (at-least-once, never at-most-once).
        """
        stats = IngestStats()
        started = time.perf_counter()
        pending = _Batch()
        try:
            for line in lines:
                if stop is not None and stop.is_set():
                    break
                if line is IDLE:
                    if (
                        pending.entries
                        and time.monotonic() - pending.first_at >= self.flush_interval
                    ):
                        self._dispatch(pending.entries, stats)
                        pending = _Batch()
                    if self._errors:
                        break
                    continue
                if isinstance(line, FileBoundary):
                    self._extend(pending, self.parser.finish())
                    if pending.entries and not self._errors:
                        self._dispatch(pending.entries, stats)
                        pending = _Batch()
                    self._drain_inflight()
                    if self._errors:
                        break
                    line.done()
                    continue
                self._extend(pending, self.parser.feed(line))
                if len(pending.entries) >= self.batch_size or (
                    pending.entries
                    and time.monotonic() - pending.first_at >= self.flush_interval
                ):
                    self._dispatch(pending.entries, stats)
                    pending = _Batch()
                if self._errors:
                    break
            self._extend(pending, self.parser.finish())
            if pending.entries and not self._errors:
                self._dispatch(pending.entries, stats)
        finally:
            for thread in self._threads:
                thread.join()
            stats.seconds = time.perf_counter() - started
            stats.parse_errors = getattr(self.parser, "errors", 0)
        if self._errors:
            raise self._errors[0]
        return stats

    @staticmethod
    def _extend(pending: _Batch, entries: list[dict]) -> None:
        for entry in entries:
            if not pending.entries:
                pending.first_at = time.monotonic()
            pending.entries.append(entry)

    def _drain_inflight(self) -> None:
        """Block until every dispatched batch has been acknowledged."""
        for thread in self._threads:
            thread.join()
        self._threads = [t for t in self._threads if t.is_alive()]

    def _dispatch(self, entries: list[dict], stats: IngestStats) -> None:
        from repro.obs import current_trace_id, new_trace_id

        # Blocks when max_inflight batches are already being applied —
        # this is the backpressure that slows the source read loop.
        self._slots.acquire()
        trace_id = current_trace_id() or new_trace_id()
        self._threads = [t for t in self._threads if t.is_alive()]
        thread = threading.Thread(
            target=self._apply, args=(entries, trace_id, stats), daemon=True
        )
        self._threads.append(thread)
        thread.start()

    def _apply(self, entries: list[dict], trace_id: str, stats: IngestStats) -> None:
        catalogue.STREAM_INGEST_INFLIGHT_BATCHES.inc()
        started = time.perf_counter()
        try:
            ack = self.sink.send(entries, trace_id=trace_id)
        except IngestError as exc:
            catalogue.STREAM_INGEST_FAILED_BATCHES.inc()
            with self._lock:
                stats.failed_batches += 1
                self._errors.append(exc)
            return
        finally:
            catalogue.STREAM_INGEST_INFLIGHT_BATCHES.inc(-1.0)
            self._slots.release()
        elapsed = time.perf_counter() - started
        catalogue.STREAM_INGEST_BATCH_LATENCY_SECONDS.observe(elapsed)
        catalogue.STREAM_INGEST_BATCHES.inc()
        catalogue.STREAM_INGESTED_OBSERVATIONS.inc(len(entries))
        with self._lock:
            stats.observations += len(entries)
            stats.batches += 1
            offset = ack.get("feed_offset") if isinstance(ack, dict) else None
            if isinstance(offset, int):
                stats.last_offset = max(stats.last_offset or 0, offset)
        if self.on_batch is not None:
            self.on_batch(len(entries), ack)


@dataclass
class FileBoundary:
    """End-of-file marker yielded by :func:`watch_directory`.

    The consumer calls :meth:`done` only once every observation from
    the file has been acknowledged by the sink; the file is then
    renamed ``<name>.done`` so a restart never re-ingests it.  A crash
    or sink failure before ``done`` leaves the file in place to be
    re-ingested — the at-least-once half of the spool handoff.
    """

    path: Path
    mark_done: bool = True

    def done(self) -> None:
        if not self.mark_done:
            return
        try:
            os.replace(self.path, self.path.with_name(self.path.name + ".done"))
        except OSError:
            pass


def watch_directory(
    path: str | os.PathLike,
    poll_interval: float = 0.5,
    stop=None,
    mark_done: bool = True,
):
    """Yield lines (and control items) from batch files in ``path``.

    Files are processed in sorted-name order.  After a file's last
    line a :class:`FileBoundary` is yielded; renaming to ``.done`` is
    the *consumer's* job (``FileBoundary.done``), deferred until every
    observation from the file is acknowledged — so a crash mid-apply
    re-ingests the file instead of silently losing it.  While the
    directory is idle an :data:`IDLE` tick is yielded each poll so the
    consumer can flush a pending partial batch.  Files still being
    written should be moved in atomically (write elsewhere, ``mv`` in)
    — the usual maildir-style handoff.
    """
    root = Path(path)
    if not root.is_dir():
        raise IngestError(f"watch directory {root} does not exist")
    yielded: set[str] = set()  # handed to the consumer, not yet renamed
    while stop is None or not stop.is_set():
        listing = sorted(
            p
            for p in root.iterdir()
            if p.is_file() and not p.name.endswith(".done") and not p.name.startswith(".")
        )
        yielded &= {p.name for p in listing}
        batch_files = [p for p in listing if p.name not in yielded]
        if not batch_files:
            if stop is None:
                break  # one-shot drain when no stop event is supplied
            stop.wait(poll_interval)
            yield IDLE
            continue
        for batch_file in batch_files:
            try:
                with open(batch_file, "r", encoding="utf-8") as handle:
                    yield from handle
            except OSError:
                continue
            yielded.add(batch_file.name)
            yield FileBoundary(batch_file, mark_done)
