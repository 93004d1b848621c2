"""The HTTP front end shared by ``repro serve``, ``repro shard`` and
``repro router``: one request pipeline, one server base.

A tier's handler is a route table plus route functions.
:class:`RequestHandler` does everything around them — request span
bound to the caller's ``X-Trace-Id``/``X-Span-Id``, load-shedder
admission, the ``X-Deadline-Ms`` budget, routing, the reply, RED
metrics, the slow-query log and one exception→status map — and
:class:`HTTPServer` is the pooled threading server both tiers bind.
The route tables are the endpoint catalogue, mirrored in
``docs/service.md`` and ``docs/cluster.md`` (a test keeps them in sync).
"""

from __future__ import annotations

import json
import queue
import select
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    ReproError,
    ServiceError,
    ShardUnavailableError,
    UnknownObservationError,
)
from repro.obs import catalogue
from repro.obs import slowlog as _slowlog
from repro.obs.tracing import bind_parent_span, bind_trace, new_trace_id, recorder, trace
from repro.resilience.deadline import Deadline, bind_deadline
from repro.resilience.faults import inject
from repro.resilience.shed import LoadShedder
from repro.service.metrics import ServiceMetrics

__all__ = [
    "HTTPServer",
    "Reply",
    "RequestHandler",
    "Route",
    "pooled_handle",
    "query_param",
]

#: Header carrying the client's per-request budget in milliseconds.
DEADLINE_HEADER = "X-Deadline-Ms"

#: Header carrying the caller's open span ID: the request span parents
#: onto it, so ``/debug/trace/<id>`` can assemble router and shard
#: spans into one tree across process boundaries.
SPAN_HEADER = "X-Span-Id"

JSON = "application/json"
TEXT = "text/plain; charset=utf-8"
PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"

#: Sentinel a route returns when it already wrote the response itself
#: (the SSE changefeed stream), so the dispatch must not reply again.
STREAMED = object()

#: Long-poll waits are capped so a /changes request cannot pin a pool
#: worker and a shedder slot indefinitely.
MAX_LONGPOLL_SECONDS = 60.0
#: Hard cap on change records per response/SSE write burst.
MAX_CHANGE_BATCH = 1000

class _HTTPError(Exception):
    """Internal: abort the request with this status/message."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


#: Typed errors → status, first match wins (subclasses before bases).
_ERROR_STATUS = (
    (DeadlineExceededError, 504),
    ((CircuitOpenError, OverloadedError, ShardUnavailableError), 503),
    (UnknownObservationError, 404),
    (ServiceError, 409),
    (ReproError, 400),
    (BrokenPipeError, 499),
)


def _error_status(exc: Exception) -> int:
    if isinstance(exc, _HTTPError):
        return exc.status
    for types, status in _ERROR_STATUS:
        if isinstance(exc, types):
            return status
    return 500


def query_param(query: dict, name: str, default, kind=int):
    """Query parameter ``name`` as a non-negative ``int`` or ``float``
    (``default`` when absent); anything unparsable, negative or NaN
    answers 400 — a negative ``limit`` would slice from the end."""
    raw = query.get(name)
    if raw is None:
        return default
    try:
        value = kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise _HTTPError(
            400, f"query parameter {name!r} must be {noun}, got {raw!r}"
        ) from None
    if not value >= 0:
        raise _HTTPError(400, f"query parameter {name!r} must be >= 0, got {raw!r}")
    return value


class Reply(NamedTuple):
    """A route's answer when it is not a JSON 200."""

    status: int
    body: object
    content_type: str = JSON


class Route:
    """One route-table row: ``<name>`` segments of ``pattern`` are passed
    to ``fn(handler, query, *captures)``; ``endpoint`` labels metrics."""

    __slots__ = ("method", "pattern", "endpoint", "fn", "_parts")

    def __init__(self, method: str, pattern: str, endpoint: str, fn):
        self.method = method
        self.pattern = pattern
        self.endpoint = endpoint
        self.fn = fn
        self._parts = tuple(part for part in pattern.split("/") if part)

    def match(self, segments: list[str]) -> list[str] | None:
        if len(segments) != len(self._parts):
            return None
        pairs = list(zip(self._parts, segments))
        if any(part != segment for part, segment in pairs if part[0] != "<"):
            return None
        return [segment for part, segment in pairs if part[0] == "<"]


class _HandlerPool:
    """A fixed pool of worker threads draining accepted connections.

    ``ThreadingHTTPServer`` spawns one thread per connection — under a
    burst that means thousands of short-lived threads fighting for the
    GIL before the shedder even runs.  The pool caps handler
    concurrency at a fixed thread count: the accept loop stays cheap
    (enqueue only) and excess connections wait in the queue, where the
    per-connection socket timeout and the shedder still apply once a
    worker picks them up.
    """

    _STOP = object()

    def __init__(self, server, size: int):
        self._server = server
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._threads = [
            threading.Thread(target=self._work, name=f"repro-http-{i}", daemon=True)
            for i in range(size)
        ]
        for thread in self._threads:
            thread.start()

    def submit(self, request, client_address) -> None:
        self._queue.put((request, client_address))

    @property
    def pending(self) -> int:
        """Accepted connections still waiting for a worker (approximate)."""
        return self._queue.qsize()

    def _work(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._STOP:
                return
            request, client_address = item
            # Mirrors ThreadingMixIn.process_request_thread, minus the
            # thread spawn.
            try:
                self._server.finish_request(request, client_address)
            except Exception:
                self._server.handle_error(request, client_address)
            finally:
                self._server.shutdown_request(request)

    def stop(self, timeout: float = 1.0) -> None:
        for _ in self._threads:
            self._queue.put(self._STOP)
        for thread in self._threads:
            thread.join(timeout=timeout)


def pooled_handle(handler) -> None:
    """Serve a pool-fed keep-alive connection without pinning its worker.

    A fixed worker pool must not let persistent connections monopolise
    its threads: a handler blocked in ``readline`` waiting for a
    client's *next* request holds the worker for the whole keep-alive
    idle period, and once every worker idles like that, newly accepted
    connections starve in the queue — the classic thread-pool /
    keep-alive deadlock.  So between requests the worker waits in
    short ``select`` slices and, at each wake-up, checks the pool's
    queue: the moment other connections are waiting it stops serving
    this one (the client transparently reconnects — ``http.client``
    reopens a closed connection on the next ``request()``), and a
    connection idle for ``server.keepalive_idle`` seconds is dropped
    outright.  Active requests keep the full per-connection socket
    timeout, so stalled-*sender* protection is unchanged.

    (Pipelined requests sitting in the handler's read-ahead buffer
    would not wake ``select``; HTTP/1.1 pipelining is effectively
    nobody's client behaviour, and the worst case is the idle-timeout
    close, which pipelining clients must handle anyway.)
    """
    handler.close_connection = True
    handler.handle_one_request()
    pool = handler.server._pool
    idle = getattr(handler.server, "keepalive_idle", 5.0)
    while not handler.close_connection:
        deadline = time.monotonic() + idle
        ready = False
        while time.monotonic() < deadline:
            if pool.pending > 0:
                return  # yield the worker; queued connections go first
            try:
                readable, _, _ = select.select([handler.connection], [], [], 0.05)
            except (OSError, ValueError):  # connection torn down under us
                return
            if readable:
                ready = True
                break
        if not ready:
            return
        handler.handle_one_request()


class RequestHandler(BaseHTTPRequestHandler):
    """One request through the shared pipeline onto ``routes``."""

    server: "HTTPServer"
    protocol_version = "HTTP/1.1"

    #: The route table; subclasses list their rows here.
    routes: tuple[Route, ...] = ()
    #: Name of the per-request span.
    span_name = "http.request"
    #: Fault-injection site armed at admission (None: no seam).
    fault_site: str | None = None

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def setup(self) -> None:
        # A stalled or vanished client must not hold this handler
        # thread (and its shedder slot) forever: the socket timeout
        # turns dead air into a closed connection.
        self.timeout = self.server.request_timeout
        super().setup()

    def handle(self) -> None:
        if self.server._pool is not None:
            pooled_handle(self)
        else:
            super().handle()

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if self.server.verbose:
            super().log_message(format, *args)

    def reply(self, status: int, payload, content_type: str = JSON, headers=None) -> None:
        """Send ``payload`` (bytes, str or a JSON-able object)."""
        if isinstance(payload, bytes):
            body = payload
        elif isinstance(payload, str):
            body = payload.encode("utf-8")
        else:
            body = json.dumps(payload, default=str).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Trace-Id", self._trace_id)
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _request_deadline(self) -> Deadline | None:
        """The deadline the ``X-Deadline-Ms`` header asks for, if any."""
        raw = self.headers.get(DEADLINE_HEADER)
        if raw is None:
            return None
        try:
            return Deadline(float(raw))
        except ValueError:
            raise _HTTPError(
                400, f"{DEADLINE_HEADER} must be a positive number of "
                f"milliseconds, got {raw!r}"
            ) from None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        split = urlsplit(self.path)
        segments = [unquote(part) for part in split.path.split("/") if part]
        query = {key: values[-1] for key, values in parse_qs(split.query).items()}
        self.query_string = split.query
        # The request's trace ID: honoured from the caller's
        # ``X-Trace-Id`` header (so a client can stitch our spans into
        # its own trace), minted otherwise; echoed on every response.
        # ``X-Span-Id`` names the caller's open span — our request
        # span becomes its child, which is what stitches the
        # router→shard hop into one assembled tree.
        self._trace_id = self.headers.get("X-Trace-Id") or new_trace_id()
        parent_span_id = self.headers.get(SPAN_HEADER) or None
        deadline_header = self.headers.get(DEADLINE_HEADER)
        started = time.perf_counter()
        slow_token = _slowlog.begin_request()
        try:
            with bind_trace(self._trace_id), bind_parent_span(parent_span_id), trace(
                self.span_name, method=method, path=split.path, role=self.server.role
            ) as span:
                if deadline_header is not None:
                    span.fields["deadline_ms"] = deadline_header
                self._dispatch_traced(method, segments, query, span, started)
        finally:
            _slowlog.end_request(slow_token)

    def _dispatch_traced(self, method, segments, query, span, started) -> None:
        endpoint = "unknown"
        status = 500
        try:
            with self.server.shedder.admitted():
                if self.fault_site is not None:
                    inject(self.fault_site)
                with bind_deadline(self._request_deadline()):
                    route, result = self._route(method, segments, query)
                    endpoint = route.endpoint
                    status = 200
                    if result is not STREAMED:
                        if not isinstance(result, Reply):
                            result = Reply(200, result)
                        status = result.status
                        self.reply(*result)
        except Exception as exc:
            status = _error_status(exc)
            if status != 499:  # 499: the client went away; nothing to send
                message = f"internal error: {exc}" if status == 500 else str(exc)
                headers = None
                if status == 503:
                    # Backpressure: tell the client when to come back
                    # instead of letting it hammer a sick server.
                    headers = {"Retry-After": str(max(1, round(exc.retry_after)))}
                self.reply(status, {"error": message}, headers=headers)
        finally:
            span.fields["endpoint"] = endpoint
            span.fields["status"] = status
            elapsed = time.perf_counter() - started
            self.server.metrics.observe(endpoint, status, elapsed)
            log = _slowlog.get_slow_log()
            if log is not None:
                log.maybe_record(
                    endpoint,
                    elapsed,
                    status=status,
                    trace_id=self._trace_id,
                    span_id=span.span_id,
                    role=self.server.role,
                    deadline_ms=span.fields.get("deadline_ms"),
                )

    def _route(self, method: str, segments: list[str], query: dict):
        """``(route, result)`` of the first route matching path and
        method; 405 for a known path under another method, else 404."""
        known = None
        for route in self.routes:
            captures = route.match(segments)
            if captures is None:
                continue
            if route.method == method:
                return route, route.fn(self, query, *captures)
            known = known or route
        if known is not None:
            raise _HTTPError(405, f"{method} not allowed on {known.pattern}")
        raise _HTTPError(404, f"no route for {'/'.join(segments) or '/'}")

    def do_GET(self) -> None:
        self._dispatch(self.command)

    do_POST = do_DELETE = do_GET

    # ------------------------------------------------------------------
    # Routes every tier serves
    # ------------------------------------------------------------------
    def _debug_vars(self, query: dict):
        from repro.obs.profile import get_continuous_profiler
        from repro.obs.registry import get_registry
        from repro.obs.spanstore import get_span_store

        spans = recorder()
        span_store = get_span_store()
        slow_log = _slowlog.get_slow_log()
        profiler = get_continuous_profiler()
        return {
            "metrics": get_registry().snapshot(),
            "top_spans": spans.top_spans(20),
            "recent_spans": spans.recent(20),
            "spanstore": span_store.stats() if span_store is not None else None,
            "slow_query_log": slow_log.stats() if slow_log is not None else None,
            "profiler": profiler.as_dict(10) if profiler is not None else None,
        }

    def _debug_profile(self, query: dict):
        from repro.obs.profile import get_continuous_profiler

        profiler = get_continuous_profiler()
        if profiler is None:
            raise _HTTPError(
                404,
                "continuous profiler not running (serve without "
                "--no-profiler to enable it)",
            )
        limit = query_param(query, "limit", None)
        if query.get("format") == "json":
            return profiler.as_dict(limit if limit is not None else 20)
        return Reply(200, profiler.render(limit), TEXT)

    def _debug_trace(self, query: dict, trace_id: str):
        from repro.obs.spanstore import get_span_store

        span_store = get_span_store()
        records = span_store.spans_for(trace_id) if span_store is not None else []
        return {
            "trace_id": trace_id,
            "role": self.server.role,
            "count": len(records),
            "spans": records,
        }

    debug_routes = (
        Route("GET", "/debug/vars", "debug-vars", _debug_vars),
        Route("GET", "/debug/profile", "debug-profile", _debug_profile),
        # Dispatched through the instance: the router gathers the tier.
        Route(
            "GET",
            "/debug/trace/<trace_id>",
            "debug-trace",
            lambda handler, query, trace_id: handler._debug_trace(query, trace_id),
        ),
    )

    # ------------------------------------------------------------------
    # Server-Sent Events
    # ------------------------------------------------------------------
    def stream_events(self, query: dict, fetch, since):
        """Stream ``fetch(cursor, budget)`` records as SSE until done.

        The first cursor is the standard ``Last-Event-ID`` header of a
        reconnecting client, else ``since()``.  Each record goes out as
        ``id: <offset>`` + ``data: <record>``; when ``fetch`` finds
        nothing within ``budget`` seconds a ``: heartbeat`` comment
        tells proxies and clients a quiet feed from a dead one.  The
        stream ends when the client disconnects, the server drains, or
        ``max_seconds`` elapse (0: unbounded).  It pins one pool worker
        and one shedder slot for its lifetime — size ``--threads`` /
        ``--max-inflight`` for the subscriber count.
        """
        last_event = self.headers.get("Last-Event-ID")
        if last_event is None:
            cursor = since()
        else:
            try:
                cursor = int(last_event)
            except ValueError:
                raise _HTTPError(
                    400, f"Last-Event-ID must be an offset, got {last_event!r}"
                ) from None
            if cursor < 0:
                raise _HTTPError(400, f"Last-Event-ID must be >= 0, got {cursor}")
        heartbeat = min(max(query_param(query, "heartbeat", 15.0, float), 0.5), 60.0)
        max_seconds = query_param(query, "max_seconds", 0.0, float)
        self.close_connection = True
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("X-Trace-Id", self._trace_id)
        self.end_headers()
        catalogue.STREAM_SSE_SUBSCRIBERS.inc()
        started = time.monotonic()
        try:
            while not self.server.shedder.closed:  # draining: reconnect elsewhere
                budget = heartbeat
                if max_seconds > 0:
                    budget = min(budget, max_seconds - (time.monotonic() - started))
                    if budget <= 0:
                        break
                records = fetch(cursor, budget)
                if records:
                    write_started = time.perf_counter()
                    for record in records:
                        body = json.dumps(record, default=str)
                        self.wfile.write(
                            f"id: {record['offset']}\ndata: {body}\n\n".encode("utf-8")
                        )
                    cursor = records[-1]["offset"]
                    self.wfile.flush()
                    catalogue.STREAM_SSE_WRITE_SECONDS.observe(
                        time.perf_counter() - write_started
                    )
                    catalogue.STREAM_SSE_EVENTS.inc(len(records))
                else:
                    self.wfile.write(b": heartbeat\n\n")
                    self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, ConnectionAbortedError, OSError):
            pass  # subscriber went away; the stream just ends
        finally:
            catalogue.STREAM_SSE_SUBSCRIBERS.inc(-1.0)
        return STREAMED


class HTTPServer(ThreadingHTTPServer):
    """The threading HTTP server every tier binds."""

    daemon_threads = True
    allow_reuse_address = True
    #: Name of the ``serve_forever`` thread :meth:`start` spawns.
    thread_name = "repro-serve"
    #: Reported in /healthz, spans and slow-log records so operators
    #: can tell tiers apart.
    role = "serve"

    def __init__(
        self,
        address: tuple[str, int],
        handler_class: type[RequestHandler],
        metrics: ServiceMetrics | None = None,
        verbose: bool = False,
        request_timeout: float = 30.0,
        shedder: LoadShedder | None = None,
        threads: int = 0,
        keepalive_idle: float = 5.0,
        span_dir: str | None = None,
        profiler: bool = True,
        slow_log_path: str | None = None,
        slow_query_ms: float = 100.0,
    ):
        # A failed bind calls server_close() from inside __init__.
        self._pool = None
        super().__init__(address, handler_class)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.verbose = verbose
        #: Per-connection socket timeout applied in the handler's setup.
        self.request_timeout = float(request_timeout)
        #: Idle keep-alive budget for pool-served connections (see
        #: :func:`pooled_handle`).
        self.keepalive_idle = float(keepalive_idle)
        self.shedder = shedder if shedder is not None else LoadShedder()
        #: threads > 0: fixed handler pool; 0: thread per connection.
        if threads and threads > 0:
            self._pool = _HandlerPool(self, threads)
        self.pool_threads = threads if self._pool is not None else 0
        from repro.obs.spanstore import install_span_store

        # The span store backs /debug/trace/<id>; ``span_dir`` (or
        # $REPRO_SPAN_DIR) adds the JSONL ring on disk.
        install_span_store(span_dir)
        if profiler:
            from repro.obs.profile import start_continuous_profiler

            start_continuous_profiler()
        if slow_log_path:
            from repro.obs.slowlog import install_slow_log

            install_slow_log(slow_log_path, threshold_ms=slow_query_ms)

    def process_request(self, request, client_address):
        if self._pool is not None:
            self._pool.submit(request, client_address)
        else:
            super().process_request(request, client_address)

    def server_close(self):
        super().server_close()
        if self._pool is not None:
            self._pool.stop()

    def graceful_shutdown(self, drain_timeout: float = 10.0) -> bool:
        """Drain and stop: finish what was admitted, refuse the rest.

        Closes the shedder (new requests get 503), waits up to
        ``drain_timeout`` seconds for in-flight requests to finish,
        then stops the accept loop and closes the socket.  Returns
        whether the drain completed (False = timed out with requests
        still running; their daemon threads die with the process).
        """
        self.shedder.close()
        drained = self.shedder.drain(timeout=drain_timeout)
        self.shutdown()
        self.server_close()
        return drained

    def start(self, background: bool = True):
        """Serve on a daemon thread and return at once, or block until
        the server stops (see :func:`~repro.service.server.start_server`)."""
        if background:
            threading.Thread(
                target=self.serve_forever, name=self.thread_name, daemon=True
            ).start()
        else:
            try:
                self.serve_forever()
            finally:
                self.server_close()
        return self
