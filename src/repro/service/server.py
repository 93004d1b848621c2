"""Stdlib HTTP serving layer for the relationship query engine.

A :class:`RelationshipServer` is the shared threading front end
(:mod:`repro.service.http`) whose handler translates a small JSON API
onto :class:`QueryEngine` calls.  Observation ids are percent-encoded
URIs in the path; :attr:`RelationshipHandler.routes` is the endpoint
catalogue, documented in ``docs/service.md``.

Thread safety comes from the engine's readers–writer lock: the handler
pool serves GETs concurrently under the shared side while POST/DELETE
take the exclusive side, so no request ever observes a half-applied
index mutation.  Every response is JSON except ``/metrics``.

The serving path is hardened (see ``docs/resilience.md``):

* every connection gets a **socket timeout**, so a stalled client
  cannot hold a handler thread forever;
* a ``X-Deadline-Ms`` request header binds a cooperative
  **deadline** that flows through the engine into every segment
  decode; an expired budget answers **504**;
* a :class:`~repro.resilience.shed.LoadShedder` bounds concurrent and
  queued requests — overload answers **503** with ``Retry-After``
  instead of growing the thread pile;
* storage reads run under the engine's circuit **breaker** (when the
  CLI installed one on the store): an open circuit answers **503**
  with ``Retry-After`` while the disk recovers;
* :meth:`RelationshipServer.graceful_shutdown` stops admissions,
  drains in-flight requests and only then stops the server — so a
  SIGTERM'd process finishes what it acknowledged.
"""

from __future__ import annotations

import json
import time

from repro.errors import CircuitOpenError, StorageError
from repro.obs import catalogue
from repro.rdf.terms import URIRef
from repro.resilience.deadline import current_deadline
from repro.resilience.shed import LoadShedder
from repro.service.engine import QueryEngine
from repro.service.http import (
    MAX_CHANGE_BATCH,
    MAX_LONGPOLL_SECONDS,
    PROMETHEUS,
    HTTPServer,
    Reply,
    RequestHandler,
    Route,
    _HTTPError,
    pooled_handle,  # noqa: F401 - public import path
    query_param,
)
from repro.service.metrics import ServiceMetrics

__all__ = ["RelationshipServer", "start_server"]


def _neighbour_list(relation: str):
    """The route answering ``relation``'s full neighbour list."""

    def route(handler: "RelationshipHandler", query: dict, uri: str):
        uri = URIRef(uri)
        return {"uri": uri, relation: list(getattr(handler.server.engine, relation)(uri))}

    return route


class RelationshipHandler(RequestHandler):
    """Routes one HTTP request onto the server's query engine."""

    server: "RelationshipServer"
    fault_site = "http.handler"

    def _route(self, method: str, segments: list[str], query: dict):
        if method != "GET" and self.server.read_only:
            raise _HTTPError(
                405,
                "this endpoint is read-only (a cluster shard serves a "
                "routed view; writes go through the store's single writer)",
            )
        return super()._route(method, segments, query)

    def _engine_stats(self):
        """``engine.stats()``, degraded to ``(None, exc)`` on a storage
        outage.

        The observability endpoints must stay up precisely when storage
        is down: an open circuit breaker (or a raising store) would
        otherwise 503 the liveness probe — restart loops — and the
        ``/metrics`` scrape — blinding operators mid-incident.
        """
        try:
            return self.server.engine.stats(), None
        except (CircuitOpenError, StorageError) as exc:
            return None, exc

    # ------------------------------------------------------------------
    # Process endpoints
    # ------------------------------------------------------------------
    def _healthz(self, query: dict):
        server = self.server
        stats, outage = self._engine_stats()
        # The *bound* port: with --port 0 this is the ephemeral port
        # the OS chose, so probes and the cluster supervisor never race
        # on fixed ports.
        port = server.server_address[1]
        if outage is not None:
            # Alive but degraded: the process serves, storage is
            # failing fast.  200 keeps liveness probes from cycling the
            # process; the body and breaker gauge carry the bad news.
            return {
                "status": "degraded",
                "role": server.role,
                "port": port,
                "error": str(outage),
            }
        return {
            "status": "ok",
            "role": server.role,
            "port": port,
            "generation": stats["generation"],
            "observations": stats["observations"],
            **(server.extra_health() if server.extra_health else {}),
            # Segment-store deployments journal every write; the probe
            # surfaces it so operators can alert on a serve process
            # that silently lost its WAL.
            "persistence": stats["persistence"],
            # Storage-layer facts (segment count, WAL tail, last
            # repair) when the engine fronts a segment store.
            **({"storage": stats["storage"]} if "storage" in stats else {}),
        }

    def _scrape(self, query: dict):
        stats, _ = self._engine_stats()  # registry-only scrape on outage
        return Reply(200, self.server.metrics.render(stats), PROMETHEUS)

    def _stats(self, query: dict):
        return self.server.engine.stats()

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def _list_observations(self, query: dict):
        dataset = URIRef(query["dataset"]) if "dataset" in query else None
        dimension = URIRef(query["dimension"]) if "dimension" in query else None
        limit = query_param(query, "limit", None)
        uris = self.server.engine.find(dataset=dataset, dimension=dimension, limit=limit)
        return {"observations": list(uris), "count": len(uris)}

    def _insert_observations(self, query: dict):
        engine = self.server.engine
        try:
            length = int(self.headers.get("Content-Length", 0))
        except (TypeError, ValueError):
            raise _HTTPError(400, "missing or invalid Content-Length") from None
        try:
            payload = json.loads(self.rfile.read(length) or b"{}")
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, f"invalid JSON body: {exc}") from None
        entries = payload.get("observations") if isinstance(payload, dict) else None
        if not isinstance(entries, list) or not entries:
            raise _HTTPError(400, "body must be {\"observations\": [...]} with at least one entry")
        observations = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise _HTTPError(400, f"observation entry must be an object, got {entry!r}")
            for field in ("uri", "dataset"):
                if not isinstance(entry.get(field), str):
                    raise _HTTPError(400, f"observation entry needs a string {field!r}")
            dims = entry.get("dimensions", {})
            measures = entry.get("measures", [])
            if not isinstance(dims, dict) or not all(
                isinstance(k, str) and isinstance(v, str) for k, v in dims.items()
            ):
                raise _HTTPError(400, "dimensions must map dimension URIs to code URIs")
            if not isinstance(measures, list) or not all(isinstance(m, str) for m in measures):
                raise _HTTPError(400, "measures must be a list of URIs")
            observations.append(
                (
                    URIRef(entry["uri"]),
                    URIRef(entry["dataset"]),
                    {URIRef(k): URIRef(v) for k, v in dims.items()},
                    [URIRef(m) for m in measures],
                )
            )
        delta = engine.insert(observations)
        return {
            "inserted": len(observations),
            "generation": engine.generation,
            "pairs_added": delta.total_added(),
            "feed_offset": engine.feed_offset,
        }

    def _summary(self, query: dict, uri: str):
        return self.server.engine.summary(URIRef(uri))

    def _delete(self, query: dict, uri: str):
        engine = self.server.engine
        delta = engine.remove([URIRef(uri)])
        return {
            "removed": 1,
            "generation": engine.generation,
            "pairs_removed": delta.total_removed(),
        }

    def _related(self, query: dict, uri: str):
        k = query_param(query, "k", 10)
        uri = URIRef(uri)
        return {"uri": uri, "related": list(self.server.engine.related(uri, k))}

    def _partial(self, query: dict, uri: str):
        k = query_param(query, "k", 10)
        direction = query.get("direction", "both")
        uri = URIRef(uri)
        try:
            entries = self.server.engine.top_partial(uri, k, direction)
        except ValueError as exc:
            raise _HTTPError(400, str(exc)) from None
        return {
            "uri": uri,
            "partial": [
                {"uri": other, "degree": degree, "direction": way}
                for other, degree, way in entries
            ],
        }

    def _transitive(self, query: dict, uri: str):
        direction = query.get("direction", "up")
        if direction not in ("up", "down"):
            raise _HTTPError(400, f"direction must be 'up' or 'down', got {direction!r}")
        max_depth = query_param(query, "max_depth", None)
        engine = self.server.engine
        uri = URIRef(uri)
        walk = (
            engine.transitive_containers(uri, max_depth)
            if direction == "up"
            else engine.transitive_contained(uri, max_depth)
        )
        return {
            "uri": uri,
            "direction": direction,
            "reachable": [{"uri": other, "depth": depth} for other, depth in walk],
        }

    # ------------------------------------------------------------------
    # Changefeed
    # ------------------------------------------------------------------
    def _feed(self):
        feed = getattr(self.server.engine, "changefeed", None)
        if feed is None:
            raise _HTTPError(
                404,
                "no changefeed attached — serve a segment store (or pass "
                "--changefeed) to publish applied deltas",
            )
        return feed

    def _changes_cursor(self, query: dict, feed, consumer: str | None) -> int:
        """Resolve the replay cursor: explicit ``since`` wins, then the
        consumer's durable committed offset, then 0 (full replay)."""
        since = query_param(query, "since", None)
        if since is None:
            since = feed.committed(consumer) if consumer else 0
        return since

    def _longpoll_budget(self, query: dict) -> float:
        """The long-poll wait, capped by policy and the request deadline."""
        timeout = min(query_param(query, "timeout", 0.0, float), MAX_LONGPOLL_SECONDS)
        deadline = current_deadline()
        if deadline is not None:
            # Leave a slice of the budget to serialise the response.
            timeout = max(0.0, min(timeout, deadline.remaining() - 0.05))
        return timeout

    def _read_changes(self, query: dict):
        feed = self._feed()
        consumer = query.get("consumer") or None
        commit = query_param(query, "commit", None)
        committed = None
        if commit is not None:
            if consumer is None:
                raise _HTTPError(400, "commit= requires consumer=<name>")
            if self.server.read_only:
                raise _HTTPError(
                    405,
                    "consumer commits are read-only here; commit against "
                    "the store's single writer",
                )
            try:
                committed = feed.commit(consumer, commit)
            except ValueError as exc:
                raise _HTTPError(400, str(exc)) from None
        since = self._changes_cursor(query, feed, consumer)
        limit = min(query_param(query, "limit", 500), MAX_CHANGE_BATCH)
        if limit < 1:
            raise _HTTPError(400, f"limit must be >= 1, got {limit}")
        timeout = self._longpoll_budget(query)
        waited = time.perf_counter()
        records = feed.wait_for(since, timeout=timeout, limit=limit)
        catalogue.STREAM_LONGPOLL_WAIT_SECONDS.observe(time.perf_counter() - waited)
        payload = {
            "since": since,
            "head": feed.head_offset,
            "count": len(records),
            "next": records[-1]["offset"] if records else since,
            "changes": records,
        }
        if consumer:
            payload["consumer"] = consumer
            payload["committed"] = (
                committed if committed is not None else feed.committed(consumer)
            )
        return payload

    def _stream_changes(self, query: dict):
        """The live ordered change stream (SSE) with resume."""
        feed = self._feed()
        return self.stream_events(
            query,
            lambda cursor, budget: feed.wait_for(cursor, timeout=budget, limit=MAX_CHANGE_BATCH),
            lambda: self._changes_cursor(query, feed, query.get("consumer") or None),
        )

    routes = (
        Route("GET", "/healthz", "healthz", _healthz),
        Route("GET", "/metrics", "metrics", _scrape),
        Route("GET", "/stats", "stats", _stats),
        *RequestHandler.debug_routes,
        Route("GET", "/changes", "changes", _read_changes),
        Route("GET", "/changes/stream", "changes-stream", _stream_changes),
        Route("GET", "/observations", "list", _list_observations),
        Route("POST", "/observations", "insert", _insert_observations),
        Route("GET", "/observations/<id>", "observation", _summary),
        Route("DELETE", "/observations/<id>", "delete", _delete),
        *(
            Route("GET", f"/observations/<id>/{relation}", relation, _neighbour_list(relation))
            for relation in ("containers", "contained", "complements")
        ),
        Route("GET", "/observations/<id>/related", "related", _related),
        Route("GET", "/observations/<id>/partial", "partial", _partial),
        Route("GET", "/observations/<id>/transitive", "transitive", _transitive),
    )


class RelationshipServer(HTTPServer):
    """A threading HTTP server bound to one query engine."""

    def __init__(
        self,
        address: tuple[str, int],
        engine: QueryEngine,
        metrics: ServiceMetrics | None = None,
        verbose: bool = False,
        request_timeout: float = 30.0,
        shedder: LoadShedder | None = None,
        threads: int = 0,
        read_only: bool = False,
        role: str = "serve",
        extra_health=None,
        keepalive_idle: float = 5.0,
        span_dir: str | None = None,
        profiler: bool = True,
        slow_log_path: str | None = None,
        slow_query_ms: float = 100.0,
    ):
        self.engine = engine
        #: Writes (POST/DELETE) answer 405 — the cluster's shard
        #: workers serve read-only views of a store owned elsewhere.
        self.read_only = bool(read_only)
        self.role = role
        #: Zero-arg callable merged into the /healthz body (e.g. a
        #: shard's partition facts).
        self.extra_health = extra_health
        super().__init__(
            address, RelationshipHandler, metrics, verbose, request_timeout, shedder,
            threads, keepalive_idle, span_dir, profiler, slow_log_path, slow_query_ms,
        )


def start_server(
    engine: QueryEngine,
    host: str = "127.0.0.1",
    port: int = 0,
    metrics: ServiceMetrics | None = None,
    background: bool = True,
    verbose: bool = False,
    request_timeout: float = 30.0,
    shedder: LoadShedder | None = None,
    threads: int = 0,
    read_only: bool = False,
    role: str = "serve",
    extra_health=None,
    span_dir: str | None = None,
    profiler: bool = True,
    slow_log_path: str | None = None,
    slow_query_ms: float = 100.0,
) -> RelationshipServer:
    """Bind a :class:`RelationshipServer` and (optionally) serve.

    With ``background=True`` (the default, used by tests and the
    example) ``serve_forever`` runs on a daemon thread and the bound
    server is returned immediately — ``server.server_address`` carries
    the ephemeral port when ``port=0``.  Call ``server.shutdown()``
    (or ``server.graceful_shutdown()`` to drain first) to stop it.
    With ``background=False`` the call blocks until interrupted (the
    CLI path).
    """
    server = RelationshipServer(
        (host, port), engine, metrics, verbose, request_timeout, shedder, threads,
        read_only, role, extra_health, span_dir=span_dir, profiler=profiler,
        slow_log_path=slow_log_path, slow_query_ms=slow_query_ms,
    )
    return server.start(background)
