"""The cluster router: consistent-hash fan-out over shard workers.

The router is the tier's front door.  For every query it:

1. **plans** — maps the query onto the smallest set of shards that can
   hold the answer.  Observation queries resolve the observation's
   ``(dataset, lattice-signature)`` partition (the router holds the
   observation *space* — metadata only, no relationship data) and then
   prune partitions exactly the way the storage manifest does:
   ``containers`` needs only partitions whose signature *dominates*
   the query's, ``complements`` only equal signatures, and so on.
   Partitions map to shards through the same
   :class:`~repro.cluster.ring.HashRing` the supervisor used.
2. **fans out** — a one-shard plan is *proxied* byte-for-byte (no JSON
   decode on the hot path); a multi-shard plan scatters concurrently
   and merges (union, top-k re-rank, count sums).
3. **fails over** — each shard's replicas carry a per-replica
   :class:`~repro.resilience.breaker.CircuitBreaker`; the router picks
   the **least-inflight** admitted replica and walks to the next on
   connection failure or 5xx, so killing one worker mid-load costs a
   retry, not an error.

Trace IDs (``X-Trace-Id``) and deadline budgets (``X-Deadline-Ms``,
the *remaining* budget) ride every sub-request, so one client trace
stitches through router and shard spans and a slow shard cannot
outlive its caller's patience.  The router's own admission control is
the same :class:`~repro.resilience.shed.LoadShedder` the serve path
uses.

Topology is dynamic: the router polls the cluster manifest's mtime and
rebuilds its replica table when the supervisor rewrites it (respawned
worker, added shard) — per-replica breaker state survives for
endpoints that did not change.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from urllib.parse import quote

from repro.errors import ReproError, ShardUnavailableError
from repro.obs import catalogue
from repro.obs import slowlog as _slowlog
from repro.obs.tracing import current_span_id
from repro.resilience.breaker import CircuitBreaker, OPEN
from repro.resilience.deadline import remaining_ms
from repro.resilience.shed import LoadShedder
from repro.cluster.manifest import ClusterManifest
from repro.cluster.ring import partition_key_str
from repro.service.http import (
    JSON,
    MAX_LONGPOLL_SECONDS,
    PROMETHEUS,
    HTTPServer,
    Reply,
    RequestHandler,
    Route,
    _HTTPError,
    query_param,
)
from repro.service.metrics import ServiceMetrics

__all__ = ["Router", "RouterServer", "ShardUnavailableError", "start_router"]

class Replica:
    """One shard worker endpoint plus its health state."""

    def __init__(self, shard: int, replica: int, host: str, port: int):
        self.shard = shard
        self.replica = replica
        self.host = host
        self.port = int(port)
        self.inflight = 0
        # Small window / fast reset: a killed worker should be noticed
        # after a handful of refused connections and re-probed within a
        # second of its respawn.
        self.breaker = CircuitBreaker(
            window=16,
            min_samples=2,
            failure_threshold=0.5,
            reset_timeout=1.0,
            half_open_probes=1,
            name=f"shard-{shard}.{replica}",
        )

    @property
    def endpoint(self) -> tuple[str, int]:
        return (self.host, self.port)

    def __repr__(self) -> str:
        return (
            f"Replica(shard={self.shard}, replica={self.replica}, "
            f"{self.host}:{self.port}, breaker={self.breaker.state})"
        )


def _dominates(container_sig, contained_sig) -> bool:
    return len(container_sig) == len(contained_sig) and all(
        a <= b for a, b in zip(container_sig, contained_sig)
    )


class Router:
    """Routing table + scatter/gather client over the shard tier."""

    def __init__(
        self,
        manifest: ClusterManifest,
        space=None,
        manifest_path: str | None = None,
        shard_timeout: float = 10.0,
        poll_interval: float = 0.5,
    ):
        self.shard_timeout = float(shard_timeout)
        self.poll_interval = float(poll_interval)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._replicas: dict[int, list[Replica]] = {}
        self._partitions: list[tuple[str | None, tuple | None, str]] = []
        self._ring = None
        self.manifest = manifest
        self.manifest_path = str(manifest_path) if manifest_path else None
        self._manifest_mtime: float | None = None
        self._stop = threading.Event()
        self._poller: threading.Thread | None = None
        # Observation routing metadata: uri -> (dataset, signature).
        self._locate: dict[str, tuple[str, tuple]] = (
            {str(uri): key for uri, key in space.partition_keys().items()} if space is not None else {}
        )
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, 2 * manifest.shards), thread_name_prefix="repro-router"
        )
        self.apply_manifest(manifest)
        if self.manifest_path:
            self._manifest_mtime = self._mtime()
            self._poller = threading.Thread(
                target=self._poll_manifest, name="repro-router-manifest", daemon=True
            )
            self._poller.start()

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def apply_manifest(self, manifest: ClusterManifest) -> None:
        """Adopt a (new) topology, keeping state for unchanged endpoints."""
        ring = manifest.ring()
        partitions = [
            (
                entry.get("dataset"),
                tuple(entry["signature"]) if entry.get("signature") is not None else None,
                partition_key_str(entry.get("dataset"), entry.get("signature")),
            )
            for entry in manifest.partitions
        ]
        with self._lock:
            old = {
                (replica.shard, replica.replica, replica.host, replica.port): replica
                for replicas in self._replicas.values()
                for replica in replicas
            }
            table: dict[int, list[Replica]] = {i: [] for i in range(manifest.shards)}
            for worker in manifest.workers:
                shard = int(worker["shard"])
                if shard not in table or worker.get("port") in (None, 0):
                    continue
                key = (
                    shard,
                    int(worker.get("replica", 0)),
                    worker["host"],
                    int(worker["port"]),
                )
                table[shard].append(old.get(key) or Replica(*key))
            for replicas in table.values():
                replicas.sort(key=lambda replica: replica.replica)
            self.manifest = manifest
            self._ring = ring
            self._partitions = partitions
            self._replicas = table
        catalogue.CLUSTER_SHARDS.set(manifest.shards)
        catalogue.CLUSTER_MANIFEST_GENERATION.set(manifest.generation)
        self._update_replica_gauges()

    def _update_replica_gauges(self) -> None:
        with self._lock:
            table = {shard: list(replicas) for shard, replicas in self._replicas.items()}
        for shard, replicas in table.items():
            catalogue.CLUSTER_REPLICAS_UP.set(
                sum(1 for replica in replicas if replica.breaker.state != OPEN),
                shard=shard,
            )

    def _mtime(self) -> float | None:
        try:
            return Path(self.manifest_path).stat().st_mtime
        except OSError:
            return None

    def _poll_manifest(self) -> None:
        while not self._stop.wait(self.poll_interval):
            mtime = self._mtime()
            if mtime is None or mtime == self._manifest_mtime:
                continue
            self._manifest_mtime = mtime
            try:
                self.apply_manifest(ClusterManifest.load(self.manifest_path))
            except ReproError:
                continue  # mid-rewrite or transient; next poll retries

    def close(self) -> None:
        self._stop.set()
        if self._poller is not None:
            self._poller.join(timeout=2.0)
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def locate(self, uri: str) -> tuple[str, tuple] | None:
        return self._locate.get(uri)

    def _shard_of_key(self, key: str) -> int:
        return int(self._ring.node_for(key).rsplit("-", 1)[1])

    def plan(self, relation: str, uri: str | None = None) -> list[int]:
        """The shard ids that must be consulted for this query.

        Prunes by lattice dominance when the observation's partition is
        known, mirroring ``SegmentStore.segments_for``: ``containers``
        keeps partitions whose signature dominates the observation's,
        ``contained`` the dominated ones, ``complements`` the equal
        ones.  Unprunable relations (``related``, ``partial``,
        ``summary``) and unknown observations consult every partition.
        The ``default`` partition (pairs without a recorded key) is
        never pruned.
        """
        with self._lock:
            partitions = self._partitions
            shards = self.manifest.shards
        if not partitions:
            return list(range(shards))
        located = self.locate(uri) if uri is not None else None
        keys: set[str] = set()
        if located is None or relation not in ("containers", "contained", "complements"):
            keys = {key for _, _, key in partitions}
        else:
            _, signature = located
            for _, seg_sig, key in partitions:
                if seg_sig is None:
                    keys.add(key)  # default partition: cannot prune
                elif relation == "containers" and _dominates(seg_sig, signature):
                    keys.add(key)
                elif relation == "contained" and _dominates(signature, seg_sig):
                    keys.add(key)
                elif relation == "complements" and seg_sig == signature:
                    keys.add(key)
        return sorted({self._shard_of_key(key) for key in keys})

    def plan_single(self, affinity: str) -> list[int]:
        """One shard for queries any shard can answer (space metadata)."""
        with self._lock:
            shards = self.manifest.shards
        if self._ring is None or not len(self._ring):
            return [0]
        return [self._shard_of_key(f"affinity:{affinity}")] if shards else [0]

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self, replica: Replica, timeout: float) -> http.client.HTTPConnection:
        cache = getattr(self._local, "conns", None)
        if cache is None:
            cache = self._local.conns = {}
        conn = cache.get(replica.endpoint)
        if conn is None:
            conn = http.client.HTTPConnection(
                replica.host, replica.port, timeout=timeout
            )
            cache[replica.endpoint] = conn
        conn.timeout = timeout
        if conn.sock is not None:
            conn.sock.settimeout(timeout)
        return conn

    def _drop_connection(self, replica: Replica) -> None:
        cache = getattr(self._local, "conns", None)
        if cache is not None:
            conn = cache.pop(replica.endpoint, None)
            if conn is not None:
                conn.close()

    def _request_once(self, replica: Replica, path: str, headers: dict, timeout: float):
        """One GET on the cached connection, absorbing benign staleness.

        A pool-served shard closes kept-alive connections under
        pressure (see :func:`~repro.service.http.pooled_handle`),
        and an idle one may have timed out server-side since our last
        use.  Hitting that with a *reused* connection is not a replica
        failure — retry exactly once on a fresh connection before
        letting :meth:`call_shard` count anything against the breaker.
        """
        for attempt in (0, 1):
            conn = self._connection(replica, timeout)
            reused = getattr(conn, "_repro_used", False)
            try:
                conn.request("GET", path, headers=headers)
                response = conn.getresponse()
                body = response.read()
            except (
                http.client.RemoteDisconnected,
                http.client.BadStatusLine,
                ConnectionResetError,
                BrokenPipeError,
            ):
                self._drop_connection(replica)
                if reused and attempt == 0:
                    continue
                raise
            except (OSError, http.client.HTTPException):
                self._drop_connection(replica)
                raise
            conn._repro_used = True
            return response.status, dict(response.getheaders()), body
        raise AssertionError("unreachable")  # pragma: no cover

    def _pick_order(self, shard: int) -> list[Replica]:
        """Replicas in failover order: least-inflight first."""
        with self._lock:
            replicas = list(self._replicas.get(shard, ()))
        return sorted(replicas, key=lambda replica: (replica.inflight, replica.replica))

    def call_shard(
        self, shard: int, path: str, headers: dict, timeout: float | None = None
    ) -> tuple[int, dict, bytes]:
        """One GET against shard ``shard``: ``(status, headers, body)``.

        Tries replicas in least-inflight order; a connection failure,
        timeout or 5xx records a breaker failure and fails over to the
        next replica.  Raises :class:`ShardUnavailableError` when no
        replica answers — an incomplete scatter must fail loudly, not
        return a silently partial result.

        ``timeout`` overrides the per-request socket timeout (still
        capped by the deadline budget): long-poll subrequests pass the
        poll wait *plus* the normal shard budget, so an idle feed held
        open on purpose does not look like a dead replica and trip its
        breaker.
        """
        order = self._pick_order(shard)
        if not order:
            raise ShardUnavailableError(shard, "no registered replicas")
        budget = remaining_ms()
        timeout = self.shard_timeout if timeout is None else float(timeout)
        if budget is not None:
            timeout = max(0.05, min(timeout, budget / 1000.0))
        detail = "all replicas refused"
        for attempt, replica in enumerate(order):
            if not replica.breaker.allow():
                detail = f"breaker {replica.breaker.state}"
                continue
            if attempt:
                catalogue.CLUSTER_FAILOVERS.inc(shard=shard)
            with self._lock:
                replica.inflight += 1
            started = time.monotonic()
            try:
                catalogue.CLUSTER_FANOUT_REQUESTS.inc(shard=shard)
                status, response_headers, body = self._request_once(
                    replica, path, headers, timeout
                )
            except (OSError, http.client.HTTPException) as exc:
                replica.breaker.record_failure(time.monotonic() - started)
                catalogue.CLUSTER_SHARD_ERRORS.inc(shard=shard, kind=type(exc).__name__)
                detail = f"{type(exc).__name__}: {exc}"
                continue
            finally:
                with self._lock:
                    replica.inflight -= 1
            if status >= 500:
                # The shard answered but could not serve (breaker open,
                # shed, deadline, crash handler): count it against this
                # replica and let another one try.
                replica.breaker.record_failure(time.monotonic() - started)
                catalogue.CLUSTER_SHARD_ERRORS.inc(shard=shard, kind=f"http_{status}")
                detail = f"HTTP {status}"
                continue
            replica.breaker.record_success(time.monotonic() - started)
            return status, response_headers, body
        self._update_replica_gauges()
        raise ShardUnavailableError(shard, detail)

    def scatter(
        self, shards: list[int], path: str, headers: dict, timeout: float | None = None
    ) -> list[tuple[int, int, dict, bytes]]:
        """Concurrent :meth:`call_shard` over ``shards`` (order kept)."""
        catalogue.CLUSTER_SCATTER_WIDTH.observe(len(shards))
        if len(shards) == 1:
            status, response_headers, body = self.call_shard(
                shards[0], path, headers, timeout
            )
            return [(shards[0], status, response_headers, body)]
        futures = [
            (shard, self._executor.submit(self.call_shard, shard, path, headers, timeout))
            for shard in shards
        ]
        out = []
        error: ShardUnavailableError | None = None
        for shard, future in futures:
            try:
                status, response_headers, body = future.result()
                out.append((shard, status, response_headers, body))
            except ShardUnavailableError as exc:
                error = exc
        if error is not None:
            raise error
        return out

    def broadcast(
        self, path: str, headers: dict, timeout: float | None = None
    ) -> list[tuple[int, int, int | None, bytes]]:
        """Best-effort GET against every (shard, replica) — telemetry reads.

        Unlike :meth:`call_shard` this neither fails over nor counts
        breaker failures: a federated ``/metrics`` scrape or a
        ``/debug/trace`` gather must *show* a sick replica's absence,
        not mask it behind its healthy peer.  Returns
        ``(shard, replica, status_or_None, body)`` per endpoint, in
        (shard, replica) order; ``status None`` means the replica was
        unreachable and ``body`` carries the error text.
        """
        with self._lock:
            targets = [
                (shard, replica)
                for shard, rs in sorted(self._replicas.items())
                for replica in sorted(rs, key=lambda r: r.replica)
            ]
        if not targets:
            return []
        budget = timeout if timeout is not None else self.shard_timeout

        def one(shard: int, replica: Replica):
            try:
                status, _, body = self._request_once(replica, path, headers, budget)
                return (shard, replica.replica, status, body)
            except (OSError, http.client.HTTPException) as exc:
                return (shard, replica.replica, None, str(exc).encode("utf-8"))

        futures = [
            self._executor.submit(one, shard, replica) for shard, replica in targets
        ]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        with self._lock:
            manifest = self.manifest
            replicas = {
                shard: [
                    {
                        "replica": replica.replica,
                        "host": replica.host,
                        "port": replica.port,
                        "inflight": replica.inflight,
                        "breaker": replica.breaker.state,
                    }
                    for replica in rs
                ]
                for shard, rs in self._replicas.items()
            }
            partition_count = len(self._partitions)
        ring = manifest.ring()
        return {
            "shards": manifest.shards,
            "replicas": replicas,
            "partitions": partition_count,
            "generation": manifest.generation,
            "observations": len(self._locate) or None,
            "ring": ring.stats(manifest.partition_keys()),
        }

    def healthy(self) -> tuple[bool, dict[int, int]]:
        """(every shard reachable?, live replica count per shard)."""
        with self._lock:
            table = {shard: list(rs) for shard, rs in self._replicas.items()}
        up = {
            shard: sum(1 for replica in rs if replica.breaker.state != OPEN)
            for shard, rs in table.items()
        }
        return all(count > 0 for count in up.values()) and bool(up), up


# ----------------------------------------------------------------------
# Gather merges (module-level so tests can hit them directly)
# ----------------------------------------------------------------------
def merge_relation_lists(field: str, bodies: list[dict]) -> list[str]:
    merged: set[str] = set()
    for body in bodies:
        merged.update(body.get(field, ()))
    return sorted(merged)


def merge_related(bodies: list[dict], k: int) -> list[dict]:
    best: dict[str, dict] = {}
    for body in bodies:
        for entry in body.get("related", ()):
            current = best.get(entry["uri"])
            if current is None or entry["score"] > current["score"]:
                best[entry["uri"]] = entry
    ranked = sorted(best.values(), key=lambda entry: (-entry["score"], entry["uri"]))
    return ranked[: max(k, 0)]


def merge_partial(bodies: list[dict], k: int) -> list[dict]:
    best: dict[tuple[str, str], dict] = {}
    for body in bodies:
        for entry in body.get("partial", ()):
            key = (entry["uri"], entry["direction"])
            current = best.get(key)
            if current is None or entry["degree"] > current["degree"]:
                best[key] = entry
    ranked = sorted(best.values(), key=lambda entry: (-entry["degree"], entry["uri"]))
    return ranked[: max(k, 0)]


def merge_summary(bodies: list[dict]) -> dict:
    merged: dict = {}
    for body in bodies:
        if not merged:
            merged = dict(body)
            continue
        for field in (
            "containers",
            "contained",
            "complements",
            "partial_containers",
            "partial_contained",
        ):
            merged[field] = merged.get(field, 0) + body.get(field, 0)
        for field in ("dataset", "cube"):
            if merged.get(field) is None:
                merged[field] = body.get(field)
    return merged


def merge_observation_lists(bodies: list[dict], limit: int | None) -> dict:
    merged: set[str] = set()
    for body in bodies:
        merged.update(body.get("observations", ()))
    ordered = sorted(merged)
    if limit is not None:
        ordered = ordered[:limit]
    return {"observations": ordered, "count": len(ordered)}


def merge_changes(bodies: list[dict], limit: int | None = None) -> dict:
    """Per-shard changefeed pages merged in offset order.

    Every shard reads the same store-level feed, so identical offsets
    collapse (first body wins); the merged page is strictly ascending
    by offset, the head is the max any shard reported.
    """
    by_offset: dict[int, dict] = {}
    head = 0
    since = 0
    for body in bodies:
        head = max(head, int(body.get("head", 0) or 0))
        since = int(body.get("since", 0) or 0)
        for record in body.get("changes", ()):
            offset = record.get("offset")
            if isinstance(offset, int):
                by_offset.setdefault(offset, record)
    ordered = [by_offset[offset] for offset in sorted(by_offset)]
    if limit is not None:
        ordered = ordered[: max(limit, 0)]
    return {
        "since": since,
        "head": head,
        "count": len(ordered),
        "next": ordered[-1]["offset"] if ordered else since,
        "changes": ordered,
    }


# ----------------------------------------------------------------------
# The HTTP front end
# ----------------------------------------------------------------------
def _quote(uri: str) -> str:
    return quote(uri, safe="")


def _scattered(relation: str, rank=None):
    """The route answering ``relation`` for one observation: neighbour
    lists union across shards, ``rank(bodies, k)`` re-ranks a top-k."""

    def route(handler: "RouterHandler", query: dict, uri: str):
        k = query_param(query, "k", 10) if rank else None

        def merge(bodies: list[dict]) -> dict:
            merged = rank(bodies, k) if rank else merge_relation_lists(relation, bodies)
            return {"uri": uri, relation: merged}

        path = f"/observations/{_quote(uri)}/{relation}{handler._suffix()}"
        return handler._fan_out(handler.server.router.plan(relation, uri), path, merge)

    return route


class RouterHandler(RequestHandler):
    """Routes one request onto the shard tier."""

    server: "RouterServer"
    span_name = "router.request"

    def _route(self, method: str, segments: list[str], query: dict):
        if method != "GET":
            raise _HTTPError(
                501,
                "the cluster router serves reads; incremental writes go "
                "through the store's single writer (`repro serve`), and "
                "shards pick them up from its WAL at the next restart",
            )
        return super()._route(method, segments, query)

    # ------------------------------------------------------------------
    def _suffix(self) -> str:
        return f"?{self.query_string}" if self.query_string else ""

    def _subrequest_headers(self) -> dict:
        headers = {"X-Trace-Id": self._trace_id}
        # The open router span rides along so the shard's request span
        # parents onto it — /debug/trace assembles one tree per query.
        span_id = current_span_id()
        if span_id is not None:
            headers["X-Span-Id"] = span_id
        budget = remaining_ms()
        if budget is not None:
            headers["X-Deadline-Ms"] = f"{max(1.0, budget):.0f}"
        return headers

    def _gather_bodies(
        self, shards: list[int], path: str, timeout: float | None = None
    ) -> list[dict]:
        """Scatter ``path``; return parsed 200 bodies (404s dropped).

        Raises 404 when every shard said 404, and propagates the first
        4xx error body otherwise.
        """
        _slowlog.annotate(fanout=len(shards))
        responses = self.server.router.scatter(
            shards, path, self._subrequest_headers(), timeout
        )
        bodies = [json.loads(body) for _, status, _, body in responses if status == 200]
        if bodies:
            return bodies
        statuses = [status for _, status, _, body in responses]
        if statuses and all(status == 404 for status in statuses):
            raise _HTTPError(404, json.loads(responses[0][3]).get("error", "not found"))
        first = responses[0]
        raise _HTTPError(first[1], json.loads(first[3]).get("error", "shard error"))

    def _fan_out(self, shards: list[int], path: str, merge):
        """Proxy a one-shard plan byte-for-byte; scatter a wider one and
        ``merge`` the gathered bodies."""
        if len(shards) > 1:
            return merge(self._gather_bodies(shards, path))
        status, headers, body = self.server.router.call_shard(
            shards[0], path, self._subrequest_headers()
        )
        return Reply(status, body, headers.get("Content-Type", JSON))

    # ------------------------------------------------------------------
    # Process endpoints
    # ------------------------------------------------------------------
    def _healthz(self, query: dict):
        router = self.server.router
        ok, up = router.healthy()
        router._update_replica_gauges()
        return {
            "status": "ok" if ok else "degraded",
            "role": "router",
            "port": self.server.server_address[1],
            "shards": router.manifest.shards,
            "replicas": router.manifest.replicas,
            "replicas_up": {str(shard): count for shard, count in up.items()},
            "partitions": len(router.manifest.partitions),
            "manifest_generation": router.manifest.generation,
        }

    def _scrape(self, query: dict):
        local = self.server.metrics.render(None)
        if query.get("local"):
            return Reply(200, local, PROMETHEUS)
        # Federation: one scrape covering the whole tier.  Every
        # replica's exposition is parsed and re-labelled by
        # shard/replica; the router's own series stay unlabelled.
        # A sick replica degrades to an error counter, never a 5xx
        # — blinding the operator mid-incident is the worst case.
        from repro.obs.exposition import federate

        results = self.server.router.broadcast("/metrics", self._subrequest_headers())
        scrapes = []
        for shard, replica, status, body in results:
            if status == 200:
                scrapes.append(
                    (
                        {"shard": str(shard), "replica": str(replica)},
                        body.decode("utf-8", "replace"),
                    )
                )
            else:
                catalogue.CLUSTER_FEDERATION_ERRORS.inc()
        body, problems = federate(scrapes, base=local)
        catalogue.CLUSTER_FEDERATED_SCRAPES.inc()
        if problems:
            catalogue.CLUSTER_FEDERATION_ERRORS.inc(len(problems))
        return Reply(200, body, PROMETHEUS)

    def _stats(self, query: dict):
        return self.server.router.stats()

    def _cluster(self, query: dict):
        return self.server.router.manifest.to_dict()

    def _debug_trace(self, query: dict, trace_id: str):
        """Scatter/gather every replica's span store into one trace.

        The router's own spans (this very request included, minus the
        still-open span serving it) merge with each shard replica's
        ``/debug/trace/<id>`` records; the CLI assembles the tree.
        Unreachable replicas are reported, not fatal — a partial trace
        beats none during an incident.
        """
        records = list(super()._debug_trace(query, trace_id)["spans"])
        sources = [{"role": "router", "count": len(records)}]
        errors = []
        results = self.server.router.broadcast(
            f"/debug/trace/{_quote(trace_id)}", self._subrequest_headers()
        )
        for shard, replica, status, body in results:
            where = {"shard": shard, "replica": replica}
            if status != 200:
                errors.append(
                    {**where, "error": body.decode("utf-8", "replace")[:200]}
                )
                continue
            try:
                payload = json.loads(body)
            except ValueError as exc:
                errors.append({**where, "error": f"bad JSON: {exc}"})
                continue
            spans = payload.get("spans") or []
            for record in spans:
                if isinstance(record, dict):
                    fields = record.setdefault("fields", {})
                    fields.setdefault("shard", shard)
                    fields.setdefault("replica", replica)
                    records.append(record)
            sources.append({**where, "count": len(spans)})
        # One record per span ID, first seen wins; ID-less records all stay.
        unique = list({record.get("span_id") or id(record): record for record in records}.values())
        return {
            "trace_id": trace_id,
            "count": len(unique),
            "sources": sources,
            "errors": errors,
            "spans": unique,
        }

    # ------------------------------------------------------------------
    # Changefeed: scatter every shard's read-only feed view, merge in
    # offset order.  All shards read the same store-level feed, so the
    # merge collapses duplicate offsets — it exists so the page stays
    # correct when replicas lag each other on the active segment.
    # ------------------------------------------------------------------
    def _read_changes(self, query: dict):
        if "commit" in query:
            raise _HTTPError(
                501,
                "the cluster router serves reads; consumer commits go "
                "through the store's single writer (`repro serve`)",
            )
        limit = query_param(query, "limit", None)
        # A long-poll wait pins the shard socket on purpose for up to
        # the (policy-capped) requested timeout; give the subrequest
        # that long *plus* the normal shard budget, or an idle feed
        # would time out the socket on every replica and trip their
        # breakers (the shard caps its own wait identically).
        wait = min(query_param(query, "timeout", 0.0, float), MAX_LONGPOLL_SECONDS)
        router = self.server.router
        timeout = router.shard_timeout + wait if wait > 0 else None
        bodies = self._gather_bodies(
            router.plan("changes"), f"/changes{self._suffix()}", timeout=timeout
        )
        return merge_changes(bodies, limit)

    def _stream_changes(self, query: dict):
        """Router-side SSE: poll the shard tier, emit merged events."""
        router = self.server.router

        def fetch(cursor: int, budget: float) -> list[dict]:
            try:
                # Socket timeout must exceed the long-poll wait the
                # shard honours, or every idle beat would count as a
                # replica failure against its breaker.
                bodies = self._gather_bodies(
                    router.plan("changes"),
                    f"/changes?since={cursor}&timeout={budget:.3f}&limit=500",
                    timeout=router.shard_timeout + budget,
                )
                return merge_changes(bodies)["changes"]
            except (_HTTPError, ShardUnavailableError):
                # The tier is briefly unreachable (respawning replica,
                # feed not created yet): keep the stream alive and
                # retry next beat.
                time.sleep(min(budget, 0.5))
                return []

        return self.stream_events(query, fetch, lambda: query_param(query, "since", 0))

    # ------------------------------------------------------------------
    # Observations
    # ------------------------------------------------------------------
    def _list_observations(self, query: dict):
        limit = query_param(query, "limit", None)
        router = self.server.router
        path = f"/observations{self._suffix()}"
        # The shard index registers every space observation, so any
        # one shard can answer a listing when the space is loaded;
        # without one, union the shard-local views.
        if router._locate:
            shards = router.plan_single(f"list:{query.get('dataset', '')}")
            return self._fan_out(shards, path, None)
        bodies = self._gather_bodies(router.plan("list"), path)
        return merge_observation_lists(bodies, limit)

    def _summary(self, query: dict, uri: str):
        path = f"/observations/{_quote(uri)}"
        return self._fan_out(self.server.router.plan("summary", uri), path, merge_summary)

    def _transitive(self, query: dict, uri: str):
        direction = query.get("direction", "up")
        if direction not in ("up", "down"):
            raise _HTTPError(400, f"direction must be 'up' or 'down', got {direction!r}")
        max_depth = query_param(query, "max_depth", None)
        step = "containers" if direction == "up" else "contained"
        router = self.server.router
        # Router-side BFS: each hop may live on a different shard, so
        # the walk itself is the scatter unit.
        visited = {uri}
        frontier = [uri]
        depth = 0
        reachable: list[dict] = []
        while frontier and (max_depth is None or depth < max_depth):
            depth += 1
            next_frontier: list[str] = []
            for node in frontier:
                path = f"/observations/{_quote(node)}/{step}"
                bodies = self._gather_bodies(router.plan(step, node), path)
                for neighbour in merge_relation_lists(step, bodies):
                    if neighbour not in visited:
                        visited.add(neighbour)
                        reachable.append({"uri": neighbour, "depth": depth})
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return {"uri": uri, "direction": direction, "reachable": reachable}

    routes = (
        Route("GET", "/healthz", "healthz", _healthz),
        Route("GET", "/metrics", "metrics", _scrape),
        Route("GET", "/stats", "stats", _stats),
        Route("GET", "/cluster", "cluster", _cluster),
        *RequestHandler.debug_routes,
        Route("GET", "/changes", "changes", _read_changes),
        Route("GET", "/changes/stream", "changes-stream", _stream_changes),
        Route("GET", "/observations", "list", _list_observations),
        Route("GET", "/observations/<id>", "observation", _summary),
        *(
            Route("GET", f"/observations/<id>/{relation}", relation, _scattered(relation))
            for relation in ("containers", "contained", "complements")
        ),
        Route("GET", "/observations/<id>/related", "related", _scattered("related", merge_related)),
        Route("GET", "/observations/<id>/partial", "partial", _scattered("partial", merge_partial)),
        Route("GET", "/observations/<id>/transitive", "transitive", _transitive),
    )


class RouterServer(HTTPServer):
    """The router's pooled HTTP front end."""

    thread_name = "repro-router"
    role = "router"

    def __init__(
        self,
        address: tuple[str, int],
        router: Router,
        metrics: ServiceMetrics | None = None,
        verbose: bool = False,
        request_timeout: float = 30.0,
        shedder: LoadShedder | None = None,
        threads: int = 0,
        reuse_port: bool = False,
        keepalive_idle: float = 5.0,
        span_dir: str | None = None,
        profiler: bool = True,
        slow_log_path: str | None = None,
        slow_query_ms: float = 100.0,
    ):
        self.router = router
        #: SO_REUSEPORT lets several router processes share one port —
        #: the kernel load-balances accepted connections across them,
        #: which is how the router tier itself scales past one process.
        self.reuse_port = bool(reuse_port)
        super().__init__(
            address, RouterHandler, metrics, verbose, request_timeout, shedder,
            threads, keepalive_idle, span_dir, profiler, slow_log_path, slow_query_ms,
        )

    def server_bind(self):
        if self.reuse_port:
            import socket

            try:
                self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            except (AttributeError, OSError):  # pragma: no cover - non-Linux
                pass
        super().server_bind()

    def server_close(self):
        super().server_close()
        self.router.close()


def start_router(
    router: Router,
    host: str = "127.0.0.1",
    port: int = 0,
    background: bool = True,
    verbose: bool = False,
    threads: int = 0,
    reuse_port: bool = False,
    shedder: LoadShedder | None = None,
    request_timeout: float = 30.0,
    span_dir: str | None = None,
    profiler: bool = True,
    slow_log_path: str | None = None,
    slow_query_ms: float = 100.0,
) -> RouterServer:
    """Bind a :class:`RouterServer` and (optionally) serve in background."""
    server = RouterServer(
        (host, port), router, verbose=verbose, request_timeout=request_timeout,
        shedder=shedder, threads=threads, reuse_port=reuse_port, span_dir=span_dir,
        profiler=profiler, slow_log_path=slow_log_path, slow_query_ms=slow_query_ms,
    )
    return server.start(background)
