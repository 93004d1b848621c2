"""The cluster supervisor: spawn, watch and respawn the shard tier.

``repro cluster --shards N --replicas R`` runs one supervisor process
that:

1. reads the segment store's partition keys and writes the cluster
   manifest (``CLUSTER.json``) to the run directory;
2. spawns ``N x R`` shard worker processes (``repro shard``), each
   binding an ephemeral port (``--port 0``) and publishing its chosen
   endpoint through an atomically-written endpoint file — no fixed
   port ranges, no bind races;
3. records every worker endpoint back into the manifest (generation
   bump, atomic replace) so routers pick the topology up by mtime;
4. runs the router in-process and serves on the front port;
5. watches its children: a worker that dies is respawned, its new
   endpoint re-published, and the failover window is covered by the
   shard's surviving replicas — `kill -9` a worker mid-load and the
   router retries its requests on a sibling while the supervisor
   brings a replacement up.

Shutdown is graceful end-to-end: SIGTERM to the supervisor drains the
router, SIGTERMs every worker (which drain their own in-flight
requests), then waits before escalating to SIGKILL.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.errors import ReproError
from repro.obs import catalogue
from repro.cluster.manifest import CLUSTER_MANIFEST_NAME, ClusterManifest

__all__ = ["ClusterSupervisor"]

class _Worker:
    """One supervised shard process."""

    def __init__(self, shard: int, replica: int):
        self.shard = shard
        self.replica = replica
        self.process: subprocess.Popen | None = None
        self.endpoint: dict | None = None

    @property
    def name(self) -> str:
        return f"shard-{self.shard}.{self.replica}"


class ClusterSupervisor:
    """Spawns and supervises ``shards x replicas`` workers + a router."""

    def __init__(
        self,
        store: str,
        shards: int,
        replicas: int = 1,
        input_path: str | None = None,
        rundir: str | os.PathLike | None = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        router_threads: int = 8,
        shard_threads: int = 4,
        spawn_timeout: float = 30.0,
        respawn: bool = True,
        verbose: bool = False,
        span_dir: str | os.PathLike | None = None,
        profiler: bool = True,
        slow_query_dir: str | os.PathLike | None = None,
        slow_query_ms: float = 100.0,
    ):
        self.store = str(store)
        self.shards = int(shards)
        self.replicas = int(replicas)
        self.input_path = str(input_path) if input_path else None
        self.rundir = Path(rundir) if rundir is not None else Path(f"{store}.cluster")
        self.host = host
        self.port = int(port)
        self.router_threads = int(router_threads)
        self.shard_threads = int(shard_threads)
        self.spawn_timeout = float(spawn_timeout)
        self.respawn = respawn
        self.verbose = verbose
        self.span_dir = str(span_dir) if span_dir else None
        self.profiler = bool(profiler)
        self.slow_query_dir = Path(slow_query_dir) if slow_query_dir else None
        self.slow_query_ms = float(slow_query_ms)
        self.manifest: ClusterManifest | None = None
        self.manifest_path = self.rundir / CLUSTER_MANIFEST_NAME
        self.router_server = None
        self._workers: list[_Worker] = [
            _Worker(shard, replica)
            for shard in range(self.shards)
            for replica in range(self.replicas)
        ]
        self._space = None
        self._stopping = False

    # ------------------------------------------------------------------
    # Topology bootstrap
    # ------------------------------------------------------------------
    def prepare(self) -> ClusterManifest:
        """Derive the manifest from the store and commit it to rundir."""
        from repro.storage import SegmentStore, is_segment_store

        if not is_segment_store(self.store):
            raise ReproError(
                f"{self.store} is not a segment store; the cluster tier "
                "shards by segment partition keys (compute with -o store.rseg)"
            )
        store = SegmentStore.open(self.store)
        try:
            partitions = [
                {
                    "dataset": dataset,
                    "signature": list(signature) if signature is not None else None,
                }
                for dataset, signature in store.partition_keys()
            ]
        finally:
            store.close()
        if not partitions:
            # An unpartitioned store still clusters: everything lives in
            # the default partition on one shard, replicas still fail
            # over.  Worth saying out loud, though.
            partitions = [{"dataset": None, "signature": None}]
            print(
                "# store has no partition keys (computed without a cube "
                "space); a single shard owns all pairs",
                file=sys.stderr,
            )
        self.rundir.mkdir(parents=True, exist_ok=True)
        self.manifest = ClusterManifest(
            store=str(Path(self.store).resolve()),
            shards=self.shards,
            replicas=self.replicas,
            partitions=partitions,
            input_path=self.input_path,
        )
        self.manifest.write(self.manifest_path)
        return self.manifest

    # ------------------------------------------------------------------
    # Worker processes
    # ------------------------------------------------------------------
    def _endpoint_path(self, worker: _Worker) -> Path:
        return self.rundir / f"{worker.name}.endpoint.json"

    def _spawn(self, worker: _Worker) -> None:
        endpoint_path = self._endpoint_path(worker)
        try:
            endpoint_path.unlink()
        except FileNotFoundError:
            pass
        command = [
            sys.executable,
            "-m",
            "repro.cli",
            "shard",
            "--store",
            self.store,
            "--manifest",
            str(self.manifest_path),
            "--shard-id",
            str(worker.shard),
            "--replica",
            str(worker.replica),
            "--host",
            self.host,
            "--port",
            "0",
            "--endpoint-file",
            str(endpoint_path),
            "--threads",
            str(self.shard_threads),
        ]
        if self.input_path:
            command += ["--input", self.input_path]
        if self.verbose:
            command += ["--verbose"]
        if self.span_dir:
            command += ["--span-dir", self.span_dir]
        if not self.profiler:
            command += ["--no-profiler"]
        if self.slow_query_dir is not None:
            self.slow_query_dir.mkdir(parents=True, exist_ok=True)
            command += [
                "--slow-query-log",
                str(self.slow_query_dir / f"slow-{worker.name}.jsonl"),
                "--slow-query-ms",
                str(self.slow_query_ms),
            ]
        env = dict(os.environ)
        # The workers must import the same repro the supervisor runs —
        # prepend its package root whether or not PYTHONPATH was set.
        package_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else os.pathsep.join([package_root, existing])
        )
        worker.process = subprocess.Popen(command, env=env)
        worker.endpoint = None

    def _await_endpoint(self, worker: _Worker, deadline: float) -> dict:
        endpoint_path = self._endpoint_path(worker)
        while time.monotonic() < deadline:
            if worker.process.poll() is not None:
                raise ReproError(
                    f"worker {worker.name} exited with status "
                    f"{worker.process.returncode} before publishing its endpoint"
                )
            try:
                payload = json.loads(endpoint_path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):
                time.sleep(0.05)
                continue
            if payload.get("port"):
                return payload
            time.sleep(0.05)
        raise ReproError(
            f"worker {worker.name} did not publish an endpoint within "
            f"{self.spawn_timeout:.0f}s"
        )

    def _register(self, worker: _Worker, payload: dict) -> None:
        worker.endpoint = payload
        self.manifest.upsert_worker(
            {
                "shard": worker.shard,
                "replica": worker.replica,
                "host": payload["host"],
                "port": int(payload["port"]),
                "pid": worker.process.pid,
            }
        )

    def spawn_all(self) -> None:
        """Boot every worker, then commit their endpoints at once."""
        deadline = time.monotonic() + self.spawn_timeout
        for worker in self._workers:
            self._spawn(worker)
        for worker in self._workers:
            self._register(worker, self._await_endpoint(worker, deadline))
        self.manifest.write(self.manifest_path)
        catalogue.CLUSTER_WORKERS.set(sum(1 for w in self._workers if w.process))

    # ------------------------------------------------------------------
    # Router
    # ------------------------------------------------------------------
    def start_router(self):
        from repro.cluster.router import Router, start_router

        if self.input_path and self._space is None:
            from repro.core import ObservationSpace
            from repro.qb import load_cubespace
            from repro.rdf import parse_ntriples, parse_turtle

            text = Path(self.input_path).read_text()
            graph = (
                parse_ntriples(text)
                if self.input_path.endswith((".nt", ".ntriples"))
                else parse_turtle(text)
            )
            self._space = ObservationSpace.from_cubespace(load_cubespace(graph))
        router = Router(
            self.manifest,
            space=self._space,
            manifest_path=str(self.manifest_path),
        )
        try:
            self.router_server = start_router(
                router,
                host=self.host,
                port=self.port,
                background=True,
                verbose=self.verbose,
                threads=self.router_threads,
                span_dir=self.span_dir,
                profiler=self.profiler,
                slow_log_path=(
                    str(self.slow_query_dir / "slow-router.jsonl")
                    if self.slow_query_dir is not None
                    else None
                ),
                slow_query_ms=self.slow_query_ms,
            )
        except OSError as exc:
            raise ReproError(f"cannot bind {self.host}:{self.port}: {exc}") from exc
        self.manifest.router = {
            "host": self.host,
            "port": self.router_server.server_address[1],
            "pid": os.getpid(),
        }
        self.manifest.write(self.manifest_path)
        return self.router_server

    # ------------------------------------------------------------------
    # Supervision loop
    # ------------------------------------------------------------------
    def start(self):
        self.prepare()
        self.spawn_all()
        return self.start_router()

    def check_children(self) -> int:
        """Reap dead workers; respawn them.  Returns how many died."""
        died = 0
        if self._stopping:
            return died
        respawning = self.respawn and not self._stopping
        for worker in self._workers:
            if worker.process is None or worker.process.poll() is None:
                continue
            died += 1
            status = worker.process.returncode
            print(
                f"# worker {worker.name} (pid {worker.process.pid}) died "
                f"with status {status}"
                + ("; respawning" if respawning else ""),
                file=sys.stderr,
            )
            if not respawning:
                worker.process = None
                continue
            catalogue.CLUSTER_RESPAWNS.inc(shard=worker.shard)
            self._spawn(worker)
            try:
                payload = self._await_endpoint(
                    worker, time.monotonic() + self.spawn_timeout
                )
            except ReproError as exc:
                print(f"# respawn failed: {exc}", file=sys.stderr)
                continue
            self._register(worker, payload)
            # Commit the replacement endpoint; routers re-read on mtime.
            self.manifest.write(self.manifest_path)
        catalogue.CLUSTER_WORKERS.set(
            sum(
                1
                for w in self._workers
                if w.process is not None and w.process.poll() is None
            )
        )
        return died

    def run(self, stop, poll_interval: float = 0.5) -> None:
        """Supervise until ``stop`` (a ``threading.Event``) is set."""
        while not stop.wait(poll_interval):
            self.check_children()

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self, drain_timeout: float = 10.0) -> None:
        """Drain the router, then stop every worker (TERM, then KILL)."""
        # No respawns from here on: a worker restarted mid-shutdown would
        # miss the SIGTERM sweep below and survive as an orphan.
        self._stopping = True
        if self.router_server is not None:
            self.router_server.graceful_shutdown(drain_timeout=drain_timeout)
            self.router_server = None
        for worker in self._workers:
            if worker.process is not None and worker.process.poll() is None:
                try:
                    worker.process.send_signal(signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + drain_timeout
        for worker in self._workers:
            if worker.process is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                worker.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                worker.process.kill()
                worker.process.wait()
        # Final sweep: catch anything that slipped past the first pass
        # (e.g. a worker spawned while shutdown was already underway).
        for worker in self._workers:
            if worker.process is not None and worker.process.poll() is None:
                worker.process.kill()
                worker.process.wait()
        catalogue.CLUSTER_WORKERS.set(0)

    def endpoints(self) -> list[dict]:
        """Every live worker's ``{shard, replica, host, port, pid}``."""
        return [
            {
                "shard": worker.shard,
                "replica": worker.replica,
                "pid": worker.process.pid if worker.process else None,
                **(worker.endpoint or {}),
            }
            for worker in self._workers
        ]
