"""The end-to-end run: real ``python -m repro`` children, tracing off.

One call of :func:`run_pipeline` is one measured run of one workload:

    set-up (corpus → Turtle)             setup_s
    repro compute -o store.rseg          compute_wall_s, store_bytes_per_pair
    repro serve --store … --input …      serve_ready_s
    first GET …/related?k=10             first_query_s  (lazy decode + index build)
    closed query loop, 2 connections     query_qps, query_p50_ms, query_p90_ms
    writer + reader, 2 connections       ingest_obs_per_s, insert_visible_*, read_under_write_*
    SIGTERM                              peak_rss_mb (VmHWM of the bigger child)

and the correctness gates on what the children answered.  Load comes
from this one process over ``CLIENTS`` keep-alive ``http.client``
connections (a closed loop: the next request waits for the reply).
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import random
import re
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core import ObservationSpace
from repro.core.cubemask import compute_cubemask
from repro.rdf import URIRef
from repro.service import QueryEngine
from repro.storage import load_segments

from benchmarks.e2e import workloads as wl

ROOT = Path(__file__).resolve().parents[2]
CLIENTS = 2  # = nproc on the reference host; never more connections than cores
SETUP_REPEATS = 3
DEFAULT_SEED = 42
HTTP_TIMEOUT = 30.0
CHILD_TIMEOUT = 170.0
SAMPLED_RESPONSES = 100
DEFINITION_PAIRS = 2000

#: Pair counts of the base cube at the default seed — a change in any of
#: them is a wrong answer, not a slowdown.  ``(workload, smoke)`` →
#: ``(full, partial, complementary)``
PINNED_COUNTS = {
    ("batch-wide", False): (13592, 0, 26),
    ("batch-partial", False): (596, 452160, 2),
    ("serve-mix", False): (238, 181534, 0),
    ("ingest-read", False): (512, 209674, 0),
    ("batch-wide", True): (724, 0, 2),
    ("batch-partial", True): (22, 17914, 0),
    ("serve-mix", True): (1, 7195, 0),
    ("ingest-read", True): (4, 8464, 0),
}

_COUNTS_LINE = re.compile(r"full=(\d+) partial=(\d+) complementary=(\d+)")
_LISTENING = re.compile(r"^listening .*port=(\d+)")


class BenchmarkError(RuntimeError):
    """The pipeline could not run to the end (a child died, no port…)."""


@dataclass
class Tally:
    """Operations attempted / failed, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, ok: bool, reason: str = "") -> bool:
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.reasons) < 10:
                    self.reasons.append(reason)
        return ok


@dataclass
class RunResult:
    metrics: dict[str, float]
    attempted: int
    failed: int
    reasons: list[str]
    #: sample counts, pair counts, cache hit ratio… (printed, not bounded)
    facts: dict


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile, ``p`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def percentile_supported(samples: int, p: float) -> bool:
    """The guide's rule: a percentile is reported only with at least ten
    samples beyond it."""
    return samples * (100.0 - p) / 100.0 >= 10.0


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args: list[str], stderr_path: Path, stdout=None) -> subprocess.Popen:
    with stderr_path.open("w") as stderr:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=stdout,
            stderr=stderr,
            env=child_env(),
            text=True,
        )


class RssWatch:
    """Peak resident set of a live child, polled from ``VmHWM`` in
    ``/proc/<pid>/status``.

    ``os.wait4``'s ``ru_maxrss`` cannot be used: on Linux a forked
    child carries its parent's high-water mark across ``exec``, so it
    reports this harness whenever the harness is the bigger process.
    """

    def __init__(self, pid: int, interval: float = 0.02):
        self.pid = pid
        self.peak_mb = 0.0
        self._done = threading.Event()
        self._thread = threading.Thread(target=self._poll, args=(interval,), daemon=True)
        self._thread.start()

    def _poll(self, interval: float) -> None:
        while not self._done.wait(interval):
            self.sample()

    def sample(self) -> None:
        try:
            with open(f"/proc/{self.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        self.peak_mb = max(self.peak_mb, int(line.split()[1]) / 1024.0)
                        return
        except OSError:
            pass  # already gone

    def stop(self) -> float:
        self._done.set()
        self._thread.join()
        return self.peak_mb


def reap(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT) -> int:
    """Block until ``proc`` exits (a blocking wait, so the timing is not
    quantised by a poll interval); a watchdog kills a child that
    outlives ``timeout``."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        return proc.wait()
    finally:
        watchdog.cancel()


def stop(proc: subprocess.Popen | None) -> None:
    """Terminate and wait — the failure-path twin of :func:`reap`."""
    if proc is None or proc.returncode is not None:
        return
    proc.terminate()
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def await_listening(proc: subprocess.Popen, timeout: float = CHILD_TIMEOUT) -> int:
    """Parse the port out of the child's ``listening … port=`` line."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    line = proc.stdout.readline() if ready else ""
    match = _LISTENING.match(line)
    if not match:
        raise BenchmarkError(f"serve did not report a port (got {line!r})")
    return int(match.group(1))


class Client:
    """One keep-alive connection.  A connection the server closed while
    idle is reopened once per request and counted, not failed."""

    def __init__(self, port: int):
        self.reconnects = 0
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT)

    def request(self, method: str, path: str, body: str | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        for retry in (False, True):
            try:
                self.conn.request(method, path, body=body, headers=headers)
                response = self.conn.getresponse()
                return response.status, response.read()
            except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
                self.conn.close()
                # Only an idempotent request may be replayed.
                if retry or method != "GET":
                    raise
                self.reconnects += 1
        raise AssertionError("unreachable")

    def close(self) -> None:
        self.conn.close()


def fresh_get(port: int, path: str) -> tuple[int, bytes]:
    """One request on a connection of its own."""
    client = Client(port)
    try:
        return client.request("GET", path)
    finally:
        client.close()


# ----------------------------------------------------------------------
# Load loops
# ----------------------------------------------------------------------
def _timed_get(client: Client, path: str, tally: Tally) -> tuple[float, bytes | None]:
    started = time.perf_counter()
    try:
        status, body = client.request("GET", path)
    except (OSError, http.client.HTTPException) as exc:
        tally.record(False, f"GET {path}: {exc!r}")
        return (time.perf_counter() - started) * 1e3, None
    elapsed = (time.perf_counter() - started) * 1e3
    if not tally.record(status == 200, f"GET {path}: HTTP {status}"):
        return elapsed, None
    return elapsed, body


def query_loop(port, workload, uris, seed, seconds, tally) -> dict:
    """``CLIENTS`` closed-loop connections for ``seconds``; returns the
    latencies (ms), the loop's wall seconds, sampled responses and the
    reconnect count."""
    latencies: list[list[float]] = [[] for _ in range(CLIENTS)]
    samples: list[list[tuple]] = [[] for _ in range(CLIENTS)]
    clients = [Client(port) for _ in range(CLIENTS)]
    started = time.perf_counter()
    deadline = started + seconds

    def work(slot: int) -> None:
        stream = wl.request_stream(workload, uris, seed * 1000 + slot)
        while time.perf_counter() < deadline:
            relation, uri, query = next(stream)
            elapsed, body = _timed_get(clients[slot], wl.request_path(relation, uri, query), tally)
            if body is not None:
                latencies[slot].append(elapsed)
                if len(samples[slot]) < SAMPLED_RESPONSES // CLIENTS:
                    samples[slot].append((relation, uri, query, body))

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    for client in clients:
        client.close()
    return {
        "latencies": list(itertools.chain.from_iterable(latencies)),
        "wall": wall,
        "samples": list(itertools.chain.from_iterable(samples)),
        "reconnects": sum(client.reconnects for client in clients),
    }


def ingest_loop(port, workload, corpus, seed, seconds, tally) -> dict:
    """One writer (POST a batch, then long-poll ``/changes`` until that
    batch's offset is readable) beside one closed-loop reader."""
    visible: list[float] = []
    reads: list[float] = []
    inserted: list = []
    done = threading.Event()
    writer, reader = Client(port), Client(port)
    started = time.perf_counter()
    deadline = started + seconds
    span = {"end": started}

    def write() -> None:
        try:
            for batch in wl.batches(workload, corpus):
                if time.perf_counter() >= deadline:
                    break
                body = json.dumps(wl.observation_payload(batch))
                begun = time.perf_counter()
                try:
                    status, raw = writer.request("POST", "/observations", body)
                    ok = status == 200
                    if ok:
                        offset = json.loads(raw)["feed_offset"]
                        status, raw = writer.request(
                            "GET", f"/changes?since={offset - 1}&limit=1&timeout=5"
                        )
                        changes = json.loads(raw).get("changes", []) if status == 200 else []
                        ok = len(changes) == 1 and changes[0]["offset"] == offset
                    reason = f"insert batch: HTTP {status}"
                except (OSError, http.client.HTTPException, KeyError, ValueError) as exc:
                    ok, reason = False, f"insert batch: {exc!r}"
                span["end"] = time.perf_counter()
                if tally.record(ok, reason):
                    visible.append((span["end"] - begun) * 1e3)
                    inserted.extend(batch)
        finally:
            done.set()

    def read() -> None:
        rng = random.Random(seed + 7)
        while not done.is_set():
            path = wl.request_path("containers", rng.choice(corpus.base_uris), "")
            elapsed, body = _timed_get(reader, path, tally)
            if body is not None:
                reads.append(elapsed)

    threads = [threading.Thread(target=write), threading.Thread(target=read)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    writer.close()
    reader.close()
    return {
        "visible": visible,
        "reads": reads,
        "inserted": inserted,
        "wall": span["end"] - started,
        "reconnects": writer.reconnects + reader.reconnects,
    }


# ----------------------------------------------------------------------
# Correctness gates
# ----------------------------------------------------------------------
def reference_answer(engine: QueryEngine, relation: str, uri: str) -> dict:
    """What the server must answer to the mixes' requests (``k=10``,
    ``direction=up``), from an in-process engine over the same store
    (shapes as in ``service/server.py::_route``)."""
    uri = URIRef(uri)
    if relation == "containers":
        return {"uri": uri, "containers": list(engine.containers(uri))}
    if relation == "contained":
        return {"uri": uri, "contained": list(engine.contained(uri))}
    if relation == "complements":
        return {"uri": uri, "complements": list(engine.complements(uri))}
    if relation == "related":
        return {"uri": uri, "related": list(engine.related(uri, 10))}
    if relation == "partial":
        return {
            "uri": uri,
            "partial": [
                {"uri": other, "degree": degree, "direction": way}
                for other, degree, way in engine.top_partial(uri, 10, "both")
            ],
        }
    if relation == "transitive":
        return {
            "uri": uri,
            "direction": "up",
            "reachable": [
                {"uri": other, "depth": depth} for other, depth in engine.transitive_containers(uri)
            ],
        }
    raise ValueError(relation)


def check_responses(samples, engine, tally: Tally) -> None:
    for relation, uri, _, body in samples:
        expected = json.loads(json.dumps(reference_answer(engine, relation, uri)))
        tally.record(json.loads(body) == expected, f"wrong answer: {relation} {uri}")


def check_definitions(result, space, targets, seed, tally: Tally) -> None:
    """Re-check seeded pairs against Definitions 3–4 in both directions:
    random pairs (is a relationship that holds stored, and one that
    does not absent?) and stored pairs (does the relationship hold?)."""
    rng = random.Random(seed + 11)
    n = len(space)
    uris = [record.uri for record in space.observations]
    index_of = {uri: i for i, uri in enumerate(uris)}
    relations = {
        "full": (result.full, space.is_full_containment),
        "partial": (result.partial, space.is_partial_containment),
        "complementary": (result.complementary, space.is_complementary),
    }
    stored = [
        (index_of[a], index_of[b])
        for name in targets
        for a, b in itertools.islice(relations[name][0], DEFINITION_PAIRS // 8)
    ]
    drawn = [(rng.randrange(n), rng.randrange(n)) for _ in range(DEFINITION_PAIRS - len(stored))]
    for a, b in stored + drawn:
        ok = True
        for name in targets:
            members, holds = relations[name]
            if name == "complementary":
                present = result.is_complementary(uris[a], uris[b])
            else:
                present = (uris[a], uris[b]) in members
            ok = ok and present == holds(a, b)
        tally.record(ok, f"definition mismatch: {uris[a]} vs {uris[b]}")


def check_inserted(port, corpus, inserted, tally: Tally) -> None:
    """After ingest: ``containers``/``contained`` of every inserted URI
    must equal a batch cubeMasking run over base + inserted."""
    space = ObservationSpace.from_cubespace(corpus.base)
    for o in inserted:
        space.add(o.uri, o.dataset, o.dimensions, o.measure_set)
    full = compute_cubemask(space, targets=("full",), kernel="numpy").full
    wanted = {str(o.uri) for o in inserted}
    expected = {uri: {"containers": [], "contained": []} for uri in wanted}
    for a, b in full:
        if str(b) in wanted:
            expected[str(b)]["containers"].append(str(a))
        if str(a) in wanted:
            expected[str(a)]["contained"].append(str(b))
    for uri, relations in expected.items():
        for relation, others in relations.items():
            try:
                status, body = fresh_get(port, wl.request_path(relation, uri, ""))
                ok = status == 200 and json.loads(body)[relation] == sorted(others)
            except (OSError, http.client.HTTPException) as exc:
                ok = False
                status = repr(exc)
            tally.record(ok, f"after ingest: {relation} of {uri} differs from batch ({status})")


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
@dataclass
class BatchPath:
    """One pass cube file → store → listening → first answer."""

    compute_wall_s: float
    serve_ready_s: float
    first_query_s: float
    compute_rss_mb: float
    pair_counts: tuple[int, int, int]
    store: Path
    server: subprocess.Popen
    port: int
    first_sample: tuple

    @property
    def time_to_first_answer_s(self) -> float:
        return self.compute_wall_s + self.serve_ready_s + self.first_query_s


def batch_path(workload, corpus, workdir: Path, attempt: int, first_uri: str, tally: Tally) -> BatchPath:
    """``repro compute -o`` then ``repro serve`` then one ``related``
    query, each timed from spawn.  Leaves the server running."""
    store = workdir / f"store-{attempt}.rseg"
    log = workdir / f"compute-{attempt}.err"
    started = time.perf_counter()
    compute = spawn(
        ["compute", "--input", str(corpus.base_path), "--method", "cube_masking",
         "--kernel", "numpy", "--targets", *workload.targets, "-o", str(store)],
        log,
    )
    watch = RssWatch(compute.pid)
    try:
        code = reap(compute)
    finally:
        stop(compute)
        compute_rss = watch.stop()
    compute_wall = time.perf_counter() - started
    counts = _COUNTS_LINE.search(log.read_text())
    if not tally.record(code == 0 and counts is not None, f"repro compute exited {code}"):
        raise BenchmarkError(f"repro compute failed, see {log}")

    started = time.perf_counter()
    server = spawn(
        ["serve", "--store", str(store), "--input", str(corpus.base_path), "--port", "0"],
        workdir / f"serve-{attempt}.err",
        stdout=subprocess.PIPE,
    )
    try:
        port = await_listening(server)
        listening = time.perf_counter()
        client = Client(port)
        _, body = _timed_get(client, wl.request_path("related", first_uri, "?k=10"), tally)
        answered = time.perf_counter()
        client.close()
        if body is None:
            raise BenchmarkError("the first query failed")
    except BaseException:
        shutdown(server)
        raise
    return BatchPath(
        compute_wall,
        listening - started,
        answered - listening,
        compute_rss,
        tuple(int(g) for g in counts.groups()),
        store,
        server,
        port,
        ("related", first_uri, "?k=10", body),
    )


def shutdown(server: subprocess.Popen, tally: Tally | None = None) -> float:
    """SIGTERM, wait, close the pipe; returns the server's peak RSS (MB)."""
    watch = RssWatch(server.pid)
    watch.sample()
    try:
        if server.returncode is None:
            server.terminate()
            code = reap(server, timeout=20)
            if tally is not None:
                tally.record(code == 0, f"repro serve exited {code}")
    finally:
        stop(server)
        server.stdout.close()
    return watch.stop()


def run_pipeline(
    workload: wl.Workload,
    seed: int,
    seconds: float,
    workdir: Path,
    probe_server=None,
) -> tuple[RunResult, wl.Corpus]:
    """One untraced end-to-end run.  ``probe_server(port, corpus)``, when
    given, runs between the query loop and the ingest loop (the traced
    run's fresh-connection probe) and its dict lands in ``facts``."""
    tally = Tally()
    facts: dict = {"seed": seed, "seconds": seconds}
    metrics: dict[str, float] = {}

    setups = [wl.prepare(workload, seed, workdir) for _ in range(SETUP_REPEATS)]
    corpus = setups[-1]
    metrics["setup_s"] = statistics.median(s.setup_seconds for s in setups)
    facts["observations"] = len(corpus.base_uris)

    # -- cube file -> store -> listening -> first answer, repeated: these
    #    are one-shot timings, so the run reports their median and keeps
    #    the last server for the loops.
    first_uri = random.Random(seed).choice(corpus.base_uris)
    passes: list[BatchPath] = []
    for attempt in range(workload.batch_repeats):
        if passes:
            shutdown(passes[-1].server, tally)
        passes.append(batch_path(workload, corpus, workdir, attempt, first_uri, tally))
    last = passes[-1]
    try:
        for name in ("compute_wall_s", "serve_ready_s", "first_query_s", "time_to_first_answer_s"):
            metrics[name] = statistics.median(getattr(p, name) for p in passes)
        facts["pairs"] = dict(zip(("full", "partial", "complementary"), last.pair_counts))
        pinned = PINNED_COUNTS.get((workload.name, workload.smoke)) if seed == DEFAULT_SEED else None
        if pinned is not None:
            tally.record(last.pair_counts == pinned, f"pair counts {last.pair_counts} != pinned {pinned}")
        files = [f for f in last.store.rglob("*") if f.is_file()]
        facts["store_bytes"] = sum(f.stat().st_size for f in files)
        facts["store_files"] = len(files)
        metrics["store_bytes_per_pair"] = facts["store_bytes"] / max(1, sum(last.pair_counts))
        port = last.port

        # -- steady queries (warm: index built, one request per relation)
        client = Client(port)
        for relation, query, _ in workload.mix:
            _timed_get(client, wl.request_path(relation, first_uri, query), tally)
        client.close()
        queries = query_loop(port, workload, corpus.base_uris, seed, seconds * workload.query_share, tally)
        latencies = queries["latencies"]
        if not latencies:
            raise BenchmarkError("no query completed in the query loop")
        metrics["query_qps"] = len(latencies) / queries["wall"]
        metrics["query_p50_ms"] = percentile(latencies, 50)
        metrics["query_p90_ms"] = percentile(latencies, 90)
        facts["query_samples"] = len(latencies)
        status, raw = fresh_get(port, "/stats")
        if tally.record(status == 200, f"GET /stats: HTTP {status}"):
            facts["cache"] = json.loads(raw)["cache"]
        if probe_server is not None:
            facts["probe"] = probe_server(port, corpus)

        # -- gates on what was served (the server is idle meanwhile) ---
        space = ObservationSpace.from_cubespace(corpus.base)
        result = load_segments(last.store)
        check_definitions(result, space, workload.targets, seed, tally)
        check_responses(
            [last.first_sample] + queries["samples"], QueryEngine(result, space, cache_size=0), tally
        )
        del result, space

        # -- ingest beside reads --------------------------------------
        ingest = ingest_loop(port, workload, corpus, seed, seconds * (1 - workload.query_share), tally)
        if not ingest["visible"] or not ingest["reads"]:
            raise BenchmarkError("the ingest loop completed no batch or no read")
        metrics["ingest_obs_per_s"] = len(ingest["inserted"]) / ingest["wall"]
        metrics["insert_visible_p50_ms"] = percentile(ingest["visible"], 50)
        metrics["insert_visible_p90_ms"] = percentile(ingest["visible"], 90)
        # Reads are either unstalled (~ the query p50) or parked behind the
        # write lock; a median sitting between the two modes flips from
        # run to run, so the pair reported is mean and p90.
        metrics["read_under_write_mean_ms"] = statistics.fmean(ingest["reads"])
        metrics["read_under_write_p90_ms"] = percentile(ingest["reads"], 90)
        facts["insert_samples"] = len(ingest["visible"])
        facts["read_samples"] = len(ingest["reads"])
        facts["reconnects"] = queries["reconnects"] + ingest["reconnects"]
        check_inserted(port, corpus, ingest["inserted"], tally)
        metrics["peak_rss_mb"] = max(last.compute_rss_mb, shutdown(last.server, tally))
    finally:
        shutdown(last.server)
    return RunResult(metrics, tally.attempted, tally.failed, tally.reasons, facts), corpus
