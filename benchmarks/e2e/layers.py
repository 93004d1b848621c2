"""The traced run: per-layer numbers for one workload.

It first does the ordinary end-to-end run (real children, untraced —
needed for the server-side rows and for the in-process/CLI ratio), then
mirrors the CLI's order of calls in this process with a span around
each layer's public function:

    batch:  parse → load → space → [plan → kernel]* compute → materialise
            → [partition → encode*] save
    serve:  parse → load → space again, open → decode → index build
            → first query

followed by count-based probes of the engine and of the ingest path.
Layer names are module names.  Spans inside ``src/`` (``repro compute
--trace``, the span store) are deliberately not read.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.core import ObservationSpace, compute_relationships, kernels, update_relationships
from repro.qb import load_cubespace
from repro.rdf import URIRef, parse_turtle
from repro.service import QueryEngine, RelationshipIndex
from repro.storage import SegmentStore
from repro.storage import store as storage_store
from repro.store import save_relationships
from repro.stream import Changefeed

from benchmarks.e2e import pipeline
from benchmarks.e2e import workloads as wl
from benchmarks.e2e.trace import Recorder

ROOTS = ("batch", "serve")
ENGINE_PROBE_REQUESTS = 1000
FRESH_CONNECTIONS = 200
INGEST_PROBE_BATCHES = 10
INGEST_PROBE_SECONDS = 4.0
POINT_RELATIONS = ("containers", "contained", "complements")


def _load(rec: Recorder, base_path: Path):
    with rec.span("rdf.parse"):
        graph = parse_turtle(base_path.read_text())
    with rec.span("qb.load"):
        cube = load_cubespace(graph)
    with rec.span("core.space.build"):
        space = ObservationSpace.from_cubespace(cube)
    return graph, space


def _probe_engine(engine: QueryEngine, requests) -> dict[str, list[float]]:
    """Per-relation call times (µs) of ``requests`` against ``engine``."""
    times: dict[str, list[float]] = {}
    for relation, uri, _ in requests:
        started = time.perf_counter()
        pipeline.reference_answer(engine, relation, uri)
        times.setdefault(relation, []).append((time.perf_counter() - started) * 1e6)
    return times


def _take(stream, n: int) -> list:
    return [next(stream) for _ in range(n)]


def fresh_connection_probe(workload: wl.Workload, seed: int):
    """``probe_server`` hook: p50 of requests that each open their own
    connection — the contrast to the keep-alive loop's latency."""

    def probe(port: int, corpus: wl.Corpus) -> dict:
        stream = wl.request_stream(workload, corpus.base_uris, seed + 3)
        latencies = []
        for relation, uri, query in _take(stream, FRESH_CONNECTIONS):
            started = time.perf_counter()
            status, _ = pipeline.fresh_get(port, wl.request_path(relation, uri, query))
            if status == 200:
                latencies.append((time.perf_counter() - started) * 1e3)
        return {"fresh_conn_p50_ms": statistics.median(latencies), "samples": len(latencies)}

    return probe


def cli_startup_seconds(repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            env=pipeline.child_env(),
            stdout=subprocess.DEVNULL,
            check=True,
        )
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def run_traced(
    workload: wl.Workload, seed: int, seconds: float, workdir: Path
) -> tuple[pipeline.RunResult, dict[str, float], Recorder]:
    run, corpus = pipeline.run_pipeline(
        workload, seed, seconds, workdir, probe_server=fresh_connection_probe(workload, seed)
    )
    rec = Recorder()
    layer: dict[str, float] = {}
    mirror = workdir / "mirror.rseg"

    # -- batch side: what `repro compute -o` does -----------------------
    stats: dict = {}
    with rec.span("batch"):
        graph, space = _load(rec, corpus.base_path)
        triples = len(graph)
        with rec.wrap(kernels, "build_kernel_plan", "core.kernels.plan_build"), rec.wrap(
            kernels, "evaluate_pair_block", "core.kernels.kernel"
        ), rec.span("core.cubemask.compute"):
            result = compute_relationships(
                space, "cube_masking", targets=workload.targets, kernel="numpy", stats=stats
            )
        with rec.span("core.results.materialise"):
            emitted = len(result.full) + len(result.partial) + len(result.complementary)
        with rec.wrap(storage_store, "partition_relationships", "storage.partition"), rec.wrap(
            storage_store, "encode_segment", "storage.encode"
        ), rec.span("storage.save"):
            save_relationships(result, str(mirror), indent=2, space=space)
        del graph, result

    # -- serve side: what `repro serve` + the first query do ------------
    first_uri = URIRef(corpus.base_uris[0])
    with rec.span("serve"):
        _, space = _load(rec, corpus.base_path)
        with rec.span("storage.open"):
            store = SegmentStore.open(mirror)
        with rec.span("storage.decode"):
            loaded = store.load()
        with rec.span("service.index.build"):
            index = RelationshipIndex(loaded, space)
        with rec.span("service.engine.first_query"):
            QueryEngine(loaded, space, index=index).related(first_uri, 10)

    # -- engine probes: the serving mix without / with the cache, then
    #    this workload's own mix warm (what the HTTP p50 is compared to)
    mixed = _take(wl.request_stream(wl.WORKLOADS["serve-mix"], corpus.base_uris, seed), ENGINE_PROBE_REQUESTS)
    uncached = _probe_engine(QueryEngine(loaded, space, index=index, cache_size=0), mixed)
    own = _take(wl.request_stream(workload, corpus.base_uris, seed * 1000), ENGINE_PROBE_REQUESTS)
    warm_engine = QueryEngine(loaded, space, index=index)
    _probe_engine(warm_engine, own)
    warm = [t for times in _probe_engine(warm_engine, own).values() for t in times]

    # -- ingest probes: the engine's write path, call by call -----------
    feed = Changefeed(workdir / "mirror-feed")
    observations = pairs_added = probed = 0
    probe_started = time.perf_counter()
    try:
        for batch in wl.batches(workload, corpus)[:INGEST_PROBE_BATCHES]:
            if probed and time.perf_counter() - probe_started > INGEST_PROBE_SECONDS:
                break
            new = [(o.uri, o.dataset, o.dimensions, o.measure_set) for o in batch]
            with rec.span("core.api.update"):
                _, delta = update_relationships(space, loaded, new, return_delta=True)
            with rec.span("storage.wal.append"):
                store.append_delta(delta)
            with rec.span("stream.changefeed.publish"):
                offset = feed.publish(delta, op="insert")
            with rec.span("stream.changefeed.read"):
                feed.wait_for(offset - 1, timeout=5, limit=1)
            observations += len(batch)
            pairs_added += delta.total_added()
            probed += 1
        wal_bytes = store.wal.size_bytes()
    finally:
        feed.close()
        store.close()

    # -- the rows --------------------------------------------------------
    e2e = run.metrics
    total, count = rec.total, rec.count
    kernel_s = total("core.kernels.kernel")
    compute_s = total("core.cubemask.compute")
    # parse/load/space run on both sides; report one call's mean
    layer["rdf.parse_s"] = total("rdf.parse") / count("rdf.parse")
    layer["rdf.triples_per_s"] = triples / layer["rdf.parse_s"]
    layer["qb.load_s"] = total("qb.load") / count("qb.load")
    layer["core.space.build_s"] = total("core.space.build") / count("core.space.build")
    layer["cli.startup_s"] = cli_startup_seconds()
    layer["core.kernels.plan_build_s"] = total("core.kernels.plan_build")
    layer["core.kernels.kernel_s"] = kernel_s
    layer["core.kernels.kernel_pairs"] = stats["kernel_pairs"]
    layer["core.kernels.pairs_per_s"] = stats["kernel_pairs"] / kernel_s if kernel_s else 0.0
    layer["core.cubemask.compute_s"] = compute_s
    layer["core.cubemask.self_s"] = rec.self_total("core.cubemask.compute")
    for key in ("cubes", "cube_pairs", "pruned_cube_pairs", "instance_comparisons", "pruned_comparisons"):
        layer[f"core.cubemask.{key}"] = stats[key]
    layer["core.cubemask.emitted_pairs"] = emitted
    layer["core.cubemask.useful_ratio"] = emitted / max(1, stats["instance_comparisons"])
    layer["core.results.materialise_s"] = total("core.results.materialise")
    layer["core.results.pairs"] = emitted
    layer["storage.partition_s"] = total("storage.partition")
    layer["storage.encode_s"] = total("storage.encode")
    layer["storage.save_s"] = total("storage.save")
    layer["storage.write_commit_s"] = rec.self_total("storage.save")
    layer["storage.segments"] = count("storage.encode")
    layer["storage.bytes_written"] = sum(f.stat().st_size for f in mirror.glob("seg-*"))
    layer["storage.open_s"] = total("storage.open")
    layer["storage.decode_s"] = total("storage.decode")
    layer["service.index.build_s"] = total("service.index.build")
    layer["service.engine.first_query_s"] = total("service.engine.first_query")
    layer["service.engine.point_us"] = statistics.median(
        t for relation in POINT_RELATIONS for t in uncached.get(relation, ())
    )
    layer["service.engine.related_us"] = statistics.median(uncached["related"])
    layer["service.engine.warm_us"] = statistics.median(warm)
    cache = run.facts.get("cache", {})
    layer["service.engine.cache_hit_ratio"] = cache.get("hits", 0) / max(
        1, cache.get("hits", 0) + cache.get("misses", 0)
    )
    layer["service.server.overhead_ms"] = e2e["query_p50_ms"] - layer["service.engine.warm_us"] / 1e3
    layer["service.server.fresh_conn_p50_ms"] = run.facts["probe"]["fresh_conn_p50_ms"]
    layer["service.server.reconnects"] = run.facts["reconnects"]
    layer["core.api.update_s_per_obs"] = total("core.api.update") / observations
    layer["core.api.pairs_added_per_obs"] = pairs_added / observations
    layer["storage.wal.append_s"] = total("storage.wal.append") / probed
    layer["storage.wal.bytes_per_batch"] = wal_bytes / probed
    layer["stream.changefeed.publish_s"] = total("stream.changefeed.publish") / probed
    layer["stream.changefeed.read_s"] = total("stream.changefeed.read") / probed
    layer["trace.coverage_ratio"] = rec.coverage(ROOTS)
    layer["trace.inproc_vs_cli_ratio"] = sum(total(root) for root in ROOTS) / e2e["time_to_first_answer_s"]
    return run, layer, rec
