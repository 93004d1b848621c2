"""Command-line interface.

Eleven subcommands::

    python -m repro compute  --input cube.ttl --method cube_masking -o links.rseg
    python -m repro generate --kind realworld --scale 0.01 --output corpus.ttl
    python -m repro inspect  --input cube.ttl          # or any store path
    python -m repro validate --input cube.ttl
    python -m repro serve    --store links.rseg --input cube.ttl --port 8080
    python -m repro cluster  --store links.rseg --shards 4 --replicas 2
    python -m repro shard    --store links.rseg --manifest CLUSTER.json --shard-id 0
    python -m repro router   --manifest CLUSTER.json --port 8080
    python -m repro migrate  --input links.json --output links.rseg
    python -m repro compact  --store links.rseg --input cube.ttl
    python -m repro scrub    --store links.rseg

``compute`` loads a QB cube from Turtle or N-Triples, computes the
relationships with the chosen method and writes them back as RDF links
(or, with ``-o``, as a relationship store — plain JSON, ``.json.gz``
or a binary ``.rseg`` segment store).  ``generate`` materialises one
of the evaluation corpora.  ``inspect`` prints the cube-space profile
of a cube file, or the size/format/load-time and pair profile of a
relationship store.  ``serve`` exposes a materialised store as the
HTTP query service of :mod:`repro.service` — segment stores start in
O(manifest) and journal every incremental write to their write-ahead
log; the serving path is hardened with per-request deadlines, load
shedding, a storage circuit breaker and graceful SIGTERM drain (see
``docs/resilience.md``).  ``cluster`` runs the same store as a
sharded, replicated process tier — N shard workers partitioned by
consistent hashing over the store's (dataset, lattice-signature) keys,
fronted by a scatter/gather router with per-replica circuit breakers
and failover, under a supervisor that respawns dead workers (see
``docs/cluster.md``); ``shard`` and ``router`` run those tier members
individually.  ``migrate`` converts a store between the three formats;
``compact`` folds a segment store's WAL into fresh segments.  ``scrub``
CRC-verifies a segment store and quarantines / repairs corruption.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core import Method, ObservationSpace, compute_relationships
from repro.core.cubemask import check_kernel
from repro.data.realworld import build_realworld_cubespace
from repro.data.synthetic import build_synthetic_space
from repro.errors import ReproError
from repro.qb import cubespace_to_graph, load_cubespace, relationships_to_graph
from repro.rdf import Graph, parse_ntriples, parse_turtle, serialize_ntriples, serialize_turtle
from repro.store import atomic_write_text

__all__ = ["main"]

#: Exit code for library-level failures (parse errors, bad cubes,
#: unusable checkpoints...) — distinct from argparse's 2 and the
#: ``validate`` subcommand's 1.
EXIT_ERROR = 3
EXIT_INTERRUPTED = 130


def _read_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    if path.endswith((".nt", ".ntriples")):
        return parse_ntriples(text)
    return parse_turtle(text)


def _write_graph(graph: Graph, path: str | None) -> None:
    if path is None:
        sys.stdout.write(serialize_turtle(graph))
        return
    if path.endswith((".nt", ".ntriples")):
        atomic_write_text(path, serialize_ntriples(graph) or "")
    else:
        atomic_write_text(path, serialize_turtle(graph))


def _cmd_compute(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from repro.obs.tracing import bind_trace, trace

    with ExitStack() as stack:
        if args.trace:
            from repro.obs.logging import configure_jsonl, remove_handler

            handler = configure_jsonl(args.trace)
            stack.callback(remove_handler, handler)
            trace_id = stack.enter_context(bind_trace())
            print(f"# trace {trace_id} -> {args.trace}", file=sys.stderr)
        return _run_compute(args, trace)


def _run_compute(args: argparse.Namespace, trace) -> int:
    with trace("cli.load", input=args.input):
        graph = _read_graph(args.input)
        cube = load_cubespace(graph)
        space = ObservationSpace.from_cubespace(cube)
    options: dict = {}
    if args.targets:
        options["targets"] = tuple(args.targets)
    if args.method == Method.CLUSTERING.value:
        options["seed"] = args.seed
    if args.checkpoint:
        options["checkpoint"] = args.checkpoint
        options["resume"] = args.resume
    if args.max_retries is not None:
        options["max_retries"] = args.max_retries
    if args.timeout is not None:
        options["unit_timeout"] = args.timeout
    if args.workers is not None:
        if args.method != Method.CUBE_MASKING.value:
            raise ReproError("--workers is only supported with --method cube_masking")
        options["workers"] = args.workers
    if args.kernel is not None:
        if args.method != Method.CUBE_MASKING.value:
            raise ReproError("--kernel is only supported with --method cube_masking")
        check_kernel(args.kernel)
    kernel_stats: dict | None = None
    if args.kernel_stats:
        if args.method != Method.CUBE_MASKING.value:
            raise ReproError("--kernel-stats is only supported with --method cube_masking")
        if args.checkpoint or args.max_retries is not None or args.timeout is not None:
            raise ReproError(
                "--kernel-stats is not supported together with checkpointed "
                "materialisation (--checkpoint/--max-retries/--timeout)"
            )
        kernel_stats = {}
        options["stats"] = kernel_stats
    profiler = None
    if args.profile:
        from repro.obs.profile import SamplingProfiler

        profiler = SamplingProfiler().start()
    started = time.perf_counter()
    try:
        with trace("cli.compute", method=args.method, observations=len(space)):
            result = compute_relationships(space, args.method, **options)
    finally:
        if profiler is not None:
            profiler.stop()
    elapsed = time.perf_counter() - started
    print(
        f"# {len(space)} observations, method={args.method}: "
        f"full={len(result.full)} partial={len(result.partial)} "
        f"complementary={len(result.complementary)} ({elapsed:.2f}s)",
        file=sys.stderr,
    )
    if kernel_stats is not None:
        print(f"# kernel stats: {json.dumps(kernel_stats, sort_keys=True)}", file=sys.stderr)
    with trace("cli.store", output=args.store_output or args.output or "-"):
        if args.store_output:
            from repro.store import save_relationships

            # The space rides along so .rseg outputs partition their
            # segments by dataset / lattice signature.
            save_relationships(result, args.store_output, indent=2, space=space)
        else:
            _write_graph(relationships_to_graph(result), args.output)
    if profiler is not None:
        print(profiler.report(), file=sys.stderr)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "realworld":
        cube = build_realworld_cubespace(scale=args.scale, seed=args.seed)
        graph = cubespace_to_graph(cube)
    else:
        space = build_synthetic_space(args.n, dimension_count=args.dimensions, seed=args.seed)
        from repro.core.export import space_to_graph

        graph = space_to_graph(space)
    print(f"# generated {len(graph)} triples", file=sys.stderr)
    _write_graph(graph, args.output)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from repro.qb.validation import validate_graph

    violations = validate_graph(_read_graph(args.input))
    for violation in violations:
        print(violation)
    if violations:
        print(f"# {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("# well-formed", file=sys.stderr)
    return 0


def _is_store_path(path: str) -> bool:
    """Relationship-store paths, as opposed to cube files."""
    from repro.storage import is_segment_store

    return (
        path.endswith((".json", ".json.gz", ".gz", ".rseg"))
        or is_segment_store(path)
    )


def _inspect_relationship_store(path: str, show_stats: bool = False) -> int:
    from repro.store import describe_store, load_relationships, profile_relationships

    try:
        info = describe_store(path)
        started = time.perf_counter()
        result = load_relationships(path)
        load_seconds = time.perf_counter() - started
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    profile = profile_relationships(result)
    print(
        f"relationship store {path} "
        f"(format {info['kind']}, version {info['version']})"
    )
    size_line = f"  size: {info['bytes']:,} bytes; loaded in {load_seconds:.3f}s"
    if info["segments"] is not None:
        size_line += f"; {info['segments']} segment(s), {info['wal_records']} WAL record(s)"
    print(size_line)
    print(
        f"  pairs: full={profile['full_pairs']} partial={profile['partial_pairs']} "
        f"complementary={profile['complementary_pairs']} (total {profile['total_pairs']})"
    )
    print(
        f"  observations referenced: {profile['observations']}; "
        f"degrees on {profile['degrees_recorded']} pair(s), "
        f"dimension maps on {profile['partial_dimensions_recorded']}"
    )
    histogram = profile["degree_histogram"]
    if any(histogram):
        width = 1 / len(histogram)
        print("  partial-containment degree histogram:")
        peak = max(histogram)
        for slot, count in enumerate(histogram):
            bar = "#" * round(30 * count / peak) if peak else ""
            print(f"    [{slot * width:.1f}, {(slot + 1) * width:.1f}): {count:6d} {bar}")
    for container, count in profile["top_containers"]:
        print(f"  top container: {container} fully contains {count} observation(s)")
    if show_stats:
        _print_storage_stats(path)
    return 0


def _print_storage_stats(path: str) -> None:
    """The ``inspect --stats`` tail: storage facts + registry counters."""
    from repro.obs.registry import get_registry
    from repro.storage import is_segment_store

    if is_segment_store(path):
        from repro.storage import SegmentStore

        info = SegmentStore.open(path).describe()
        print("  storage:")
        print(
            f"    segments: {info['segments']} (generation {info['generation']}, "
            f"partitioned={info['partitioned']})"
        )
        print(f"    wal tail: {info['wal_records']} record(s), {info['wal_bytes']:,} bytes")
        last = info.get("last_repair")
        print(f"    last repair: {time.ctime(last) if last else 'never'}")
    snapshot = get_registry().snapshot()
    counters = {
        name: entry["value"]
        for name, entry in snapshot.items()
        if name.startswith(("repro_storage_", "repro_wal_")) and "value" in entry
    }
    if counters:
        print("  storage counters (this process):")
        for name, value in sorted(counters.items()):
            print(f"    {name} = {value:g}")


def _cmd_inspect(args: argparse.Namespace) -> int:
    if _is_store_path(args.input):
        return _inspect_relationship_store(args.input, show_stats=args.stats)
    cube = load_cubespace(_read_graph(args.input))
    print(cube)
    for uri, dataset in cube.datasets.items():
        dims = ", ".join(d.local_name() for d in dataset.schema.dimensions)
        measures = ", ".join(m.local_name() for m in dataset.schema.measures)
        print(f"  {uri.local_name()}: {len(dataset)} observations; dims [{dims}]; measures [{measures}]")
    for dimension, hierarchy in cube.hierarchies.items():
        print(f"  hierarchy {dimension.local_name()}: {len(hierarchy)} codes, depth {hierarchy.max_level}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.resilience.breaker import CircuitBreaker
    from repro.resilience.faults import install_injector
    from repro.resilience.shed import LoadShedder
    from repro.service import QueryEngine, start_server
    from repro.store import detect_store_kind, load_relationships

    if args.chaos:
        try:
            install_injector(args.chaos)
        except ValueError as exc:
            raise ReproError(f"bad --chaos spec: {exc}") from exc
        print(f"# chaos injection armed: {args.chaos}", file=sys.stderr)

    space = None
    if args.input:
        space = ObservationSpace.from_cubespace(load_cubespace(_read_graph(args.input)))
    store = None
    scrubber = None
    changefeed = None

    def _open_changefeed(default_dir):
        # The ordered delta feed behind GET /changes; defaults to
        # <store>/changefeed for segment stores, opt-in elsewhere.
        if args.no_changefeed:
            return None
        feed_dir = args.changefeed or default_dir
        if feed_dir is None:
            return None
        from repro.stream import Changefeed

        return Changefeed(feed_dir)

    if detect_store_kind(args.store) == "segments":
        # Segment store: O(manifest) startup — the set materialises and
        # the index builds on first query — and every incremental write
        # is journalled to the store's WAL before it is acknowledged.
        from repro.storage import LazyRelationshipIndex, SegmentStore

        store = SegmentStore.open(args.store)
        # Hold the writer lock for the server's lifetime: a concurrent
        # `repro compact` would rotate the WAL out from under our open
        # handle and silently drop acknowledged writes.
        store.acquire_writer_lock()
        # Fail fast once the disk is evidently sick instead of letting
        # every handler thread block on a dying device.
        store.breaker = CircuitBreaker(
            latency_threshold=args.breaker_latency, name="storage"
        )
        result = store.relationship_set()
        changefeed = _open_changefeed(str(Path(args.store) / "changefeed"))
        engine = QueryEngine(
            result,
            space,
            cache_size=args.cache_size,
            index=LazyRelationshipIndex(result, space),
            delta_sink=store.append_delta,
            storage_info=store.describe,
            changefeed=changefeed,
        )
        if args.scrub_interval > 0:
            from repro.resilience.scrub import BackgroundScrubber

            scrubber = BackgroundScrubber(store, interval=args.scrub_interval).start()
    else:
        try:
            result = load_relationships(args.store)
        except OSError as exc:
            raise ReproError(f"cannot read {args.store}: {exc}") from exc
        changefeed = _open_changefeed(None)
        engine = QueryEngine(result, space, cache_size=args.cache_size, changefeed=changefeed)

    shedder = LoadShedder(
        max_inflight=args.max_inflight,
        max_queued=args.max_queued,
        queue_timeout=args.queue_timeout,
    )
    # The server runs on a background thread; the main thread parks on
    # an event so SIGTERM/SIGINT can trigger a *graceful* stop — drain
    # in-flight requests, then flush and unlock the store — instead of
    # dying mid-request.
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        server = start_server(
            engine,
            host=args.host,
            port=args.port,
            background=True,
            verbose=args.verbose,
            request_timeout=args.request_timeout,
            shedder=shedder,
            threads=args.threads,
            span_dir=args.span_dir,
            profiler=not args.no_profiler,
            slow_log_path=args.slow_query_log,
            slow_query_ms=args.slow_query_ms,
        )
    except OSError as exc:
        raise ReproError(f"cannot bind {args.host}:{args.port}: {exc}") from exc
    mutable = "enabled" if space is not None else "disabled (no --input space)"
    bound_port = server.server_address[1]
    _print_listening(args.host, bound_port, "serve")
    print(
        f"# serving {result!r} on http://{args.host}:{bound_port} "
        f"(cache {args.cache_size}, threads {args.threads or 'per-request'}, "
        f"writes {mutable}, max_inflight {args.max_inflight})",
        file=sys.stderr,
    )
    try:
        stop.wait()
        print("repro: serve: draining in-flight requests", file=sys.stderr)
        drained = server.graceful_shutdown(drain_timeout=args.drain_timeout)
        if not drained:
            print(
                "repro: serve: drain timed out with requests still running",
                file=sys.stderr,
            )
    finally:
        if scrubber is not None:
            scrubber.stop()
        if changefeed is not None:
            changefeed.close()
        if store is not None:
            # Flushes the WAL handle and releases the writer flock so
            # the next writer (serve, compact, scrub) can take over.
            store.close()
    print("repro: serve: shut down cleanly", file=sys.stderr)
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import itertools
    import json
    import signal
    import threading

    from repro.stream import (
        EngineSink,
        HttpSink,
        IngestError,
        StreamIngester,
        make_parser,
        sniff_format,
        watch_directory,
    )
    from repro.stream.ingest import schema_from_graph

    if bool(args.server) == bool(args.store):
        raise ReproError("pass exactly one of --server URL or --store PATH")

    schema = None
    if args.schema:
        schema = schema_from_graph(_read_graph(args.schema))

    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    if args.watch:
        lines = watch_directory(args.watch, poll_interval=args.poll_interval, stop=stop)
    elif args.source == "-":
        lines = sys.stdin
    else:
        try:
            lines = open(args.source, "r", encoding="utf-8")
        except OSError as exc:
            raise ReproError(f"cannot read {args.source}: {exc}") from exc

    iterator = iter(lines)
    fmt = args.format
    if fmt == "auto":
        # A watched directory interleaves control items (idle ticks,
        # file boundaries) with text lines; sniff on the first real
        # line and replay everything consumed so far to the pump.
        consumed = []
        first = next(iterator, None)
        while first is not None and not isinstance(first, str):
            consumed.append(first)
            first = next(iterator, None)
        if first is None:
            print("repro: ingest: empty source, nothing to do", file=sys.stderr)
            return 0
        fmt = sniff_format(first)
        iterator = itertools.chain(consumed, [first], iterator)
    parser = make_parser(fmt, schema=schema)

    store = None
    changefeed = None
    if args.server:
        sink = HttpSink(args.server, timeout=args.request_timeout)
        target = args.server
    else:
        # Direct mode: this process *is* the writer — it takes the
        # store's writer lock, journals every delta to the WAL and
        # publishes the changefeed itself.  Mutually exclusive with a
        # live `repro serve` on the same store (use --server there).
        from repro.store import detect_store_kind

        if detect_store_kind(args.store) != "segments":
            raise ReproError(
                "direct ingest needs a segment store (.rseg); for JSON "
                "stores run `repro serve` and ingest with --server"
            )
        if not args.input:
            raise ReproError("direct ingest needs --input (the cube the store serves)")
        from repro.service import QueryEngine
        from repro.storage import LazyRelationshipIndex, SegmentStore

        space = ObservationSpace.from_cubespace(load_cubespace(_read_graph(args.input)))
        store = SegmentStore.open(args.store)
        store.acquire_writer_lock()
        result = store.relationship_set()
        if not args.no_changefeed:
            from repro.stream import Changefeed

            changefeed = Changefeed(args.changefeed or str(Path(args.store) / "changefeed"))
        engine = QueryEngine(
            result,
            space,
            index=LazyRelationshipIndex(result, space),
            delta_sink=store.append_delta,
            storage_info=store.describe,
            changefeed=changefeed,
        )
        sink = EngineSink(engine)
        target = args.store

    pump = StreamIngester(
        sink,
        parser,
        batch_size=args.batch_size,
        flush_interval=args.flush_interval,
        max_inflight=args.max_inflight,
    )
    print(
        f"# ingesting {fmt} observations into {target} "
        f"(batch {args.batch_size}, flush {args.flush_interval}s, "
        f"max_inflight {args.max_inflight})",
        file=sys.stderr,
    )
    try:
        stats = pump.run(iterator, stop=stop)
    except IngestError as exc:
        raise ReproError(str(exc)) from exc
    finally:
        if changefeed is not None:
            changefeed.close()
        if store is not None:
            store.close()
        if not args.watch and lines is not sys.stdin:
            lines.close()
    print(json.dumps({"ingest": stats.as_dict()}))
    print(
        f"# ingested {stats.observations} observations in {stats.batches} "
        f"batches ({stats.obs_per_sec:.0f} obs/s, "
        f"{stats.parse_errors} parse errors)",
        file=sys.stderr,
    )
    return 0


def _print_listening(host: str, port: int, role: str) -> None:
    """The machine-readable bound-endpoint line, on **stdout**.

    With ``--port 0`` the OS picks the port; scripts (and the cluster
    supervisor) parse this line — or the endpoint file / ``/healthz``
    body — instead of guessing.
    """
    print(f"listening url=http://{host}:{port} port={port} role={role}", flush=True)


def _load_space(path: str):
    return ObservationSpace.from_cubespace(load_cubespace(_read_graph(path)))


def _cmd_shard(args: argparse.Namespace) -> int:
    import os
    import signal
    import threading

    from repro.cluster import ClusterManifest, build_shard_engine, write_endpoint_file
    from repro.resilience.breaker import CircuitBreaker
    from repro.resilience.shed import LoadShedder
    from repro.service import start_server
    from repro.storage import SegmentStore, is_segment_store

    if not is_segment_store(args.store):
        raise ReproError(f"{args.store} is not a segment store (shards need one)")
    manifest = ClusterManifest.load(args.manifest)
    space = None
    input_path = args.input or manifest.input_path
    if input_path:
        space = _load_space(input_path)
    store = SegmentStore.open(args.store)
    try:
        engine, assigned = build_shard_engine(
            store,
            manifest,
            args.shard_id,
            space=space,
            cache_size=args.cache_size,
            breaker=CircuitBreaker(name=f"shard-{args.shard_id}-storage"),
        )
    except ValueError as exc:
        store.close()
        raise ReproError(str(exc)) from exc
    shedder = LoadShedder(max_inflight=args.max_inflight, max_queued=args.max_queued)
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        server = start_server(
            engine,
            host=args.host,
            port=args.port,
            background=True,
            verbose=args.verbose,
            request_timeout=args.request_timeout,
            shedder=shedder,
            threads=args.threads,
            read_only=True,
            role=f"shard-{args.shard_id}",
            extra_health=lambda: {
                "shard": args.shard_id,
                "replica": args.replica,
                "partitions": len(assigned),
            },
            span_dir=args.span_dir,
            profiler=not args.no_profiler,
            slow_log_path=args.slow_query_log,
            slow_query_ms=args.slow_query_ms,
        )
    except OSError as exc:
        store.close()
        raise ReproError(f"cannot bind {args.host}:{args.port}: {exc}") from exc
    bound_port = server.server_address[1]
    if args.endpoint_file:
        write_endpoint_file(
            args.endpoint_file,
            {
                "host": args.host,
                "port": bound_port,
                "pid": os.getpid(),
                "shard": args.shard_id,
                "replica": args.replica,
            },
        )
    _print_listening(args.host, bound_port, f"shard-{args.shard_id}")
    print(
        f"# shard {args.shard_id} replica {args.replica}: "
        f"{len(assigned)} partition(s) of {len(manifest.partitions)} "
        f"on http://{args.host}:{bound_port}",
        file=sys.stderr,
    )
    try:
        stop.wait()
        server.graceful_shutdown(drain_timeout=args.drain_timeout)
    finally:
        store.close()
    return 0


def _cmd_router(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.cluster import ClusterManifest, Router, start_router
    from repro.resilience.shed import LoadShedder

    manifest = ClusterManifest.load(args.manifest)
    space = None
    input_path = args.input or manifest.input_path
    if input_path:
        space = _load_space(input_path)
    router = Router(
        manifest,
        space=space,
        manifest_path=args.manifest,
        shard_timeout=args.shard_timeout,
    )
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        server = start_router(
            router,
            host=args.host,
            port=args.port,
            background=True,
            verbose=args.verbose,
            threads=args.threads,
            reuse_port=args.reuse_port,
            shedder=LoadShedder(max_inflight=args.max_inflight, max_queued=args.max_queued),
            request_timeout=args.request_timeout,
            span_dir=args.span_dir,
            profiler=not args.no_profiler,
            slow_log_path=args.slow_query_log,
            slow_query_ms=args.slow_query_ms,
        )
    except OSError as exc:
        raise ReproError(f"cannot bind {args.host}:{args.port}: {exc}") from exc
    bound_port = server.server_address[1]
    _print_listening(args.host, bound_port, "router")
    print(
        f"# routing {manifest.shards} shard(s) x {manifest.replicas} replica(s), "
        f"{len(manifest.partitions)} partition(s) on http://{args.host}:{bound_port}",
        file=sys.stderr,
    )
    stop.wait()
    server.graceful_shutdown(drain_timeout=args.drain_timeout)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.cluster import ClusterSupervisor

    supervisor = ClusterSupervisor(
        store=args.store,
        shards=args.shards,
        replicas=args.replicas,
        input_path=args.input,
        rundir=args.rundir,
        host=args.host,
        port=args.port,
        router_threads=args.threads,
        shard_threads=args.shard_threads,
        spawn_timeout=args.spawn_timeout,
        respawn=not args.no_respawn,
        verbose=args.verbose,
        span_dir=args.span_dir,
        profiler=not args.no_profiler,
        slow_query_dir=args.slow_query_dir,
        slow_query_ms=args.slow_query_ms,
    )
    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    try:
        server = supervisor.start()
    except BaseException:
        supervisor.shutdown(drain_timeout=2.0)
        raise
    bound_port = server.server_address[1]
    _print_listening(args.host, bound_port, "router")
    print(
        f"# cluster up: {args.shards} shard(s) x {args.replicas} replica(s), "
        f"{len(supervisor.manifest.partitions)} partition(s); "
        f"manifest {supervisor.manifest_path}",
        file=sys.stderr,
    )
    try:
        supervisor.run(stop)
    finally:
        print("repro: cluster: draining and stopping workers", file=sys.stderr)
        supervisor.shutdown(drain_timeout=args.drain_timeout)
    print("repro: cluster: shut down cleanly", file=sys.stderr)
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    from repro.resilience.scrub import scrub_store
    from repro.storage import SegmentStore, is_segment_store

    if not is_segment_store(args.store):
        raise ReproError(f"{args.store} is not a segment store (scrub needs one)")
    store = SegmentStore.open(args.store)
    try:
        report = scrub_store(store, repair=not args.check_only, deep=not args.shallow)
    finally:
        store.close()
    if args.json:
        import json as _json

        print(_json.dumps(report, indent=2))
    else:
        print(
            f"# scrub {args.store}: generation {report['generation']}, "
            f"{report['verified']}/{report['segments']} segment(s) verified"
        )
        for name in report["quarantined"]:
            print(f"#   corrupt: {name}")
        for name in report["rebuilt"]:
            print(f"#   rebuilt from prior generation: {name}")
        for loss in report["irreparable"]:
            print(
                f"#   IRREPARABLE: {loss['name']} (lost {loss['full']} full / "
                f"{loss['partial']} partial / {loss['complementary']} "
                f"complementary pair(s))"
            )
        wal = report["wal"]
        if wal.get("error"):
            print(f"#   WAL corrupt mid-file: {wal['error']}")
        elif wal.get("torn_tail"):
            print(f"#   WAL torn tail {'repaired' if not args.check_only else 'found'}")
        else:
            print(f"#   WAL clean: {wal.get('records')} record(s)")
        print(f"# store is {'healthy' if report['ok'] else 'damaged'}")
    return 0 if report["ok"] else 1


def _cmd_migrate(args: argparse.Namespace) -> int:
    from repro.store import detect_store_kind, load_relationships, save_relationships

    try:
        result = load_relationships(args.input)
    except OSError as exc:
        raise ReproError(f"cannot read {args.input}: {exc}") from exc
    space = None
    if args.cube:
        space = ObservationSpace.from_cubespace(load_cubespace(_read_graph(args.cube)))
    save_relationships(result, args.output, indent=args.indent, space=space)
    print(
        f"# migrated {detect_store_kind(args.input)} -> "
        f"{detect_store_kind(args.output)}: {result!r}",
        file=sys.stderr,
    )
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.storage import SegmentStore

    space = None
    if args.input:
        space = ObservationSpace.from_cubespace(load_cubespace(_read_graph(args.input)))
    store = SegmentStore.open(args.store)
    outcome = store.compact(space)
    print(
        f"# compacted {args.store}: folded {outcome['folded']} WAL record(s) "
        f"into {outcome['segments']} segment(s)",
        file=sys.stderr,
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json as _json
    import urllib.error
    import urllib.request

    from repro.obs.spanstore import read_span_files, render_trace

    if bool(args.server) == bool(args.dir):
        raise ReproError("trace needs exactly one of --server or --dir")
    if args.server:
        url = f"{args.server.rstrip('/')}/debug/trace/{args.trace_id}"
        try:
            with urllib.request.urlopen(url, timeout=args.timeout) as response:
                payload = _json.loads(response.read())
        except (OSError, ValueError, urllib.error.URLError) as exc:
            raise ReproError(f"cannot fetch {url}: {exc}") from exc
        records = payload.get("spans", [])
        errors = payload.get("errors", [])
    else:
        try:
            records = read_span_files(args.dir, trace_id=args.trace_id)
        except OSError as exc:
            raise ReproError(f"cannot read spans from {args.dir}: {exc}") from exc
        errors = []
    if not records:
        print(f"repro: trace: no spans recorded for {args.trace_id}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        print(_json.dumps({"trace_id": args.trace_id, "spans": records}, indent=2))
    else:
        print(render_trace(records))
        print(f"# {len(records)} span(s)", file=sys.stderr)
    for problem in errors:
        print(f"# warning: {problem}", file=sys.stderr)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.top import run_top

    clear = None
    if args.no_clear:
        clear = False
    return run_top(
        args.server,
        interval=args.interval,
        iterations=args.iterations,
        clear=clear,
    )


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    """The telemetry flags shared by serve, shard and router."""
    telemetry = parser.add_argument_group(
        "telemetry", "tracing, profiling and slow queries (docs/observability.md)"
    )
    telemetry.add_argument(
        "--span-dir",
        metavar="DIR",
        help="persist finished spans as per-process JSONL files here "
        "(readable offline with `repro trace --dir`); default: in-memory "
        "ring only, served via /debug/trace/<id>",
    )
    telemetry.add_argument(
        "--no-profiler",
        action="store_true",
        help="disable the always-on low-rate sampling profiler "
        "(/debug/profile)",
    )
    telemetry.add_argument(
        "--slow-query-log",
        metavar="FILE",
        help="append a structured JSONL record for every request slower "
        "than --slow-query-ms (default: disabled)",
    )
    telemetry.add_argument(
        "--slow-query-ms",
        type=float,
        default=100.0,
        help="slow-query threshold in milliseconds (default 100)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute containment/complementarity")
    compute.add_argument("--input", required=True, help="Turtle or N-Triples QB file")
    compute.add_argument(
        "--method",
        default=Method.CUBE_MASKING.value,
        choices=[m.value for m in Method],
    )
    compute.add_argument("--output", help="output file (.ttl / .nt); default stdout")
    compute.add_argument(
        "-o",
        "--store-output",
        "--json-output",  # pre-segment-store spelling, kept working
        dest="store_output",
        help="write a relationship store instead of RDF; format follows "
        "the extension (.json, .json.gz, .rseg segment store)",
    )
    compute.add_argument(
        "--targets",
        nargs="+",
        choices=["full", "partial", "complementary"],
        help="restrict to these relationship types",
    )
    compute.add_argument("--seed", type=int, default=0)
    resilience = compute.add_argument_group(
        "resilience", "checkpointed, fault-tolerant materialisation"
    )
    resilience.add_argument(
        "--checkpoint",
        help="JSONL journal of completed work units; an interrupted run "
        "restarted with --resume continues from the last durable unit",
    )
    resilience.add_argument(
        "--resume",
        action="store_true",
        help="continue an existing --checkpoint instead of refusing to overwrite it",
    )
    resilience.add_argument(
        "--max-retries",
        type=int,
        help="per-unit retry budget for crashed/failed workers (default 2)",
    )
    resilience.add_argument(
        "--timeout",
        type=float,
        help="wall-clock seconds allowed per work unit (parallel execution)",
    )
    resilience.add_argument(
        "--workers",
        type=int,
        help="worker processes for parallel cube_masking (zero-copy "
        "shared-memory fan-out)",
    )
    compute.add_argument(
        "--kernel",
        metavar="{auto,numpy}",
        help="accepted for compatibility and ignored: cube_masking always "
        "runs the vectorised kernel (any other value is an error)",
    )
    compute.add_argument(
        "--kernel-stats",
        action="store_true",
        help="print the cube_masking counter breakdown (cube pairs, "
        "pruning, kernel pairs/time) as JSON on stderr; identical "
        "numbers on the sequential and --workers paths",
    )
    observability = compute.add_argument_group(
        "observability", "structured tracing and profiling (docs/observability.md)"
    )
    observability.add_argument(
        "--trace",
        nargs="?",
        const="repro-trace.jsonl",
        metavar="PATH",
        help="write spans and instrumentation events as JSONL "
        "(one JSON object per line; default path repro-trace.jsonl)",
    )
    observability.add_argument(
        "--profile",
        action="store_true",
        help="sample the computation's wall-clock stacks and print a "
        "flat self/cumulative profile to stderr",
    )
    compute.set_defaults(handler=_cmd_compute)

    generate = sub.add_parser("generate", help="generate an evaluation corpus")
    generate.add_argument("--kind", choices=["realworld", "synthetic"], default="realworld")
    generate.add_argument("--scale", type=float, default=0.01, help="realworld scale factor")
    generate.add_argument("--n", type=int, default=1000, help="synthetic observation count")
    generate.add_argument("--dimensions", type=int, default=4)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--output", help="output file; default stdout")
    generate.set_defaults(handler=_cmd_generate)

    inspect = sub.add_parser("inspect", help="print a cube file's profile")
    inspect.add_argument("--input", required=True)
    inspect.add_argument(
        "--stats",
        action="store_true",
        help="for relationship stores: also print storage-layer stats "
        "(segment count, WAL tail, last repair, process counters)",
    )
    inspect.set_defaults(handler=_cmd_inspect)

    validate = sub.add_parser("validate", help="check QB integrity constraints")
    validate.add_argument("--input", required=True)
    validate.set_defaults(handler=_cmd_validate)

    serve = sub.add_parser(
        "serve", help="serve a relationship store over HTTP (JSON API)"
    )
    serve.add_argument(
        "--store",
        required=True,
        help="relationship store (.json, .json.gz or .rseg, from compute -o)",
    )
    serve.add_argument(
        "--input",
        help="the QB cube file the store was computed from; enables "
        "dataset/dimension filters and POST/DELETE incremental writes",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8080,
        help="TCP port; 0 binds an ephemeral port, reported on stdout "
        "and in /healthz (default 8080)",
    )
    serve.add_argument(
        "--threads",
        type=int,
        default=8,
        help="fixed handler-thread pool size; 0 reverts to one thread "
        "per connection (default 8)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=1024,
        help="query-cache entries (0 disables caching)",
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log each request to stderr"
    )
    serve.add_argument(
        "--changefeed",
        metavar="DIR",
        help="changefeed directory publishing every applied delta with a "
        "monotonic offset (default: <store>/changefeed for segment "
        "stores; required to enable the feed for JSON stores)",
    )
    serve.add_argument(
        "--no-changefeed",
        action="store_true",
        help="disable the changefeed (GET /changes answers 404)",
    )
    hardening = serve.add_argument_group(
        "hardening", "overload and failure behaviour (docs/resilience.md)"
    )
    hardening.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="per-connection socket timeout in seconds; a stalled client "
        "is disconnected instead of pinning a handler thread (default 30)",
    )
    hardening.add_argument(
        "--max-inflight",
        type=int,
        default=64,
        help="concurrently-executing request bound; excess waits briefly, "
        "then is shed with 503 + Retry-After (default 64)",
    )
    hardening.add_argument(
        "--max-queued",
        type=int,
        default=128,
        help="requests allowed to wait for an execution slot (default 128)",
    )
    hardening.add_argument(
        "--queue-timeout",
        type=float,
        default=0.5,
        help="seconds a queued request may wait before being shed (default 0.5)",
    )
    hardening.add_argument(
        "--breaker-latency",
        type=float,
        default=None,
        metavar="SECONDS",
        help="also trip the storage circuit breaker when most segment "
        "reads are slower than this (default: failure-rate trigger only)",
    )
    hardening.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds a SIGTERM'd server waits for in-flight requests "
        "before exiting (default 10)",
    )
    hardening.add_argument(
        "--scrub-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="run a background CRC scrub of the segment store this often "
        "(0 disables; see `repro scrub`)",
    )
    hardening.add_argument(
        "--chaos",
        metavar="SPEC",
        help="arm deterministic fault injection, e.g. "
        "'segment.read:error:times=2,seed=7' — testing only; the "
        "REPRO_CHAOS environment variable is honoured too "
        "(docs/resilience.md)",
    )
    _add_telemetry_args(serve)
    serve.set_defaults(handler=_cmd_serve)

    ingest = sub.add_parser(
        "ingest",
        help="tail an observation stream into a live server or a store",
        description="Tail CSV or N-Triples observation lines (stdin, a "
        "file, or a watched directory of batch files) and apply them "
        "incrementally — over HTTP against a live `repro serve` "
        "(--server) or directly into a segment store (--store).  See "
        "docs/streaming.md for the line grammar.",
    )
    ingest.add_argument(
        "--server",
        metavar="URL",
        help="live server base URL; batches go through POST /observations "
        "with retry/backoff on 503 backpressure",
    )
    ingest.add_argument(
        "--store",
        metavar="DIR",
        help="segment store to write directly (takes the writer lock; "
        "mutually exclusive with --server and with a running serve)",
    )
    ingest.add_argument(
        "--input",
        help="cube file defining the observation space (required with --store)",
    )
    ingest.add_argument(
        "--from",
        dest="source",
        default="-",
        metavar="FILE",
        help="line source; '-' (default) reads stdin",
    )
    ingest.add_argument(
        "--watch",
        metavar="DIR",
        help="instead of --from: watch a directory for batch files, "
        "ingest each in sorted order and rename it to <name>.done",
    )
    ingest.add_argument(
        "--poll-interval",
        type=float,
        default=0.5,
        help="directory poll interval for --watch (default 0.5s)",
    )
    ingest.add_argument(
        "--format",
        choices=("auto", "csv", "ntriples"),
        default="auto",
        help="line grammar; auto sniffs the first line (default auto)",
    )
    ingest.add_argument(
        "--schema",
        metavar="FILE",
        help="cube definition graph used to classify N-Triples predicates "
        "into dimensions/measures per the declared DSD (default: URI "
        "objects are dimensions, literal objects are measures)",
    )
    ingest.add_argument(
        "--batch-size",
        type=int,
        default=200,
        help="observations per insert batch (default 200)",
    )
    ingest.add_argument(
        "--flush-interval",
        type=float,
        default=1.0,
        help="flush a partial batch after this many seconds (default 1.0)",
    )
    ingest.add_argument(
        "--max-inflight",
        type=int,
        default=2,
        help="batches applied concurrently; the pump blocks (backpressure) "
        "when all slots are busy (default 2)",
    )
    ingest.add_argument(
        "--request-timeout",
        type=float,
        default=30.0,
        help="per-request timeout for --server mode (default 30)",
    )
    ingest.add_argument(
        "--changefeed",
        metavar="DIR",
        help="changefeed directory for --store mode (default <store>/changefeed)",
    )
    ingest.add_argument(
        "--no-changefeed",
        action="store_true",
        help="do not publish a changefeed in --store mode",
    )
    ingest.set_defaults(handler=_cmd_ingest)

    cluster = sub.add_parser(
        "cluster",
        help="serve a segment store as a sharded, replicated process tier",
    )
    cluster.add_argument(
        "--store", required=True, help="segment store directory (.rseg)"
    )
    cluster.add_argument(
        "--shards",
        type=int,
        required=True,
        help="shard processes; partitions spread over them by consistent hashing",
    )
    cluster.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="worker processes per shard; >1 enables failover (default 1)",
    )
    cluster.add_argument(
        "--input",
        help="the QB cube the store was computed from; enables routed "
        "single-shard plans and shard-exact WAL ownership",
    )
    cluster.add_argument(
        "--rundir",
        help="directory for the cluster manifest and endpoint files "
        "(default <store>.cluster)",
    )
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument(
        "--port",
        type=int,
        default=8080,
        help="router port; 0 binds an ephemeral port, reported on stdout "
        "(default 8080)",
    )
    cluster.add_argument(
        "--threads", type=int, default=8, help="router handler threads (default 8)"
    )
    cluster.add_argument(
        "--shard-threads",
        type=int,
        default=4,
        help="handler threads per shard worker (default 4)",
    )
    cluster.add_argument(
        "--spawn-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for workers to bind and publish endpoints",
    )
    cluster.add_argument(
        "--no-respawn",
        action="store_true",
        help="do not restart workers that die (debugging)",
    )
    cluster.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        help="seconds of graceful drain on shutdown (default 10)",
    )
    cluster.add_argument("--verbose", action="store_true")
    telemetry = cluster.add_argument_group(
        "telemetry", "tracing, profiling and slow queries (docs/observability.md)"
    )
    telemetry.add_argument(
        "--span-dir",
        metavar="DIR",
        help="shared span directory; router and every shard worker "
        "persist per-process JSONL span files here (default: in-memory "
        "rings, assembled live via /debug/trace/<id>)",
    )
    telemetry.add_argument(
        "--no-profiler",
        action="store_true",
        help="disable the always-on sampling profiler on the router "
        "and every shard worker",
    )
    telemetry.add_argument(
        "--slow-query-dir",
        metavar="DIR",
        help="directory for per-process slow-query logs "
        "(slow-router.jsonl, slow-shard-<s>.<r>.jsonl)",
    )
    telemetry.add_argument(
        "--slow-query-ms",
        type=float,
        default=100.0,
        help="slow-query threshold in milliseconds (default 100)",
    )
    cluster.set_defaults(handler=_cmd_cluster)

    shard = sub.add_parser(
        "shard", help="run one cluster shard worker (normally spawned by `cluster`)"
    )
    shard.add_argument("--store", required=True, help="segment store directory (.rseg)")
    shard.add_argument("--manifest", required=True, help="cluster manifest (CLUSTER.json)")
    shard.add_argument("--shard-id", type=int, required=True)
    shard.add_argument("--replica", type=int, default=0)
    shard.add_argument(
        "--input",
        help="QB cube file (default: the manifest's recorded input)",
    )
    shard.add_argument("--host", default="127.0.0.1")
    shard.add_argument("--port", type=int, default=0)
    shard.add_argument(
        "--endpoint-file",
        help="atomically write the bound {host, port, pid} here once serving",
    )
    shard.add_argument("--threads", type=int, default=4)
    shard.add_argument("--cache-size", type=int, default=1024)
    shard.add_argument("--request-timeout", type=float, default=30.0)
    shard.add_argument("--max-inflight", type=int, default=64)
    shard.add_argument("--max-queued", type=int, default=128)
    shard.add_argument("--drain-timeout", type=float, default=10.0)
    shard.add_argument("--verbose", action="store_true")
    _add_telemetry_args(shard)
    shard.set_defaults(handler=_cmd_shard)

    router = sub.add_parser(
        "router", help="run a cluster router over an existing shard tier"
    )
    router.add_argument("--manifest", required=True, help="cluster manifest (CLUSTER.json)")
    router.add_argument(
        "--input",
        help="QB cube file for routed plans (default: the manifest's input)",
    )
    router.add_argument("--host", default="127.0.0.1")
    router.add_argument("--port", type=int, default=8080)
    router.add_argument("--threads", type=int, default=8)
    router.add_argument(
        "--reuse-port",
        action="store_true",
        help="bind with SO_REUSEPORT so several router processes share the port",
    )
    router.add_argument("--shard-timeout", type=float, default=10.0)
    router.add_argument("--request-timeout", type=float, default=30.0)
    router.add_argument("--max-inflight", type=int, default=64)
    router.add_argument("--max-queued", type=int, default=128)
    router.add_argument("--drain-timeout", type=float, default=10.0)
    router.add_argument("--verbose", action="store_true")
    _add_telemetry_args(router)
    router.set_defaults(handler=_cmd_router)

    scrub = sub.add_parser(
        "scrub", help="CRC-verify a segment store; quarantine and repair corruption"
    )
    scrub.add_argument("--store", required=True, help="segment store directory (.rseg)")
    scrub.add_argument(
        "--check-only",
        action="store_true",
        help="audit without touching disk: report corruption, repair nothing",
    )
    scrub.add_argument(
        "--shallow",
        action="store_true",
        help="verify file sizes and CRCs only, skip full segment decodes",
    )
    scrub.add_argument("--json", action="store_true", help="print the report as JSON")
    scrub.set_defaults(handler=_cmd_scrub)

    migrate = sub.add_parser(
        "migrate", help="convert a relationship store between formats"
    )
    migrate.add_argument("--input", required=True, help="source store (any format)")
    migrate.add_argument(
        "--output", required=True, help="target store; format follows the extension"
    )
    migrate.add_argument(
        "--cube",
        help="the QB cube the store was computed from; lets a segment "
        "target partition by dataset/lattice signature",
    )
    migrate.add_argument(
        "--indent", type=int, default=2, help="indentation for JSON targets"
    )
    migrate.set_defaults(handler=_cmd_migrate)

    compact = sub.add_parser(
        "compact", help="fold a segment store's write-ahead log into segments"
    )
    compact.add_argument("--store", required=True, help="segment store directory (.rseg)")
    compact.add_argument(
        "--input",
        help="the QB cube the store was computed from; re-partitions the "
        "new segments by dataset/lattice signature",
    )
    compact.set_defaults(handler=_cmd_compact)

    trace = sub.add_parser(
        "trace",
        help="render one distributed trace as a span tree",
        description="Assemble and render every span recorded for a trace "
        "ID — the value of the X-Trace-Id response header.  Either asks "
        "a live server/router (GET /debug/trace/<id>, which on a router "
        "scatter/gathers every shard replica), or reads the per-process "
        "span files a --span-dir produced, offline.",
    )
    trace.add_argument("trace_id", help="32-hex trace ID (X-Trace-Id header)")
    trace.add_argument(
        "--server",
        metavar="URL",
        help="live server or router base URL, e.g. http://127.0.0.1:8080",
    )
    trace.add_argument(
        "--dir",
        metavar="PATH",
        help="span directory (or a single spans-<pid>.jsonl file) "
        "written by --span-dir",
    )
    trace.add_argument(
        "--json", action="store_true", help="print raw span records as JSON"
    )
    trace.add_argument("--timeout", type=float, default=10.0)
    trace.set_defaults(handler=_cmd_trace)

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a server or router",
        description="Poll /metrics and /debug/vars and redraw a plain-text "
        "dashboard: qps, latency percentiles, per-endpoint table, cache "
        "hit ratio, breaker state, shard health, changefeed lag.",
    )
    top.add_argument(
        "--server",
        metavar="URL",
        default="http://127.0.0.1:8080",
        help="base URL to poll (default http://127.0.0.1:8080)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0, help="refresh seconds (default 2)"
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after this many frames; 0 runs until interrupted",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="never emit ANSI clear codes; print frames sequentially",
    )
    top.set_defaults(handler=_cmd_top)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        print("repro: interrupted (checkpoint flushed; rerun with --resume)", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # stdout closed early (e.g. `repro inspect ... | head`); not an error
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    sys.exit(main())
