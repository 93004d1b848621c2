"""The process-wide metric catalogue: every family, declared once.

Each family the default registry carries is declared here exactly
once — name, kind, help text, labels and buckets — and bound to one
module-level handle.  Instrumented modules use the handles directly::

    from repro.obs import catalogue

    catalogue.WAL_APPENDS.inc()

Importing this module registers the whole catalogue on
:func:`~repro.obs.registry.get_registry` (``import repro.obs`` does
it too), so the first scrape of any process already shows every
family at zero.  A handle is named after its family: drop the
``repro_`` prefix and the ``_total`` suffix, upper-case the rest.

Adding a metric is one entry here plus one row in the tables of
``docs/observability.md``; the catalogue/docs sync test in
``tests/obs/`` fails when the two drift apart.  The per-server request series
(:class:`~repro.service.metrics.ServiceMetrics`) live on a private
registry and are not part of this catalogue.
"""

from __future__ import annotations

import platform
import time

from repro._version import __version__
from repro.obs.registry import get_registry

_registry = get_registry()
_counter = _registry.counter
_gauge = _registry.gauge
_histogram = _registry.histogram

# -- process identity ---------------------------------------------------
BUILD_INFO = _gauge(
    "repro_build_info",
    "Build identity; the value is always 1, the labels carry the versions.",
    labelnames=("version", "python"),
)
BUILD_INFO.set(1, version=__version__, python=platform.python_version())
_STARTED = time.time()
PROCESS_START_TIME_SECONDS = _gauge(
    "repro_process_start_time_seconds", "Unix time this process registered its metrics."
)
PROCESS_START_TIME_SECONDS.set(_STARTED)
PROCESS_UPTIME_SECONDS = _gauge(
    "repro_process_uptime_seconds", "Seconds since process metrics registration."
)
PROCESS_UPTIME_SECONDS.set_function(lambda: time.time() - _STARTED)

# -- core.kernels -------------------------------------------------------
KERNEL_CALLS = _counter("repro_kernel_calls_total", "Vectorised cube-pair kernel invocations.")
KERNEL_PAIRS = _counter(
    "repro_kernel_pairs_total", "Observation pairs scored by the vectorised kernel."
)
KERNEL_NS = _counter("repro_kernel_ns_total", "Nanoseconds spent inside the vectorised kernel.")
PARALLEL_SHM_PUBLISHES = _counter(
    "repro_parallel_shm_publishes_total",
    "Shared-memory kernel-plan segments published for worker fan-out.",
)
PARALLEL_SHM_BYTES = _counter(
    "repro_parallel_shm_bytes_total", "Bytes published into shared-memory fan-out segments."
)

# -- core.cubemask (the paper's §6 counts) ------------------------------
CUBEMASK_RUNS = _counter("repro_cubemask_runs_total", "Completed cubeMasking materialisations.")
CUBEMASK_CUBE_PAIRS = _counter(
    "repro_cubemask_cube_pairs_total", "Cube pairs surviving signature dominance pruning."
)
CUBEMASK_INSTANCE_COMPARISONS = _counter(
    "repro_cubemask_instance_comparisons_total",
    "Observation pairs evaluated at the instance level.",
)
CUBEMASK_PRUNED_COMPARISONS = _counter(
    "repro_cubemask_pruned_comparisons_total",
    "Observation pairs skipped without instance-level work.",
)
CUBEMASK_PRUNED_CUBE_PAIRS = _counter(
    "repro_cubemask_pruned_cube_pairs_total",
    "Cube pairs dropped by the measure-overlap prefilter.",
)
CUBEMASK_LAST_CUBES = _gauge(
    "repro_cubemask_last_cubes", "Lattice cubes in the most recent cubeMasking run."
)

# -- core.runner --------------------------------------------------------
RUNNER_RUNS = _counter("repro_runner_runs_total", "Materialisation runs started.")
RUNNER_UNITS = _counter("repro_runner_units_total", "Work units computed to completion.")
RUNNER_RESUMED_UNITS = _counter(
    "repro_runner_resumed_units_total", "Units restored from a checkpoint instead of recomputed."
)
RUNNER_RETRIES = _counter(
    "repro_runner_retries_total", "Transient unit failures that were retried."
)
RUNNER_UNIT_FAILURES = _counter(
    "repro_runner_unit_failures_total", "Units that exhausted their retry budget."
)
RUNNER_CHECKPOINT_REPAIRS = _counter(
    "repro_runner_checkpoint_repairs_total",
    "Checkpoints whose torn final record was dropped on load.",
)

# -- core.parallel ------------------------------------------------------
PARALLEL_POOL_RESPAWNS = _counter(
    "repro_parallel_pool_respawns_total", "Process pools respawned after a worker failure."
)
PARALLEL_WORKER_FAILURES = _counter(
    "repro_parallel_worker_failures_total",
    "Worker failures by kind (timeout, crash, error).",
    labelnames=("kind",),
)
PARALLEL_DEGRADED_RANGES = _counter(
    "repro_parallel_degraded_ranges_total",
    "Cube-pair ranges scored sequentially after pool degradation.",
)
PARALLEL_UNITS = _counter(
    "repro_parallel_units_total", "Cube-pair ranges completed by pool workers."
)
PARALLEL_KERNEL_PAIRS = _counter(
    "repro_parallel_kernel_pairs_total",
    "Member pairs scored by the vectorised kernel inside pool workers.",
)

# -- storage.store, storage.lazy ----------------------------------------
STORAGE_SEGMENT_LOADS = _counter(
    "repro_storage_segment_loads_total", "Immutable segment files decoded (mmap + parse)."
)
STORAGE_MMAP_BYTES = _counter(
    "repro_storage_mmap_bytes_total", "Segment bytes memory-mapped for decoding."
)
STORAGE_GENERATIONS = _counter(
    "repro_storage_generations_total", "Segment generations committed (writes and compactions)."
)
STORAGE_SEGMENT_BYTES_WRITTEN = _counter(
    "repro_storage_segment_bytes_written_total",
    "Segment bytes written across committed generations.",
)
STORAGE_COMPACTIONS = _counter(
    "repro_storage_compactions_total", "WAL-folding compactions completed."
)
STORAGE_LAZY_MATERIALISATIONS = _counter(
    "repro_storage_lazy_materialisations_total",
    "Lazy segment views materialised on first access.",
)

# -- storage.wal --------------------------------------------------------
WAL_APPENDS = _counter(
    "repro_wal_appends_total", "Records durably appended to write-ahead logs."
)
WAL_APPEND_BYTES = _counter(
    "repro_wal_append_bytes_total", "Bytes durably appended to write-ahead logs."
)
WAL_REPAIRS = _counter("repro_wal_repairs_total", "Torn WAL tails dropped during replay or reopen.")
WAL_REPLAYED_RECORDS = _counter(
    "repro_wal_replayed_records_total", "WAL records folded into live relationship state."
)

# -- resilience ---------------------------------------------------------
BREAKER_TRANSITIONS = _counter(
    "repro_breaker_transitions_total",
    "Circuit-breaker state transitions.",
    labelnames=("from", "to"),
)
BREAKER_STATE = _gauge(
    "repro_breaker_state", "Storage circuit-breaker state (0 closed, 1 half-open, 2 open)."
)
BREAKER_REJECTIONS = _counter(
    "repro_breaker_rejections_total", "Calls refused because the breaker was open."
)
SHED_REQUESTS = _counter(
    "repro_shed_requests_total", "Requests refused with 503 by admission control."
)
INFLIGHT_REQUESTS = _gauge(
    "repro_inflight_requests", "Requests currently executing in the serving layer."
)
QUEUED_REQUESTS = _gauge("repro_queued_requests", "Requests waiting for an execution slot.")
DEADLINE_EXPIRIES = _counter(
    "repro_deadline_expiries_total",
    "Request deadlines noticed expired, by checkpoint site.",
    labelnames=("site",),
)
FAULTS_INJECTED = _counter(
    "repro_faults_injected_total",
    "Faults fired by the process-wide injector.",
    labelnames=("site", "mode"),
)
SCRUB_RUNS = _counter("repro_scrub_runs_total", "Store scrub passes completed.")
SCRUB_SEGMENTS_VERIFIED = _counter(
    "repro_scrub_segments_verified_total", "Segments that passed CRC (and deep) verification."
)
SCRUB_CORRUPT_SEGMENTS = _counter(
    "repro_scrub_corrupt_segments_total", "Segments found corrupt by a scrub pass."
)
SCRUB_QUARANTINES = _counter(
    "repro_scrub_quarantines_total", "Corrupt segment files renamed aside for forensics."
)
SCRUB_REBUILT = _counter(
    "repro_scrub_rebuilt_total", "Quarantined segments restored from a prior generation."
)
SCRUB_IRREPARABLE = _counter(
    "repro_scrub_irreparable_total",
    "Segments lost with no recoverable copy (reported, dropped).",
)
SCRUB_LAST_OK = _gauge(
    "repro_scrub_last_ok", "1 when the most recent scrub found a fully healthy store."
)

# -- service.engine, service.http ---------------------------------------
ENGINE_DELTA_SINK_ERRORS = _counter(
    "repro_engine_delta_sink_errors_total",
    "Delta-sink (WAL append) failures during engine writes.",
)
STREAM_FEED_PUBLISH_ERRORS = _counter(
    "repro_stream_feed_publish_errors_total",
    "Changefeed publishes that failed after a durable WAL append.",
)
STREAM_SSE_EVENTS = _counter(
    "repro_stream_sse_events_total", "Change events written to SSE subscribers."
)
STREAM_SSE_SUBSCRIBERS = _gauge(
    "repro_stream_sse_subscribers", "Currently connected SSE changefeed subscribers."
)
STREAM_LONGPOLL_WAIT_SECONDS = _histogram(
    "repro_stream_longpoll_wait_seconds",
    "Time /changes requests spent blocked waiting for new records.",
    buckets=(0.005, 0.05, 0.25, 1.0, 5.0, 15.0, 30.0, 60.0),
)
STREAM_SSE_WRITE_SECONDS = _histogram(
    "repro_stream_sse_write_seconds",
    "Per-burst SSE serialisation+flush latency.",
    buckets=(0.0005, 0.005, 0.05, 0.25, 1.0, 5.0),
)

# -- stream.changefeed --------------------------------------------------
STREAM_PUBLISHED_CHANGES = _counter(
    "repro_stream_published_changes_total", "Deltas published to the relationship changefeed."
)
STREAM_FEED_HEAD_OFFSET = _gauge(
    "repro_stream_feed_head_offset", "Highest offset durably published to the changefeed."
)
STREAM_FEED_ROTATIONS = _counter(
    "repro_stream_feed_rotations_total", "Changefeed segment rotations."
)
STREAM_CHANGES_READ = _counter(
    "repro_stream_changes_read_total", "Change records returned to feed readers."
)
STREAM_LONGPOLL_WAITS = _counter(
    "repro_stream_longpoll_waits_total", "Feed reads that blocked waiting for new offsets."
)
STREAM_CONSUMER_OFFSET = _gauge(
    "repro_stream_consumer_offset",
    "Last offset durably committed per named consumer.",
    labelnames=("consumer",),
)
STREAM_FEED_LAG = _gauge(
    "repro_stream_feed_lag",
    "Feed head minus committed offset per named consumer.",
    labelnames=("consumer",),
)

# -- stream.ingest ------------------------------------------------------
STREAM_INGESTED_OBSERVATIONS = _counter(
    "repro_stream_ingested_observations_total",
    "Observations successfully applied by streaming ingest.",
)
STREAM_INGEST_BATCHES = _counter(
    "repro_stream_ingest_batches_total", "Observation batches flushed by streaming ingest."
)
STREAM_INGEST_BATCH_LATENCY_SECONDS = _histogram(
    "repro_stream_ingest_batch_latency_seconds",
    "Wall time to apply one ingest batch (parse to ack).",
)
STREAM_INGEST_PARSE_ERRORS = _counter(
    "repro_stream_ingest_parse_errors_total", "Input lines dropped because they failed to parse."
)
STREAM_INGEST_RETRIES = _counter(
    "repro_stream_ingest_retries_total",
    "Batch submissions retried after overload or I/O errors.",
)
STREAM_INGEST_FAILED_BATCHES = _counter(
    "repro_stream_ingest_failed_batches_total", "Batches dropped after exhausting retries."
)
STREAM_INGEST_INFLIGHT_BATCHES = _gauge(
    "repro_stream_ingest_inflight_batches", "Ingest batches currently being applied."
)

# -- cluster.router, cluster.supervisor ---------------------------------
CLUSTER_SHARDS = _gauge("repro_cluster_shards", "Shards in the routed cluster topology.")
CLUSTER_MANIFEST_GENERATION = _gauge(
    "repro_cluster_manifest_generation", "Cluster-manifest generation the router last applied."
)
CLUSTER_REPLICAS_UP = _gauge(
    "repro_cluster_replicas_up",
    "Replicas per shard whose circuit breaker is not open.",
    labelnames=("shard",),
)
CLUSTER_FANOUT_REQUESTS = _counter(
    "repro_cluster_fanout_requests_total",
    "Sub-requests the router sent, by shard.",
    labelnames=("shard",),
)
CLUSTER_FAILOVERS = _counter(
    "repro_cluster_failovers_total",
    "Sub-requests retried on another replica, by shard.",
    labelnames=("shard",),
)
CLUSTER_SHARD_ERRORS = _counter(
    "repro_cluster_shard_errors_total",
    "Failed sub-requests, by shard and failure kind.",
    labelnames=("shard", "kind"),
)
CLUSTER_SCATTER_WIDTH = _histogram(
    "repro_cluster_scatter_width",
    "Shards consulted per routed query.",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0),
)
CLUSTER_FEDERATED_SCRAPES = _counter(
    "repro_cluster_federated_scrapes_total", "Federated /metrics scrapes the router assembled."
)
CLUSTER_FEDERATION_ERRORS = _counter(
    "repro_cluster_federation_errors_total",
    "Replica scrapes that failed or were unparseable during federation.",
)
CLUSTER_WORKERS = _gauge(
    "repro_cluster_workers", "Live shard worker processes under supervision."
)
CLUSTER_RESPAWNS = _counter(
    "repro_cluster_respawns_total",
    "Shard worker processes respawned after dying.",
    labelnames=("shard",),
)

# -- obs: the telemetry layer's own counters ----------------------------
OBS_SPANS_RECORDED = _counter(
    "repro_obs_spans_recorded_total", "Finished spans appended to the process span store."
)
OBS_SPANSTORE_ROTATIONS = _counter(
    "repro_obs_spanstore_rotations_total", "JSONL span-ring file rotations."
)
OBS_SPANSTORE_WRITE_ERRORS = _counter(
    "repro_obs_spanstore_write_errors_total",
    "Span-ring JSONL writes that failed (store stays in-memory).",
)
OBS_SLOW_QUERIES = _counter(
    "repro_obs_slow_queries_total",
    "Requests recorded in the slow-query log.",
    labelnames=("endpoint",),
)
OBS_SLOWLOG_WRITE_ERRORS = _counter(
    "repro_obs_slowlog_write_errors_total", "Slow-query log writes that failed."
)
OBS_PROFILER_SAMPLES = _counter(
    "repro_obs_profiler_samples_total", "Stack samples taken by the continuous profiler."
)
OBS_PROFILER_WINDOWS = _counter(
    "repro_obs_profiler_windows_total", "Profile windows rotated by the continuous profiler."
)
