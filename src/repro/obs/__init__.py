"""repro.obs — unified tracing, structured logging and metrics.

The first layer that sees the whole pipeline end to end:

* :mod:`repro.obs.registry` — the process-wide
  :class:`~repro.obs.registry.MetricsRegistry`, rendered on the
  service's ``/metrics`` endpoint in Prometheus text exposition format,
* :mod:`repro.obs.catalogue` — every family that registry carries,
  declared once and registered on import; the instrumented layers
  (kernels, cubeMasking pruning, runner, parallel fan-out, storage,
  resilience, streaming, cluster) feed its handles,
* :mod:`repro.obs.tracing` — :func:`~repro.obs.tracing.trace` spans
  with monotonic timing, parent/child nesting and a per-request /
  per-run trace ID that rides HTTP headers, the CLI ``--trace`` flag
  and the shared-memory fan-out into pool workers,
* :mod:`repro.obs.logging` — one-JSON-object-per-line structured
  records (trace_id, span, level, fields) over stdlib ``logging``,
* :mod:`repro.obs.profile` — a sampling wall-clock profiler for
  ``repro compute --profile`` flat self/cumulative tables.

See ``docs/observability.md`` for the metric catalogue and the span
naming conventions.
"""

from repro.obs import catalogue
from repro.obs.logging import (
    JsonLinesFormatter,
    configure_jsonl,
    get_logger,
    log_event,
    remove_handler,
)
from repro.obs.profile import (
    ContinuousProfiler,
    SamplingProfiler,
    get_continuous_profiler,
    start_continuous_profiler,
    stop_continuous_profiler,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    get_registry,
)
from repro.obs.slowlog import (
    SlowQueryLog,
    annotate,
    get_slow_log,
    install_slow_log,
    uninstall_slow_log,
)
from repro.obs.spanstore import (
    SpanStore,
    assemble_trace,
    get_span_store,
    install_span_store,
    read_span_files,
    render_trace,
    uninstall_span_store,
)
from repro.obs.tracing import (
    Span,
    SpanRecorder,
    add_span_sink,
    bind_parent_span,
    bind_trace,
    current_span,
    current_span_id,
    current_trace_id,
    new_trace_id,
    recorder,
    remove_span_sink,
    set_parent_span_id,
    set_trace_id,
    trace,
)

__all__ = [
    "ContinuousProfiler",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLinesFormatter",
    "MetricsRegistry",
    "SamplingProfiler",
    "SlowQueryLog",
    "Span",
    "SpanRecorder",
    "SpanStore",
    "add_span_sink",
    "annotate",
    "assemble_trace",
    "bind_parent_span",
    "bind_trace",
    "catalogue",
    "configure_jsonl",
    "current_span",
    "current_span_id",
    "current_trace_id",
    "escape_label_value",
    "get_continuous_profiler",
    "get_logger",
    "get_registry",
    "get_slow_log",
    "get_span_store",
    "install_slow_log",
    "install_span_store",
    "log_event",
    "new_trace_id",
    "read_span_files",
    "recorder",
    "remove_handler",
    "remove_span_sink",
    "render_trace",
    "set_parent_span_id",
    "set_trace_id",
    "start_continuous_profiler",
    "stop_continuous_profiler",
    "trace",
    "uninstall_slow_log",
    "uninstall_span_store",
]
