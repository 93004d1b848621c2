"""``repro top``: a live, curses-free terminal dashboard over a server.

Polls ``/metrics`` (and, best-effort, ``/debug/vars``) on a ``repro
serve`` or cluster router and renders a plain-text frame every
interval: request rate and RED latency percentiles, per-endpoint
breakdown, cache hit ratio, circuit-breaker state, shard/replica
health, changefeed consumer lag, slow-query and profiler counters.

Everything is computed from *deltas between two scrapes*, the way a
real Prometheus would — counters and histogram buckets are cumulative,
so the dashboard subtracts the previous snapshot.  The rendering is
deliberately dumb terminal text (an ANSI home+clear when stdout is a
tty, plain frames otherwise) so it works over ssh, in CI logs, and in
tests without curses.

The module splits into a side-effect-free core (:func:`percentiles`,
:func:`render_frame`) the tests exercise directly, and a small
``urllib`` fetch/poll loop (:func:`fetch_snapshot`, :func:`run_top`)
the CLI drives.
"""

from __future__ import annotations

import json
import math
import sys
import time
import urllib.error
import urllib.request

from repro.obs import catalogue
from repro.obs.exposition import MetricFamily, parse_exposition

__all__ = [
    "fetch_snapshot",
    "percentiles",
    "render_frame",
    "run_top",
]

_BREAKER_STATES = {0: "closed", 1: "half-open", 2: "OPEN"}

#: Endpoints shown in the per-endpoint table, busiest first.
_TABLE_ROWS = 8


# ----------------------------------------------------------------------
# Scraping


def fetch_snapshot(base_url: str, timeout: float = 5.0) -> dict:
    """One observation of the server: parsed scrape + debug vars.

    ``/metrics`` is required (errors propagate so the caller can show
    an unreachable banner); ``/debug/vars`` is best-effort — an older
    server without it still gets a dashboard.
    """
    base = base_url.rstrip("/")
    with urllib.request.urlopen(base + "/metrics", timeout=timeout) as response:
        families = parse_exposition(response.read().decode("utf-8"))
    debug_vars: dict = {}
    try:
        with urllib.request.urlopen(base + "/debug/vars", timeout=timeout) as response:
            debug_vars = json.loads(response.read())
    except (OSError, ValueError, urllib.error.URLError):
        pass
    return {"ts": time.monotonic(), "families": families, "vars": debug_vars}


# ----------------------------------------------------------------------
# Metric arithmetic (pure; tested directly)


def _samples(families: dict[str, MetricFamily], family: str):
    fam = families.get(family)
    return fam.samples if fam is not None else []


def _total(
    families: dict[str, MetricFamily],
    family: str,
    sample: str | None = None,
    where: dict[str, str] | None = None,
) -> float:
    """Sum of every matching sample value in one family."""
    name = sample or family
    out = 0.0
    for item in _samples(families, family):
        if item.name != name:
            continue
        if where and any(item.labels.get(k) != v for k, v in where.items()):
            continue
        out += item.value
    return out


def _gauge(families: dict[str, MetricFamily], family: str) -> float | None:
    fam = families.get(family)
    if fam is None or not fam.samples:
        return None
    return sum(sample.value for sample in fam.samples)


def _buckets(
    families: dict[str, MetricFamily],
    family: str,
    where: dict[str, str] | None = None,
) -> dict[float, float]:
    """Cumulative ``le -> count`` summed across label sets."""
    out: dict[float, float] = {}
    for sample in _samples(families, family):
        if sample.name != f"{family}_bucket":
            continue
        if where and any(sample.labels.get(k) != v for k, v in where.items()):
            continue
        le = sample.labels.get("le")
        if le is None:
            continue
        bound = math.inf if le == "+Inf" else float(le)
        out[bound] = out.get(bound, 0.0) + sample.value
    return out


def percentiles(
    prev: dict | None,
    curr: dict,
    family: str = "repro_request_latency_seconds",
    qs: tuple[float, ...] = (0.5, 0.95, 0.99),
    where: dict[str, str] | None = None,
) -> dict[float, float | None]:
    """Interpolated latency quantiles from histogram bucket *deltas*.

    With no previous snapshot (first frame) the cumulative counts are
    used as-is — an all-time percentile, better than nothing.  Returns
    ``{q: seconds | None}``; None when the window saw no requests.
    """
    now = _buckets(curr["families"], family, where=where)
    before = _buckets(prev["families"], family, where=where) if prev else {}
    deltas = [
        (bound, max(0.0, now[bound] - before.get(bound, 0.0)))
        for bound in sorted(now)
    ]
    total = deltas[-1][1] if deltas else 0.0
    out: dict[float, float | None] = {}
    for q in qs:
        if total <= 0:
            out[q] = None
            continue
        target = q * total
        lower = 0.0
        value: float | None = None
        prev_count = 0.0
        for bound, count in deltas:
            if count >= target:
                if math.isinf(bound):
                    # Over the last finite bound; report that bound.
                    value = lower if lower else None
                    break
                span = count - prev_count
                frac = (target - prev_count) / span if span > 0 else 1.0
                value = lower + (bound - lower) * frac
                break
            lower = 0.0 if math.isinf(bound) else bound
            prev_count = count
        out[q] = value
    return out


def _rate(prev: dict | None, curr: dict, family: str, **kwargs) -> float | None:
    """Per-second increase of a counter between snapshots."""
    if prev is None:
        return None
    elapsed = curr["ts"] - prev["ts"]
    if elapsed <= 0:
        return None
    delta = _total(curr["families"], family, **kwargs) - _total(
        prev["families"], family, **kwargs
    )
    return max(0.0, delta) / elapsed


# ----------------------------------------------------------------------
# Rendering


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "    -"
    if value < 0.001:
        return f"{value * 1e6:4.0f}µs"
    if value < 1.0:
        return f"{value * 1e3:4.1f}ms"
    return f"{value:5.2f}s"


def _fmt_rate(value: float | None) -> str:
    return "   - " if value is None else f"{value:5.1f}"


def _fmt_ratio(value: float | None) -> str:
    return "  - " if value is None else f"{value * 100:3.0f}%"


def _endpoint_rows(prev: dict | None, curr: dict) -> list[tuple]:
    """(endpoint, qps|None, total, errors, p95|None), busiest first."""
    totals: dict[str, float] = {}
    errors: dict[str, float] = {}
    for sample in _samples(curr["families"], "repro_requests_total"):
        endpoint = sample.labels.get("endpoint", "?")
        totals[endpoint] = totals.get(endpoint, 0.0) + sample.value
        if sample.labels.get("status", "").startswith(("4", "5")):
            errors[endpoint] = errors.get(endpoint, 0.0) + sample.value
    rows = []
    for endpoint, total in totals.items():
        qps = _rate(
            prev, curr, "repro_requests_total", where={"endpoint": endpoint}
        )
        p95 = percentiles(prev, curr, qs=(0.95,), where={"endpoint": endpoint})[0.95]
        rows.append((endpoint, qps, total, errors.get(endpoint, 0.0), p95))
    rows.sort(key=lambda row: (-(row[1] or 0.0), -row[2], row[0]))
    return rows


def render_frame(prev: dict | None, curr: dict, base_url: str = "") -> str:
    """One dashboard frame as plain text (no ANSI; caller clears)."""
    families = curr["families"]
    window = (curr["ts"] - prev["ts"]) if prev else None
    lines = []
    header = "repro top"
    if base_url:
        header += f" — {base_url}"
    if window:
        header += f"  (window {window:.1f}s)"
    lines.append(header)

    requests = _total(families, "repro_requests_total")
    qps = _rate(prev, curr, "repro_requests_total")
    shed = _rate(prev, curr, catalogue.SHED_REQUESTS.name)
    pcts = percentiles(prev, curr)
    lines.append(
        f"requests  {int(requests):>8} total   qps {_fmt_rate(qps)}   "
        f"shed/s {_fmt_rate(shed)}"
    )
    lines.append(
        f"latency   p50 {_fmt_seconds(pcts.get(0.5))}   "
        f"p95 {_fmt_seconds(pcts.get(0.95))}   "
        f"p99 {_fmt_seconds(pcts.get(0.99))}"
    )

    hit_ratio = _gauge(families, "repro_cache_hit_ratio")
    entries = _gauge(families, "repro_cache_entries")
    lines.append(
        f"cache     hit {_fmt_ratio(hit_ratio)}   entries "
        f"{int(entries) if entries is not None else '-'}"
    )

    breaker = _gauge(families, catalogue.BREAKER_STATE.name)
    if breaker is not None:
        rejections = _rate(prev, curr, catalogue.BREAKER_REJECTIONS.name)
        lines.append(
            f"breaker   {_BREAKER_STATES.get(int(breaker), str(breaker))}"
            f"   rejections/s {_fmt_rate(rejections)}"
        )

    shards = _gauge(families, catalogue.CLUSTER_SHARDS.name)
    if shards:
        up = {
            sample.labels.get("shard", "?"): int(sample.value)
            for sample in _samples(families, catalogue.CLUSTER_REPLICAS_UP.name)
        }
        failovers = _rate(prev, curr, catalogue.CLUSTER_FAILOVERS.name)
        health = " ".join(f"s{shard}:{count}" for shard, count in sorted(up.items()))
        lines.append(
            f"cluster   {int(shards)} shard(s)   replicas up [{health}]   "
            f"failovers/s {_fmt_rate(failovers)}"
        )

    head = _gauge(families, catalogue.STREAM_FEED_HEAD_OFFSET.name)
    if head is not None:
        lag = max(
            (sample.value for sample in _samples(families, catalogue.STREAM_FEED_LAG.name)),
            default=None,
        )
        subscribers = _gauge(families, catalogue.STREAM_SSE_SUBSCRIBERS.name)
        lines.append(
            f"stream    head {int(head)}   max consumer lag "
            f"{int(lag) if lag is not None else '-'}   sse subscribers "
            f"{int(subscribers or 0)}"
        )

    slow = _total(families, catalogue.OBS_SLOW_QUERIES.name)
    spans = _total(families, catalogue.OBS_SPANS_RECORDED.name)
    samples_taken = _total(families, catalogue.OBS_PROFILER_SAMPLES.name)
    lines.append(
        f"obs       slow queries {int(slow)}   spans {int(spans)}   "
        f"profiler samples {int(samples_taken)}"
    )

    rows = _endpoint_rows(prev, curr)
    if rows:
        lines.append("")
        lines.append(f"{'endpoint':<28} {'qps':>6} {'total':>8} {'errs':>6} {'p95':>7}")
        for endpoint, qps, total, errs, p95 in rows[:_TABLE_ROWS]:
            lines.append(
                f"{endpoint:<28} {_fmt_rate(qps):>6} {int(total):>8} "
                f"{int(errs):>6} {_fmt_seconds(p95):>7}"
            )
        if len(rows) > _TABLE_ROWS:
            lines.append(f"... and {len(rows) - _TABLE_ROWS} more endpoint(s)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Poll loop


def run_top(
    base_url: str,
    interval: float = 2.0,
    iterations: int = 0,
    out=None,
    clear: bool | None = None,
) -> int:
    """Poll and redraw until interrupted (or for ``iterations`` frames).

    ``iterations=0`` means forever; tests and CI pass a small count.
    ``clear=None`` auto-detects a tty for ANSI clear-and-home.
    """
    out = out if out is not None else sys.stdout
    if clear is None:
        clear = bool(getattr(out, "isatty", lambda: False)())
    prev = None
    frame = 0
    while True:
        try:
            curr = fetch_snapshot(base_url)
        except (OSError, urllib.error.URLError, ValueError) as exc:
            text = f"repro top — {base_url} unreachable: {exc}"
            curr = None
        else:
            text = render_frame(prev, curr, base_url)
        if clear:
            out.write("\x1b[2J\x1b[H")
        out.write(text + "\n")
        if not clear:
            out.write("\n")
        out.flush()
        if curr is not None:
            prev = curr
        frame += 1
        if iterations and frame >= iterations:
            return 0
        try:
            time.sleep(interval)
        except KeyboardInterrupt:
            return 0
