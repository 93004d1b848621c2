"""Observability over HTTP: trace-ID round-trip, ``/metrics`` scrape
validation, ``/debug/vars`` and the ``/healthz`` storage block."""

import json
import urllib.request

import pytest

from repro.core import compute_baseline
from repro.obs.exposition import parse_exposition, validate
from repro.service import QueryEngine, start_server

from tests.conftest import make_random_space


@pytest.fixture(scope="module")
def served():
    space = make_random_space(25, seed=71)
    result = compute_baseline(space, collect_partial_dimensions=True)
    engine = QueryEngine(
        result,
        space,
        storage_info=lambda: {"segments": 3, "wal_records": 1, "last_repair": None},
    )
    server = start_server(engine)
    host, port = server.server_address
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()


def fetch(base: str, path: str, headers: dict | None = None):
    request = urllib.request.Request(base + path, headers=headers or {})
    with urllib.request.urlopen(request) as response:
        return response.status, dict(response.headers), response.read()


class TestTraceIds:
    def test_response_carries_trace_id(self, served):
        status, headers, _ = fetch(served, "/healthz")
        assert status == 200
        assert len(headers["X-Trace-Id"]) == 32
        int(headers["X-Trace-Id"], 16)

    def test_request_trace_id_round_trips(self, served):
        sent = "0123456789abcdef0123456789abcdef"
        _, headers, _ = fetch(served, "/healthz", {"X-Trace-Id": sent})
        assert headers["X-Trace-Id"] == sent

    def test_fresh_id_per_request(self, served):
        _, first, _ = fetch(served, "/healthz")
        _, second, _ = fetch(served, "/healthz")
        assert first["X-Trace-Id"] != second["X-Trace-Id"]


class TestMetricsScrape:
    def test_scrape_is_valid_exposition(self, served):
        fetch(served, "/healthz")  # ensure at least one observed request
        status, headers, body = fetch(served, "/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        problems = validate(
            text,
            require=(
                "repro_requests_total",
                "repro_request_latency_seconds",
                "repro_build_info",
                "repro_process_uptime_seconds",
                "repro_cache_hits_total",
                "repro_index_generation",
            ),
            min_series=15,
        )
        assert problems == []

    def test_cross_layer_series_present(self, served):
        """The scrape covers every instrumented layer, not just HTTP."""
        _, _, body = fetch(served, "/metrics")
        families = set(parse_exposition(body.decode("utf-8")))
        for name in (
            "repro_kernel_calls_total",
            "repro_kernel_pairs_total",
            "repro_cubemask_runs_total",
            "repro_runner_runs_total",
            "repro_parallel_units_total",
            "repro_storage_segment_loads_total",
            "repro_wal_appends_total",
        ):
            assert name in families, name

    def test_no_duplicate_series(self, served):
        _, _, body = fetch(served, "/metrics")
        text = body.decode("utf-8")
        samples = [
            line.split(" ")[0]
            for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(samples) == len(set(samples))


class TestDebugVars:
    def test_debug_vars_payload(self, served):
        fetch(served, "/stats")  # make sure a span exists
        status, headers, body = fetch(served, "/debug/vars")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert set(payload) == {
            "metrics",
            "top_spans",
            "recent_spans",
            "spanstore",
            "slow_query_log",
            "profiler",
        }
        assert payload["spanstore"]["spans"] >= 1
        assert "repro_build_info" in payload["metrics"]
        names = {row["span"] for row in payload["top_spans"]}
        assert "http.request" in names
        for row in payload["recent_spans"]:
            assert {"span", "trace_id", "span_id", "duration_ns"} <= set(row)


class TestDebugTrace:
    def test_trace_endpoint_returns_request_spans(self, served):
        sent = "feedfacefeedfacefeedfacefeedface"
        fetch(served, "/stats", {"X-Trace-Id": sent})
        status, headers, body = fetch(served, f"/debug/trace/{sent}")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        payload = json.loads(body)
        assert payload["trace_id"] == sent
        assert payload["count"] == len(payload["spans"]) >= 1
        span = payload["spans"][0]
        assert span["span"] == "http.request"
        assert span["trace_id"] == sent
        assert span["fields"]["endpoint"] == "stats"
        assert span["fields"]["role"] == "serve"

    def test_unknown_trace_is_empty(self, served):
        _, _, body = fetch(served, "/debug/trace/" + "a" * 32)
        assert json.loads(body)["spans"] == []


class TestDebugProfile:
    def test_collapsed_text(self, served):
        status, headers, body = fetch(served, "/debug/profile")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")

    def test_json_shape(self, served):
        _, _, body = fetch(served, "/debug/profile?format=json")
        payload = json.loads(body)
        assert payload["running"] is True
        assert "hottest" in payload


class TestHealthzStorage:
    def test_storage_block_from_storage_info(self, served):
        _, _, body = fetch(served, "/healthz")
        payload = json.loads(body)
        assert payload["storage"] == {
            "segments": 3,
            "wal_records": 1,
            "last_repair": None,
        }
