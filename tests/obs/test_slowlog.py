"""The slow-query log: threshold gating, record schema, contextvar
annotations and rotation."""

import json

import pytest

from repro.obs.slowlog import (
    SlowQueryLog,
    annotate,
    begin_request,
    end_request,
    get_slow_log,
    install_slow_log,
    request_annotations,
    uninstall_slow_log,
)


@pytest.fixture
def log(tmp_path):
    return SlowQueryLog(tmp_path / "slow.jsonl", threshold_ms=50.0)


class TestThreshold:
    def test_fast_requests_not_recorded(self, log):
        assert log.maybe_record("contained", 0.010, status=200) is None
        assert not log.path.exists()

    def test_slow_requests_recorded(self, log):
        record = log.maybe_record(
            "contained", 0.2, status=200, trace_id="t" * 32, span_id="s" * 16
        )
        assert record is not None
        lines = log.path.read_text().splitlines()
        assert len(lines) == 1
        on_disk = json.loads(lines[0])
        assert on_disk["event"] == "slow_query"
        assert on_disk["endpoint"] == "contained"
        assert on_disk["status"] == 200
        assert on_disk["trace_id"] == "t" * 32
        assert on_disk["span_id"] == "s" * 16
        assert on_disk["duration_ms"] == 200.0
        assert on_disk["threshold_ms"] == 50.0
        assert isinstance(on_disk["ts"], float)

    def test_none_fields_omitted(self, log):
        record = log.maybe_record("x", 0.1, status=200, deadline_ms=None)
        assert "deadline_ms" not in record


class TestAnnotations:
    def test_annotations_merge_into_record(self, log):
        token = begin_request()
        try:
            annotate(cache="miss")
            annotate(fanout=4)
            record = log.maybe_record("related", 0.1, status=200)
        finally:
            end_request(token)
        assert record["cache"] == "miss"
        assert record["fanout"] == 4

    def test_annotate_is_noop_outside_request(self):
        annotate(cache="hit")  # must not raise
        assert request_annotations() == {}

    def test_explicit_fields_win_over_annotations(self, log):
        token = begin_request()
        try:
            annotate(role="annotated")
            record = log.maybe_record("x", 0.1, role="explicit")
        finally:
            end_request(token)
        assert record["role"] == "explicit"

    def test_kernel_counters_snapshotted(self, log):
        record = log.maybe_record("x", 0.1)
        assert "kernel_calls" in record and "kernel_pairs" in record


class TestRotation:
    def test_rotates_at_max_records(self, tmp_path):
        log = SlowQueryLog(tmp_path / "slow.jsonl", threshold_ms=0.0, max_records=5)
        for i in range(12):
            log.maybe_record(f"e{i}", 0.001)
        log.close()
        assert len((tmp_path / "slow.jsonl.1").read_text().splitlines()) == 5
        assert len((tmp_path / "slow.jsonl").read_text().splitlines()) == 2

    def test_stats(self, log):
        log.maybe_record("x", 0.1)
        stats = log.stats()
        assert stats["recorded_total"] == 1
        assert stats["threshold_ms"] == 50.0


class TestProcessLog:
    @pytest.fixture(autouse=True)
    def fresh(self):
        uninstall_slow_log()
        yield
        uninstall_slow_log()

    def test_install_is_get_or_create(self, tmp_path):
        first = install_slow_log(tmp_path / "a.jsonl", threshold_ms=1.0)
        second = install_slow_log(tmp_path / "b.jsonl")
        assert first is second is get_slow_log()
        assert first.threshold_ms == 1.0

    def test_uninstalled_means_none(self):
        assert get_slow_log() is None


class TestServerIntegration:
    """A live server with a zero threshold records every request."""

    @pytest.fixture(autouse=True)
    def fresh(self):
        uninstall_slow_log()
        yield
        uninstall_slow_log()

    def test_served_requests_land_in_the_log(self, tmp_path):
        import urllib.request

        from repro.core import compute_baseline
        from repro.service import QueryEngine, start_server

        from tests.conftest import make_random_space

        space = make_random_space(15, seed=3)
        engine = QueryEngine(compute_baseline(space), space)
        path = tmp_path / "slow.jsonl"
        server = start_server(engine, slow_log_path=path, slow_query_ms=0.0)
        host, port = server.server_address
        try:
            request = urllib.request.Request(
                f"http://{host}:{port}/stats",
                headers={"X-Trace-Id": "ab" * 16, "X-Deadline-Ms": "9000"},
            )
            urllib.request.urlopen(request).read()
        finally:
            server.shutdown()
            server.server_close()
        records = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        stats = [r for r in records if r["endpoint"] == "stats"]
        assert len(stats) == 1
        record = stats[0]
        assert record["event"] == "slow_query"
        assert record["trace_id"] == "ab" * 16
        assert record["status"] == 200
        assert record["role"] == "serve"
        assert record["deadline_ms"] == "9000"
        assert record["duration_ms"] >= 0.0
        assert len(record["span_id"]) == 16
