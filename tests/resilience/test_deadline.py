"""Per-request deadlines: the contextvar, the checkpoints, the 504."""

import json
import time
import urllib.error
import urllib.request
from urllib.parse import quote

import pytest

from repro.errors import DeadlineExceededError
from repro.resilience.deadline import (
    Deadline,
    bind_deadline,
    check_deadline,
    current_deadline,
    remaining_ms,
)
from repro.resilience.faults import install_injector


class TestDeadline:
    def test_positive_budget_required(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-5)

    def test_fresh_deadline_passes_check(self):
        Deadline(60_000).check("test")

    def test_expired_deadline_raises_with_site(self):
        deadline = Deadline(0.001)
        time.sleep(0.005)
        with pytest.raises(DeadlineExceededError) as excinfo:
            deadline.check("segment.read")
        assert excinfo.value.site == "segment.read"
        assert excinfo.value.overrun_ms > 0

    def test_remaining_counts_down(self):
        deadline = Deadline(10_000)
        first = deadline.remaining()
        time.sleep(0.01)
        assert deadline.remaining() < first
        assert not deadline.expired


class TestBinding:
    def test_check_is_noop_when_unbound(self):
        assert current_deadline() is None
        check_deadline("anywhere")  # must not raise

    def test_bound_deadline_reaches_checkpoints(self):
        with bind_deadline(Deadline(0.001)):
            time.sleep(0.005)
            with pytest.raises(DeadlineExceededError):
                check_deadline("engine.query")
        check_deadline("engine.query")  # unbound again: no-op

    def test_binding_none_clears_inherited_deadline(self):
        with bind_deadline(Deadline(0.001)):
            time.sleep(0.005)
            with bind_deadline(None):  # background work opts out
                check_deadline("background")
            with pytest.raises(DeadlineExceededError):
                check_deadline("request")

    def test_remaining_ms_reflects_binding(self):
        assert remaining_ms() is None
        with bind_deadline(Deadline(5_000)):
            assert 0 < remaining_ms() <= 5_000


class TestHTTP504:
    @pytest.fixture()
    def served_store(self, tmp_path):
        from repro.resilience.chaos import build_seed_store
        from repro.service import QueryEngine, start_server
        from repro.storage import LazyRelationshipIndex, SegmentStore

        build_seed_store(tmp_path / "links.rseg")
        store = SegmentStore.open(tmp_path / "links.rseg")
        result = store.relationship_set()
        engine = QueryEngine(
            result, index=LazyRelationshipIndex(result, None), storage_info=store.describe
        )
        server = start_server(engine)
        host, port = server.server_address
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        store.close()

    def test_deadline_header_expires_into_504(self, served_store):
        # Slow storage (injected 150 ms per segment read) burns the
        # 20 ms budget; the next checkpoint after the read answers 504.
        install_injector("segment.read:delay:seconds=0.15:times=inf")
        uri = quote("urn:chaos:seed:0:a", safe="")
        request = urllib.request.Request(
            f"{served_store}/observations/{uri}/containers",
            headers={"X-Deadline-Ms": "20"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 504
        assert "deadline" in json.load(excinfo.value)["error"].lower()

    def test_generous_deadline_succeeds(self, served_store):
        uri = quote("urn:chaos:seed:0:a", safe="")
        request = urllib.request.Request(
            f"{served_store}/observations/{uri}/containers",
            headers={"X-Deadline-Ms": "30000"},
        )
        with urllib.request.urlopen(request) as response:
            assert response.status == 200

    def test_malformed_deadline_header_is_400(self, served_store):
        request = urllib.request.Request(
            f"{served_store}/healthz", headers={"X-Deadline-Ms": "soon"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_nan_deadline_header_is_400_on_serve_and_router(self, served_store, tmp_path):
        """``nan > 0`` and ``nan <= 0`` are both false: a NaN budget
        must be refused, not treated as a deadline that never expires
        (serve) or clamped to a 1 ms budget forwarded to every shard
        (router)."""
        from urllib.parse import urlsplit

        from repro.cluster import ClusterManifest, Router, start_router

        with pytest.raises(ValueError):
            Deadline(float("nan"))
        shard = urlsplit(served_store)
        manifest = ClusterManifest(store=str(tmp_path / "links.rseg"), shards=1)
        manifest.upsert_worker(
            {"shard": 0, "replica": 0, "host": shard.hostname, "port": shard.port, "pid": 0}
        )
        router = start_router(Router(manifest))
        host, port = router.server_address
        try:
            for base in (served_store, f"http://{host}:{port}"):
                uri = quote("urn:chaos:seed:0:a", safe="")
                request = urllib.request.Request(
                    f"{base}/observations/{uri}/containers", headers={"X-Deadline-Ms": "nan"}
                )
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    urllib.request.urlopen(request)
                assert excinfo.value.code == 400, base
                assert "X-Deadline-Ms" in json.load(excinfo.value)["error"]
        finally:
            router.shutdown()
            router.server_close()
