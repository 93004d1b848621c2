"""Cluster-wide telemetry, end to end over real sockets: federated
``/metrics``, distributed trace assembly on ``/debug/trace/<id>`` and
the ``X-Span-Id`` parentage that stitches router and shard spans into
one tree."""

import json
import urllib.parse
import urllib.request

import pytest

from repro.cluster import ClusterManifest, Router, build_shard_engine, start_router
from repro.core import compute_baseline
from repro.obs.exposition import parse_exposition, validate
from repro.obs.spanstore import assemble_trace, render_trace
from repro.service import QueryEngine, start_server
from repro.storage import SegmentStore, save_segments

from tests.conftest import make_random_space

SHARDS = 2
REPLICAS = 2


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    space = make_random_space(40, seed=33)
    result = compute_baseline(space, collect_partial_dimensions=True)

    store_path = tmp_path_factory.mktemp("telemetry") / "links.rseg"
    save_segments(result, store_path, space=space)
    probe = SegmentStore.open(store_path)
    partitions = [
        {"dataset": dataset, "signature": list(signature) if signature is not None else None}
        for dataset, signature in probe.partition_keys()
    ]
    manifest = ClusterManifest(
        store=str(store_path), shards=SHARDS, replicas=REPLICAS, partitions=partitions
    )

    servers = []
    for shard in range(SHARDS):
        for replica in range(REPLICAS):
            store = SegmentStore.open(store_path)
            engine, _ = build_shard_engine(store, manifest, shard, space=space)
            server = start_server(
                engine, threads=2, read_only=True, role=f"shard-{shard}"
            )
            host, port = server.server_address
            manifest.upsert_worker(
                {"shard": shard, "replica": replica, "host": host, "port": port, "pid": 0}
            )
            servers.append(server)

    router = Router(manifest, space=space, shard_timeout=5.0)
    router_server = start_router(router, threads=4)
    host, port = router_server.server_address

    yield f"http://{host}:{port}", space

    router_server.shutdown()
    router_server.server_close()
    for server in servers:
        server.shutdown()
        server.server_close()


def fetch(base: str, path: str, headers: dict | None = None):
    request = urllib.request.Request(base + path, headers=headers or {})
    with urllib.request.urlopen(request) as response:
        return response.status, dict(response.headers), response.read()


class TestFederatedMetrics:
    def test_scrape_is_valid_and_labelled_by_shard(self, cluster):
        base, _ = cluster
        # A federated scrape makes every replica serve /metrics?local=1,
        # so the *second* scrape sees a repro_requests_total series from
        # all of them.
        fetch(base, "/metrics")
        _, headers, body = fetch(base, "/metrics")
        assert headers["Content-Type"].startswith("text/plain")
        text = body.decode("utf-8")
        assert validate(text) == []
        families = parse_exposition(text)
        shard_labels = {
            (s.labels.get("shard"), s.labels.get("replica"))
            for s in families["repro_requests_total"].samples
            if "shard" in s.labels
        }
        assert {pair[0] for pair in shard_labels} == {"0", "1"}
        assert len(shard_labels) == SHARDS * REPLICAS

    def test_router_series_stay_unlabelled(self, cluster):
        base, _ = cluster
        _, _, body = fetch(base, "/metrics")
        families = parse_exposition(body.decode("utf-8"))
        samples = families["repro_cluster_shards"].samples
        assert any("shard" not in s.labels for s in samples)

    def test_local_opt_out(self, cluster):
        base, _ = cluster
        _, _, body = fetch(base, "/metrics?local=1")
        families = parse_exposition(body.decode("utf-8"))
        assert all(
            "replica" not in s.labels
            for family in families.values()
            for s in family.samples
        )

    def test_federation_counter_advances(self, cluster):
        base, _ = cluster
        fetch(base, "/metrics")
        _, _, body = fetch(base, "/metrics")
        families = parse_exposition(body.decode("utf-8"))
        (sample,) = [
            s
            for s in families["repro_cluster_federated_scrapes_total"].samples
            if "shard" not in s.labels
        ]
        assert sample.value >= 1


class TestTraceAssembly:
    TRACE = "feedc0defeedc0defeedc0defeedc0de"

    @staticmethod
    def scatter_path(base: str) -> str:
        """A path the router must scatter to every shard: ``related``
        is unprunable, so the plan consults every partition."""
        _, _, body = fetch(base, "/observations?limit=1")
        uri = json.loads(body)["observations"][0]
        return f"/observations/{urllib.parse.quote(uri, safe='')}/related"

    def test_query_produces_multi_shard_tree(self, cluster):
        base, _ = cluster
        path = self.scatter_path(base)
        _, headers, _ = fetch(base, path, {"X-Trace-Id": self.TRACE})
        assert headers["X-Trace-Id"] == self.TRACE

        _, _, body = fetch(base, f"/debug/trace/{self.TRACE}")
        payload = json.loads(body)
        assert payload["trace_id"] == self.TRACE
        spans = payload["spans"]
        assert all(record["trace_id"] == self.TRACE for record in spans)

        routers = [r for r in spans if r["span"] == "router.request"]
        shards = [r for r in spans if r["span"] == "http.request"]
        assert len(routers) == 1
        assert len(shards) >= 2  # at least one span per shard
        roles = {r["fields"].get("role") for r in shards}
        assert len({role for role in roles if role and role.startswith("shard-")}) == SHARDS

        # X-Span-Id parentage: every shard span is a child of the
        # router span, so assembly yields one tree, not a forest.
        root_id = routers[0]["span_id"]
        assert all(r["parent_id"] == root_id for r in shards)
        roots = assemble_trace(spans)
        assert len(roots) == 1
        assert len(roots[0]["children"]) == len(shards)

        rendered = render_trace(spans)
        assert f"trace {self.TRACE}" in rendered
        assert "[router]" in rendered and "[shard-" in rendered

    def test_deadline_budget_attributed(self, cluster):
        base, _ = cluster
        trace_id = "beefbeefbeefbeefbeefbeefbeefbeef"
        fetch(
            base,
            self.scatter_path(base),
            {"X-Trace-Id": trace_id, "X-Deadline-Ms": "5000"},
        )
        _, _, body = fetch(base, f"/debug/trace/{trace_id}")
        spans = json.loads(body)["spans"]
        router_span = next(r for r in spans if r["span"] == "router.request")
        assert router_span["fields"].get("deadline_ms") == "5000"
        assert "budget=" in render_trace(spans)

    def test_unknown_trace_is_empty_not_error(self, cluster):
        base, _ = cluster
        status, _, body = fetch(base, "/debug/trace/" + "0" * 32)
        assert status == 200
        assert json.loads(body)["spans"] == []


class TestDebugSurface:
    def test_router_debug_vars(self, cluster):
        base, _ = cluster
        _, _, body = fetch(base, "/debug/vars")
        payload = json.loads(body)
        assert payload["spanstore"]["spans"] >= 1
        assert "repro_cluster_shards" in payload["metrics"]

    def test_router_profile_endpoint(self, cluster):
        base, _ = cluster
        status, _, body = fetch(base, "/debug/profile?format=json")
        assert status == 200
        payload = json.loads(body)
        assert payload["running"] is True
