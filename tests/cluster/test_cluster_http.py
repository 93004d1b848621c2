"""Live scatter/gather round-trips against an in-process cluster.

Two shards x two replicas run as real ``RelationshipServer``s on
ephemeral ports, fronted by a real :class:`RouterServer` — everything
in one process (threads, not subprocesses) so the tests stay fast, but
every byte travels over actual sockets.  The reference for every
assertion is a single-process :class:`QueryEngine` over the same
result: routing must be invisible to clients.
"""

import json
import urllib.error
import urllib.request
from urllib.parse import quote

import pytest

from repro.cluster import ClusterManifest, Router, build_shard_engine, start_router
from repro.core import compute_baseline
from repro.service import QueryEngine, start_server
from repro.storage import SegmentStore, save_segments

from tests.conftest import make_random_space

SHARDS = 2
REPLICAS = 2


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    space = make_random_space(40, seed=21)
    result = compute_baseline(space, collect_partial_dimensions=True)
    reference = QueryEngine(result, space)

    store_path = tmp_path_factory.mktemp("cluster") / "links.rseg"
    save_segments(result, store_path, space=space)
    probe = SegmentStore.open(store_path)
    partitions = [
        {"dataset": dataset, "signature": list(signature) if signature is not None else None}
        for dataset, signature in probe.partition_keys()
    ]
    manifest = ClusterManifest(
        store=str(store_path), shards=SHARDS, replicas=REPLICAS, partitions=partitions
    )
    assert len(partitions) > SHARDS  # the ring has real work to split

    servers = {}
    for shard in range(SHARDS):
        for replica in range(REPLICAS):
            store = SegmentStore.open(store_path)
            engine, assigned = build_shard_engine(store, manifest, shard, space=space)
            server = start_server(
                engine, threads=2, read_only=True, role=f"shard-{shard}"
            )
            host, port = server.server_address
            manifest.upsert_worker(
                {"shard": shard, "replica": replica, "host": host, "port": port, "pid": 0}
            )
            servers[(shard, replica)] = server

    router = Router(manifest, space=space, shard_timeout=5.0)
    router_server = start_router(router, threads=4)
    host, port = router_server.server_address

    yield f"http://{host}:{port}", reference, space, servers

    router_server.shutdown()
    router_server.server_close()
    for server in servers.values():
        try:
            server.shutdown()
            server.server_close()
        except OSError:
            pass


def get_json(base: str, path: str, headers: dict | None = None):
    request = urllib.request.Request(base + path, headers=headers or {})
    with urllib.request.urlopen(request) as response:
        return response.status, dict(response.getheaders()), json.load(response)


def encode(uri) -> str:
    return quote(str(uri), safe="")


class TestRoutedReads:
    def test_healthz(self, cluster):
        base, _, space, _ = cluster
        status, _, body = get_json(base, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["role"] == "router"
        assert body["shards"] == SHARDS
        assert all(count == REPLICAS for count in body["replicas_up"].values())

    def test_every_point_lookup_matches_reference(self, cluster):
        base, reference, space, _ = cluster
        for record in space.observations:
            for relation, method in (
                ("containers", reference.containers),
                ("contained", reference.contained),
                ("complements", reference.complements),
            ):
                _, _, body = get_json(
                    base, f"/observations/{encode(record.uri)}/{relation}"
                )
                assert body[relation] == [str(u) for u in method(record.uri)], (
                    f"{relation} mismatch for {record.uri}"
                )

    def test_summary_counts_are_exact(self, cluster):
        base, reference, space, _ = cluster
        for record in space.observations[:10]:
            _, _, body = get_json(base, f"/observations/{encode(record.uri)}")
            expected = reference.summary(record.uri)
            for field in (
                "containers",
                "contained",
                "complements",
                "partial_containers",
                "partial_contained",
            ):
                assert body[field] == expected[field], f"{field} for {record.uri}"

    def test_related_merge_matches_reference(self, cluster):
        base, reference, space, _ = cluster
        for record in space.observations[:10]:
            _, _, body = get_json(base, f"/observations/{encode(record.uri)}/related?k=5")
            expected = [
                (str(e["uri"]), pytest.approx(float(e["score"])))
                for e in reference.related(record.uri, 5)
            ]
            assert [(e["uri"], float(e["score"])) for e in body["related"]] == expected

    def test_transitive_matches_reference(self, cluster):
        base, reference, space, _ = cluster
        uri = space.observations[0].uri
        _, _, body = get_json(
            base, f"/observations/{encode(uri)}/transitive?direction=up"
        )
        assert {e["uri"] for e in body["reachable"]} == {
            str(u) for u, _ in reference.transitive_containers(uri)
        }

    def test_list_unions_all_shards(self, cluster):
        base, _, space, _ = cluster
        _, _, body = get_json(base, "/observations")
        assert body["count"] == len(space)

    def test_unknown_observation_404s_cluster_wide(self, cluster):
        base, _, _, _ = cluster
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(base, f"/observations/{encode('http://nope/x')}/containers")
        assert excinfo.value.code == 404

    def test_trace_id_round_trips(self, cluster):
        base, _, space, _ = cluster
        uri = space.observations[0].uri
        _, headers, _ = get_json(
            base,
            f"/observations/{encode(uri)}/containers",
            headers={"X-Trace-Id": "trace-cluster-test"},
        )
        assert headers.get("X-Trace-Id") == "trace-cluster-test"

    def test_writes_are_refused(self, cluster):
        base, _, space, _ = cluster
        request = urllib.request.Request(
            base + "/observations",
            data=b"{}",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 501  # routers do not write; shards are read-only

    def test_cluster_metrics_exported(self, cluster):
        base, _, _, _ = cluster
        with urllib.request.urlopen(base + "/metrics") as response:
            text = response.read().decode()
        for family in (
            "repro_cluster_shards",
            "repro_cluster_replicas_up",
            "repro_cluster_fanout_requests_total",
        ):
            assert family in text


class TestCountParameters:
    def test_negative_counts_are_400_on_serve_and_router(self, cluster):
        """Counts are non-negative: a negative ``limit`` would slice
        from the end of the listing (``limit=-1`` answering all but one)."""
        base, reference, space, _ = cluster
        serve = start_server(reference)
        host, port = serve.server_address
        uri = encode(space.observations[0].uri)
        try:
            for target in (f"http://{host}:{port}", base):
                _, _, body = get_json(target, "/observations?limit=3")
                assert body["count"] == 3
                _, _, body = get_json(target, "/observations?limit=0")
                assert body["count"] == 0
                for path in (
                    "/observations?limit=-1",
                    f"/observations?limit=-{len(space) - 1}",
                    f"/observations/{uri}/related?k=-1",
                    f"/observations/{uri}/partial?k=-2",
                    f"/observations/{uri}/transitive?max_depth=-1",
                ):
                    with pytest.raises(urllib.error.HTTPError) as excinfo:
                        get_json(target, path)
                    assert excinfo.value.code == 400, (target, path)
                    assert ">= 0" in json.load(excinfo.value)["error"]
        finally:
            serve.shutdown()
            serve.server_close()


class TestFailover:
    """Runs last in the file: it permanently stops one replica per shard."""

    def test_replica_loss_is_invisible(self, cluster):
        base, reference, space, servers = cluster
        for shard in range(SHARDS):
            servers[(shard, 0)].shutdown()
            servers[(shard, 0)].server_close()
        for record in space.observations[:20]:
            _, _, body = get_json(
                base, f"/observations/{encode(record.uri)}/containers"
            )
            assert body["containers"] == [
                str(u) for u in reference.containers(record.uri)
            ]

    def test_healthz_reports_degraded_not_down(self, cluster):
        base, _, _, _ = cluster
        status, _, body = get_json(base, "/healthz")
        assert status == 200
        assert any(count < REPLICAS for count in body["replicas_up"].values())
