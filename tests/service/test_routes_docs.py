"""The route tables and the endpoint tables of the docs must not drift.

``RelationshipHandler.routes`` (serve and shard) and
``RouterHandler.routes`` are the endpoint catalogue; docs/service.md
and docs/cluster.md document them as ``| route | verb | returns |``
tables.  This test parses those rows and checks both directions.
"""

import re
from pathlib import Path

from repro.cluster.router import RouterHandler
from repro.service.server import RelationshipHandler

DOCS = Path(__file__).resolve().parents[2] / "docs"

#: A table row whose first cell is a backticked path; the query string
#: (``?limit=`` and the like) is documentation only.
ROW = re.compile(r"^\|\s*`(/[^`?]*)[^`]*`[^|]*\|\s*([A-Z]+)\s*\|")


def documented_routes(doc: str) -> set[tuple[str, str]]:
    rows = set()
    for line in (DOCS / doc).read_text(encoding="utf-8").splitlines():
        match = ROW.match(line.replace("\\|", "/"))
        if match is not None:
            rows.add((match.group(2), match.group(1)))
    return rows


def table_routes(handler) -> set[tuple[str, str]]:
    return {(route.method, route.pattern) for route in handler.routes}


class TestRouteDocsSync:
    def test_docs_parse_real_tables(self):
        service = documented_routes("service.md")
        cluster = documented_routes("cluster.md")
        assert ("GET", "/observations/<id>/containers") in service
        assert ("DELETE", "/observations/<id>") in service
        assert ("GET", "/cluster") in cluster
        assert len(service) > 15 and len(cluster) > 15

    def test_service_doc_matches_serve_routes(self):
        documented = documented_routes("service.md")
        routed = table_routes(RelationshipHandler)
        assert not routed - documented, f"served but undocumented: {sorted(routed - documented)}"
        assert not documented - routed, f"documented but not served: {sorted(documented - routed)}"

    def test_cluster_doc_matches_router_routes(self):
        documented = documented_routes("cluster.md")
        routed = table_routes(RouterHandler)
        assert not routed - documented, f"routed but undocumented: {sorted(routed - documented)}"
        assert not documented - routed, f"documented but not routed: {sorted(documented - routed)}"

    def test_router_serves_every_read_of_serve(self):
        """Clients cannot tell a cluster from one process: every GET
        route of serve exists on the router."""
        reads = {row for row in table_routes(RelationshipHandler) if row[0] == "GET"}
        assert not reads - table_routes(RouterHandler)
