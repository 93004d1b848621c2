"""The SPARQL-based comparator (Section 4, "SPARQL-based").

Two modes:

* ``"faithful"`` (default) — queries whose solutions coincide exactly
  with the library's relationship semantics (used by the equivalence
  tests).  Universal quantification is mimicked with doubly-nested
  ``FILTER NOT EXISTS``, as the paper describes.
* ``"paper"`` — the queries as printed in the paper: *detection only*,
  with relaxed conditions (partial containment via a strict
  ``broader/broader*`` path; no measure-overlap condition).

Both run against the padded export of the observation space on the
engine in :mod:`repro.paper.sparql` — reproducing the blow-up that makes this
approach uncompetitive in Figure 5.
"""

from __future__ import annotations

from typing import Literal as TypingLiteral

from repro.errors import AlgorithmError
from repro.paper.export import space_to_graph
from repro.core.results import RelationshipSet
from repro.core.space import ObservationSpace
from repro.rdf.graph import Graph
from repro.rdf.terms import URIRef
from repro.paper.sparql import query
from repro.paper.sparql.ast import Var

__all__ = ["compute_sparql", "FAITHFUL_QUERIES", "PAPER_QUERIES"]

Mode = TypingLiteral["faithful", "paper"]

_PROLOGUE = """
PREFIX qb: <http://purl.org/linked-data/cube#>
PREFIX skos: <http://www.w3.org/2004/02/skos/core#>
"""

# ----------------------------------------------------------------------
# Faithful queries: match the library semantics exactly.
# ----------------------------------------------------------------------
_FAITHFUL_FULL = _PROLOGUE + """
SELECT DISTINCT ?o1 ?o2 WHERE {
  ?o1 a qb:Observation .
  ?o2 a qb:Observation .
  FILTER(?o1 != ?o2)
  ?o1 ?m ?x1 . ?o2 ?m ?x2 . ?m a qb:MeasureProperty .
  FILTER NOT EXISTS {
    ?d a qb:DimensionProperty .
    ?o1 ?d ?v1 . ?o2 ?d ?v2 .
    FILTER NOT EXISTS { ?v2 skos:broader* ?v1 }
  }
}
"""

_FAITHFUL_PARTIAL = _PROLOGUE + """
SELECT DISTINCT ?o1 ?o2 WHERE {
  ?o1 a qb:Observation .
  ?o2 a qb:Observation .
  FILTER(?o1 != ?o2)
  ?o1 ?m ?x1 . ?o2 ?m ?x2 . ?m a qb:MeasureProperty .
  ?d1 a qb:DimensionProperty .
  ?o1 ?d1 ?v1 . ?o2 ?d1 ?v2 .
  ?v2 skos:broader* ?v1 .
  ?d2 a qb:DimensionProperty .
  ?o1 ?d2 ?w1 . ?o2 ?d2 ?w2 .
  FILTER NOT EXISTS { ?w2 skos:broader* ?w1 }
}
"""

_FAITHFUL_COMPLEMENT = _PROLOGUE + """
SELECT DISTINCT ?o1 ?o2 WHERE {
  ?o1 a qb:Observation .
  ?o2 a qb:Observation .
  FILTER(?o1 != ?o2)
  FILTER NOT EXISTS {
    ?d a qb:DimensionProperty .
    ?o1 ?d ?v1 . ?o2 ?d ?v2 .
    FILTER(?v1 != ?v2)
  }
}
"""

FAITHFUL_QUERIES = {
    "full": _FAITHFUL_FULL,
    "partial": _FAITHFUL_PARTIAL,
    "complementary": _FAITHFUL_COMPLEMENT,
}

# ----------------------------------------------------------------------
# Paper queries (Section 4): detection-only, relaxed conditions.  The
# paper writes skos:broaderTransitive; the export emits direct
# skos:broader edges, so the property name is adapted.
# ----------------------------------------------------------------------
_PAPER_PARTIAL = _PROLOGUE + """
SELECT DISTINCT ?o1 ?o2 WHERE {
  ?o1 a qb:Observation .
  ?o2 a qb:Observation .
  ?o1 ?d1 ?v1 .
  ?o2 ?d1 ?v2 .
  ?v2 skos:broader/skos:broader* ?v1 .
  FILTER(?o1 != ?o2)
}
"""

_PAPER_COMPLEMENT = _PROLOGUE + """
SELECT DISTINCT ?o1 ?o2 WHERE {
  ?o1 a qb:Observation .
  ?o2 a qb:Observation .
  FILTER(?o1 != ?o2)
  FILTER NOT EXISTS {
    ?o1 ?d ?v1 .
    ?o2 ?d ?v2 .
    ?d a qb:DimensionProperty .
    FILTER(?v1 != ?v2)
  }
}
"""

_PAPER_FULL = _PROLOGUE + """
SELECT DISTINCT ?o1 ?o2 WHERE {
  ?o1 a qb:Observation .
  ?o2 a qb:Observation .
  FILTER(?o1 != ?o2)
  ?o1 ?d1 ?v1 .
  ?o2 ?d1 ?v2 .
  ?v2 skos:broader/skos:broader* ?v1 .
  FILTER NOT EXISTS {
    ?d a qb:DimensionProperty .
    ?o1 ?d ?w1 . ?o2 ?d ?w2 .
    FILTER NOT EXISTS { ?w2 skos:broader* ?w1 }
  }
}
"""

PAPER_QUERIES = {
    "full": _PAPER_FULL,
    "partial": _PAPER_PARTIAL,
    "complementary": _PAPER_COMPLEMENT,
}


def _pairs(graph: Graph, text: str) -> set[tuple[URIRef, URIRef]]:
    o1, o2 = Var("o1"), Var("o2")
    rows = query(graph, text)
    assert isinstance(rows, list)
    return {(row[o1], row[o2]) for row in rows}  # type: ignore[index]


def compute_sparql(
    space: ObservationSpace,
    mode: Mode = "faithful",
    collect_partial: bool = True,
    graph: Graph | None = None,
    targets=None,
) -> RelationshipSet:
    """Compute the relationship sets with SPARQL queries.

    ``graph`` can be supplied to reuse an existing export (the
    benchmarks export once and time only query execution); ``targets``
    restricts which of the three queries run.
    """
    from repro.core.baseline import normalize_targets

    if mode not in ("faithful", "paper"):
        raise AlgorithmError(f"unknown SPARQL mode {mode!r}")
    resolved = normalize_targets(targets, collect_partial)
    queries = FAITHFUL_QUERIES if mode == "faithful" else PAPER_QUERIES
    target = graph if graph is not None else space_to_graph(space)
    result = RelationshipSet()
    if "full" in resolved:
        for a, b in _pairs(target, queries["full"]):
            result.add_full(a, b)
    if "complementary" in resolved:
        for a, b in _pairs(target, queries["complementary"]):
            result.add_complementary(a, b)
    if "partial" in resolved:
        full_pairs = result.full
        for a, b in _pairs(target, queries["partial"]):
            if mode == "faithful" and (a, b) in full_pairs:
                continue  # disjointness guard; the query already excludes these
            result.add_partial(a, b)
    return result
