"""SPARQL subset engine.

Implements the fragment of SPARQL 1.1 the paper's comparator queries
need, plus the analytics features a cube workload uses:

* SELECT / ASK / CONSTRUCT query forms,
* basic graph patterns with a selectivity-based join optimizer,
* property paths (``/ | * + ^ ?``),
* ``FILTER`` expressions, ``EXISTS`` / ``NOT EXISTS``, ``IN``,
  ``IF`` / ``COALESCE`` and the common builtins,
* ``OPTIONAL``, ``UNION``, ``MINUS``, ``BIND``, ``VALUES``,
* aggregates ``COUNT/SUM/AVG/MIN/MAX/SAMPLE`` with ``GROUP BY`` and
  ``HAVING``, expression aliases ``(expr AS ?v)``,
* named graphs via ``GRAPH`` when querying an
  :class:`repro.rdf.RDFDataset`,
* solution modifiers ``DISTINCT`` / ``ORDER BY`` / ``LIMIT`` / ``OFFSET``.

Usage::

    from repro.rdf import parse_turtle
    from repro.paper.sparql import query

    rows = query(graph, "SELECT ?s WHERE { ?s a qb:Observation }")
"""

from repro.paper.sparql.evaluator import query, select
from repro.paper.sparql.parser import parse_query

__all__ = ["query", "select", "parse_query"]
