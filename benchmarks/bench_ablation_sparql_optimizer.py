"""Ablation: SPARQL BGP join-order optimisation on the comparator query.

Shows what the greedy selectivity-based reordering buys on the paper's
full-containment query — the gap between a naive engine and one with a
Virtuoso-style optimiser.
"""

import pytest

from repro.paper.export import space_to_graph
from repro.paper.sparql_method import FAITHFUL_QUERIES
from repro.paper.sparql import parse_query
from repro.paper.sparql.evaluator import select

SIZES = (25, 50)

_graph_cache = {}


def graph_for(subset_cache, n):
    if n not in _graph_cache:
        _graph_cache[n] = space_to_graph(subset_cache("realworld", n))
    return _graph_cache[n]


@pytest.mark.parametrize("n", SIZES)
def test_optimized(benchmark, subset_cache, n):
    graph = graph_for(subset_cache, n)
    parsed = parse_query(FAITHFUL_QUERIES["full"])
    benchmark.group = f"ablation sparql optimizer n={n}"
    benchmark.pedantic(lambda: select(graph, parsed, optimize=True), rounds=2, iterations=1)


@pytest.mark.parametrize("n", SIZES)
def test_naive_order(benchmark, subset_cache, n):
    graph = graph_for(subset_cache, n)
    parsed = parse_query(FAITHFUL_QUERIES["full"])
    benchmark.group = f"ablation sparql optimizer n={n}"
    benchmark.pedantic(lambda: select(graph, parsed, optimize=False), rounds=2, iterations=1)
