"""Figure 5(c): execution time for partial containment.

Partial containment enumerates the largest pair sets, so the native
methods run with ``collect_partial_dimensions=False`` (degree only) —
the paper likewise notes that its SPARQL comparator only *detects*
partial containment without quantifying it.
"""

import pytest

from repro.core import compute_baseline, compute_cubemask
from repro.paper.cluster_method import compute_clustering
from repro.paper.rules_method import compute_rules
from repro.paper.sparql_method import compute_sparql

from workload import PARTIAL_SIZES, RULES_SIZES

TARGETS = ("partial",)
SPARQL_SIZES = (25, 50)


@pytest.mark.parametrize("n", PARTIAL_SIZES)
def test_partial_baseline(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"fig5c partial containment n={n}"
    result = benchmark.pedantic(
        lambda: compute_baseline(space, targets=TARGETS, collect_partial_dimensions=False),
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info["pairs"] = len(result.partial)


@pytest.mark.parametrize("n", PARTIAL_SIZES)
def test_partial_clustering(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"fig5c partial containment n={n}"
    result = benchmark.pedantic(
        lambda: compute_clustering(
            space, targets=TARGETS, collect_partial_dimensions=False, seed=0
        ),
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info["pairs"] = len(result.partial)


@pytest.mark.parametrize("n", PARTIAL_SIZES)
def test_partial_cubemask(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"fig5c partial containment n={n}"
    result = benchmark.pedantic(
        lambda: compute_cubemask(space, targets=TARGETS), rounds=2, iterations=1
    )
    benchmark.extra_info["pairs"] = len(result.partial)


@pytest.mark.parametrize("n", SPARQL_SIZES)
def test_partial_sparql_detection(benchmark, subset_cache, n):
    """The paper's SPARQL comparator: detection only (paper mode)."""
    space = subset_cache("realworld", n)
    benchmark.group = f"fig5c partial containment n={n}"
    result = benchmark.pedantic(
        lambda: compute_sparql(space, mode="paper", targets=TARGETS), rounds=1, iterations=1
    )
    benchmark.extra_info["pairs"] = len(result.partial)


@pytest.mark.parametrize("n", RULES_SIZES[:2])
def test_partial_rules(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"fig5c partial containment n={n}"
    result = benchmark.pedantic(
        lambda: compute_rules(space, targets=TARGETS), rounds=1, iterations=1
    )
    benchmark.extra_info["pairs"] = len(result.partial)
