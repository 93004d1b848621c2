"""Figure 5(b): execution time for full containment, five methods.

Same protocol as Figure 5(a) with ``targets=("full",)``.  Expected
shape: cubeMasking ~1 order of magnitude faster than the baseline;
SPARQL/rules uncompetitive.
"""

import pytest

from repro.core import compute_baseline, compute_cubemask
from repro.paper.cluster_method import compute_clustering
from repro.paper.rules_method import compute_rules
from repro.paper.sparql_method import compute_sparql

from workload import COMPARATOR_SIZES, REALWORLD_SIZES, RULES_SIZES

TARGETS = ("full",)


@pytest.mark.parametrize("n", REALWORLD_SIZES)
def test_full_containment_baseline(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"fig5b full containment n={n}"
    result = benchmark.pedantic(
        lambda: compute_baseline(space, targets=TARGETS), rounds=3, iterations=1
    )
    benchmark.extra_info["pairs"] = len(result.full)


@pytest.mark.parametrize("n", REALWORLD_SIZES)
def test_full_containment_clustering(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"fig5b full containment n={n}"
    result = benchmark.pedantic(
        lambda: compute_clustering(space, targets=TARGETS, seed=0), rounds=3, iterations=1
    )
    benchmark.extra_info["pairs"] = len(result.full)


@pytest.mark.parametrize("n", REALWORLD_SIZES)
def test_full_containment_cubemask(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"fig5b full containment n={n}"
    result = benchmark.pedantic(
        lambda: compute_cubemask(space, targets=TARGETS), rounds=3, iterations=1
    )
    benchmark.extra_info["pairs"] = len(result.full)


@pytest.mark.parametrize("n", COMPARATOR_SIZES)
def test_full_containment_sparql(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"fig5b full containment n={n}"
    result = benchmark.pedantic(
        lambda: compute_sparql(space, targets=TARGETS), rounds=1, iterations=1
    )
    benchmark.extra_info["pairs"] = len(result.full)


@pytest.mark.parametrize("n", RULES_SIZES)
def test_full_containment_rules(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"fig5b full containment n={n}"
    result = benchmark.pedantic(
        lambda: compute_rules(space, targets=TARGETS), rounds=1, iterations=1
    )
    benchmark.extra_info["pairs"] = len(result.full)
