"""Figure 5(a): execution time for complementarity, five methods.

Paper shape: cubeMasking fastest, clustering next, baseline quadratic,
SPARQL and rules orders of magnitude slower and dying early (the
comparators only get the small sizes here, as in the paper where they
time out / run out of memory beyond ~20k observations).
"""

import pytest

from repro.core import compute_baseline, compute_cubemask
from repro.paper.cluster_method import compute_clustering
from repro.paper.rules_method import compute_rules
from repro.paper.sparql_method import compute_sparql

from workload import COMPARATOR_SIZES, REALWORLD_SIZES, RULES_SIZES

TARGETS = ("complementary",)


@pytest.mark.parametrize("n", REALWORLD_SIZES)
def test_complementarity_baseline(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"fig5a complementarity n={n}"
    result = benchmark.pedantic(
        lambda: compute_baseline(space, targets=TARGETS), rounds=3, iterations=1
    )
    benchmark.extra_info["pairs"] = len(result.complementary)


@pytest.mark.parametrize("n", REALWORLD_SIZES)
def test_complementarity_clustering(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"fig5a complementarity n={n}"
    result = benchmark.pedantic(
        lambda: compute_clustering(space, targets=TARGETS, seed=0), rounds=3, iterations=1
    )
    benchmark.extra_info["pairs"] = len(result.complementary)


@pytest.mark.parametrize("n", REALWORLD_SIZES)
def test_complementarity_cubemask(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"fig5a complementarity n={n}"
    result = benchmark.pedantic(
        lambda: compute_cubemask(space, targets=TARGETS), rounds=3, iterations=1
    )
    benchmark.extra_info["pairs"] = len(result.complementary)


@pytest.mark.parametrize("n", COMPARATOR_SIZES)
def test_complementarity_sparql(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"fig5a complementarity n={n}"
    result = benchmark.pedantic(
        lambda: compute_sparql(space, targets=TARGETS), rounds=1, iterations=1
    )
    benchmark.extra_info["pairs"] = len(result.complementary)


@pytest.mark.parametrize("n", RULES_SIZES)
def test_complementarity_rules(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"fig5a complementarity n={n}"
    result = benchmark.pedantic(
        lambda: compute_rules(space, targets=TARGETS), rounds=1, iterations=1
    )
    benchmark.extra_info["pairs"] = len(result.complementary)
