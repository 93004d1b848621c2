"""Extension benchmark: the hybrid method (future work §6, implemented).

Compares hybrid (exact full/complementary via cubeMasking + clustered
partial) against the pure methods on the all-three-relationships
workload, recording recall in ``extra_info``.
"""

import pytest

from repro.core import compute_baseline, compute_cubemask
from repro.paper.cluster_method import compute_clustering
from repro.paper.hybrid import compute_hybrid

SIZES = (200, 400)

_truth = {}


def ground_truth(space, n):
    if n not in _truth:
        _truth[n] = compute_baseline(space, collect_partial_dimensions=False)
    return _truth[n]


@pytest.mark.parametrize("n", SIZES)
def test_hybrid(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    truth = ground_truth(space, n)
    benchmark.group = f"extension hybrid n={n}"
    result = benchmark.pedantic(lambda: compute_hybrid(space, seed=3), rounds=2, iterations=1)
    recall = result.recall_against(truth)
    benchmark.extra_info["recall_full"] = round(recall.full, 4)
    benchmark.extra_info["recall_partial"] = round(recall.partial, 4)


@pytest.mark.parametrize("n", SIZES)
def test_pure_cubemask(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"extension hybrid n={n}"
    result = benchmark.pedantic(lambda: compute_cubemask(space), rounds=2, iterations=1)
    benchmark.extra_info["recall_full"] = 1.0
    benchmark.extra_info["recall_partial"] = 1.0


@pytest.mark.parametrize("n", SIZES)
def test_pure_clustering(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    truth = ground_truth(space, n)
    benchmark.group = f"extension hybrid n={n}"
    result = benchmark.pedantic(
        lambda: compute_clustering(space, seed=3, collect_partial_dimensions=False),
        rounds=2,
        iterations=1,
    )
    recall = result.recall_against(truth)
    benchmark.extra_info["recall_full"] = round(recall.full, 4)
    benchmark.extra_info["recall_partial"] = round(recall.partial, 4)


@pytest.mark.parametrize("n", SIZES)
def test_pure_baseline(benchmark, subset_cache, n):
    space = subset_cache("realworld", n)
    benchmark.group = f"extension hybrid n={n}"
    benchmark.pedantic(
        lambda: compute_baseline(space, collect_partial_dimensions=False),
        rounds=2,
        iterations=1,
    )
