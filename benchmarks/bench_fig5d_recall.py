"""Figure 5(d): recall of the three clustering algorithms vs input size.

Each benchmark times the clustering run and records the achieved
recall (vs the baseline ground truth) in ``extra_info`` — the series
the paper plots.  Expected shape: x-means dominates canopy and
hierarchical clustering; recall declines with input size.
"""

import pytest

from repro.core import compute_baseline
from repro.paper.cluster_method import compute_clustering

from workload import REALWORLD_SIZES

ALGORITHMS = ("xmeans", "canopy", "hierarchical")

_truth_cache: dict[int, object] = {}


def _ground_truth(space, n):
    if n not in _truth_cache:
        _truth_cache[n] = compute_baseline(space, collect_partial_dimensions=False)
    return _truth_cache[n]


@pytest.mark.parametrize("n", REALWORLD_SIZES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_clustering_recall(benchmark, subset_cache, algorithm, n):
    space = subset_cache("realworld", n)
    truth = _ground_truth(space, n)
    benchmark.group = f"fig5d recall n={n}"
    result = benchmark.pedantic(
        lambda: compute_clustering(
            space,
            algorithm=algorithm,
            sample_rate=0.1,  # the paper's 10% sample
            seed=7,
            collect_partial_dimensions=False,
        ),
        rounds=1,
        iterations=1,
    )
    recall = result.recall_against(truth)
    benchmark.extra_info["recall_full"] = round(recall.full, 4)
    benchmark.extra_info["recall_partial"] = round(recall.partial, 4)
    benchmark.extra_info["recall_complementary"] = round(recall.complementary, 4)
    benchmark.extra_info["recall_overall"] = round(recall.overall, 4)
