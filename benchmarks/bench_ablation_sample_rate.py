"""Ablation: clustering sample rate (the paper fits on a 10% sample).

Sweeps the sample rate and records time plus recall — quantifying the
cost of fitting clusters on more (or less) of the data.
"""

import pytest

from repro.core import compute_baseline
from repro.paper.cluster_method import compute_clustering

RATES = (0.05, 0.1, 0.25, 1.0)
N = 400

_truth = {}


@pytest.mark.parametrize("rate", RATES)
def test_sample_rate(benchmark, subset_cache, rate):
    space = subset_cache("realworld", N)
    if N not in _truth:
        _truth[N] = compute_baseline(space, collect_partial_dimensions=False)
    benchmark.group = f"ablation sample rate n={N}"
    result = benchmark.pedantic(
        lambda: compute_clustering(
            space, algorithm="xmeans", sample_rate=rate, seed=7,
            collect_partial_dimensions=False,
        ),
        rounds=1,
        iterations=1,
    )
    recall = result.recall_against(_truth[N])
    benchmark.extra_info["recall_overall"] = round(recall.overall, 4)
