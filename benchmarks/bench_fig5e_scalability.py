"""Figure 5(e): log-log execution time vs input size (synthetic data).

The paper's synthetic corpus reaches 2.5M observations; this sweep uses
the same generator recipe at laptop scale.  Expected shape on the
log-log plot: the baseline's slope ≈ 2 (quadratic), clustering ≈ 1.5,
cubeMasking clearly below the baseline.
"""

import pytest

from repro.core import compute_baseline, compute_cubemask
from repro.paper.cluster_method import compute_clustering

from workload import SYNTHETIC_SIZES

TARGETS = ("full", "complementary")


@pytest.mark.parametrize("n", SYNTHETIC_SIZES)
def test_scalability_baseline(benchmark, subset_cache, n):
    space = subset_cache("synthetic", n)
    benchmark.group = f"fig5e scalability n={n}"
    benchmark.pedantic(lambda: compute_baseline(space, targets=TARGETS), rounds=2, iterations=1)


@pytest.mark.parametrize("n", SYNTHETIC_SIZES)
def test_scalability_clustering(benchmark, subset_cache, n):
    space = subset_cache("synthetic", n)
    benchmark.group = f"fig5e scalability n={n}"
    benchmark.pedantic(
        lambda: compute_clustering(space, targets=TARGETS, seed=0), rounds=2, iterations=1
    )


@pytest.mark.parametrize("n", SYNTHETIC_SIZES)
def test_scalability_cubemask(benchmark, subset_cache, n):
    space = subset_cache("synthetic", n)
    benchmark.group = f"fig5e scalability n={n}"
    benchmark.pedantic(lambda: compute_cubemask(space, targets=TARGETS), rounds=2, iterations=1)
