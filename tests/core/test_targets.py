"""Unit tests for the per-relationship ``targets`` option (Fig. 5a-c)."""

import pytest

from repro.core import compute_baseline, compute_cubemask
from repro.paper.cluster_method import compute_clustering
from repro.paper.rules_method import compute_rules
from repro.paper.sparql_method import compute_sparql
from repro.core.baseline import normalize_targets
from repro.data.example import build_example_space


@pytest.fixture(scope="module")
def example():
    return build_example_space()


@pytest.fixture(scope="module")
def truth(example):
    return compute_baseline(example)


class TestNormalize:
    def test_default_is_all(self):
        assert normalize_targets(None) == {"full", "partial", "complementary"}

    def test_collect_partial_false_drops_partial(self):
        assert normalize_targets(None, collect_partial=False) == {"full", "complementary"}

    def test_explicit_subset(self):
        assert normalize_targets(("full",)) == {"full"}

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            normalize_targets(("fuull",))

    def test_accepts_any_iterable(self):
        assert normalize_targets({"partial"}) == {"partial"}
        assert normalize_targets(["complementary"]) == {"complementary"}


LOSSLESS_METHODS = [compute_baseline, compute_cubemask, compute_sparql, compute_rules]


class TestPerMethodTargets:
    @pytest.mark.parametrize("fn", LOSSLESS_METHODS)
    def test_complementary_only(self, fn, example, truth):
        result = fn(example, targets=("complementary",))
        assert result.complementary == truth.complementary
        assert result.full == set()
        assert result.partial == set()

    @pytest.mark.parametrize("fn", LOSSLESS_METHODS)
    def test_full_only(self, fn, example, truth):
        result = fn(example, targets=("full",))
        assert result.full == truth.full
        assert result.complementary == set()
        assert result.partial == set()

    @pytest.mark.parametrize("fn", LOSSLESS_METHODS)
    def test_partial_only(self, fn, example, truth):
        result = fn(example, targets=("partial",))
        assert result.partial == truth.partial
        assert result.full == set()
        assert result.complementary == set()

    @pytest.mark.parametrize("fn", LOSSLESS_METHODS)
    def test_all_targets_equals_default(self, fn, example, truth):
        assert fn(example, targets=("full", "partial", "complementary")) == truth

    def test_clustering_respects_targets(self, example, truth):
        result = compute_clustering(
            example, targets=("full",), n_clusters=1, sample_rate=1.0, seed=0
        )
        assert result.full == truth.full
        assert result.partial == set() and result.complementary == set()

    def test_targets_combined_with_collect_partial(self, example):
        result = compute_baseline(
            example, targets=("full", "partial"), collect_partial=False
        )
        assert result.partial == set()
        assert result.full
