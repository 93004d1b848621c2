"""Unit tests for the facade and incremental updates."""

import pytest

from repro.errors import AlgorithmError, ObservationConflictError
from repro.core import Method, compute_baseline, compute_relationships, update_relationships
from repro.core.space import ObservationSpace
from repro.data.example import EXNS, build_example_cubespace, build_example_space
from repro.rdf import EX

from tests.conftest import make_random_space


class TestFacade:
    def test_accepts_cubespace(self):
        cube = build_example_cubespace()
        result = compute_relationships(cube, Method.BASELINE)
        assert result.total() > 0

    def test_accepts_observation_space(self):
        space = build_example_space()
        assert compute_relationships(space, Method.CUBE_MASKING).total() > 0

    def test_method_by_string(self):
        space = build_example_space()
        assert compute_relationships(space, "baseline") == compute_relationships(
            space, Method.BASELINE
        )

    def test_default_method_is_cube_masking(self):
        space = build_example_space()
        assert compute_relationships(space) == compute_relationships(space, Method.CUBE_MASKING)

    def test_options_forwarded(self):
        space = build_example_space()
        result = compute_relationships(space, Method.BASELINE, collect_partial=False)
        assert result.partial == set()

    def test_unknown_method(self):
        space = build_example_space()
        with pytest.raises(AlgorithmError):
            compute_relationships(space, "quantum")

    def test_bad_input_type(self):
        with pytest.raises(AlgorithmError):
            compute_relationships([1, 2, 3])  # type: ignore[arg-type]

    @pytest.mark.parametrize(
        "method", [Method.BASELINE, Method.STREAMING, Method.CLUSTERING, Method.HYBRID]
    )
    @pytest.mark.parametrize(
        "option", [{"workers": 2}, {"parallel": True}, {"kernel": "numpy"}], ids=lambda o: next(iter(o))
    )
    def test_option_the_method_does_not_take_is_typed(self, method, option):
        space = build_example_space()
        with pytest.raises(AlgorithmError, match=f"{method.value}.*{next(iter(option))}"):
            compute_relationships(space, method, **option)

    def test_runner_rejects_option_the_method_does_not_take(self):
        space = build_example_space()
        with pytest.raises(AlgorithmError, match="hybrid.*workers"):
            compute_relationships(space, Method.HYBRID, unit_size=5, workers=2)

    @pytest.mark.parametrize(
        "method", [Method.BASELINE, Method.CUBE_MASKING, Method.SPARQL, Method.RULES]
    )
    def test_lossless_methods_agree(self, method):
        space = build_example_space()
        assert compute_relationships(space, method) == compute_relationships(
            space, Method.BASELINE
        )


class TestIncrementalUpdate:
    def test_matches_full_recompute(self):
        space = make_random_space(40, seed=20)
        result = compute_baseline(space)
        # Move the last 10 observations into an "arriving later" batch.
        base_space = space.select(range(30))
        base_result = compute_baseline(base_space)
        newcomers = [
            (record.uri, record.dataset, dict(zip(space.dimensions, record.codes)), record.measures)
            for record in space.observations[30:]
        ]
        updated = update_relationships(base_space, base_result, newcomers)
        assert updated == result

    def test_space_extended_in_place(self):
        space = make_random_space(10, seed=21)
        result = compute_baseline(space)
        record = space.observations[0]
        update_relationships(
            space,
            result,
            [(EX.newObs, record.dataset, dict(zip(space.dimensions, record.codes)), record.measures)],
        )
        assert len(space) == 11
        # The clone of observation 0 is complementary with it.
        assert result.is_complementary(EX.newObs, record.uri)

    def test_empty_batch_is_noop(self):
        space = make_random_space(15, seed=22)
        result = compute_baseline(space)
        before = (set(result.full), set(result.partial), set(result.complementary))
        update_relationships(space, result, [])
        assert before == (set(result.full), set(result.partial), set(result.complementary))

    def test_incremental_collects_partial_metadata(self):
        space = make_random_space(10, seed=23)
        result = compute_baseline(space)
        record = space.observations[0]
        update_relationships(
            space,
            result,
            [(EX.addition, record.dataset, {}, record.measures)],
        )
        partial_with_new = [p for p in result.partial if EX.addition in p]
        for pair in partial_with_new:
            assert result.degree(*pair) is not None


class TestIncrementalDelta:
    """The ``return_delta=True`` contract used by the service layer."""

    @staticmethod
    def _newcomers(space, records):
        return [
            (r.uri, r.dataset, dict(zip(space.dimensions, r.codes)), r.measures)
            for r in records
        ]

    def test_update_reports_exact_delta(self):
        space = make_random_space(40, seed=30)
        base_space = space.select(range(30))
        base = compute_baseline(base_space)
        before = (set(base.full), set(base.partial), set(base.complementary))
        _, delta = update_relationships(
            base_space,
            base,
            self._newcomers(space, space.observations[30:]),
            return_delta=True,
        )
        assert delta.added_full == base.full - before[0]
        assert delta.added_partial == base.partial - before[1]
        assert delta.added_complementary == base.complementary - before[2]
        assert not delta.removed_full and not delta.removed_partial
        # Added-partial metadata mirrors the result's entries.
        for pair in delta.added_partial:
            assert delta.partial_map[pair] == base.partial_map[pair]
            assert delta.degrees[pair] == base.degrees[pair]

    def test_update_without_flag_keeps_old_return_type(self):
        space = make_random_space(12, seed=31)
        result = compute_baseline(space)
        returned = update_relationships(space, result, [])
        assert returned is result

    def test_pruned_update_matches_full_recompute(self):
        """Signature pruning must be lossless: equivalence against a
        batch recomputation over the extended space (several seeds,
        several batch sizes)."""
        from repro.core import compute_cubemask

        for seed, split in ((40, 25), (41, 10), (42, 49)):
            space = make_random_space(50, dimension_count=4, seed=seed)
            expected = compute_baseline(space, collect_partial_dimensions=True)
            base_space = space.select(range(split))
            base = compute_baseline(base_space, collect_partial_dimensions=True)
            updated = update_relationships(
                base_space, base, self._newcomers(space, space.observations[split:])
            )
            assert updated == expected
            assert updated == compute_cubemask(space, collect_partial_dimensions=True)
            # metadata agrees on every partial pair involving a newcomer
            new_uris = {r.uri for r in space.observations[split:]}
            for pair in updated.partial:
                if set(pair) & new_uris:
                    assert updated.partial_map[pair] == expected.partial_map[pair]
                    assert updated.degrees[pair] == pytest.approx(expected.degrees[pair])

    def test_remove_reports_purged_pairs(self):
        space = make_random_space(30, seed=32)
        result = compute_baseline(space)
        victims = [space.observations[i].uri for i in (0, 7, 13)]
        full_before = set(result.full)
        partial_before = set(result.partial)
        compl_before = set(result.complementary)
        from repro.core import remove_observations

        new_space, result, delta = remove_observations(
            space, result, victims, return_delta=True
        )
        gone = set(victims)
        assert delta.removed_full == {p for p in full_before if set(p) & gone}
        assert delta.removed_partial == {p for p in partial_before if set(p) & gone}
        assert delta.removed_complementary == {p for p in compl_before if set(p) & gone}
        assert not delta.added_full
        assert len(new_space) == 27
        # purged metadata is gone from the mutated result
        for pair in delta.removed_partial:
            assert pair not in result.partial_map
            assert pair not in result.degrees

    def test_delta_touched_and_counts(self):
        space = make_random_space(10, seed=33)
        result = compute_baseline(space)
        record = space.observations[0]
        _, delta = update_relationships(
            space,
            result,
            [(EX.twin, record.dataset, dict(zip(space.dimensions, record.codes)), record.measures)],
            return_delta=True,
        )
        assert delta  # truthy: something was added
        assert EX.twin in delta.touched()
        assert delta.total_added() >= 1 and delta.total_removed() == 0


class TestIncrementalValidation:
    """One URI is one observation, and a batch applies whole or not at all."""

    @staticmethod
    def copy_of(space, record, uri=None, measures=None):
        return (
            uri or record.uri,
            record.dataset,
            dict(zip(space.dimensions, record.codes)),
            measures or record.measures,
        )

    def test_rejected_batch_leaves_space_and_result_unchanged(self):
        space = make_random_space(10, seed=24)
        result = compute_baseline(space)
        good = self.copy_of(space, space[0], uri=EX.good)
        bad = (EX.bad, space[0].dataset, {space.dimensions[0]: EX.nowhere}, space[0].measures)
        with pytest.raises(AlgorithmError):
            update_relationships(space, result, [good, bad])
        assert len(space) == 10
        assert EX.good not in space
        assert result == compute_baseline(space)

    def test_identical_reinsert_adds_nothing(self, example_space):
        result = compute_baseline(example_space)
        o11 = example_space.record_for(EXNS.o11)
        _, delta = update_relationships(
            example_space, result, [self.copy_of(example_space, o11)], return_delta=True
        )
        assert len(example_space) == 10
        assert delta.total_added() == 0
        assert (o11.uri, o11.uri) not in result.full
        assert not result.is_complementary(o11.uri, o11.uri)
        assert result == compute_baseline(example_space)

    def test_conflicting_reinsert_is_typed_and_applies_nothing(self, example_space):
        result = compute_baseline(example_space)
        o11 = example_space.record_for(EXNS.o11)
        fresh = self.copy_of(example_space, o11, uri=EX.fresh)
        changed = self.copy_of(example_space, o11, measures={EX.otherMeasure})
        with pytest.raises(ObservationConflictError):
            update_relationships(example_space, result, [fresh, changed])
        assert len(example_space) == 10
        assert EX.fresh not in example_space
        assert result == compute_baseline(example_space)
