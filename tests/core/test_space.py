"""Unit tests for the observation space and its reference predicates."""

import numpy as np
import pytest

from repro.errors import AlgorithmError, ObservationConflictError
from repro.core.space import ObservationSpace
from repro.data.example import EXNS, build_example_space
from repro.qb.hierarchy import Hierarchy
from repro.rdf import EX


@pytest.fixture
def tiny() -> ObservationSpace:
    geo = Hierarchy(EX.World)
    geo.add(EX.Greece, EX.World)
    geo.add(EX.Athens, EX.Greece)
    space = ObservationSpace((EX.refArea,), {EX.refArea: geo})
    space.add(EX.o1, EX.d, {EX.refArea: EX.Greece}, {EX.m1})
    space.add(EX.o2, EX.d, {EX.refArea: EX.Athens}, {EX.m1})
    space.add(EX.o3, EX.d, {}, {EX.m2})  # padded to root
    return space


class TestConstruction:
    def test_padding_to_root(self, tiny):
        assert tiny[2].codes == (EX.World,)

    def test_unknown_code_rejected(self, tiny):
        with pytest.raises(AlgorithmError):
            tiny.add(EX.oX, EX.d, {EX.refArea: EX.Mars}, {EX.m1})

    def test_unknown_dimension_rejected(self, tiny):
        with pytest.raises(AlgorithmError):
            tiny.add(EX.oX, EX.d, {EX.zzz: EX.Athens}, {EX.m1})

    def test_measureless_observation_rejected(self, tiny):
        with pytest.raises(AlgorithmError):
            tiny.add(EX.oX, EX.d, {}, set())

    def test_duplicate_dimension_bus_rejected(self):
        geo = Hierarchy(EX.World)
        with pytest.raises(AlgorithmError):
            ObservationSpace((EX.refArea, EX.refArea), {EX.refArea: geo})

    def test_missing_hierarchy_rejected(self):
        with pytest.raises(AlgorithmError):
            ObservationSpace((EX.refArea,), {})

    def test_indices_sequential(self, tiny):
        assert [r.index for r in tiny] == [0, 1, 2]

    def test_record_for(self, tiny):
        assert tiny.record_for(EX.o2).index == 1
        with pytest.raises(AlgorithmError):
            tiny.record_for(EX.nothere)

    def test_from_cubespace_preserves_counts(self):
        space = build_example_space()
        assert len(space) == 10
        assert len(space.dimensions) == 3


class TestPredicates:
    def test_dimension_contains_reflexive(self, tiny):
        assert tiny.dimension_contains(0, 0, 0)

    def test_dimension_contains_hierarchy(self, tiny):
        assert tiny.dimension_contains(0, 1, 0)  # Greece contains Athens
        assert not tiny.dimension_contains(1, 0, 0)

    def test_root_contains_everything(self, tiny):
        assert tiny.dimension_contains(2, 0, 0)
        assert tiny.dimension_contains(2, 1, 0)

    def test_full_containment_requires_measure_overlap(self, tiny):
        # o3 (root) dimension-contains o1 but measures are disjoint.
        assert tiny.dim_full(2, 0)
        assert not tiny.is_full_containment(2, 0)
        assert tiny.is_full_containment(0, 1)

    def test_partial_disjoint_from_full(self, tiny):
        assert not (tiny.is_full_containment(0, 1) and tiny.is_partial_containment(0, 1))

    def test_complementarity_is_vector_equality(self, tiny):
        tiny.add(EX.o4, EX.d, {EX.refArea: EX.Athens}, {EX.m2})
        assert tiny.is_complementary(1, 3)
        assert tiny.is_complementary(3, 1)
        assert not tiny.is_complementary(0, 3)

    def test_no_self_relationships(self, tiny):
        assert not tiny.is_full_containment(0, 0)
        assert not tiny.is_partial_containment(0, 0)
        assert not tiny.is_complementary(0, 0)

    def test_containment_degree(self):
        space = build_example_space()
        o21 = space.record_for(EXNS.o21).index
        o31 = space.record_for(EXNS.o31).index
        # Greece⊃Athens yes, 2011 vs 2001 no, sex Total==Total yes -> 2/3.
        assert space.containment_degree(o21, o31) == pytest.approx(2 / 3)

    def test_partial_dimensions(self):
        space = build_example_space()
        o21 = space.record_for(EXNS.o21).index
        o31 = space.record_for(EXNS.o31).index
        assert space.partial_dimensions(o21, o31) == frozenset({EXNS.refArea, EXNS.sex})


class TestViews:
    def test_level_signature(self, tiny):
        assert tiny.level_signature(0) == (1,)
        assert tiny.level_signature(1) == (2,)
        assert tiny.level_signature(2) == (0,)

    def test_subset(self, tiny):
        sub = tiny.subset(2)
        assert len(sub) == 2
        assert sub[1].uri == EX.o2
        assert sub[1].index == 1

    def test_select_reindexes(self, tiny):
        sub = tiny.select([2, 0])
        assert [r.uri for r in sub] == [EX.o3, EX.o1]
        assert [r.index for r in sub] == [0, 1]

    def test_measure_overlap(self, tiny):
        assert tiny.measure_overlap(0, 1)
        assert not tiny.measure_overlap(0, 2)


class TestColumns:
    """The space owns the encoded arrays the kernel plan hands out."""

    def test_kernel_plan_is_the_space_arrays(self, tiny):
        from repro.core.kernels import build_kernel_plan

        plan = build_kernel_plan(tiny)
        assert np.shares_memory(plan.code_ids, tiny.code_ids)
        assert np.shares_memory(plan.levels, tiny.levels)
        assert np.shares_memory(plan.anc_codes, tiny.anc_codes)
        again = build_kernel_plan(tiny)
        for name in ("code_ids", "code_keys", "assignment", "group_overlap", "levels", "anc_codes"):
            assert getattr(again, name) is getattr(plan, name), name
        tiny.add(EX.o4, EX.d, {EX.refArea: EX.Athens}, {EX.m1})
        grown = build_kernel_plan(tiny)
        assert grown.n == 4
        assert grown.code_ids[3].tolist() == grown.code_ids[1].tolist()
        assert grown.code_keys[3] == grown.code_keys[1]

    def test_arrays_are_read_only(self, tiny):
        with pytest.raises(ValueError):
            tiny.code_ids[0, 0] = 7

    def test_levels_and_ancestors(self, tiny):
        assert tiny.levels.tolist() == [[1], [2], [0]]
        athens = tiny.anc_codes[1].tolist()
        assert athens[tiny.levels[0, 0]] == tiny.code_ids[0, 0]  # Greece ≻ Athens
        assert tiny.anc_codes[2].tolist()[1:] == [-1, -1]

    def test_measure_groups(self, tiny):
        assert tiny.groups.tolist() == [0, 0, 1]
        assert tiny.group_overlap.tolist() == [[True, False], [False, True]]

    def test_cubes_group_rows_by_signature(self, tiny):
        tiny.add(EX.o4, EX.d, {EX.refArea: EX.Greece}, {EX.m2})
        signatures, members, offsets, of_row = tiny.cubes()
        assert signatures.tolist() == [[0], [1], [2]]
        assert [members[offsets[c] : offsets[c + 1]].tolist() for c in range(3)] == [[2], [0, 3], [1]]
        assert of_row.tolist() == [1, 2, 0, 1]

    def test_hierarchy_deepened_after_construction(self, tiny):
        geo = tiny.hierarchies[EX.refArea]
        geo.add(EX.Plaka, EX.Athens)
        tiny.add(EX.o4, EX.d, {EX.refArea: EX.Plaka}, {EX.m1})
        assert tiny.level_signature(3) == (3,)
        assert tiny.anc_codes.shape == (4, 4)
        assert tiny.anc_codes[3, 2] == tiny.code_ids[1, 0]  # Athens ≻ Plaka
        assert tiny.dimension_contains(1, 3, 0)

    def test_rejected_batch_appends_nothing(self, tiny):
        with pytest.raises(AlgorithmError):
            tiny.extend(
                [
                    (EX.o4, EX.d, {EX.refArea: EX.Athens}, {EX.m1}),
                    (EX.o5, EX.d, {EX.refArea: EX.Mars}, {EX.m1}),
                ]
            )
        assert len(tiny) == 3
        assert EX.o4 not in tiny

    def test_identical_reinsert_is_a_no_op(self, tiny):
        assert tiny.extend([(EX.o1, EX.d, {EX.refArea: EX.Greece}, {EX.m1})]) == 0
        assert tiny.add(EX.o3, EX.d, {EX.refArea: EX.World}, {EX.m2}).index == 2
        assert len(tiny) == 3

    def test_conflicting_reinsert_raises(self, tiny):
        with pytest.raises(ObservationConflictError):
            tiny.add(EX.o1, EX.d, {EX.refArea: EX.Athens}, {EX.m1})
        with pytest.raises(ObservationConflictError):
            tiny.extend(
                [
                    (EX.o4, EX.d, {}, {EX.m1}),
                    (EX.o4, EX.d, {}, {EX.m2}),
                ]
            )
        assert len(tiny) == 3

    def test_repeated_uri_in_batch_added_once(self, tiny):
        row = (EX.o4, EX.d, {}, {EX.m1})
        assert tiny.extend([row, row]) == 1
        assert [r.uri for r in tiny] == [EX.o1, EX.o2, EX.o3, EX.o4]

    def test_select_repeated_index_kept_once(self, tiny):
        sub = tiny.select([2, 0, 2, 0])
        assert [r.uri for r in sub] == [EX.o3, EX.o1]
        assert sub.record_for(EX.o1).index == 1

    def test_truncate(self, tiny):
        tiny.truncate(1)
        assert len(tiny) == 1
        assert EX.o2 not in tiny
        with pytest.raises(AlgorithmError):
            tiny.record_for(EX.o3)
        tiny.add(EX.o2, EX.d, {EX.refArea: EX.Greece}, {EX.m2})
        assert tiny[1].codes == (EX.Greece,)
        assert tiny.level_signature(1) == (1,)

    def test_records_are_views(self, tiny):
        assert tiny.observations[-1] == tiny[2]
        assert [r.uri for r in tiny.observations[1:]] == [EX.o2, EX.o3]
        assert len(tiny.observations) == 3
        with pytest.raises(IndexError):
            tiny[3]
