"""Unit tests for the cube lattice (Section 3.3, Figure 4)."""

import numpy as np
import pytest

from repro.core.cubemask import _enumerate_pairs
from repro.core.lattice import CubeLattice, dominates
from repro.core.space import ObservationSpace
from repro.data.example import EXNS, build_example_space
from repro.qb.hierarchy import Hierarchy
from repro.rdf import EX


@pytest.fixture
def example() -> ObservationSpace:
    return build_example_space()


class TestSignatures:
    def test_example_signatures(self, example):
        lattice = CubeLattice(example)
        o11 = example.record_for(EXNS.o11).index
        # o11: Athens (level 3), 2001 (level 1), Total (level 0) -> (3,1,0)
        assert lattice.signatures[o11] == (3, 1, 0)
        o32 = example.record_for(EXNS.o32).index
        # o32: Athens (3), Jan2011 (2), padded sex root (0).
        assert lattice.signatures[o32] == (3, 2, 0)

    def test_observations_grouped_by_cube(self, example):
        lattice = CubeLattice(example)
        assert sum(len(members) for members in lattice.nodes.values()) == len(example)
        o11 = example.record_for(EXNS.o11).index
        o31 = example.record_for(EXNS.o31).index
        assert lattice.signatures[o11] == lattice.signatures[o31]
        assert o31 in lattice.members(lattice.signatures[o11])

    def test_cube_count_bounded(self, example):
        lattice = CubeLattice(example)
        assert 1 <= len(lattice) <= len(example)

    def test_cube_ratio(self, example):
        lattice = CubeLattice(example)
        assert lattice.cube_ratio == len(lattice) / len(example)

    def test_empty_space(self):
        geo = Hierarchy(EX.World)
        space = ObservationSpace((EX.refArea,), {EX.refArea: geo})
        lattice = CubeLattice(space)
        assert len(lattice) == 0
        assert lattice.cube_ratio == 0.0


def enumerated_pairs(cubes, want_partial: bool) -> set[tuple[int, int]]:
    """The planner's admissible cube pairs, as index pairs into ``cubes``."""
    signatures = np.asarray(cubes, dtype=np.int16).reshape(len(cubes), -1)
    return {tuple(pair) for pair in _enumerate_pairs(signatures, want_partial).tolist()}


class TestDominance:
    def test_dominates_pointwise(self):
        assert dominates((1, 0), (2, 1))
        assert dominates((1, 1), (1, 1))
        assert not dominates((2, 0), (1, 1))

    def test_partial_dominance(self):
        # Only the second dimension admits (2,0) -> (1,1); nothing admits (2,2) -> (1,1).
        assert (0, 1) in enumerated_pairs([(2, 0), (1, 1)], want_partial=True)
        assert (0, 1) not in enumerated_pairs([(2, 2), (1, 1)], want_partial=True)

    def test_containment_pairs_include_self(self, example):
        cubes = sorted(CubeLattice(example))
        pairs = enumerated_pairs(cubes, want_partial=False)
        for index in range(len(cubes)):
            assert (index, index) in pairs

    def test_containment_pairs_sound(self, example):
        cubes = sorted(CubeLattice(example))
        for a, b in enumerated_pairs(cubes, want_partial=False):
            assert dominates(cubes[a], cubes[b])

    def test_containment_pairs_complete(self, example):
        cubes = sorted(CubeLattice(example))
        pairs = enumerated_pairs(cubes, want_partial=False)
        for a, cube_a in enumerate(cubes):
            for b, cube_b in enumerate(cubes):
                assert ((a, b) in pairs) == dominates(cube_a, cube_b)

    def test_partial_pairs_superset_of_containment_pairs(self, example):
        cubes = sorted(CubeLattice(example))
        containment = enumerated_pairs(cubes, want_partial=False)
        partial = enumerated_pairs(cubes, want_partial=True)
        assert containment <= partial

    def test_dominance_necessary_for_instance_containment(self, example):
        """Signature dominance must never prune a real containment pair
        (this is what makes cubeMasking lossless)."""
        lattice = CubeLattice(example)
        for a in range(len(example)):
            for b in range(len(example)):
                if a != b and example.dim_full(a, b):
                    assert dominates(lattice.signatures[a], lattice.signatures[b])
