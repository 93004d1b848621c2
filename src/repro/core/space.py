"""The observation space: the algorithms' uniform view of the input.

:class:`ObservationSpace` flattens a :class:`~repro.qb.model.CubeSpace`
onto the reconciled *dimension bus*: every observation is padded so it
carries a value for every dimension in the union ``P``, with missing
dimensions mapped to the root (ALL) code of their hierarchy — exactly
the convention the paper's occurrence-matrix construction uses.

It also hosts the reference pair predicates (:meth:`dimension_contains`
etc.) that define the library's relationship semantics:

* ``≻`` (:meth:`Hierarchy.is_ancestor`) is **reflexive** (Definition 2),
* ``Cont_full(a, b)``  ⟺ shared measure ∧ ∀p: h_a ≻ h_b,
* ``Cont_partial(a, b)`` ⟺ shared measure ∧ ∃p: h_a ≻ h_b ∧ ¬∀p —
  i.e. the ``0 < OCM < 1`` band of Algorithm 2 (full and partial are
  disjoint),
* ``Compl(a, b)`` ⟺ identical padded dimension vectors (mutual
  dimension-level containment; Definition 3 under root padding).

Every algorithm in :mod:`repro.core` must agree with these predicates;
the equivalence test-suite enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.errors import AlgorithmError
from repro.qb.hierarchy import Hierarchy
from repro.qb.model import CubeSpace, Dataset, DatasetSchema, Observation
from repro.rdf.terms import URIRef

__all__ = ["ObsRecord", "ObservationSpace"]


@dataclass(frozen=True)
class ObsRecord:
    """One observation, padded onto the dimension bus.

    ``codes[i]`` is the value for ``space.dimensions[i]`` (root when the
    original observation did not bind that dimension).
    """

    index: int
    uri: URIRef
    dataset: URIRef
    codes: tuple[URIRef, ...]
    measures: frozenset[URIRef]


class ObservationSpace:
    """Union dimension bus + padded observations + hierarchies."""

    def __init__(
        self,
        dimensions: Sequence[URIRef],
        hierarchies: Mapping[URIRef, Hierarchy],
        records: Iterable[tuple[URIRef, URIRef, Mapping[URIRef, URIRef], Iterable[URIRef]]] = (),
    ):
        self.dimensions: tuple[URIRef, ...] = tuple(dimensions)
        if len(set(self.dimensions)) != len(self.dimensions):
            raise AlgorithmError("duplicate dimensions in the bus")
        missing = [d for d in self.dimensions if d not in hierarchies]
        if missing:
            raise AlgorithmError(f"dimensions without hierarchies: {missing}")
        self.hierarchies: dict[URIRef, Hierarchy] = {d: hierarchies[d] for d in self.dimensions}
        self._roots: tuple[URIRef, ...] = tuple(self.hierarchies[d].root for d in self.dimensions)
        self.observations: list[ObsRecord] = []
        for uri, dataset, dims, measures in records:
            self.add(uri, dataset, dims, measures)

    # ------------------------------------------------------------------
    def add(
        self,
        uri: URIRef,
        dataset: URIRef,
        dims: Mapping[URIRef, URIRef],
        measures: Iterable[URIRef],
    ) -> ObsRecord:
        """Append an observation; missing dimensions pad to the root."""
        codes = []
        for position, dimension in enumerate(self.dimensions):
            code = dims.get(dimension)
            if code is None:
                code = self._roots[position]
            elif code not in self.hierarchies[dimension]:
                raise AlgorithmError(
                    f"observation {uri}: code {code} missing from the hierarchy of {dimension}"
                )
            codes.append(code)
        unknown = set(dims) - set(self.dimensions)
        if unknown:
            raise AlgorithmError(f"observation {uri} binds unknown dimensions: {sorted(unknown)}")
        record = ObsRecord(
            index=len(self.observations),
            uri=uri,
            dataset=dataset,
            codes=tuple(codes),
            measures=frozenset(measures),
        )
        if not record.measures:
            raise AlgorithmError(f"observation {uri} has no measures")
        self.observations.append(record)
        return record

    @classmethod
    def from_cubespace(cls, cube: CubeSpace) -> "ObservationSpace":
        """Flatten a cube space; dimension order is the cube's bus order."""
        space = cls(cube.dimensions, cube.hierarchies)
        for observation in cube.observations():
            space.add(
                observation.uri,
                observation.dataset,
                observation.dimensions,
                observation.measure_set,
            )
        return space

    def to_cubespace(self) -> CubeSpace:
        """The inverse of :meth:`from_cubespace`, one dataset per URI.

        Each schema spans the whole dimension bus (root padding becomes
        an explicit root code) and the measures its observations carry.
        Measure values are placeholders: the algorithms only read
        *which* measures an observation reports.
        """
        by_dataset: dict[URIRef, list[ObsRecord]] = {}
        for record in self.observations:
            by_dataset.setdefault(record.dataset, []).append(record)
        cube = CubeSpace(self.hierarchies)
        for uri, records in by_dataset.items():
            measures = sorted(frozenset().union(*(r.measures for r in records)), key=str)
            dataset = Dataset(uri, DatasetSchema(self.dimensions, tuple(measures)))
            for record in records:
                dimensions = dict(zip(self.dimensions, record.codes))
                measure_values = dict.fromkeys(record.measures, 1)
                dataset.add(Observation(record.uri, uri, dimensions, measure_values))
            cube.add_dataset(dataset)
        return cube

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.observations)

    def __iter__(self) -> Iterator[ObsRecord]:
        return iter(self.observations)

    def __getitem__(self, index: int) -> ObsRecord:
        return self.observations[index]

    def record_for(self, uri: URIRef) -> ObsRecord:
        for record in self.observations:
            if record.uri == uri:
                return record
        raise AlgorithmError(f"no observation with uri {uri}")

    def subset(self, limit: int) -> "ObservationSpace":
        """First ``limit`` observations (re-indexed), same bus."""
        out = ObservationSpace(self.dimensions, self.hierarchies)
        for record in self.observations[:limit]:
            out.add(record.uri, record.dataset, dict(zip(self.dimensions, record.codes)), record.measures)
        return out

    def select(self, indices: Iterable[int]) -> "ObservationSpace":
        """Observations at ``indices`` (re-indexed), same bus.

        Used by the clustering method to run the baseline inside each
        cluster.
        """
        out = ObservationSpace(self.dimensions, self.hierarchies)
        for index in indices:
            record = self.observations[index]
            out.add(record.uri, record.dataset, dict(zip(self.dimensions, record.codes)), record.measures)
        return out

    # ------------------------------------------------------------------
    # Reference pair predicates (the semantic ground truth)
    # ------------------------------------------------------------------
    def measure_overlap(self, a: int, b: int) -> bool:
        return not self.observations[a].measures.isdisjoint(self.observations[b].measures)

    def dimension_contains(self, a: int, b: int, position: int) -> bool:
        """Reflexive ``h_a ≻ h_b`` on the dimension at ``position``."""
        hierarchy = self.hierarchies[self.dimensions[position]]
        return hierarchy.is_ancestor(
            self.observations[a].codes[position], self.observations[b].codes[position]
        )

    def dim_full(self, a: int, b: int) -> bool:
        """``a`` contains ``b`` on every dimension of the bus."""
        return all(self.dimension_contains(a, b, p) for p in range(len(self.dimensions)))

    def dim_any(self, a: int, b: int) -> bool:
        """``a`` contains ``b`` on at least one dimension."""
        return any(self.dimension_contains(a, b, p) for p in range(len(self.dimensions)))

    def containment_degree(self, a: int, b: int) -> float:
        """The OCM value: fraction of dimensions where ``a`` contains ``b``."""
        if not self.dimensions:
            return 1.0
        hits = sum(1 for p in range(len(self.dimensions)) if self.dimension_contains(a, b, p))
        return hits / len(self.dimensions)

    def is_full_containment(self, a: int, b: int) -> bool:
        return a != b and self.measure_overlap(a, b) and self.dim_full(a, b)

    def is_partial_containment(self, a: int, b: int) -> bool:
        return (
            a != b
            and self.measure_overlap(a, b)
            and self.dim_any(a, b)
            and not self.dim_full(a, b)
        )

    def is_complementary(self, a: int, b: int) -> bool:
        return (
            a != b
            and self.observations[a].codes == self.observations[b].codes
        )

    def partial_dimensions(self, a: int, b: int) -> frozenset[URIRef]:
        """Dimensions on which ``a`` contains ``b`` (the ``map_P`` entry)."""
        return frozenset(
            self.dimensions[p]
            for p in range(len(self.dimensions))
            if self.dimension_contains(a, b, p)
        )

    # ------------------------------------------------------------------
    def level_signature(self, index: int) -> tuple[int, ...]:
        """Per-dimension hierarchy levels: the observation's cube id.

        This is the lattice-node key of Algorithm 4 (Figure 4's node
        labels, e.g. ``"210"``).
        """
        record = self.observations[index]
        return tuple(
            self.hierarchies[dimension].level(code)
            for dimension, code in zip(self.dimensions, record.codes)
        )

    def __repr__(self) -> str:
        return (
            f"ObservationSpace(observations={len(self.observations)}, "
            f"dimensions={len(self.dimensions)})"
        )
