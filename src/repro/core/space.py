"""The observation space: the algorithms' uniform view of the input.

:class:`ObservationSpace` flattens a :class:`~repro.qb.model.CubeSpace`
onto the reconciled *dimension bus*: every observation is padded so it
carries a value for every dimension in the union ``P``, with missing
dimensions mapped to the root (ALL) code of their hierarchy — exactly
the convention the paper's occurrence-matrix construction uses.

The space is **columnar**.  An observation's padded codes (§3.1) and
its cube — its tuple of hierarchy levels (§3.3, Algorithm 4 steps
i–ii) — are fixed when it arrives, so :meth:`~ObservationSpace.extend`
encodes them once, per row, into ``int32`` arrays: ``code_ids`` (one
id per dimension, each distinct code resolved once through its
dimension's code table), ``levels`` (the level signature),
``anc_codes`` (the ancestor id at every level of each dimension, ``-1``
below the row's own level; dimension ``p`` starts at column
``level_offsets[p]``), ``groups`` (the row's measure-set id;
``group_overlap`` says which sets share a measure) and ``code_keys``
(the id of the whole code vector).  Beside them sit the ``uris`` and
``datasets`` lists and a ``uri → row`` dict.  Appends cost amortised
O(|P|) per row (the arrays grow by doubling); a batch is validated
whole before any row lands; a URI names one row, so re-adding it is a
no-op when nothing differs and an
:class:`~repro.errors.ObservationConflictError` otherwise.
:class:`ObsRecord` is an on-demand view of one row.  The kernel plan,
the cube grouping (:meth:`~ObservationSpace.cubes`) and every
partitioning by level signature read these arrays.

The space also hosts the reference pair predicates
(:meth:`dimension_contains` etc.) that define the library's
relationship semantics.  They stay URI-level — they read code URIs and
ask :meth:`Hierarchy.is_ancestor`, never the level or ancestor arrays —
because they are the oracle every compute path is held to:

* ``≻`` (:meth:`Hierarchy.is_ancestor`) is **reflexive** (Definition 2),
* ``Cont_full(a, b)``  ⟺ shared measure ∧ ∀p: h_a ≻ h_b,
* ``Cont_partial(a, b)`` ⟺ shared measure ∧ ∃p: h_a ≻ h_b ∧ ¬∀p —
  i.e. the ``0 < OCM < 1`` band of Algorithm 2 (full and partial are
  disjoint),
* ``Compl(a, b)`` ⟺ identical padded dimension vectors (mutual
  dimension-level containment; Definition 3 under root padding).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import AlgorithmError, ObservationConflictError
from repro.qb.hierarchy import Hierarchy
from repro.qb.model import CubeSpace, Dataset, DatasetSchema, Observation
from repro.rdf.terms import URIRef

__all__ = ["ObsRecord", "ObservationSpace"]

NewObservation = tuple[URIRef, URIRef, Mapping[URIRef, URIRef], Iterable[URIRef]]


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


class _CodeTable:
    """One dimension's resolved codes: ``chains[id]`` lists the code's
    ancestor ids root first, so its level is ``len(chain) - 1``."""

    def __init__(self, hierarchy: Hierarchy):
        self.hierarchy = hierarchy
        self.ids: dict[URIRef, int] = {}
        self.codes: list[URIRef] = []
        self.chains: list[tuple[int, ...]] = []
        self._arrays: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def resolve(self, code: URIRef) -> int:
        """The id of ``code``, resolving it and its ancestors on first sight."""
        pending = []
        node = code
        while node is not None and node not in self.ids:
            pending.append(node)
            node = self.hierarchy.parent(node)
        chain = self.chains[self.ids[node]] if node is not None else ()
        for node in reversed(pending):
            self.ids[node] = len(self.codes)
            self.codes.append(node)
            chain = chain + (self.ids[node],)
            self.chains.append(chain)
        return self.ids[code]

    def arrays(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """``(levels, ancestors)`` gather tables by code id, rebuilt once
        new codes have been resolved."""
        cached = self._arrays.get(width)
        if cached is None or len(cached[0]) < len(self.chains):
            ancestors = np.full((len(self.chains), width), -1, dtype=np.int32)
            for row, chain in enumerate(self.chains):
                ancestors[row, : len(chain)] = chain
            cached = self._arrays[width] = ((ancestors >= 0).sum(axis=1, dtype=np.int32) - 1, ancestors)
        return cached


class ObservationSpace:
    """Union dimension bus + padded observations + hierarchies."""

    def __init__(
        self,
        dimensions: Sequence[URIRef],
        hierarchies: Mapping[URIRef, Hierarchy],
        records: Iterable[NewObservation] = (),
    ):
        self.dimensions: tuple[URIRef, ...] = tuple(dimensions)
        if len(set(self.dimensions)) != len(self.dimensions):
            raise AlgorithmError("duplicate dimensions in the bus")
        missing = [d for d in self.dimensions if d not in hierarchies]
        if missing:
            raise AlgorithmError(f"dimensions without hierarchies: {missing}")
        self.hierarchies: dict[URIRef, Hierarchy] = {d: hierarchies[d] for d in self.dimensions}
        self._tables = tuple(_CodeTable(self.hierarchies[d]) for d in self.dimensions)
        self._roots = tuple(table.resolve(table.hierarchy.root) for table in self._tables)
        self._measure_sets: list[frozenset[URIRef]] = []
        self._group_of: dict[frozenset[URIRef], int] = {}
        self._key_of: dict[tuple[int, ...], int] = {}
        self._overlap = np.zeros((0, 0), dtype=bool)
        self._set_rows([], [], np.zeros((0, len(self.dimensions) + 2), dtype=np.int32))
        self.extend(records)

    # ------------------------------------------------------------------
    # The row arrays.  One int32 buffer holds, per row, the code ids,
    # the measure group, the code key, the levels and the ancestor ids;
    # the public arrays are read-only views of its filled rows.
    # ------------------------------------------------------------------
    def _set_rows(self, uris: list, datasets: list, encoded: np.ndarray) -> None:
        """Install rows already encoded as code ids + group + code key."""
        #: Observation and dataset URIs by row (read-only by convention).
        self.uris: list[URIRef] = uris
        self.datasets: list[URIRef] = datasets
        self._row: dict[URIRef, int] = {uri: row for row, uri in enumerate(uris)}
        self._widths = tuple(h.max_level + 1 for h in self.hierarchies.values())
        self._buffer = self._encode_rows(encoded)
        self._publish()

    def _encode_rows(self, encoded: np.ndarray) -> np.ndarray:
        """Buffer rows: ``encoded`` followed by its levels and ancestors."""
        k = len(self.dimensions)
        levels = np.empty((len(encoded), k), dtype=np.int32)
        ancestors = []
        for position, (table, width) in enumerate(zip(self._tables, self._widths)):
            table_levels, table_ancestors = table.arrays(width)
            levels[:, position] = table_levels[encoded[:, position]]
            ancestors.append(table_ancestors[encoded[:, position]])
        return np.hstack([encoded, levels, *ancestors]).astype(np.int32, copy=False)

    def _write(self, start: int, encoded: np.ndarray) -> None:
        """Store encoded rows from row ``start`` on, growing by doubling."""
        widths = tuple(h.max_level + 1 for h in self.hierarchies.values())
        if widths != self._widths:
            # A hierarchy grew deeper: re-lay the ancestor columns out.
            self._widths = widths
            self._buffer = self._encode_rows(self._buffer[:, : len(self.dimensions) + 2])
        stop = start + len(encoded)
        if stop > len(self._buffer):
            grown = np.zeros((max(stop, 2 * len(self._buffer)), self._buffer.shape[1]), np.int32)
            grown[:start] = self._buffer[:start]
            self._buffer = grown
        self._buffer[start:stop] = self._encode_rows(encoded)

    def _publish(self) -> None:
        """Point the public arrays at the filled rows."""
        k, rows = len(self.dimensions), self._buffer[: len(self.uris)]
        self.code_ids = rows[:, :k]
        self.groups = rows[:, k]
        self.code_keys = rows[:, k + 1]
        self.levels = rows[:, k + 2 : 2 * k + 2]
        self.anc_codes = rows[:, 2 * k + 2 :]
        for view in (self.code_ids, self.groups, self.code_keys, self.levels, self.anc_codes):
            view.flags.writeable = False
        self.level_offsets = tuple(int(o) for o in np.cumsum((0,) + self._widths[:-1]))
        self._cubes = None

    # ------------------------------------------------------------------
    # Appending and dropping rows
    # ------------------------------------------------------------------
    def _encode(self, uri, dataset, dims: Mapping, measures) -> tuple:
        """``(dataset, code ids, measure set)`` of one new observation."""
        ids = []
        for position, dimension in enumerate(self.dimensions):
            code = dims.get(dimension)
            table = self._tables[position]
            if code is not None and code not in table.hierarchy:
                raise AlgorithmError(
                    f"observation {uri}: code {code} missing from the hierarchy of {dimension}"
                )
            ids.append(self._roots[position] if code is None else table.resolve(code))
        unknown = [d for d in dims if d not in self.hierarchies]
        if unknown:
            raise AlgorithmError(f"observation {uri} binds unknown dimensions: {sorted(unknown)}")
        measures = frozenset(measures)
        if not measures:
            raise AlgorithmError(f"observation {uri} has no measures")
        return dataset, tuple(ids), measures

    def extend(self, observations: Iterable[NewObservation]) -> int:
        """Append ``(uri, dataset, dims, measures)`` rows; missing
        dimensions pad to the root.

        The whole batch is validated and encoded before any row is
        appended, so a batch with one bad row leaves the space as it
        was.  A URI the space or the batch already holds is skipped when
        its dataset, padded codes and measures are identical, and raises
        :class:`~repro.errors.ObservationConflictError` otherwise.
        Returns the number of rows appended.
        """
        batch: dict[URIRef, tuple] = {}
        for uri, dataset, dims, measures in observations:
            encoded = self._encode(uri, dataset, dims, measures)
            seen = batch.get(uri)
            if seen is None and uri in self._row:
                row = self._row[uri]
                seen = (self.datasets[row], tuple(self.code_ids[row].tolist()), self.measures(row))
            if seen is None:
                batch[uri] = encoded
            elif seen != encoded:
                raise ObservationConflictError(
                    f"observation {uri} is already present with a different "
                    "dataset, dimension values or measures"
                )
        if not batch:
            return 0
        rows = []
        for _, ids, measures in batch.values():
            group = self._group_of.setdefault(measures, len(self._measure_sets))
            if group == len(self._measure_sets):
                self._measure_sets.append(measures)
            rows.append(ids + (group, self._key_of.setdefault(ids, len(self._key_of))))
        self._write(len(self.uris), np.array(rows, np.int32).reshape(len(rows), -1))
        for uri, (dataset, _, _) in batch.items():
            self._row[uri] = len(self.uris)
            self.uris.append(uri)
            self.datasets.append(dataset)
        self._publish()
        return len(rows)

    def add(
        self,
        uri: URIRef,
        dataset: URIRef,
        dims: Mapping[URIRef, URIRef],
        measures: Iterable[URIRef],
    ) -> ObsRecord:
        """Append one observation (see :meth:`extend`); returns its record."""
        self.extend([(uri, dataset, dims, measures)])
        return self.record_for(uri)

    def truncate(self, rows: int) -> None:
        """Drop every row from index ``rows`` on (undoes an append)."""
        for uri in self.uris[rows:]:
            del self._row[uri]
        del self.uris[rows:]
        del self.datasets[rows:]
        self._publish()

    def select(self, indices: Iterable[int]) -> "ObservationSpace":
        """Observations at ``indices`` (re-indexed), same bus.

        A row gather over the arrays: nothing is re-validated or
        re-resolved.  A repeated index is an identical re-insert, kept
        once.  Used by retraction and by the clustering method to run
        the baseline inside each cluster.
        """
        rows = np.fromiter(indices, dtype=np.int64)
        rows = np.where(rows < 0, rows + len(self), rows)
        if rows.size and (rows.min() < 0 or rows.max() >= len(self)):
            raise IndexError("observation index out of range")
        rows = rows[np.sort(np.unique(rows, return_index=True)[1])]
        out = object.__new__(ObservationSpace)
        out.dimensions, out.hierarchies = self.dimensions, self.hierarchies
        out._tables, out._roots, out._overlap = self._tables, self._roots, self._overlap
        out._measure_sets = list(self._measure_sets)
        out._group_of = dict(self._group_of)
        out._key_of = dict(self._key_of)
        picked = rows.tolist()
        out._set_rows(
            [self.uris[i] for i in picked],
            [self.datasets[i] for i in picked],
            self._buffer[rows, : len(self.dimensions) + 2],
        )
        return out

    def subset(self, limit: int) -> "ObservationSpace":
        """First ``limit`` observations (re-indexed), same bus."""
        return self.select(range(len(self))[:limit])

    @classmethod
    def from_cubespace(cls, cube: CubeSpace) -> "ObservationSpace":
        """Flatten a cube space; dimension order is the cube's bus order."""
        return cls(
            cube.dimensions,
            cube.hierarchies,
            ((o.uri, o.dataset, o.dimensions, o.measure_set) for o in cube.observations()),
        )

    def to_cubespace(self) -> CubeSpace:
        """The inverse of :meth:`from_cubespace`, one dataset per URI.

        Each schema spans the whole dimension bus (root padding becomes
        an explicit root code) and the measures its observations carry.
        Measure values are placeholders: the algorithms only read
        *which* measures an observation reports.
        """
        by_dataset: dict[URIRef, list[ObsRecord]] = {}
        for record in self:
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
    # Groupings read off the arrays
    # ------------------------------------------------------------------
    @property
    def group_overlap(self) -> np.ndarray:
        """``overlap[g, h]``: measure groups ``g`` and ``h`` share a
        measure — one boolean matrix product over the group-membership
        matrix, redone only when a new measure set appears."""
        count = len(self._measure_sets)
        if self._overlap.shape[0] != count:
            measures = sorted({m for group in self._measure_sets for m in group}, key=str)
            column = {measure: position for position, measure in enumerate(measures)}
            membership = np.zeros((count, len(column)), dtype=np.uint8)
            for group_id, group in enumerate(self._measure_sets):
                membership[group_id, [column[m] for m in group]] = 1
            self._overlap = (membership @ membership.T) > 0
        return self._overlap

    def cubes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The populated lattice cubes, kept until the next write:
        ``(signatures, members, offsets, of_row)``.  Cube ``c`` (in
        lexicographic signature order) has level signature
        ``signatures[c]`` and member rows ``members[offsets[c]:offsets[c
        + 1]]``, ascending; row ``i`` lies in cube ``of_row[i]``."""
        if self._cubes is None:
            n, k = self.levels.shape
            if n and k:
                signatures, of_row = np.unique(self.levels, axis=0, return_inverse=True)
            else:
                signatures, of_row = np.zeros((min(n, 1), k), np.int32), np.zeros(n, np.intp)
            of_row = of_row.reshape(n)
            offsets = np.zeros(len(signatures) + 1, dtype=np.int64)
            np.cumsum(np.bincount(of_row, minlength=len(signatures)), out=offsets[1:])
            members = np.argsort(of_row, kind="stable").astype(np.int32)
            self._cubes = (signatures.astype(np.int16), members, offsets, of_row)
        return self._cubes

    def level_signature(self, index: int) -> tuple[int, ...]:
        """Per-dimension hierarchy levels: the observation's cube id.

        This is the lattice-node key of Algorithm 4 (Figure 4's node
        labels, e.g. ``"210"``).
        """
        return tuple(self.levels[index].tolist())

    def partition_keys(self) -> dict[URIRef, tuple[str, tuple[int, ...]]]:
        """``uri → (dataset, level signature)`` for every row: the key
        stores, shards and routers partition relationships by."""
        signatures = map(tuple, self.levels.tolist())
        return {u: (str(d), s) for u, d, s in zip(self.uris, self.datasets, signatures)}

    # ------------------------------------------------------------------
    # Rows as records
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.uris)

    def __contains__(self, uri: object) -> bool:
        return uri in self._row

    def index_of(self, uri: URIRef) -> int:
        row = self._row.get(uri)
        if row is None:
            raise AlgorithmError(f"no observation with uri {uri}")
        return row

    def codes(self, index: int) -> tuple[URIRef, ...]:
        """Row ``index``'s padded code URIs, in bus order."""
        return tuple(t.codes[i] for t, i in zip(self._tables, self.code_ids[index].tolist()))

    def measures(self, index: int) -> frozenset[URIRef]:
        return self._measure_sets[self.groups[index]]

    def record(self, index: int) -> ObsRecord:
        """Row ``index`` as an :class:`ObsRecord` (negative counts from the end)."""
        row = range(len(self))[index]
        return ObsRecord(row, self.uris[row], self.datasets[row], self.codes(row), self.measures(row))

    def record_for(self, uri: URIRef) -> ObsRecord:
        return self.record(self.index_of(uri))

    def __getitem__(self, index):
        """Row ``index`` as a record, or a list of records for a slice."""
        if isinstance(index, slice):
            return [self.record(row) for row in range(len(self))[index]]
        return self.record(index)

    def __iter__(self) -> Iterator[ObsRecord]:
        groups = self.groups.tolist()
        for row, ids in enumerate(self.code_ids.tolist()):
            codes = tuple(table.codes[i] for table, i in zip(self._tables, ids))
            measures = self._measure_sets[groups[row]]
            yield ObsRecord(row, self.uris[row], self.datasets[row], codes, measures)

    @property
    def observations(self) -> "ObservationSpace":
        """The rows as a sequence of :class:`ObsRecord` views: the space
        itself, which indexes, slices and iterates as records."""
        return self

    # ------------------------------------------------------------------
    # Reference pair predicates (the semantic ground truth)
    # ------------------------------------------------------------------
    def measure_overlap(self, a: int, b: int) -> bool:
        return not self.measures(a).isdisjoint(self.measures(b))

    def dimension_contains(self, a: int, b: int, position: int) -> bool:
        """Reflexive ``h_a ≻ h_b`` on the dimension at ``position``."""
        hierarchy = self.hierarchies[self.dimensions[position]]
        return hierarchy.is_ancestor(self.codes(a)[position], self.codes(b)[position])

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
        return a != b and self.codes(a) == self.codes(b)

    def partial_dimensions(self, a: int, b: int) -> frozenset[URIRef]:
        """Dimensions on which ``a`` contains ``b`` (the ``map_P`` entry)."""
        return frozenset(
            self.dimensions[p]
            for p in range(len(self.dimensions))
            if self.dimension_contains(a, b, p)
        )

    def __repr__(self) -> str:
        return f"ObservationSpace(observations={len(self)}, dimensions={len(self.dimensions)})"
