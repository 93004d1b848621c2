"""The segmented relationship store: manifest + segments + WAL.

A store is a *directory* (conventionally ``links.rseg/``)::

    links.rseg/
    ├── MANIFEST.json          commit point: formats, segment list, WAL name
    ├── seg-00000-00000.rseg   immutable binary segments (repro.storage.format)
    ├── seg-00000-00001.rseg
    └── wal-00000.jsonl        write-ahead delta log (repro.storage.wal)

Segments are partitioned by the **container observation's dataset and
cube-lattice signature** (when the observation space is available at
write time).  Because full containment can only point from a cube node
to one it dominates — the container's per-dimension hierarchy levels
are component-wise ≤ the contained's — and complementarity only links
identical signatures, a lookup can prune whole segments from the
manifest alone, exactly the way cubeMasking prunes lattice nodes
(:meth:`SegmentStore.segments_for`).

Durability protocol:

* segment files are written atomically (temp + ``os.replace`` + dir
  fsync) and are immutable once referenced,
* ``MANIFEST.json`` is the single commit point: a new generation's
  segments and (empty) WAL are written *first*, then the manifest is
  atomically replaced, then stale files are unlinked — a crash at any
  point leaves a readable store (old or new, never a mix),
* every segment's byte count and CRC-32 are recorded in the manifest
  *and* in the segment's own header, so torn writes and bit rot are
  detected on open,
* a ``.lock`` file in the store directory carries an advisory
  ``flock`` held by whichever process writes the store — a serving
  engine appending WAL deltas, or ``repro compact`` rotating the WAL.
  The lock makes the two mutually exclusive *across processes*:
  compacting under a live server would rotate the WAL out from under
  its open file handle and silently lose every later acknowledged
  append to the orphaned inode.

Reads are lazy: :meth:`SegmentStore.relationship_set` returns a
:class:`~repro.storage.lazy.SegmentRelationshipSet` that answers
counts/repr from the manifest in O(1) and only mmaps + decodes the
segments (and replays the WAL) on first real access — which is what
lets ``repro serve`` start in O(manifest) instead of O(pairs).
"""

from __future__ import annotations

import json
import mmap
import os
import zlib
from pathlib import Path
from typing import Iterable, Sequence

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: no cross-process lock
    fcntl = None

from repro.errors import StorageError
from repro.core.results import RelationshipDelta, RelationshipSet
from repro.obs import catalogue
from repro.obs.tracing import trace
from repro.resilience.deadline import check_deadline
from repro.resilience.faults import inject
from repro.rdf.terms import URIRef
from repro.storage.format import SEGMENT_VERSION, decode_segment, encode_segment, segment_counts
from repro.storage.wal import WriteAheadLog, replay_into

__all__ = [
    "SegmentStore",
    "MANIFEST_NAME",
    "LOCK_NAME",
    "SEGMENT_STORE_FORMAT",
    "SEGMENT_STORE_VERSION",
    "is_segment_store",
    "save_segments",
    "load_segments",
]

MANIFEST_NAME = "MANIFEST.json"
LOCK_NAME = ".lock"
SEGMENT_STORE_FORMAT = "repro-segments"
SEGMENT_STORE_VERSION = 1

#: Manifest key for pairs whose container is unknown to the space (or
#: when no space was supplied): the single default partition.
_DEFAULT_KEY = (None, None)

Signature = tuple[int, ...]
PartitionKey = tuple[str | None, Signature | None]


def is_segment_store(path: str | os.PathLike) -> bool:
    """True when ``path`` is a directory holding a segment manifest."""
    return (Path(path) / MANIFEST_NAME).is_file()


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
def partition_relationships(
    result: RelationshipSet, space=None
) -> dict[PartitionKey, RelationshipSet]:
    """Split a relationship set into per-(dataset, signature) slices.

    Pairs are keyed by their **container** observation (canonical first
    element for the symmetric complementarity pairs); observations the
    space does not know — or every pair, when no space is given — land
    in the default partition.
    """
    keys = space.partition_keys() if space is not None else {}
    parts: dict[PartitionKey, RelationshipSet] = {}

    def slot(uri: URIRef) -> RelationshipSet:
        key = keys.get(uri, _DEFAULT_KEY)
        part = parts.get(key)
        if part is None:
            part = parts[key] = RelationshipSet()
        return part

    for a, b in result.full:
        slot(a).full.add((a, b))
    for a, b in result.complementary:
        slot(a).complementary.add((a, b))
    for pair in result.partial:
        part = slot(pair[0])
        part.partial.add(pair)
        dims = result.partial_map.get(pair)
        if dims:
            part.partial_map[pair] = dims
        degree = result.degrees.get(pair)
        if degree is not None:
            part.degrees[pair] = degree
    if not parts:
        parts[_DEFAULT_KEY] = RelationshipSet()
    return parts


def _dominates(container_sig: Sequence[int], contained_sig: Sequence[int]) -> bool:
    """Lattice dominance: the container sits at equal-or-coarser levels."""
    return len(container_sig) == len(contained_sig) and all(
        a <= b for a, b in zip(container_sig, contained_sig)
    )


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class SegmentStore:
    """One segmented, WAL-fronted relationship store directory."""

    def __init__(self, path: str | os.PathLike, manifest: dict):
        self.path = Path(path)
        self.manifest = manifest
        self._wal: WriteAheadLog | None = None
        self._lock_handle = None
        #: Optional :class:`repro.resilience.breaker.CircuitBreaker`
        #: guarding segment decodes; installed by the serving layer so
        #: a failing disk fails fast instead of stalling every request.
        self.breaker = None

    # -- the writer lock ----------------------------------------------
    def acquire_writer_lock(self) -> None:
        """Take the store's cross-process writer lock (idempotent).

        A non-blocking ``flock`` on ``<store>/.lock``: exactly one
        process may write (WAL appends, segment rewrites, compaction)
        at a time.  Raises :class:`StorageError` when another process —
        typically a running ``repro serve`` — already holds it.  The
        lock is released by :meth:`close` or process exit.
        """
        if self._lock_handle is not None or fcntl is None:
            return
        self.path.mkdir(parents=True, exist_ok=True)
        handle = open(self.path / LOCK_NAME, "a+")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            handle.close()
            raise StorageError(
                f"{self.path} is locked by another writer (a running "
                "`repro serve`?) — stop it before compacting or rewriting "
                "the store"
            ) from None
        self._lock_handle = handle

    def release_writer_lock(self) -> None:
        if self._lock_handle is not None:
            self._lock_handle.close()  # closing the fd drops the flock
            self._lock_handle = None

    # -- opening / creating -------------------------------------------
    @classmethod
    def open(cls, path: str | os.PathLike) -> "SegmentStore":
        target = Path(path)
        manifest_path = target / MANIFEST_NAME
        try:
            payload = json.loads(manifest_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise StorageError(f"{target} is not a segment store (no {MANIFEST_NAME})") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise StorageError(f"cannot read segment manifest {manifest_path}: {exc}") from exc
        if not isinstance(payload, dict) or payload.get("format") != SEGMENT_STORE_FORMAT:
            raise StorageError(
                f"{manifest_path}: not a segment-store manifest "
                f"(format {payload.get('format') if isinstance(payload, dict) else payload!r})"
            )
        if payload.get("version") != SEGMENT_STORE_VERSION:
            raise StorageError(
                f"unsupported segment-store version {payload.get('version')!r}"
            )
        return cls(target, payload)

    @classmethod
    def create(
        cls,
        path: str | os.PathLike,
        result: RelationshipSet | None = None,
        space=None,
    ) -> "SegmentStore":
        """Initialise a store directory (empty unless ``result`` given)."""
        store = cls(Path(path), {})
        store.write(result if result is not None else RelationshipSet(), space)
        return store

    # -- writing a generation -----------------------------------------
    def write(self, result: RelationshipSet, space=None) -> None:
        """Write ``result`` as a fresh segment generation (fold point).

        New segments and a new empty WAL are written first; the
        atomically-replaced manifest commits them; stale files from the
        previous generation are then removed (best effort — the
        manifest never references them, so leftovers are inert).

        The writer lock is held for the duration (and released again
        unless this store already holds it as a long-lived writer), so
        a rewrite cannot race a serving process's WAL appends.
        """
        held = self._lock_handle is not None
        self.acquire_writer_lock()
        try:
            with trace("storage.write"):
                self._write_locked(result, space)
        finally:
            if not held:
                self.release_writer_lock()

    def _write_locked(self, result: RelationshipSet, space=None) -> None:
        from repro.store import atomic_write_bytes, atomic_write_text

        self.path.mkdir(parents=True, exist_ok=True)
        generation = int(self.manifest.get("generation", -1)) + 1
        dimensions = list(getattr(space, "dimensions", ()) or ())

        entries = []
        parts = partition_relationships(result, space)
        for index, key in enumerate(sorted(parts, key=lambda k: (k[0] or "", k[1] or ()))):
            part = parts[key]
            blob = encode_segment(part, dimensions=dimensions if dimensions else None)
            name = f"seg-{generation:05d}-{index:05d}.rseg"
            inject("segment.write")
            atomic_write_bytes(self.path / name, blob)
            counts = segment_counts(part)
            entries.append(
                {
                    "name": name,
                    "bytes": len(blob),
                    "crc32": zlib.crc32(blob),
                    "dataset": key[0],
                    "signature": list(key[1]) if key[1] is not None else None,
                    **counts,
                }
            )

        wal_name = f"wal-{generation:05d}.jsonl"
        self._close_wal()
        (self.path / wal_name).touch()

        manifest = {
            "format": SEGMENT_STORE_FORMAT,
            "version": SEGMENT_STORE_VERSION,
            "segment_version": SEGMENT_VERSION,
            "generation": generation,
            "wal": wal_name,
            "segments": entries,
            "totals": {
                "full": len(result.full),
                "partial": len(result.partial),
                "complementary": len(result.complementary),
            },
        }
        action = inject("manifest.commit", torn_capable=True)
        if action is not None:
            # The manifest replace is atomic, so a "torn" commit means
            # dying *before* the commit point: new segments on disk,
            # old manifest still authoritative.
            action.die()
        atomic_write_text(self.path / MANIFEST_NAME, json.dumps(manifest, indent=2))
        old_manifest, self.manifest = self.manifest, manifest
        self._cleanup(old_manifest)
        catalogue.STORAGE_GENERATIONS.inc()
        catalogue.STORAGE_SEGMENT_BYTES_WRITTEN.inc(sum(entry["bytes"] for entry in entries))

    def _cleanup(self, old_manifest: dict) -> None:
        keep = {entry["name"] for entry in self.manifest.get("segments", ())}
        keep.add(self.manifest.get("wal"))
        keep.add(MANIFEST_NAME)
        stale = {entry["name"] for entry in old_manifest.get("segments", ())}
        if old_manifest.get("wal"):
            stale.add(old_manifest["wal"])
        for name in stale - keep:
            try:
                (self.path / name).unlink()
            except OSError:
                pass

    # -- reading -------------------------------------------------------
    def _decode_file(self, name: str) -> RelationshipSet:
        """Decode one segment, under the breaker when one is installed.

        The breaker observes only genuine storage outcomes: a deadline
        expiring mid-read is the *request's* failure, not the disk's,
        and must not trip reads open for everyone else — so it is
        checked before the breaker is consulted.
        """
        check_deadline("segment.read")
        if self.breaker is not None:
            return self.breaker.call(self._decode_file_inner, name)
        return self._decode_file_inner(name)

    def _decode_file_inner(self, name: str) -> RelationshipSet:
        inject("segment.read")
        path = self.path / name
        try:
            with open(path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                if size == 0:
                    raise StorageError(f"{path}: empty segment file")
                catalogue.STORAGE_SEGMENT_LOADS.inc()
                catalogue.STORAGE_MMAP_BYTES.inc(size)
                inject("mmap.attach")
                view = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
                try:
                    return decode_segment(view, context=str(path))
                finally:
                    try:
                        view.close()
                    except BufferError:
                        # A decode error keeps memoryviews alive in the
                        # propagating traceback; the map is released when
                        # the exception is.
                        pass
        except FileNotFoundError:
            raise StorageError(f"missing segment file {path} (listed in manifest)") from None
        except OSError as exc:
            raise StorageError(f"cannot map segment {path}: {exc}") from exc

    def load(self, apply_wal: bool = True, verify_manifest: bool = True) -> RelationshipSet:
        """Eagerly decode every segment (and replay the WAL) into a set."""
        with trace(
            "storage.load", segments=len(self.manifest.get("segments", ()))
        ):
            result = RelationshipSet()
            for entry in self.manifest.get("segments", ()):
                part = self._decode_file(entry["name"])
                if verify_manifest:
                    counts = segment_counts(part)
                    for field in ("full", "partial", "complementary"):
                        if counts[field] != entry.get(field):
                            raise StorageError(
                                f"segment {entry['name']}: manifest promises "
                                f"{entry.get(field)} {field} pair(s), file holds {counts[field]}"
                            )
                result.merge(part)
            if apply_wal:
                check_deadline("wal.replay")
                records, _ = self.wal.records()
                replay_into(result, records)
            return result

    def load_subset(
        self,
        dataset: URIRef | str | None = None,
        signature: Sequence[int] | None = None,
        mode: str = "containers",
    ) -> RelationshipSet:
        """Decode only the segments that can be related to the query.

        The segment-level analogue of cubeMasking's lattice pruning —
        see :meth:`segments_for` for the dominance rules.  WAL deltas
        (unpartitioned by nature) are always replayed on top.
        """
        result = RelationshipSet()
        for entry in self.segments_for(dataset=dataset, signature=signature, mode=mode):
            result.merge(self._decode_file(entry["name"]))
        records, _ = self.wal.records()
        replay_into(result, records)
        return result

    def segments_for(
        self,
        dataset: URIRef | str | None = None,
        signature: Sequence[int] | None = None,
        mode: str = "containers",
    ) -> list[dict]:
        """Manifest entries whose partition can be related to the query.

        ``mode="containers"`` keeps segments whose container signature
        *dominates* the query signature (could contain it);
        ``mode="contained"`` keeps segments the query dominates;
        ``mode="complements"`` keeps exact-signature segments.  A
        ``dataset`` filter keeps that dataset's segments.  Segments
        without a recorded partition key (the default partition, or
        pre-partitioning stores) are never pruned.
        """
        if mode not in ("containers", "contained", "complements"):
            raise ValueError(f"unknown pruning mode {mode!r}")
        query_sig = tuple(signature) if signature is not None else None
        kept = []
        for entry in self.manifest.get("segments", ()):
            seg_dataset = entry.get("dataset")
            seg_sig = entry.get("signature")
            if seg_dataset is None and seg_sig is None:
                kept.append(entry)  # default partition: cannot prune
                continue
            if dataset is not None and seg_dataset is not None and str(dataset) != seg_dataset:
                continue
            if query_sig is not None and seg_sig is not None:
                seg_sig = tuple(seg_sig)
                if mode == "containers" and not _dominates(seg_sig, query_sig):
                    continue
                if mode == "contained" and not _dominates(query_sig, seg_sig):
                    continue
                if mode == "complements" and seg_sig != query_sig:
                    continue
            kept.append(entry)
        return kept

    def relationship_set(self, partitions: Iterable[PartitionKey] | None = None):
        """The lazy, WAL-aware view served by ``repro serve``.

        With ``partitions`` the view covers only those partition keys —
        the shard worker's slice of the store (``repro.cluster``).
        """
        from repro.storage.lazy import SegmentRelationshipSet

        return SegmentRelationshipSet(self, partitions=partitions)

    def partition_keys(self) -> list[PartitionKey]:
        """Distinct ``(dataset, signature)`` partition keys, manifest order.

        The unit the cluster tier shards by: every segment belongs to
        exactly one key, and the consistent-hash ring assigns keys (not
        files) to shards, so a compaction that renames segment files
        never moves data between shards.
        """
        seen: set[PartitionKey] = set()
        keys: list[PartitionKey] = []
        for entry in self.manifest.get("segments", ()):
            signature = entry.get("signature")
            key = (
                entry.get("dataset"),
                tuple(signature) if signature is not None else None,
            )
            if key not in seen:
                seen.add(key)
                keys.append(key)
        return keys

    def segments_in(self, partitions: Iterable[PartitionKey]) -> list[dict]:
        """Manifest entries whose partition key is in ``partitions``."""
        wanted = {
            (dataset, tuple(signature) if signature is not None else None)
            for dataset, signature in partitions
        }
        return [
            entry
            for entry in self.manifest.get("segments", ())
            if (
                entry.get("dataset"),
                tuple(entry["signature"]) if entry.get("signature") is not None else None,
            )
            in wanted
        ]

    def load_partitions(
        self, partitions: Iterable[PartitionKey], apply_wal: bool = True
    ) -> RelationshipSet:
        """Decode only the named partitions' segments into one set.

        The shard worker's load path: each of N shard processes decodes
        ~1/N of the segment bytes.  The files are attached with the
        same ``mmap`` path as every other read, so replicas of one
        shard share the kernel page cache instead of duplicating heap.
        WAL deltas are unpartitioned and cheap; they are replayed in
        full so an acknowledged write is visible on every shard that
        could be asked about it.
        """
        entries = self.segments_in(partitions)
        with trace("storage.load_partitions", segments=len(entries)):
            result = RelationshipSet()
            for entry in entries:
                result.merge(self._decode_file(entry["name"]))
            if apply_wal:
                check_deadline("wal.replay")
                records, _ = self.wal.records()
                replay_into(result, records)
            return result

    # -- the WAL -------------------------------------------------------
    @property
    def wal(self) -> WriteAheadLog:
        current = self.manifest.get("wal") or "wal-00000.jsonl"
        if self._wal is None or self._wal.path.name != current:
            self._close_wal()
            self._wal = WriteAheadLog(self.path / current)
        return self._wal

    def _close_wal(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    def append_delta(self, delta: RelationshipDelta) -> None:
        """Durably journal one incremental write (the engine's sink).

        Takes (and keeps) the writer lock, so a concurrent ``repro
        compact`` in another process cannot rotate the WAL this append
        lands in.
        """
        self.acquire_writer_lock()
        self.wal.append_delta(delta)

    def close(self) -> None:
        self._close_wal()
        self.release_writer_lock()

    # -- maintenance ---------------------------------------------------
    def compact(self, space=None) -> dict:
        """Fold the WAL into a fresh segment generation.

        Returns ``{"folded": <records>, "segments": <count>}``.  With a
        ``space`` the new generation is re-partitioned by dataset and
        lattice signature; without one, existing partition keys are
        lost (everything lands in the default segment).

        Refuses (:class:`StorageError`) while another process holds
        the writer lock — compacting under a live server would rotate
        the WAL out from under its open handle and lose its later
        acknowledged appends.
        """
        held = self._lock_handle is not None
        self.acquire_writer_lock()
        try:
            with trace("storage.compact"):
                records, _ = self.wal.records()
                result = self.load(apply_wal=True)
                self.write(result, space)
                catalogue.STORAGE_COMPACTIONS.inc()
        finally:
            if not held:
                self.release_writer_lock()
        return {"folded": len(records), "segments": len(self.manifest["segments"])}

    # -- introspection -------------------------------------------------
    def totals(self) -> dict:
        return dict(self.manifest.get("totals", {}))

    def describe(self) -> dict:
        """Manifest-level facts (O(1), no segment decode)."""
        segment_bytes = sum(entry["bytes"] for entry in self.manifest.get("segments", ()))
        try:
            wal_records = self.wal.record_count()
        except StorageError:
            wal_records = None
        return {
            "format": SEGMENT_STORE_FORMAT,
            "version": SEGMENT_STORE_VERSION,
            "generation": self.manifest.get("generation", 0),
            "segments": len(self.manifest.get("segments", ())),
            "partitioned": any(
                entry.get("dataset") is not None or entry.get("signature") is not None
                for entry in self.manifest.get("segments", ())
            ),
            "bytes": segment_bytes + self.wal.size_bytes(),
            "wal_records": wal_records,
            "wal_bytes": self.wal.size_bytes(),
            "last_repair": self.wal.last_repair,
            "totals": self.totals(),
        }

    def __repr__(self) -> str:
        info = self.describe()
        return (
            f"SegmentStore({str(self.path)!r}, segments={info['segments']}, "
            f"generation={info['generation']}, wal_records={info['wal_records']})"
        )


# ----------------------------------------------------------------------
# Module-level conveniences (the repro.store integration points)
# ----------------------------------------------------------------------
def save_segments(
    result: RelationshipSet, path: str | os.PathLike, space=None
) -> SegmentStore:
    """Write ``result`` as a segment store at ``path`` (a directory)."""
    if is_segment_store(path):
        store = SegmentStore.open(path)
        store.write(result, space)
        return store
    return SegmentStore.create(path, result, space)


def load_segments(path: str | os.PathLike, lazy: bool = False):
    """Load a segment store: eager by default, lazy on request."""
    store = SegmentStore.open(path)
    if lazy:
        return store.relationship_set()
    return store.load()
