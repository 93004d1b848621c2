"""The segment store's write-ahead delta log.

Segments are immutable; every mutation between compactions — an
incremental ``insert``/``remove`` served by the query engine, or a
completed work unit of a materialisation run checkpointing straight
into a store — lands here first, as one CRC-framed JSON record per
line::

    <crc32 as 8 hex chars> <record JSON>\\n

The CRC covers the record text exactly, so a torn final line (crash
mid-append) is detected and dropped on replay — the same contract as
the materialisation checkpoint of :mod:`repro.core.runner` — while
corruption anywhere *else* raises :class:`~repro.errors.StorageError`
(a mid-file flip is damage, not an interrupted append).  Appends are
flushed and fsynced before returning, so an acknowledged write
survives a crash.

Record types:

``{"type": "delta", ...}``
    One :class:`~repro.core.results.RelationshipDelta` — added/removed
    pairs plus the metadata of the added partial pairs.
``{"type": "header", ...}`` / ``{"type": "unit", ...}``
    The materialisation journal records written when a
    :class:`~repro.storage.journal.SegmentJournal` checkpoints a run
    into the store; ``unit`` deltas are add-only relationship slices.

:func:`replay_into` folds every record type into a
:class:`~repro.core.results.RelationshipSet`, which is how a reader
reconstructs the live state: segments ⊎ WAL.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from pathlib import Path

from repro.errors import StorageError
from repro.core.results import RelationshipDelta, RelationshipSet
from repro.obs import catalogue
from repro.rdf.terms import URIRef

__all__ = [
    "WriteAheadLog",
    "delta_to_payload",
    "delta_from_payload",
    "set_to_payload",
    "set_from_payload",
    "replay_into",
]

# ----------------------------------------------------------------------
# Payload (de)serialisation
# ----------------------------------------------------------------------
def _pairs_out(pairs) -> list[list[str]]:
    return sorted([str(a), str(b)] for a, b in pairs)


def _pairs_in(entries) -> set[tuple[URIRef, URIRef]]:
    try:
        return {(URIRef(a), URIRef(b)) for a, b in entries}
    except (TypeError, ValueError) as exc:
        raise StorageError(f"malformed WAL pair list: {entries!r}") from exc


def _partial_out(pairs, partial_map, degrees) -> list[dict]:
    return [
        {
            "container": str(a),
            "contained": str(b),
            "degree": degrees.get((a, b)),
            "dimensions": sorted(str(d) for d in partial_map.get((a, b), ())),
        }
        for a, b in sorted(pairs)
    ]


def delta_to_payload(delta: RelationshipDelta) -> dict:
    """Serialise a relationship delta to its WAL JSON form."""
    return {
        "added": {
            "full": _pairs_out(delta.added_full),
            "complementary": _pairs_out(delta.added_complementary),
            "partial": _partial_out(delta.added_partial, delta.partial_map, delta.degrees),
        },
        "removed": {
            "full": _pairs_out(delta.removed_full),
            "complementary": _pairs_out(delta.removed_complementary),
            "partial": _pairs_out(delta.removed_partial),
        },
    }


def delta_from_payload(payload: dict) -> RelationshipDelta:
    if not isinstance(payload, dict):
        raise StorageError(f"malformed WAL delta payload: {payload!r}")
    added = payload.get("added", {})
    removed = payload.get("removed", {})
    delta = RelationshipDelta(
        added_full=_pairs_in(added.get("full", ())),
        added_complementary=_pairs_in(added.get("complementary", ())),
        removed_full=_pairs_in(removed.get("full", ())),
        removed_partial=_pairs_in(removed.get("partial", ())),
        removed_complementary=_pairs_in(removed.get("complementary", ())),
    )
    for entry in added.get("partial", ()):
        try:
            pair = (URIRef(entry["container"]), URIRef(entry["contained"]))
        except (TypeError, KeyError) as exc:
            raise StorageError(f"malformed WAL partial entry: {entry!r}") from exc
        delta.added_partial.add(pair)
        degree = entry.get("degree")
        if degree is not None:
            delta.degrees[pair] = float(degree)
        dims = frozenset(URIRef(d) for d in entry.get("dimensions", ()))
        if dims:
            delta.partial_map[pair] = dims
    return delta


def set_to_payload(result: RelationshipSet) -> dict:
    """Serialise a full relationship slice (a journalled work unit)."""
    return {
        "full": _pairs_out(result.full),
        "complementary": _pairs_out(result.complementary),
        "partial": _partial_out(result.partial, result.partial_map, result.degrees),
    }


def set_from_payload(payload: dict) -> RelationshipSet:
    if not isinstance(payload, dict):
        raise StorageError(f"malformed WAL unit payload: {payload!r}")
    result = RelationshipSet(
        full=_pairs_in(payload.get("full", ())),
        complementary=_pairs_in(payload.get("complementary", ())),
    )
    for entry in payload.get("partial", ()):
        try:
            container, contained = URIRef(entry["container"]), URIRef(entry["contained"])
        except (TypeError, KeyError) as exc:
            raise StorageError(f"malformed WAL partial entry: {entry!r}") from exc
        dims = frozenset(URIRef(d) for d in entry.get("dimensions", ()))
        degree = entry.get("degree")
        result.add_partial(
            container,
            contained,
            dims if dims else None,
            float(degree) if degree is not None else None,
        )
    return result


# ----------------------------------------------------------------------
# The log itself
# ----------------------------------------------------------------------
class WriteAheadLog:
    """CRC-framed, fsynced, append-only record log."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._handle = None
        #: Unix timestamp of the last torn-tail repair this instance
        #: performed, or ``None``; surfaced by ``SegmentStore.describe``.
        self.last_repair: float | None = None

    # -- writing -------------------------------------------------------
    def open(self, truncate: bool = False) -> None:
        if not truncate:
            self._ensure_clean_tail()
        self._handle = open(self.path, "w" if truncate else "a", encoding="utf-8")

    def _ensure_clean_tail(self) -> None:
        """Repair/terminate an unterminated final line before appending.

        Durability must not depend on every caller having replayed the
        log first: appending after an unrepaired torn tail would
        concatenate the new fsynced record onto the torn line, and the
        combined line would later be dropped by tail repair.  A torn
        final line is dropped (atomic rewrite, as in :meth:`records`);
        a *valid* record merely missing its newline is terminated in
        place.
        """

        def ends_with_newline() -> bool | None:
            try:
                with open(self.path, "rb") as handle:
                    handle.seek(0, os.SEEK_END)
                    if handle.tell() == 0:
                        return True
                    handle.seek(-1, os.SEEK_END)
                    return handle.read(1) == b"\n"
            except (FileNotFoundError, OSError):
                return None

        if ends_with_newline() is not False:
            return
        self.records(repair=True)  # drops an unparsable torn final line
        if ends_with_newline() is False:
            # The final line was a valid record, just unterminated
            # (e.g. torn exactly at the newline): terminate it so the
            # next append starts a fresh line.
            with open(self.path, "ab") as handle:
                handle.write(b"\n")
                handle.flush()
                os.fsync(handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def append(self, record: dict) -> None:
        """Durably append one record (opens the log on first use)."""
        from repro.resilience.faults import inject

        if self._handle is None:
            self.open()
        body = json.dumps(record, sort_keys=True, ensure_ascii=False)
        line = f"{zlib.crc32(body.encode('utf-8')):08x} {body}\n"
        action = inject("wal.append", torn_capable=True)
        if action is not None:
            # A torn fault: persist only a prefix of the record — the
            # crash-mid-append the CRC framing exists to survive.
            torn = line[: max(1, int(len(line) * action.fraction))]
            self._handle.write(torn)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            action.die()
        self._handle.write(line)
        self._handle.flush()
        inject("wal.fsync")
        os.fsync(self._handle.fileno())
        catalogue.WAL_APPENDS.inc()
        catalogue.WAL_APPEND_BYTES.inc(len(line.encode("utf-8")))

    def append_delta(self, delta: RelationshipDelta) -> None:
        self.append({"type": "delta", **delta_to_payload(delta)})

    # -- reading -------------------------------------------------------
    def records(self, repair: bool = True) -> tuple[list[dict], bool]:
        """Parse the log into ``(records, repaired)``.

        A torn *final* line is dropped; with ``repair=True`` the file is
        rewritten without it (atomically), mirroring the checkpoint
        loader's crash recovery.  A bad CRC or unparsable record before
        the final line raises :class:`StorageError`.
        """
        from repro.store import atomic_write_text

        if not self.path.exists():
            return [], False
        text = self.path.read_text(encoding="utf-8")
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        records: list[dict] = []
        repaired = False
        for index, line in enumerate(lines):
            record = self._parse_line(line)
            if record is None:
                if index == len(lines) - 1:
                    repaired = True
                    if repair:
                        atomic_write_text(
                            self.path, "".join(l + "\n" for l in lines[:index])
                        )
                        self.last_repair = time.time()
                        catalogue.WAL_REPAIRS.inc()
                    break
                raise StorageError(
                    f"corrupt WAL {self.path} at record {index + 1}: CRC mismatch"
                )
            records.append(record)
        return records, repaired

    @staticmethod
    def _parse_line(line: str) -> dict | None:
        if len(line) < 10 or line[8] != " ":
            return None
        crc_text, body = line[:8], line[9:]
        try:
            expected = int(crc_text, 16)
        except ValueError:
            return None
        if zlib.crc32(body.encode("utf-8")) != expected:
            return None
        try:
            record = json.loads(body)
        except json.JSONDecodeError:
            return None
        return record if isinstance(record, dict) else None

    def record_count(self) -> int:
        records, _ = self.records(repair=False)
        return len(records)

    def size_bytes(self) -> int:
        try:
            return self.path.stat().st_size
        except OSError:
            return 0


def replay_into(result: RelationshipSet, records) -> int:
    """Fold WAL records into ``result``; returns how many applied.

    ``delta`` records apply added *and removed* pairs; ``unit`` records
    (journalled materialisation blocks) merge their add-only slice;
    ``header`` records carry no relationship data.
    """
    applied = 0
    for record in records:
        kind = record.get("type")
        if kind == "delta":
            result.apply_delta(delta_from_payload(record))
            applied += 1
        elif kind == "unit":
            result.merge(set_from_payload(record.get("delta", {})))
            applied += 1
        elif kind == "header":
            continue
        else:
            raise StorageError(f"unknown WAL record type {kind!r}")
    if applied:
        catalogue.WAL_REPLAYED_RECORDS.inc(applied)
    return applied
