"""Segment-store scrubbing: verify, quarantine, repair, report.

Bit rot and torn writes are detected *on access* by the store's CRC
checks — but a segment nobody has read since the corruption happened
is a landmine waiting for a query.  The scrubber walks the whole store
proactively:

1. **Verify** every manifest-listed segment: file present, byte count
   and CRC-32 match the manifest, and (``deep=True``) the segment
   decodes and its pair counts match what the manifest promises.
2. **Quarantine** anything corrupt: the file is renamed to
   ``<name>.quarantine`` so no future read trips over it, and the
   evidence survives for forensics.
3. **Repair** where possible: a crash between a generation commit and
   its cleanup can leave the *previous* generation's segment files on
   disk; a candidate with the same partition key whose decoded counts
   match the manifest entry is re-adopted (bytes copied back, manifest
   CRC updated atomically).  The WAL's torn tail, if any, is repaired
   by the standard replay path.
4. **Report** irreparable losses instead of hiding them: with
   ``repair=True`` the dead entry is dropped from the manifest (so the
   store serves its surviving partitions instead of erroring on every
   load) and recorded under the manifest's ``"quarantined"`` key with
   its lost pair counts.

Scrubbing takes the store's writer ``flock`` (idempotently — a serving
process that already holds it scrubs in-process), so a scrub can never
race ``repro compact`` rotating files out from under it; the two
mutually exclude across processes exactly like two writers.

:class:`BackgroundScrubber` runs :func:`scrub_store` on a daemon
thread at a fixed interval inside ``repro serve``.  Findings are
metrics (``repro_scrub_*``) and structured log events, so a quietly
degrading disk shows up on ``/metrics`` long before queries fail.
"""

from __future__ import annotations

import json
import shutil
import threading
import zlib
from pathlib import Path

from repro.errors import StorageError
from repro.obs import catalogue
from repro.resilience.faults import inject

__all__ = ["BackgroundScrubber", "scrub_store"]

QUARANTINE_SUFFIX = ".quarantine"


def _segment_problem(store, entry: dict, deep: bool) -> str | None:
    """Why this manifest entry's file is bad (None when healthy)."""
    from repro.storage.format import decode_segment, segment_counts

    path = store.path / entry["name"]
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return "missing"
    except OSError as exc:
        return f"unreadable: {exc}"
    if len(blob) != entry["bytes"]:
        return f"size mismatch: {len(blob)} bytes, manifest says {entry['bytes']}"
    if zlib.crc32(blob) != entry["crc32"]:
        return "CRC-32 mismatch"
    if deep:
        try:
            part = decode_segment(memoryview(blob), context=str(path))
        except StorageError as exc:
            return f"decode failed: {exc}"
        counts = segment_counts(part)
        for field in ("full", "partial", "complementary"):
            if counts[field] != entry.get(field):
                return (
                    f"count mismatch: {counts[field]} {field} pair(s), "
                    f"manifest says {entry.get(field)}"
                )
    return None


def _rebuild_candidate(store, entry: dict) -> Path | None:
    """A leftover file that can stand in for a corrupt segment.

    Generation commits unlink the previous generation best-effort, so
    a crash (or a slow cleanup) can leave ``seg-*.rseg`` files the
    manifest no longer references.  One whose partition key and pair
    counts match the damaged entry carries the same data.
    """
    from repro.storage.format import decode_segment, segment_counts

    listed = {e["name"] for e in store.manifest.get("segments", ())}
    for path in sorted(store.path.glob("seg-*.rseg"), reverse=True):
        if path.name in listed or path.name == entry["name"]:
            continue
        try:
            blob = path.read_bytes()
            part = decode_segment(memoryview(blob), context=str(path))
        except (OSError, StorageError):
            continue
        counts = segment_counts(part)
        if all(
            counts[field] == entry.get(field)
            for field in ("full", "partial", "complementary")
        ):
            return path
    return None


def _commit_manifest(store) -> None:
    from repro.store import atomic_write_text

    atomic_write_text(
        store.path / "MANIFEST.json", json.dumps(store.manifest, indent=2)
    )


def scrub_store(store_or_path, repair: bool = True, deep: bool = True) -> dict:
    """Scrub one segment store; returns the findings report.

    ``repair=False`` is a pure audit: nothing on disk changes, corrupt
    segments are reported but not quarantined.  With ``repair=True``
    (the default, and what ``repro scrub`` / the background scrubber
    use) corrupt files are quarantined, rebuilt when a prior-generation
    copy survives, and dropped from the manifest (with the loss
    recorded) when not.

    Report shape::

        {"ok": bool, "generation": int, "segments": int,
         "verified": int, "quarantined": [name...], "rebuilt": [name...],
         "irreparable": [{"name", "full", "partial", "complementary"}...],
         "wal": {"records": int | None, "torn_tail": bool}}
    """
    from repro.obs.logging import get_logger
    from repro.obs.tracing import trace
    from repro.storage.store import SegmentStore

    store = (
        store_or_path
        if isinstance(store_or_path, SegmentStore)
        else SegmentStore.open(store_or_path)
    )
    logger = get_logger("repro.resilience")
    held = store._lock_handle is not None
    if repair:
        # Mutating scrub must not race a compaction in another process.
        store.acquire_writer_lock()
    report: dict = {
        "ok": True,
        "generation": store.manifest.get("generation", 0),
        "segments": len(store.manifest.get("segments", ())),
        "verified": 0,
        "quarantined": [],
        "rebuilt": [],
        "irreparable": [],
        "wal": {"records": None, "torn_tail": False},
    }
    try:
        with trace("resilience.scrub", segments=report["segments"]):
            surviving = []
            manifest_dirty = False
            for entry in store.manifest.get("segments", ()):
                inject("scrub.segment")
                problem = _segment_problem(store, entry, deep)
                if problem is None:
                    catalogue.SCRUB_SEGMENTS_VERIFIED.inc()
                    report["verified"] += 1
                    surviving.append(entry)
                    continue
                report["ok"] = False
                catalogue.SCRUB_CORRUPT_SEGMENTS.inc()
                logger.warning(
                    "scrub: segment %s is corrupt (%s)", entry["name"], problem
                )
                if not repair:
                    report["quarantined"].append(entry["name"])
                    surviving.append(entry)
                    continue
                path = store.path / entry["name"]
                if path.exists():
                    path.rename(path.with_name(path.name + QUARANTINE_SUFFIX))
                catalogue.SCRUB_QUARANTINES.inc()
                report["quarantined"].append(entry["name"])
                candidate = _rebuild_candidate(store, entry)
                if candidate is not None:
                    shutil.copyfile(candidate, path)
                    blob = path.read_bytes()
                    entry = {**entry, "bytes": len(blob), "crc32": zlib.crc32(blob)}
                    manifest_dirty = True
                    catalogue.SCRUB_REBUILT.inc()
                    report["rebuilt"].append(entry["name"])
                    logger.info(
                        "scrub: rebuilt %s from prior-generation copy %s",
                        entry["name"],
                        candidate.name,
                    )
                    surviving.append(entry)
                    continue
                catalogue.SCRUB_IRREPARABLE.inc()
                loss = {
                    "name": entry["name"],
                    "full": entry.get("full", 0),
                    "partial": entry.get("partial", 0),
                    "complementary": entry.get("complementary", 0),
                }
                report["irreparable"].append(loss)
                manifest_dirty = True
                logger.error(
                    "scrub: segment %s is irreparable; dropping from manifest "
                    "(lost %s full / %s partial / %s complementary pair(s))",
                    entry["name"],
                    loss["full"],
                    loss["partial"],
                    loss["complementary"],
                )
            if repair and manifest_dirty:
                store.manifest["segments"] = surviving
                quarantine_log = store.manifest.setdefault("quarantined", [])
                quarantine_log.extend(report["irreparable"])
                _commit_manifest(store)
            # The WAL: a torn tail is normal crash damage; replay
            # repairs it.  Mid-file corruption is reported, not hidden.
            try:
                records, repaired = store.wal.records(repair=repair)
                report["wal"] = {"records": len(records), "torn_tail": repaired}
                if repaired:
                    report["ok"] = False
                    logger.warning("scrub: WAL torn tail repaired")
            except StorageError as exc:
                report["ok"] = False
                report["wal"] = {"records": None, "torn_tail": False, "error": str(exc)}
                logger.error("scrub: WAL is corrupt mid-file: %s", exc)
        catalogue.SCRUB_RUNS.inc()
        catalogue.SCRUB_LAST_OK.set(1 if report["ok"] else 0)
        return report
    finally:
        if repair and not held:
            store.release_writer_lock()


class BackgroundScrubber:
    """Periodic in-process scrubbing for a serving store."""

    def __init__(self, store, interval: float = 300.0, deep: bool = False):
        self.store = store
        self.interval = float(interval)
        self.deep = deep
        self.last_report: dict | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> "BackgroundScrubber":
        self._thread = threading.Thread(
            target=self._run, name="repro-scrubber", daemon=True
        )
        self._thread.start()
        return self

    def _run(self) -> None:
        from repro.obs.logging import get_logger

        while not self._stop.wait(self.interval):
            try:
                self.last_report = scrub_store(self.store, repair=True, deep=self.deep)
            except Exception as exc:  # pragma: no cover - defensive
                get_logger("repro.resilience").error("background scrub failed: %s", exc)

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
