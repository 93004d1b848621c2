"""WAL-backed ordered relationship changefeed.

Every delta the query engine applies is published here as one
``change`` record with a **monotonic offset**, persisted through the
same CRC-framed, fsynced line format as :mod:`repro.storage.wal` — so
a torn final line (crash mid-publish) is detected and dropped on
replay, and an acknowledged publish survives a crash.

The feed lives in its own directory (``<store>/changefeed`` for a
segment store) as a sequence of rotated segments::

    changefeed/
        feed-00000000000000000001.jsonl
        feed-00000000000000001374.jsonl
        CONSUMERS.json

Each segment file name carries the **first offset it holds**, so a
``since=<offset>`` replay can skip whole segments without opening
them.  Offsets start at 1; ``read(since=N)`` returns records with
``offset > N``, which makes ``since=0`` a full replay and lets a
consumer resume by handing back the last offset it processed.

``CONSUMERS.json`` holds durable named consumer offsets, rewritten
atomically (:func:`repro.store.atomic_write_text`) on every commit —
the at-least-once handoff contract is documented in
``docs/streaming.md``.

:class:`Changefeed` is the single-writer handle the engine publishes
through (it owns an in-process condition variable for long-poll
wakeups); :class:`ChangefeedReader` is the read-only, cross-process
view the shard servers use (it re-lists segments on demand and falls
back to polling for ``wait_for``).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from repro.core.results import RelationshipDelta
from repro.errors import StorageError
from repro.obs import catalogue
from repro.storage.wal import WriteAheadLog, delta_from_payload, delta_to_payload

__all__ = [
    "Changefeed",
    "ChangefeedReader",
    "change_record",
    "delta_from_change",
]

SEGMENT_PREFIX = "feed-"
SEGMENT_SUFFIX = ".jsonl"
CONSUMERS_FILE = "CONSUMERS.json"
#: Rotate the active feed segment once it crosses this size.
DEFAULT_ROTATE_BYTES = 4 * 1024 * 1024

def change_record(
    offset: int,
    delta: RelationshipDelta,
    op: str = "insert",
    trace_id: str | None = None,
) -> dict:
    """Build the JSON body of one changefeed record."""
    return {
        "type": "change",
        "offset": int(offset),
        "op": op,
        "ts": time.time(),
        "trace": trace_id,
        "delta": delta_to_payload(delta),
    }


def delta_from_change(record: dict) -> RelationshipDelta:
    """Decode the delta payload of a ``change`` record."""
    return delta_from_payload(record.get("delta", {}))


def _segment_name(first_offset: int) -> str:
    return f"{SEGMENT_PREFIX}{first_offset:020d}{SEGMENT_SUFFIX}"


def _segment_first_offset(name: str) -> int | None:
    if not (name.startswith(SEGMENT_PREFIX) and name.endswith(SEGMENT_SUFFIX)):
        return None
    digits = name[len(SEGMENT_PREFIX) : -len(SEGMENT_SUFFIX)]
    try:
        first = int(digits)
    except ValueError:
        return None
    return first if first >= 1 else None


def _list_segments(path: Path) -> list[tuple[int, Path]]:
    """``(first_offset, path)`` for every feed segment, offset order."""
    try:
        names = os.listdir(path)
    except (FileNotFoundError, NotADirectoryError):
        return []
    segments = []
    for name in names:
        first = _segment_first_offset(name)
        if first is not None:
            segments.append((first, path / name))
    segments.sort()
    return segments


def _check_change(record: dict, path: Path) -> dict:
    offset = record.get("offset")
    if record.get("type") != "change" or not isinstance(offset, int) or offset < 1:
        raise StorageError(f"malformed changefeed record in {path}: {record!r}")
    return record


def _read_segments(
    segments: list[tuple[int, Path]],
    since: int,
    limit: int | None,
    repair: bool,
) -> list[dict]:
    """Replay ``offset > since`` records across ``segments`` in order.

    Whole segments strictly below the cursor are skipped by file name:
    segment *i* (other than the last) holds offsets
    ``[first_i, first_{i+1} - 1]``, so it cannot contribute when
    ``first_{i+1} - 1 <= since``.  The last segment is always parsed —
    it is the only one that can have a torn tail, and :class:`WriteAheadLog`
    handles that per the ``repair`` flag.
    """
    out: list[dict] = []
    for index, (first, path) in enumerate(segments):
        if index + 1 < len(segments) and segments[index + 1][0] - 1 <= since:
            continue
        records, _ = WriteAheadLog(path).records(repair=repair)
        for record in records:
            record = _check_change(record, path)
            if record["offset"] > since:
                out.append(record)
                if limit is not None and len(out) >= limit:
                    return out
    return out


class _ConsumerOffsets:
    """Durable named consumer offsets, committed atomically."""

    def __init__(self, path: Path):
        self.path = path
        self._lock = threading.Lock()

    def load(self) -> dict[str, int]:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (FileNotFoundError, OSError, json.JSONDecodeError):
            return {}
        if not isinstance(raw, dict):
            return {}
        return {
            str(name): int(offset)
            for name, offset in raw.items()
            if isinstance(offset, int) and offset >= 0
        }

    def committed(self, consumer: str) -> int:
        return self.load().get(consumer, 0)

    @contextmanager
    def _file_lock(self):
        """Cross-process exclusive lock around the read-modify-write.

        The serve writer and any out-of-process
        :class:`ChangefeedReader` all commit into the same
        ``CONSUMERS.json``; the in-process :class:`threading.Lock`
        alone would let two processes interleave load/write and
        silently drop each other's freshly committed cursor.  A
        separate ``.lock`` file carries the ``flock`` because
        ``atomic_write_text`` replaces the target's inode.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path.with_name(self.path.name + ".lock"), "a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def commit(self, consumer: str, offset: int) -> int:
        """Durably record ``offset`` for ``consumer``; returns it.

        Commits are monotonic per consumer — re-delivering an old
        batch after a restart must not move the cursor backwards.
        """
        from repro.store import atomic_write_text

        if not consumer:
            raise ValueError("consumer name must be non-empty")
        offset = int(offset)
        if offset < 0:
            raise ValueError(f"consumer offset must be >= 0, got {offset}")
        with self._lock, self._file_lock():
            offsets = self.load()
            offset = max(offset, offsets.get(consumer, 0))
            offsets[consumer] = offset
            atomic_write_text(
                self.path, json.dumps(offsets, indent=2, sort_keys=True) + "\n"
            )
        catalogue.STREAM_CONSUMER_OFFSET.set(offset, consumer=consumer)
        return offset


class Changefeed:
    """The single-writer changefeed handle.

    One process — the one holding the store's writer lock — publishes;
    any number of threads in that process read and long-poll through
    the shared condition variable.
    """

    def __init__(self, path: str | os.PathLike, rotate_bytes: int = DEFAULT_ROTATE_BYTES):
        self.path = Path(path)
        self.rotate_bytes = int(rotate_bytes)
        self._cond = threading.Condition()
        self._wal: WriteAheadLog | None = None
        self._segments: list[tuple[int, Path]] = []
        self._head = 0
        self.consumers = _ConsumerOffsets(self.path / CONSUMERS_FILE)
        self._open()

    # -- lifecycle -----------------------------------------------------
    def _open(self) -> None:
        self.path.mkdir(parents=True, exist_ok=True)
        self._segments = _list_segments(self.path)
        head = 0
        if self._segments:
            first, active = self._segments[-1]
            # Repair a torn tail *now* so the head offset and the next
            # append both start from the last durable record.
            records, repaired = WriteAheadLog(active).records(repair=True)
            head = _check_change(records[-1], active)["offset"] if records else first - 1
            if repaired:
                # The torn record was flushed before the crash, so a
                # cross-process reader may already have delivered (and
                # committed) its offset with the *old* payload.  Never
                # reuse that offset for a different delta — skip it.
                # Offsets are monotonic, not dense (docs/streaming.md).
                head += 1
        self._head = head
        catalogue.STREAM_FEED_HEAD_OFFSET.set(float(head))

    def close(self) -> None:
        with self._cond:
            if self._wal is not None:
                self._wal.close()
                self._wal = None

    # -- writing -------------------------------------------------------
    def _active_wal(self) -> WriteAheadLog:
        if self._wal is None:
            if not self._segments:
                self._segments = [(1, self.path / _segment_name(1))]
            self._wal = WriteAheadLog(self._segments[-1][1])
        return self._wal

    def publish(
        self,
        delta: RelationshipDelta,
        op: str = "insert",
        trace_id: str | None = None,
    ) -> int:
        """Durably append one delta; returns its offset.

        Raises :class:`StorageError`/``OSError`` on append failure, in
        which case the offset is not consumed.
        """
        with self._cond:
            offset = self._head + 1
            wal = self._active_wal()
            wal.append(change_record(offset, delta, op=op, trace_id=trace_id))
            self._head = offset
            if wal.size_bytes() >= self.rotate_bytes:
                wal.close()
                self._wal = None
                self._segments.append((offset + 1, self.path / _segment_name(offset + 1)))
                catalogue.STREAM_FEED_ROTATIONS.inc()
            self._cond.notify_all()
        catalogue.STREAM_PUBLISHED_CHANGES.inc()
        catalogue.STREAM_FEED_HEAD_OFFSET.set(float(offset))
        return offset

    # -- reading -------------------------------------------------------
    @property
    def head_offset(self) -> int:
        with self._cond:
            return self._head

    def read(self, since: int = 0, limit: int | None = None) -> list[dict]:
        """Records with ``offset > since``, in offset order."""
        with self._cond:
            segments = list(self._segments)
            head = self._head
        if since >= head:
            return []
        records = _read_segments(segments, since, limit, repair=False)
        catalogue.STREAM_CHANGES_READ.inc(len(records))
        return records

    def wait_for(
        self, since: int = 0, timeout: float = 0.0, limit: int | None = None
    ) -> list[dict]:
        """``read``, long-polling up to ``timeout`` seconds when empty."""
        if timeout > 0:
            deadline = time.monotonic() + timeout
            with self._cond:
                if self._head <= since:
                    catalogue.STREAM_LONGPOLL_WAITS.inc()
                while self._head <= since:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or not self._cond.wait(remaining):
                        break
        return self.read(since, limit)

    # -- consumers -----------------------------------------------------
    def committed(self, consumer: str) -> int:
        return self.consumers.committed(consumer)

    def commit(self, consumer: str, offset: int) -> int:
        offset = self.consumers.commit(consumer, offset)
        catalogue.STREAM_FEED_LAG.set(float(max(self.head_offset - offset, 0)), consumer=consumer)
        return offset

    def describe(self) -> dict:
        with self._cond:
            segments = list(self._segments)
            head = self._head
        return {
            "path": str(self.path),
            "head_offset": head,
            "segments": len(segments),
            "consumers": self.consumers.load(),
        }


class ChangefeedReader:
    """Read-only, cross-process changefeed view.

    Re-lists segments on every read so rotations by the writer process
    are picked up; never repairs (the writer owns the files), so a
    torn tail is simply not yet visible.  ``wait_for`` falls back to
    polling because there is no shared condition variable across
    processes.
    """

    POLL_INTERVAL = 0.2

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.consumers = _ConsumerOffsets(self.path / CONSUMERS_FILE)

    @property
    def head_offset(self) -> int:
        segments = _list_segments(self.path)
        if not segments:
            return 0
        first, active = segments[-1]
        records, _ = WriteAheadLog(active).records(repair=False)
        return _check_change(records[-1], active)["offset"] if records else first - 1

    def read(self, since: int = 0, limit: int | None = None) -> list[dict]:
        records = _read_segments(_list_segments(self.path), since, limit, repair=False)
        catalogue.STREAM_CHANGES_READ.inc(len(records))
        return records

    def wait_for(
        self, since: int = 0, timeout: float = 0.0, limit: int | None = None
    ) -> list[dict]:
        records = self.read(since, limit)
        if records or timeout <= 0:
            return records
        catalogue.STREAM_LONGPOLL_WAITS.inc()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            time.sleep(min(self.POLL_INTERVAL, max(deadline - time.monotonic(), 0.01)))
            records = self.read(since, limit)
            if records:
                break
        return records

    def committed(self, consumer: str) -> int:
        return self.consumers.committed(consumer)

    def commit(self, consumer: str, offset: int) -> int:
        offset = self.consumers.commit(consumer, offset)
        catalogue.STREAM_FEED_LAG.set(float(max(self.head_offset - offset, 0)), consumer=consumer)
        return offset

    def describe(self) -> dict:
        return {
            "path": str(self.path),
            "head_offset": self.head_offset,
            "segments": len(_list_segments(self.path)),
            "consumers": self.consumers.load(),
        }
