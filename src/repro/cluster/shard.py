"""The shard worker: one process serving its slice of the store.

A shard is an ordinary :class:`~repro.service.server.RelationshipServer`
over an ordinary :class:`~repro.service.engine.QueryEngine` — the only
difference is *what it loads*: the lazy segment view is restricted to
the ``(dataset, lattice-signature)`` partition keys the cluster
manifest's consistent-hash ring assigns to this shard, so each of N
shard processes decodes ~1/N of the segment bytes, via the same
``mmap`` attach every reader uses (replicas of one shard therefore
share the kernel page cache for their segment files rather than
duplicating decoded heap... the decoded sets are per-process, the
*file bytes* are shared).

Shards are **read-only** (POST/DELETE answer 405): the store's single
writer is a plain ``repro serve`` or the offline pipeline; shards pick
up its WAL output at startup.  WAL deltas are unpartitioned, so when
the observation space is available each shard prunes replayed pairs
down to the ones whose canonical first element it owns — every pair
then lives on exactly one shard and scatter/gather sums (e.g. the
``summary`` endpoint) count each pair once.

Hardening is per-shard and reuses :mod:`repro.resilience` wholesale: a
circuit breaker on the shard's segment decodes, a load shedder on its
handler pool, deadline budgets from the router's ``X-Deadline-Ms``
header, and graceful SIGTERM drain.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.cluster.manifest import ClusterManifest
from repro.cluster.ring import partition_key_str
from repro.core.results import RelationshipSet
from repro.service.engine import QueryEngine

__all__ = ["build_shard_engine", "prune_foreign_pairs", "write_endpoint_file"]


def _partition_tuples(entries: list[dict]) -> list[tuple]:
    return [
        (
            entry.get("dataset"),
            tuple(entry["signature"]) if entry.get("signature") is not None else None,
        )
        for entry in entries
    ]


def prune_foreign_pairs(result: RelationshipSet, owned: set[str], space) -> int:
    """Drop pairs whose canonical first element another shard owns.

    Segment pairs are partitioned exactly, so only WAL-replayed pairs
    can be foreign.  ``owned`` holds this shard's partition-key strings
    (see :func:`~repro.cluster.ring.partition_key_str`); observations
    the space does not know belong to the ``default`` partition.
    Returns how many pairs were dropped.
    """
    if space is None:
        return 0
    keys = {uri: partition_key_str(*key) for uri, key in space.partition_keys().items()}
    default_key = partition_key_str(None, None)

    def foreign(pair) -> bool:
        return keys.get(pair[0], default_key) not in owned

    dropped = 0
    for field in ("full", "partial", "complementary"):
        pairs = getattr(result, field)
        doomed = {pair for pair in pairs if foreign(pair)}
        pairs -= doomed
        dropped += len(doomed)
        if field == "partial":
            for pair in doomed:
                result.partial_map.pop(pair, None)
                result.degrees.pop(pair, None)
    return dropped


def build_shard_engine(
    store,
    manifest: ClusterManifest,
    shard_id: int,
    space=None,
    cache_size: int = 1024,
    breaker=None,
):
    """A :class:`QueryEngine` over shard ``shard_id``'s partitions.

    Startup stays O(manifest): the partition-filtered lazy view defers
    segment decodes to the first query, like single-process serve.  The
    WAL prune (space permitting) therefore also runs lazily, wrapped
    around the view's materialisation.
    """
    if not 0 <= shard_id < manifest.shards:
        raise ValueError(
            f"shard id {shard_id} out of range for a {manifest.shards}-shard cluster"
        )
    if breaker is not None:
        store.breaker = breaker
    assigned = manifest.partitions_for(shard_id)
    partitions = _partition_tuples(assigned)
    owned = {
        partition_key_str(entry.get("dataset"), entry.get("signature"))
        for entry in assigned
    }
    result = store.relationship_set(partitions=partitions)
    if space is not None:
        # Hook the prune into lazy materialisation: _materialise sets
        # the slots from store.load_partitions, after which the view
        # behaves like a plain RelationshipSet we can filter in place.
        original = result._materialise

        def materialise_and_prune():
            original()
            prune_foreign_pairs(result, owned, space)

        result._materialise = materialise_and_prune

    from repro.storage import LazyRelationshipIndex

    # Shards serve the store's changefeed read-only: the single writer
    # publishes into <store>/changefeed, every shard re-lists it, so
    # GET /changes works on any replica (and the router merges them).
    changefeed = None
    feed_dir = Path(store.path) / "changefeed"
    if feed_dir.is_dir():
        from repro.stream import ChangefeedReader

        changefeed = ChangefeedReader(feed_dir)

    engine = QueryEngine(
        result,
        space,
        cache_size=cache_size,
        index=LazyRelationshipIndex(result, space),
        storage_info=store.describe,
        changefeed=changefeed,
    )
    return engine, assigned


def write_endpoint_file(path: str | os.PathLike, payload: dict) -> None:
    """Atomically publish a worker's bound endpoint for the supervisor."""
    from repro.store import atomic_write_text

    atomic_write_text(Path(path), json.dumps(payload, indent=2))
