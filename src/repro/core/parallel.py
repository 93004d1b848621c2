"""Parallel cubeMasking (the paper's "distributed and parallel
contexts" future-work item, §6), hardened against worker failure.

This module spreads the one cubeMasking sweep of
:mod:`repro.core.cubemask` across processes: the parent plans, worker
processes score contiguous ranges of the planned cube-pair order with
the same executor, and the module adds only what a pool needs —
shared-memory publication, the pool itself, retries and degradation.
Instead of pickling the observation space into every worker, the
parent publishes the plan arrays (code ids and keys, level-indexed
ancestor codes, measure-group tables, cube membership and the
cube-pair order) once in a :mod:`multiprocessing.shared_memory`
segment; each worker attaches read-only — the pool-initializer payload
is the segment name plus an O(metadata) layout dict, independent of
the observation count.  Workers concatenate their blocks into one
*columnar* :class:`~repro.core.kernels.PairBlockResult` per range plus
their kernel-counter delta; the parent maps indices back to URIs
(partial results stay columnar all the way into
:meth:`RelationshipSet.add_partial_block`), folds the worker counters
into the process-wide ``repro_kernel_*`` series, and merges.  The
output is always identical to
:func:`repro.core.cubemask.compute_cubemask`.

Process startup still carries real overhead, so this pays off only on
multi-core hosts with larger inputs — small spaces fall back to the
sequential path below ``min_parallel_observations``.

Fault tolerance (the resilience layer's contract):

* a dead worker (``BrokenProcessPool``) is detected, the pool is
  respawned, and the interrupted ranges are retried with capped
  exponential backoff (``max_retries`` / ``retry_backoff``);
* each range can carry a wall-clock ``unit_timeout``; a hung worker
  abandons the pool and the range is retried;
* after repeated failures the computation *degrades gracefully*: the
  remaining ranges are scored sequentially in the parent with the same
  executor, so a flaky pool can never fail a run that sequential
  cubeMasking would finish (set ``fallback_sequential=False`` to get
  :class:`~repro.errors.WorkerCrashError` /
  :class:`~repro.errors.UnitTimeoutError` instead);
* if the shared-memory segment cannot be created at all, the whole run
  degrades to the sequential path rather than failing;
* ``on_unit_complete``/``completed_units`` let
  :class:`repro.core.runner.MaterializationRunner` checkpoint each
  range as it lands and skip ranges already durable in a checkpoint.

Shared-memory lifecycle: the parent owns the segment — it publishes
before spawning the first pool, keeps it alive across pool respawns,
and closes + unlinks it in a ``finally`` once every range has landed.
Workers only ever attach (see :func:`repro.core.kernels.attach_arrays`
for the crash-cleanup contract).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool

from repro.errors import UnitTimeoutError, WorkerCrashError
from repro.core import kernels as _kernels
from repro.core.cubemask import (
    _flush_counts,
    build_cubemask_state,
    check_kernel,
    compute_cubemask,
    emit_block,
    score_pairs,
    score_range,
)
from repro.core.results import RelationshipSet
from repro.core.space import ObservationSpace
from repro.obs import catalogue
from repro.obs.logging import get_logger
from repro.obs.spanstore import SPAN_DIR_ENV
from repro.obs.tracing import (
    current_span_id,
    current_trace_id,
    set_parent_span_id,
    set_trace_id,
    trace,
)

__all__ = [
    "compute_cubemask_parallel",
    "prepare_shared_fanout",
    "enumerate_unit_ranges",
]

logger = get_logger("repro.parallel")

# Worker-process globals, installed by _initializer.
_WORKER_STATE: dict = {}

_BACKOFF_CAP = 30.0

#: Plan and cube arrays published into the shared segment (everything
#: a worker needs that scales with the input).
_PLAN_ARRAYS = ("code_ids", "code_keys", "assignment", "group_overlap", "levels", "anc_codes")
_CUBE_ARRAYS = ("signatures", "members", "cube_offsets", "pairs")

#: Columns of a :class:`~repro.core.kernels.PairBlockResult` and the
#: empty array each one defaults to.
_BLOCK_COLUMNS = (
    ("full_a", _kernels._EMPTY_IDX),
    ("full_b", _kernels._EMPTY_IDX),
    ("compl_a", _kernels._EMPTY_IDX),
    ("compl_b", _kernels._EMPTY_IDX),
    ("partial_a", _kernels._EMPTY_IDX),
    ("partial_b", _kernels._EMPTY_IDX),
    ("partial_counts", _kernels._EMPTY_COUNTS),
)


def prepare_shared_fanout(state: dict):
    """Publish a plan's arrays; returns ``(segment, initializer_meta)``.

    ``initializer_meta`` is everything a worker needs besides the
    segment name — the array layout plus O(k) plan metadata — so the
    per-worker payload does not scale with the observation count.
    """
    arrays = {name: getattr(state["plan"], name) for name in _PLAN_ARRAYS}
    arrays.update((name, state[name]) for name in _CUBE_ARRAYS)
    segment, layout = _kernels.publish_arrays(arrays)
    meta = dict(
        layout=layout,
        level_offsets=state["plan"].level_offsets,
        dimensions=state["dimensions"],
        targets=tuple(sorted(state["targets"])),
        collect_masks=state["collect_masks"],
        # Workers inherit the parent's trace ID so their log records
        # (and any spans they open) correlate with the run, plus the
        # parent's open span ID so worker-side spans parent onto the
        # coordinating span across the process boundary — one
        # assembled tree per compute run.
        trace_id=current_trace_id(),
        parent_span_id=current_span_id(),
        span_dir=os.environ.get(SPAN_DIR_ENV) or None,
    )
    return segment, meta


def enumerate_unit_ranges(total_pairs: int, unit_size: int) -> list[tuple[int, int, int]]:
    """``(unit_id, start, stop)`` ranges over the cube-pair order."""
    bounds = range(0, total_pairs, unit_size) if total_pairs else ()
    return [
        (index, start, min(start + unit_size, total_pairs))
        for index, start in enumerate(bounds)
    ]


def _initializer(segment_name: str, meta: dict, fault_plan=None) -> None:
    """Worker entry: attach to the published arrays zero-copy."""
    from repro.resilience.faults import inject

    inject("worker.start")
    set_trace_id(meta.get("trace_id"))
    set_parent_span_id(meta.get("parent_span_id"))
    if meta.get("span_dir"):
        # Workers persist their own per-PID JSONL span ring next to
        # the parent's, so `repro trace --dir` sees the whole run.
        from repro.obs.spanstore import install_span_store

        install_span_store(meta["span_dir"])
    segment, views = _kernels.attach_arrays(segment_name, meta["layout"])
    plan = _kernels.KernelPlan(
        dimensions=meta["dimensions"],
        level_offsets=meta["level_offsets"],
        **{name: views[name] for name in _PLAN_ARRAYS},
    )
    _WORKER_STATE.clear()
    _WORKER_STATE.update(
        {name: views[name] for name in _CUBE_ARRAYS},
        # the segment reference keeps the mapping alive for the views
        segment=segment,
        plan=plan,
        targets=frozenset(meta["targets"]),
        collect_masks=meta["collect_masks"],
        fault_plan=fault_plan,
    )


def _execute_unit(descriptor: tuple[int, int, int]):
    """Worker entry point: fault hook, then score the range into one
    columnar block plus this process's kernel-counter delta."""
    unit_id, start, stop = descriptor
    plan = _WORKER_STATE.get("fault_plan")
    if plan is not None:
        plan.before_unit(unit_id, in_worker=True)
    before = _kernels.kernel_counters()
    blocks = list(score_pairs(_WORKER_STATE, _WORKER_STATE["pairs"][start:stop]))
    after = _kernels.kernel_counters()
    columns = {
        name: _kernels._cat([getattr(block, name) for block in blocks], empty)
        for name, empty in _BLOCK_COLUMNS
    }
    if _WORKER_STATE["collect_masks"]:
        columns["partial_masks"] = _kernels._cat(
            [block.partial_masks for block in blocks], _kernels._EMPTY_MASKS
        )
    counters = {key: after[key] - before[key] for key in before}
    return unit_id, _kernels.PairBlockResult(**columns), counters


def compute_cubemask_parallel(
    space: ObservationSpace,
    workers: int | None = None,
    collect_partial: bool = True,
    collect_partial_dimensions: bool = False,
    targets=None,
    min_parallel_observations: int = 512,
    unit_size: int | None = None,
    max_retries: int = 2,
    retry_backoff: float = 0.1,
    unit_timeout: float | None = None,
    fault_plan=None,
    on_unit_complete=None,
    completed_units=(),
    fallback_sequential: bool = True,
    kernel: str = "auto",
    stats: dict | None = None,
) -> RelationshipSet:
    """cubeMasking with cube-pair ranges scored in worker processes.

    Produces exactly the sequential result; falls back to the
    sequential path for small inputs where process startup would
    dominate, and for buses too wide for single-word partial-dimension
    masks.  See the module docstring for the zero-copy fan-out, the
    fault-tolerance contract (``max_retries``, ``retry_backoff``,
    ``unit_timeout``, ``fallback_sequential``) and the checkpoint hooks
    (``unit_size``, ``on_unit_complete``, ``completed_units``).
    ``kernel`` is validated exactly as in
    :func:`~repro.core.cubemask.compute_cubemask`; pass a dict as
    ``stats`` to receive the same counter breakdown, with
    ``kernel_pairs``/``kernel_ns`` merged from worker deltas.
    """
    from repro.core.baseline import normalize_targets

    check_kernel(kernel)
    with trace("parallel.compute", observations=len(space)):
        resolved = tuple(sorted(normalize_targets(targets, collect_partial)))
        too_wide = (
            collect_partial_dimensions
            and len(space.dimensions) > _kernels.DIM_MASK_LIMIT
        )
        if too_wide or len(space) < min_parallel_observations:
            return compute_cubemask(
                space,
                collect_partial_dimensions=collect_partial_dimensions,
                targets=resolved,
                stats=stats,
            )

        state = build_cubemask_state(space, resolved, collect_partial_dimensions)
        total_pairs = len(state["pairs"])
        counts = dict(state["counts"])

        worker_count = workers if workers is not None else max(1, (os.cpu_count() or 2) - 1)
        if unit_size is None:
            # A handful of ranges per worker balances skewed cube sizes
            # without paying per-batch IPC for thousands of tiny batches.
            unit_size = max(1, total_pairs // (worker_count * 8))
        done = set(completed_units)
        pending = [d for d in enumerate_unit_ranges(total_pairs, unit_size) if d[0] not in done]

        result = RelationshipSet()
        attempts: dict[int, int] = {d[0]: 0 for d in pending}

        def emit(unit_id: int, delta: RelationshipSet) -> None:
            result.merge(delta)
            if on_unit_complete is not None:
                on_unit_complete(unit_id, delta)

        def emit_worker_unit(unit_id: int, block, counters: dict) -> None:
            # Worker counters died with the worker process; fold the
            # delta into this process's repro_kernel_* series.
            _kernels.merge_counters(counters)
            if counters.get("kernel_pairs"):
                catalogue.PARALLEL_KERNEL_PAIRS.inc(counters["kernel_pairs"])
            counts["kernel_pairs"] += int(counters.get("kernel_pairs", 0))
            counts["kernel_ns"] += int(counters.get("kernel_ns", 0))
            delta = RelationshipSet()
            emit_block(delta, block, state["uris"], state["dimensions"])
            emit(unit_id, delta)

        def degrade(remaining) -> None:
            catalogue.PARALLEL_DEGRADED_RANGES.inc(len(remaining))
            logger.warning(
                "degrading to sequential cubeMasking for %d remaining range(s)",
                len(remaining),
                fields={"ranges": len(remaining)},
            )
            for unit_id, start, stop in remaining:
                if fault_plan is not None:
                    fault_plan.before_unit(unit_id, in_worker=False)
                emit(unit_id, score_range(state, start, stop, counts))

        def finish() -> RelationshipSet:
            _flush_counts(counts)
            if stats is not None:
                stats.update(counts)
            return result

        try:
            with trace("parallel.publish", pairs=total_pairs):
                segment, meta = prepare_shared_fanout(state)
        except OSError as exc:
            logger.warning(
                "shared-memory publication failed (%s) — scoring %d range(s) sequentially",
                exc,
                len(pending),
            )
            degrade(pending)
            return finish()

        try:
            while pending:
                pool = ProcessPoolExecutor(
                    max_workers=worker_count,
                    initializer=_initializer,
                    initargs=(segment.name, meta, fault_plan),
                )
                failure: tuple[tuple[int, int, int], BaseException, str] | None = None
                finished: set[int] = set()
                try:
                    futures = [(pool.submit(_execute_unit, d), d) for d in pending]
                    for future, descriptor in futures:
                        try:
                            payload = future.result(timeout=unit_timeout)
                        except FutureTimeoutError as exc:
                            failure = (descriptor, exc, "timeout")
                            break
                        except (BrokenProcessPool, OSError) as exc:
                            failure = (descriptor, exc, "crash")
                            break
                        except (KeyboardInterrupt, SystemExit):
                            raise
                        except Exception as exc:
                            failure = (descriptor, exc, "error")
                            break
                        finished.add(descriptor[0])
                        catalogue.PARALLEL_UNITS.inc()
                        emit_worker_unit(*payload)
                finally:
                    pool.shutdown(wait=failure is None, cancel_futures=True)

                if failure is None:
                    break
                descriptor, error, kind = failure
                catalogue.PARALLEL_WORKER_FAILURES.inc(kind=kind)
                pending = [d for d in pending if d[0] not in finished]
                unit_id = descriptor[0]
                attempts[unit_id] += 1
                if attempts[unit_id] > max_retries:
                    if fallback_sequential:
                        degrade(pending)
                        pending = []
                        break
                    if kind == "timeout":
                        raise UnitTimeoutError(
                            "cube-pair range timed out", unit=unit_id, timeout=unit_timeout
                        ) from error
                    raise WorkerCrashError(
                        f"cube-pair range failed permanently: {error}",
                        unit=unit_id,
                        attempts=attempts[unit_id],
                    ) from error
                delay = min(retry_backoff * (2 ** (attempts[unit_id] - 1)), _BACKOFF_CAP)
                catalogue.PARALLEL_POOL_RESPAWNS.inc()
                logger.warning(
                    "worker failure (%s) on range %d, attempt %d/%d — respawning pool in %.2fs: %s",
                    kind,
                    unit_id,
                    attempts[unit_id],
                    max_retries + 1,
                    delay,
                    error,
                    fields={"kind": kind, "unit": unit_id, "attempt": attempts[unit_id]},
                )
                if delay > 0:
                    time.sleep(delay)
        finally:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        return finish()
