"""Fault-tolerant materialisation runner: checkpoint/resume for every method.

The paper's workload is *batch materialisation* of S_F/S_P/S_C over
large corpora (§5 runs up to ~2.5M observations).  A monolithic pass
loses hours of Θ(n²)-ish work to one crashed worker, OOM or SIGTERM;
this module decomposes every :class:`~repro.core.api.Method` into a
deterministic sequence of *work units* whose relationship deltas are
journalled to an append-only JSONL checkpoint as they complete, so an
interrupted run resumes from the last durable unit instead of
restarting:

============  ==============================================
method        work unit
============  ==============================================
baseline      row block (scored with the streaming kernel,
streaming     which provably yields the identical result)
clustering    one cluster (the seeded fit is deterministic,
              so a resumed run reassigns identically)
cube_masking  range of the deterministic cube-pair order
              (sequential and parallel share unit ids, so a
              checkpoint is interchangeable between them)
sparql etc.   the whole computation (single unit)
============  ==============================================

Checkpoint format (JSONL, one object per line):

* line 1 — header: ``{"type": "header", "version": 1, "method": ...,
  "space": <fingerprint>, "options": <canonical options>,
  "units": N, "unit_kind": ...}``.  Resume refuses a header that does
  not match the requested computation (:class:`CheckpointError`).
* following lines — ``{"type": "unit", "id": ..., "delta": {"full":
  [...], "complementary": [...], "partial": [...]}}``, appended and
  fsynced once the unit's delta is complete.

A crash can only tear the *final* line; the loader drops a torn tail
(rewriting the repaired journal atomically) and recomputes that unit.
A checkpoint path spelled ``*.rseg`` journals the same records into a
:mod:`repro.storage` segment store's write-ahead log instead
(:func:`open_checkpoint`), so the run's durable state is directly
servable and ``repro compact`` folds it into binary segments.
Worker crashes and injected faults are retried with capped exponential
backoff; SIGINT (KeyboardInterrupt) flushes the journal before
propagating, so Ctrl-C is always resumable.  Failure itself is a
testable input via :class:`repro.resilience.faults.FaultPlan`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from repro.errors import (
    AlgorithmError,
    CheckpointError,
    ComputationError,
    WorkerCrashError,
)
from repro.resilience.faults import FaultPlan, InjectedFault
from repro.core.results import RelationshipSet
from repro.core.space import ObservationSpace
from repro.obs import catalogue
from repro.obs.logging import get_logger
from repro.obs.tracing import trace
from repro.rdf.terms import URIRef

__all__ = [
    "MaterializationRunner",
    "run_materialization",
    "space_fingerprint",
    "Checkpoint",
    "open_checkpoint",
]

logger = get_logger("repro.runner")

CHECKPOINT_VERSION = 1
DEFAULT_ROW_BLOCK = 256
DEFAULT_PAIR_UNIT = 512
_BACKOFF_CAP = 30.0

#: Failures worth retrying: injected/transient faults, crashed
#: workers, OS-level hiccups.  Deterministic input errors
#: (:class:`AlgorithmError`) are not retried.
RETRYABLE = (InjectedFault, WorkerCrashError, ComputationError, OSError)

# ----------------------------------------------------------------------
# Fingerprints — detect checkpoint/input mismatch on resume.
# ----------------------------------------------------------------------
def space_fingerprint(space: ObservationSpace) -> str:
    """A stable digest of the observation space (URIs, codes, measures)."""
    digest = hashlib.sha256()
    digest.update(("\x1f".join(str(d) for d in space.dimensions)).encode())
    for record in space.observations:
        digest.update(b"\x1e")
        digest.update(str(record.uri).encode())
        for code in record.codes:
            digest.update(b"\x1f")
            digest.update(str(code).encode())
        for measure in sorted(str(m) for m in record.measures):
            digest.update(b"\x1d")
            digest.update(measure.encode())
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# Delta (de)serialisation — the unit payloads of the journal.
# ----------------------------------------------------------------------
def _delta_payload(delta: RelationshipSet) -> dict:
    return {
        "full": sorted([str(a), str(b)] for a, b in delta.full),
        "complementary": sorted([str(a), str(b)] for a, b in delta.complementary),
        "partial": [
            {
                "container": str(a),
                "contained": str(b),
                "degree": delta.degrees.get((a, b)),
                "dimensions": sorted(str(d) for d in delta.partial_map.get((a, b), ())),
            }
            for a, b in sorted(delta.partial)
        ],
    }


def _delta_from_payload(payload: dict) -> RelationshipSet:
    delta = RelationshipSet()
    for a, b in payload.get("full", ()):
        delta.add_full(URIRef(a), URIRef(b))
    for a, b in payload.get("complementary", ()):
        delta.add_complementary(URIRef(a), URIRef(b))
    for entry in payload.get("partial", ()):
        dims = frozenset(URIRef(d) for d in entry.get("dimensions", ()))
        delta.add_partial(
            URIRef(entry["container"]),
            URIRef(entry["contained"]),
            dims if dims else None,
            entry.get("degree"),
        )
    return delta


# ----------------------------------------------------------------------
# The append-only JSONL journal.
# ----------------------------------------------------------------------
class Checkpoint:
    """Durable unit journal: header line + one line per completed unit."""

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self._handle = None

    def exists(self) -> bool:
        return self.path.exists()

    # -- writing -------------------------------------------------------
    def create(self, header: dict) -> None:
        self._handle = open(self.path, "w")
        self._write_line({"type": "header", **header})

    def open_append(self) -> None:
        self._handle = open(self.path, "a")

    def append_unit(self, unit_id, delta: RelationshipSet) -> None:
        self._write_line({"type": "unit", "id": unit_id, "delta": _delta_payload(delta)})

    def _write_line(self, obj: dict) -> None:
        if self._handle is None:
            raise CheckpointError("checkpoint is not open for writing")
        self._handle.write(json.dumps(obj, sort_keys=True) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            self._handle.close()
            self._handle = None

    # -- reading -------------------------------------------------------
    def load(self) -> tuple[dict, dict, bool]:
        """Parse the journal into ``(header, deltas_by_unit, repaired)``.

        A torn final line (crash mid-append) is dropped and the repaired
        journal is rewritten atomically; corruption anywhere else raises
        :class:`CheckpointError`.
        """
        from repro.store import atomic_write_text

        try:
            text = self.path.read_text()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}") from exc
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        records: list[dict] = []
        repaired = False
        for index, line in enumerate(lines):
            try:
                record = json.loads(line)
                if not isinstance(record, dict) or "type" not in record:
                    raise ValueError("not a journal record")
            except ValueError as exc:
                if index == len(lines) - 1:
                    # Torn tail from a crash mid-append: drop and repair.
                    repaired = True
                    atomic_write_text(self.path, "".join(l + "\n" for l in lines[:index]))
                    break
                raise CheckpointError(
                    f"corrupt checkpoint {self.path} at line {index + 1}: {exc}"
                ) from exc
            records.append(record)
        if not records or records[0].get("type") != "header":
            raise CheckpointError(f"checkpoint {self.path} has no header line")
        header = records[0]
        deltas: dict = {}
        for record in records[1:]:
            if record.get("type") != "unit" or "id" not in record:
                raise CheckpointError(f"unexpected checkpoint record: {record!r}")
            try:
                deltas[record["id"]] = _delta_from_payload(record.get("delta", {}))
            except (KeyError, TypeError) as exc:
                raise CheckpointError(
                    f"malformed unit delta for {record.get('id')!r}: {exc}"
                ) from exc
        return header, deltas, repaired


def open_checkpoint(path: str | os.PathLike):
    """The journal backend for a checkpoint path.

    A ``*.rseg`` path (or an existing segment-store directory) journals
    units into that store's write-ahead log — the run's output is then
    immediately servable and ``repro compact`` folds it into segments.
    Anything else gets the classic JSONL :class:`Checkpoint`.
    """
    from repro.storage import SegmentJournal, is_segment_checkpoint

    if is_segment_checkpoint(path):
        return SegmentJournal(path)
    return Checkpoint(path)


# ----------------------------------------------------------------------
# Unit plans — how each method decomposes into resumable work.
# ----------------------------------------------------------------------
class _UnitPlan:
    """A deterministic unit sequence plus its executor.

    ``parallel``/``executor_options`` describe *how* units run, not
    *what* they compute — they stay out of ``options_key`` so a
    checkpoint written by a parallel cube_masking run can be resumed
    sequentially (and vice versa).
    """

    def __init__(
        self,
        kind: str,
        unit_ids: list,
        execute,
        options_key: dict,
        parallel: bool = False,
        executor_options: dict | None = None,
    ):
        self.kind = kind
        self.unit_ids = unit_ids
        self.execute = execute
        self.options_key = options_key
        self.parallel = parallel
        self.executor_options = executor_options or {}


def _pop_ignored(options: dict, *names: str) -> None:
    for name in names:
        options.pop(name, None)


def _reject_unknown(options: dict, method) -> None:
    if options:
        raise AlgorithmError(
            f"options not supported by the checkpointing runner for {method.value}: "
            f"{sorted(options)}"
        )


class MaterializationRunner:
    """Executes a relationship computation as recorded, resumable units.

    Parameters
    ----------
    method:
        A :class:`repro.core.api.Method` (or its string value).
    checkpoint:
        Path of the JSONL journal.  ``None`` disables persistence (the
        run is still unit-wise and fault-retrying).
    resume:
        Continue from an existing journal.  Without it, an existing
        checkpoint file is an error — never silently overwritten.
    unit_size:
        Rows per block (baseline/streaming) or cube pairs per range
        (cube_masking); defaults chosen per method.
    max_retries / retry_backoff:
        Per-unit retry budget for transient failures and the base of
        the capped exponential backoff between attempts.
    unit_timeout:
        Wall-clock seconds per unit (enforced on the parallel path,
        where a hung worker can be abandoned).
    fault_plan:
        A :class:`repro.resilience.faults.FaultPlan` for deterministic
        fault injection (tests, chaos drills).
    options:
        Forwarded to the underlying method (``targets=``, ``seed=``,
        ``workers=``/``parallel=True`` for parallel cubeMasking...).
    """

    def __init__(
        self,
        method="cube_masking",
        *,
        checkpoint: str | os.PathLike | None = None,
        resume: bool = False,
        unit_size: int | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
        unit_timeout: float | None = None,
        fault_plan: FaultPlan | None = None,
        fallback_sequential: bool = True,
        **options,
    ):
        from repro.core.api import Method

        self.method = Method(method)
        self.checkpoint_path = checkpoint
        self.resume = resume
        self.unit_size = unit_size
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.unit_timeout = unit_timeout
        self.fault_plan = fault_plan
        self.fallback_sequential = fallback_sequential
        self.options = options

    # ------------------------------------------------------------------
    def run(self, data) -> RelationshipSet:
        """Compute (or finish computing) the relationship set."""
        with trace("runner.run", method=self.method.value):
            return self._run(data)

    def _run(self, data) -> RelationshipSet:
        from repro.core.api import _as_space

        space = _as_space(data)
        catalogue.RUNNER_RUNS.inc()
        plan = self._plan(space)
        header = {
            "version": CHECKPOINT_VERSION,
            "method": self.method.value,
            "space": space_fingerprint(space),
            "options": json.dumps(plan.options_key, sort_keys=True),
            "units": len(plan.unit_ids),
            "unit_kind": plan.kind,
        }

        result = RelationshipSet()
        done: set = set()
        journal = None
        if self.checkpoint_path is not None:
            journal = open_checkpoint(self.checkpoint_path)
            if journal.exists():
                if not self.resume:
                    raise CheckpointError(
                        f"checkpoint {journal.path} already exists; resume it "
                        "(resume=True / --resume) or remove the file to start over"
                    )
                stored, deltas, repaired = journal.load()
                self._validate_header(stored, header, journal.path)
                if repaired:
                    catalogue.RUNNER_CHECKPOINT_REPAIRS.inc()
                    logger.warning(
                        "checkpoint %s had a torn final record (crash mid-append); "
                        "dropped it and will recompute that unit",
                        journal.path,
                        fields={"checkpoint": str(journal.path)},
                    )
                known = set(plan.unit_ids)
                for unit_id, delta in deltas.items():
                    if unit_id not in known:
                        raise CheckpointError(
                            f"checkpoint {journal.path} records unknown unit {unit_id!r}"
                        )
                    result.merge(delta)
                    done.add(unit_id)
                if done:
                    catalogue.RUNNER_RESUMED_UNITS.inc(len(done))
                journal.open_append()
            else:
                journal.create(header)

        completed = len(done)

        def emit(unit_id, delta: RelationshipSet, merge: bool = True) -> None:
            nonlocal completed
            if merge:
                result.merge(delta)
            if journal is not None:
                journal.append_unit(unit_id, delta)
            completed += 1
            catalogue.RUNNER_UNITS.inc()
            if self.fault_plan is not None:
                self.fault_plan.after_unit(completed)

        try:
            if plan.parallel:
                self._run_parallel(space, plan, done, result, emit)
            else:
                self._run_sequential(plan, done, emit)
        except KeyboardInterrupt:
            # Cooperative cancellation: the journal already holds every
            # completed unit; flush and close it so the run is resumable,
            # then let the interrupt propagate.
            if journal is not None:
                journal.close()
                logger.warning(
                    "interrupted after %d/%d unit(s); resume with the same checkpoint",
                    completed,
                    len(plan.unit_ids),
                )
            raise
        finally:
            if journal is not None:
                journal.close()
        return result

    # ------------------------------------------------------------------
    def _validate_header(self, stored: dict, expected: dict, path) -> None:
        for key in ("version", "method", "space", "options", "units", "unit_kind"):
            if stored.get(key) != expected[key]:
                raise CheckpointError(
                    f"checkpoint {path} does not match this computation: "
                    f"{key}={stored.get(key)!r} recorded, {expected[key]!r} requested"
                )

    # ------------------------------------------------------------------
    def _run_sequential(self, plan: _UnitPlan, done: set, emit) -> None:
        for unit_id in plan.unit_ids:
            if unit_id in done:
                continue
            delta = self._attempt(unit_id, plan.execute)
            emit(unit_id, delta)

    def _attempt(self, unit_id, execute) -> RelationshipSet:
        attempts = 0
        while True:
            try:
                if self.fault_plan is not None:
                    self.fault_plan.before_unit(unit_id, in_worker=False)
                return execute(unit_id)
            except (KeyboardInterrupt, SystemExit, CheckpointError):
                raise
            except RETRYABLE as exc:
                attempts += 1
                if attempts > self.max_retries:
                    catalogue.RUNNER_UNIT_FAILURES.inc()
                    raise WorkerCrashError(
                        f"unit failed permanently: {exc}", unit=unit_id, attempts=attempts
                    ) from exc
                catalogue.RUNNER_RETRIES.inc()
                delay = min(self.retry_backoff * (2 ** (attempts - 1)), _BACKOFF_CAP)
                logger.warning(
                    "unit %r failed (attempt %d/%d), retrying in %.2fs: %s",
                    unit_id,
                    attempts,
                    self.max_retries + 1,
                    delay,
                    exc,
                    fields={"unit": unit_id, "attempt": attempts, "delay": delay},
                )
                if delay > 0:
                    time.sleep(delay)

    def _run_parallel(self, space, plan: _UnitPlan, done: set, result, emit) -> None:
        from repro.core.parallel import compute_cubemask_parallel

        parallel_result = compute_cubemask_parallel(
            space,
            min_parallel_observations=0,
            unit_size=plan.options_key["unit_size"],
            targets=tuple(plan.options_key["targets"]),
            max_retries=self.max_retries,
            retry_backoff=self.retry_backoff,
            unit_timeout=self.unit_timeout,
            fault_plan=self.fault_plan,
            fallback_sequential=self.fallback_sequential,
            completed_units=done,
            # The parallel executor merges into its own result; only
            # journal + interrupt bookkeeping happen per unit here.
            on_unit_complete=lambda unit_id, delta: emit(unit_id, delta, merge=False),
            **plan.executor_options,
        )
        result.merge(parallel_result)

    # ------------------------------------------------------------------
    # Per-method unit plans.
    # ------------------------------------------------------------------
    def _plan(self, space: ObservationSpace) -> _UnitPlan:
        from repro.core.api import Method

        if self.method in (Method.BASELINE, Method.STREAMING):
            return self._plan_row_blocks(space)
        if self.method is Method.CLUSTERING:
            return self._plan_clusters(space)
        if self.method is Method.CUBE_MASKING:
            return self._plan_cube_pairs(space)
        return self._plan_single(space)

    def _plan_row_blocks(self, space: ObservationSpace) -> _UnitPlan:
        from repro.core.api import Method
        from repro.core.baseline import normalize_targets
        from repro.core.streaming import StreamingContext, compute_block

        options = dict(self.options)
        targets = normalize_targets(
            options.pop("targets", None), options.pop("collect_partial", True)
        )
        default_dims = self.method is Method.BASELINE
        collect_dims = options.pop("collect_partial_dimensions", default_dims)
        block = self.unit_size or options.pop("block_size", DEFAULT_ROW_BLOCK)
        # The blocked kernel is backend-free; these baseline tuning
        # knobs cannot change the result, so they are accepted and
        # ignored rather than rejected.
        _pop_ignored(options, "backend", "chunk", "block_size")
        _reject_unknown(options, self.method)
        if block < 1:
            raise AlgorithmError("unit_size/block_size must be >= 1")

        bounds = [(start, min(start + block, len(space))) for start in range(0, len(space), block)]
        context_cache: list[StreamingContext] = []

        def execute(unit_id: int) -> RelationshipSet:
            if not context_cache:
                context_cache.append(StreamingContext(space, targets, collect_dims))
            return compute_block(context_cache[0], *bounds[unit_id])

        return _UnitPlan(
            kind="row-blocks",
            unit_ids=list(range(len(bounds))),
            execute=execute,
            options_key={
                "targets": sorted(targets),
                "collect_partial_dimensions": collect_dims,
                "unit_size": block,
            },
        )

    def _plan_clusters(self, space: ObservationSpace) -> _UnitPlan:
        import numpy as np

        from repro.core.baseline import compute_baseline, normalize_targets
        from repro.core.cluster_method import cluster_labels

        options = dict(self.options)
        fit = {
            name: options.pop(name)
            for name in (
                "algorithm",
                "sample_rate",
                "n_clusters",
                "seed",
                "canopy_t1",
                "canopy_t2",
                "min_sample",
            )
            if name in options
        }
        targets = normalize_targets(
            options.pop("targets", None), options.pop("collect_partial", True)
        )
        collect_dims = options.pop("collect_partial_dimensions", False)
        _reject_unknown(options, self.method)

        members: dict[str, list[int]] = {}
        if len(space):
            labels = cluster_labels(space, **fit)
            for cluster in np.unique(labels):
                indices = [int(i) for i in np.flatnonzero(labels == cluster)]
                if len(indices) >= 2:
                    members[f"cluster-{int(cluster)}"] = indices

        def execute(unit_id: str) -> RelationshipSet:
            sub_space = space.select(members[unit_id])
            return compute_baseline(
                sub_space,
                collect_partial_dimensions=collect_dims,
                targets=targets,
            )

        return _UnitPlan(
            kind="clusters",
            unit_ids=sorted(members),
            execute=execute,
            options_key={
                "targets": sorted(targets),
                "collect_partial_dimensions": collect_dims,
                "fit": {k: fit[k] for k in sorted(fit)},
            },
        )

    def _plan_cube_pairs(self, space: ObservationSpace) -> _UnitPlan:
        from repro.core.baseline import normalize_targets
        from repro.core.cubemask import build_cubemask_state, check_kernel, score_range
        from repro.core.parallel import enumerate_unit_ranges

        options = dict(self.options)
        parallel = bool(options.pop("parallel", False)) or "workers" in options
        executor_options = {
            name: options.pop(name) for name in ("workers",) if name in options
        }
        targets = normalize_targets(
            options.pop("targets", None), options.pop("collect_partial", True)
        )
        if options.pop("collect_partial_dimensions", False):
            raise AlgorithmError(
                "collect_partial_dimensions is not supported by the checkpointing "
                "cube_masking runner; use the baseline method for per-dimension maps"
            )
        check_kernel(options.pop("kernel", "auto"))
        _pop_ignored(options, "prefetch_children", "min_parallel_observations", "batch_size")
        _reject_unknown(options, self.method)

        resolved = tuple(sorted(targets))
        state = build_cubemask_state(space, resolved)
        unit = self.unit_size or DEFAULT_PAIR_UNIT
        if unit < 1:
            raise AlgorithmError("unit_size must be >= 1")
        ranges = enumerate_unit_ranges(len(state["pairs"]), unit)
        bounds = {unit_id: (start, stop) for unit_id, start, stop in ranges}

        def execute(unit_id: int) -> RelationshipSet:
            return score_range(state, *bounds[unit_id])

        return _UnitPlan(
            kind="cube-pair-ranges",
            unit_ids=[unit_id for unit_id, _, _ in ranges],
            execute=execute,
            options_key={"targets": list(resolved), "unit_size": unit},
            parallel=parallel,
            executor_options=executor_options,
        )

    def _plan_single(self, space: ObservationSpace) -> _UnitPlan:
        options = dict(self.options)

        def execute(unit_id: str) -> RelationshipSet:
            from repro.core.api import _dispatch_table

            implementation = _dispatch_table()[self.method]
            return implementation(space, **options)

        return _UnitPlan(
            kind="single",
            unit_ids=["all"] if len(space) else [],
            execute=execute,
            options_key={"options": repr(sorted(options.items()))},
        )


def run_materialization(data, method="cube_masking", **kwargs) -> RelationshipSet:
    """One-shot convenience wrapper around :class:`MaterializationRunner`."""
    runner_params = {}
    for name in (
        "checkpoint",
        "resume",
        "unit_size",
        "max_retries",
        "retry_backoff",
        "unit_timeout",
        "fault_plan",
        "fallback_sequential",
    ):
        if name in kwargs:
            runner_params[name] = kwargs.pop(name)
    return MaterializationRunner(method, **runner_params, **kwargs).run(data)
