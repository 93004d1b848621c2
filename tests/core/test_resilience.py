"""Fault-injection suite for the materialisation runner.

Proves the resilience layer's central contract: a run killed mid-flight
(simulated SIGINT, injected unit failure, or a hard worker crash) and
resumed from its checkpoint yields a RelationshipSet identical — sets,
degrees and dimension maps — to an uninterrupted run, for every
checkpointable method; and a worker crash with retries enabled
completes without user intervention.
"""

import json

import pytest

from repro.core import (
    Method,
    compute_baseline,
    compute_baseline_streaming,
    compute_cubemask,
    compute_relationships,
    run_materialization,
)
from repro.paper.cluster_method import compute_clustering
from repro.resilience.faults import Fault, FaultPlan, InjectedFault, truncate_file
from repro.core.parallel import compute_cubemask_parallel
from repro.core.runner import Checkpoint, MaterializationRunner, space_fingerprint
from repro.errors import (
    AlgorithmError,
    CheckpointError,
    UnitTimeoutError,
    WorkerCrashError,
)

from tests.conftest import make_random_space


def assert_identical(a, b):
    """Full-strength equality: sets, OCM degrees and dimension maps."""
    assert a == b
    assert a.degrees == b.degrees
    assert a.partial_map == b.partial_map


@pytest.fixture(scope="module")
def space():
    return make_random_space(120, seed=42)


def clean_result(space, method, **options):
    reference = {
        Method.BASELINE: compute_baseline,
        Method.STREAMING: compute_baseline_streaming,
        Method.CLUSTERING: compute_clustering,
        Method.CUBE_MASKING: compute_cubemask,
    }
    return reference[method](space, **options)


CHECKPOINTABLE = [
    (Method.BASELINE, {}),
    (Method.STREAMING, {}),
    (Method.CLUSTERING, {"seed": 3}),
    (Method.CUBE_MASKING, {}),
]


class TestCleanRuns:
    """Without faults the runner is a drop-in for the direct methods."""

    @pytest.mark.parametrize("method,options", CHECKPOINTABLE)
    def test_runner_matches_direct(self, space, tmp_path, method, options):
        ckpt = tmp_path / "run.jsonl"
        result = compute_relationships(
            space, method, checkpoint=str(ckpt), unit_size=16, **options
        )
        assert_identical(result, clean_result(space, method, **options))
        lines = ckpt.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "header"
        assert len(lines) > 2  # genuinely unit-wise, not one blob

    def test_runner_without_checkpoint(self, space):
        result = run_materialization(space, Method.BASELINE, max_retries=1)
        assert_identical(result, compute_baseline(space))

    def test_parallel_runner_matches_direct(self, space, tmp_path):
        result = compute_relationships(
            space,
            Method.CUBE_MASKING,
            checkpoint=str(tmp_path / "par.jsonl"),
            unit_size=32,
            workers=2,
        )
        assert_identical(result, compute_cubemask(space))

    def test_single_unit_method(self, space, tmp_path):
        small = make_random_space(40, seed=9)
        ckpt = tmp_path / "hybrid.jsonl"
        result = compute_relationships(small, Method.HYBRID, checkpoint=str(ckpt))
        from repro.paper.hybrid import compute_hybrid

        assert result == compute_hybrid(small)
        resumed = compute_relationships(
            small, Method.HYBRID, checkpoint=str(ckpt), resume=True
        )
        assert resumed == result


class TestInterruptAndResume:
    """Simulated SIGINT: the journal flushes, the rerun finishes the job."""

    @pytest.mark.parametrize("method,options", CHECKPOINTABLE)
    def test_kill_then_resume_is_identical(self, space, tmp_path, method, options):
        ckpt = tmp_path / "interrupted.jsonl"
        with pytest.raises(KeyboardInterrupt):
            compute_relationships(
                space,
                method,
                checkpoint=str(ckpt),
                unit_size=16,
                fault_plan=FaultPlan(interrupt_after=1),
                **options,
            )
        completed = [l for l in ckpt.read_text().splitlines()[1:]]
        assert completed  # partial progress survived the interrupt
        resumed = compute_relationships(
            space, method, checkpoint=str(ckpt), unit_size=16, resume=True, **options
        )
        assert_identical(resumed, clean_result(space, method, **options))

    def test_parallel_interrupt_resumes_sequentially(self, space, tmp_path):
        """A parallel run's checkpoint is interchangeable with sequential."""
        ckpt = tmp_path / "par.jsonl"
        with pytest.raises(KeyboardInterrupt):
            compute_relationships(
                space,
                Method.CUBE_MASKING,
                checkpoint=str(ckpt),
                unit_size=32,
                workers=2,
                fault_plan=FaultPlan(interrupt_after=2),
            )
        resumed = compute_relationships(
            space, Method.CUBE_MASKING, checkpoint=str(ckpt), unit_size=32, resume=True
        )
        assert_identical(resumed, compute_cubemask(space))

    def test_resume_skips_completed_units(self, space, tmp_path, monkeypatch):
        ckpt = tmp_path / "done.jsonl"
        compute_relationships(space, Method.BASELINE, checkpoint=str(ckpt), unit_size=16)
        import repro.core.streaming as streaming

        def boom(*args, **kwargs):  # resuming a finished run recomputes nothing
            raise AssertionError("completed unit was recomputed")

        monkeypatch.setattr(streaming, "compute_block", boom)
        resumed = compute_relationships(
            space, Method.BASELINE, checkpoint=str(ckpt), unit_size=16, resume=True
        )
        assert_identical(resumed, compute_baseline(space))


class TestWorkerCrashRecovery:
    """BrokenProcessPool is detected, the pool respawned, the range retried."""

    def test_killed_worker_recovers_without_intervention(self, space, tmp_path):
        plan = FaultPlan([Fault(unit=2, action="kill")], state_dir=tmp_path)
        result = compute_cubemask_parallel(
            space,
            workers=2,
            min_parallel_observations=0,
            unit_size=32,
            fault_plan=plan,
            max_retries=3,
            retry_backoff=0.0,
        )
        assert_identical(result, compute_cubemask(space))

    def test_repeated_kills_degrade_to_sequential(self, space, tmp_path):
        plan = FaultPlan([Fault(unit=1, action="kill", times=10)], state_dir=tmp_path)
        result = compute_cubemask_parallel(
            space,
            workers=2,
            min_parallel_observations=0,
            unit_size=32,
            fault_plan=plan,
            max_retries=1,
            retry_backoff=0.0,
        )
        assert_identical(result, compute_cubemask(space))

    def test_exhausted_retries_raise_without_fallback(self, space, tmp_path):
        plan = FaultPlan([Fault(unit=1, action="kill", times=10)], state_dir=tmp_path)
        with pytest.raises(WorkerCrashError):
            compute_cubemask_parallel(
                space,
                workers=2,
                min_parallel_observations=0,
                unit_size=32,
                fault_plan=plan,
                max_retries=1,
                retry_backoff=0.0,
                fallback_sequential=False,
            )

    def test_crash_through_runner_checkpoints_survivors(self, space, tmp_path):
        ckpt = tmp_path / "crash.jsonl"
        plan = FaultPlan([Fault(unit=2, action="kill")], state_dir=tmp_path / "state")
        (tmp_path / "state").mkdir()
        result = compute_relationships(
            space,
            Method.CUBE_MASKING,
            checkpoint=str(ckpt),
            unit_size=32,
            workers=2,
            fault_plan=plan,
            max_retries=3,
            retry_backoff=0.0,
        )
        assert_identical(result, compute_cubemask(space))

    def test_hung_worker_times_out(self, space, tmp_path):
        plan = FaultPlan(
            [Fault(unit=1, action="delay", seconds=5.0, times=5)], state_dir=tmp_path
        )
        with pytest.raises(UnitTimeoutError):
            compute_cubemask_parallel(
                space,
                workers=2,
                min_parallel_observations=0,
                unit_size=32,
                fault_plan=plan,
                max_retries=0,
                retry_backoff=0.0,
                unit_timeout=0.5,
                fallback_sequential=False,
            )


class TestInjectedUnitFailures:
    """Transient in-unit errors are retried with backoff, then recovered."""

    def test_transient_fault_is_retried(self, space):
        plan = FaultPlan([Fault(unit=1, action="raise", times=2)])
        result = run_materialization(
            space,
            Method.STREAMING,
            unit_size=16,
            fault_plan=plan,
            max_retries=3,
            retry_backoff=0.0,
        )
        assert_identical(result, compute_baseline_streaming(space))

    def test_permanent_fault_exhausts_retries(self, space, tmp_path):
        ckpt = tmp_path / "fail.jsonl"
        plan = FaultPlan([Fault(unit=1, action="raise", times=99)])
        with pytest.raises(WorkerCrashError):
            run_materialization(
                space,
                Method.STREAMING,
                checkpoint=str(ckpt),
                unit_size=16,
                fault_plan=plan,
                max_retries=2,
                retry_backoff=0.0,
            )
        # Units completed before the failure are durable and resumable.
        resumed = run_materialization(
            space, Method.STREAMING, checkpoint=str(ckpt), unit_size=16, resume=True
        )
        assert_identical(resumed, compute_baseline_streaming(space))


class TestCheckpointIntegrity:
    def test_torn_tail_is_repaired(self, space, tmp_path):
        ckpt = tmp_path / "torn.jsonl"
        with pytest.raises(KeyboardInterrupt):
            compute_relationships(
                space,
                Method.CUBE_MASKING,
                checkpoint=str(ckpt),
                unit_size=32,
                fault_plan=FaultPlan(interrupt_after=3),
            )
        intact = len(ckpt.read_text().splitlines())
        truncate_file(ckpt, drop_bytes=9)  # crash mid-append tears the tail
        resumed = compute_relationships(
            space, Method.CUBE_MASKING, checkpoint=str(ckpt), unit_size=32, resume=True
        )
        assert_identical(resumed, compute_cubemask(space))
        assert len(ckpt.read_text().splitlines()) >= intact

    def test_existing_checkpoint_requires_resume(self, space, tmp_path):
        ckpt = tmp_path / "existing.jsonl"
        compute_relationships(space, Method.BASELINE, checkpoint=str(ckpt), unit_size=16)
        with pytest.raises(CheckpointError):
            compute_relationships(space, Method.BASELINE, checkpoint=str(ckpt), unit_size=16)

    def test_mismatched_method_is_rejected(self, space, tmp_path):
        ckpt = tmp_path / "method.jsonl"
        compute_relationships(space, Method.BASELINE, checkpoint=str(ckpt), unit_size=16)
        with pytest.raises(CheckpointError):
            compute_relationships(
                space, Method.STREAMING, checkpoint=str(ckpt), unit_size=16, resume=True
            )

    def test_mismatched_space_is_rejected(self, space, tmp_path):
        ckpt = tmp_path / "space.jsonl"
        compute_relationships(space, Method.BASELINE, checkpoint=str(ckpt), unit_size=16)
        other = make_random_space(80, seed=7)
        with pytest.raises(CheckpointError):
            compute_relationships(
                other, Method.BASELINE, checkpoint=str(ckpt), unit_size=16, resume=True
            )

    def test_mismatched_unit_size_is_rejected(self, space, tmp_path):
        ckpt = tmp_path / "unit.jsonl"
        compute_relationships(space, Method.BASELINE, checkpoint=str(ckpt), unit_size=16)
        with pytest.raises(CheckpointError):
            compute_relationships(
                space, Method.BASELINE, checkpoint=str(ckpt), unit_size=32, resume=True
            )

    def test_mid_file_corruption_is_fatal(self, space, tmp_path):
        ckpt = tmp_path / "corrupt.jsonl"
        compute_relationships(space, Method.BASELINE, checkpoint=str(ckpt), unit_size=16)
        lines = ckpt.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]  # corrupt a middle record
        ckpt.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError):
            compute_relationships(
                space, Method.BASELINE, checkpoint=str(ckpt), unit_size=16, resume=True
            )

    def test_headerless_file_is_rejected(self, space, tmp_path):
        ckpt = tmp_path / "headerless.jsonl"
        ckpt.write_text('{"type": "unit", "id": 0, "delta": {}}\n')
        with pytest.raises(CheckpointError):
            compute_relationships(
                space, Method.BASELINE, checkpoint=str(ckpt), unit_size=16, resume=True
            )

    def test_fingerprint_tracks_content(self, space):
        assert space_fingerprint(space) == space_fingerprint(space)
        assert space_fingerprint(space) != space_fingerprint(make_random_space(80, seed=7))


class TestHarness:
    def test_kill_without_state_dir_is_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan([Fault(unit=0, action="kill")])

    def test_unknown_action_is_rejected(self):
        with pytest.raises(ValueError):
            Fault(unit=0, action="explode")

    def test_faults_fire_a_bounded_number_of_times(self):
        plan = FaultPlan([Fault(unit=0, action="raise", times=2)])
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.before_unit(0)
        plan.before_unit(0)  # exhausted: no longer fires

    def test_truncate_file(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"x" * 100)
        assert truncate_file(path, keep_bytes=42) == 42
        assert path.stat().st_size == 42

    def test_runner_rejects_unknown_options(self, space):
        with pytest.raises(AlgorithmError):
            MaterializationRunner(Method.BASELINE, checkpoint=None, nonsense=1).run(space)

    def test_runner_rejects_unsupported_cubemask_dimensions(self, space):
        with pytest.raises(AlgorithmError):
            run_materialization(
                space, Method.CUBE_MASKING, unit_size=32, collect_partial_dimensions=True
            )

    def test_checkpoint_requires_open_handle(self, tmp_path):
        journal = Checkpoint(tmp_path / "x.jsonl")
        from repro.core import RelationshipSet

        with pytest.raises(CheckpointError):
            journal.append_unit(0, RelationshipSet())
