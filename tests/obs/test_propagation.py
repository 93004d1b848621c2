"""Trace-ID propagation into the shared-memory pool fan-out, and the
exposition validator's command-line entry point."""

from repro.core.cubemask import build_cubemask_state
from repro.core.parallel import prepare_shared_fanout
from repro.obs.exposition import main as exposition_main
from repro.obs.tracing import bind_trace, trace

from tests.conftest import make_random_space


class TestWorkerPropagation:
    def test_fanout_meta_carries_trace_id(self):
        """Worker initializer metadata ships the parent's trace ID, so
        worker-side spans join the same trace."""
        space = make_random_space(40, seed=13)
        state = build_cubemask_state(space, ("full",))
        with bind_trace("beefbeefbeefbeefbeefbeefbeefbeef"):
            segment, meta = prepare_shared_fanout(state)
        try:
            assert meta["trace_id"] == "beefbeefbeefbeefbeefbeefbeefbeef"
        finally:
            segment.close()
            segment.unlink()

    def test_fanout_meta_without_trace(self):
        space = make_random_space(40, seed=13)
        state = build_cubemask_state(space, ("full",))
        segment, meta = prepare_shared_fanout(state)
        try:
            assert meta["trace_id"] is None
            assert meta["parent_span_id"] is None
        finally:
            segment.close()
            segment.unlink()

    def test_fanout_meta_carries_parent_span_id(self):
        """Worker spans must parent onto the span open at fan-out time,
        so `repro trace --dir` renders one tree across processes."""
        space = make_random_space(40, seed=13)
        state = build_cubemask_state(space, ("full",))
        with trace("parallel.compute") as span:
            segment, meta = prepare_shared_fanout(state)
        try:
            assert meta["parent_span_id"] == span.span_id
        finally:
            segment.close()
            segment.unlink()

    def test_fanout_meta_carries_span_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SPAN_DIR", str(tmp_path))
        space = make_random_space(40, seed=13)
        state = build_cubemask_state(space, ("full",))
        segment, meta = prepare_shared_fanout(state)
        try:
            assert meta["span_dir"] == str(tmp_path)
        finally:
            segment.close()
            segment.unlink()


class TestExpositionCli:
    def test_valid_payload_passes(self, tmp_path, capsys):
        payload = (
            "# HELP x_total X.\n# TYPE x_total counter\nx_total 3\n"
        )
        path = tmp_path / "metrics.txt"
        path.write_text(payload)
        code = exposition_main([str(path), "--require", "x_total"])
        assert code == 0
        assert "exposition OK" in capsys.readouterr().out

    def test_missing_requirement_fails(self, tmp_path, capsys):
        path = tmp_path / "metrics.txt"
        path.write_text("# TYPE a gauge\na 1\n")
        code = exposition_main([str(path), "--require", "missing_total"])
        assert code == 1
        assert "missing" in capsys.readouterr().err

    def test_min_series_enforced(self, tmp_path, capsys):
        path = tmp_path / "metrics.txt"
        path.write_text("# TYPE a gauge\na 1\n")
        code = exposition_main([str(path), "--min-series", "5"])
        assert code == 1

    def test_untyped_sample_rejected(self, tmp_path, capsys):
        path = tmp_path / "metrics.txt"
        path.write_text("orphan_total 3\n")
        code = exposition_main([str(path)])
        assert code == 1
        assert "no preceding # TYPE" in capsys.readouterr().err
