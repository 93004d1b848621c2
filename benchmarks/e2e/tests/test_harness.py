"""Self-tests of the end-to-end benchmark harness.

Run from the repo root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter
from pathlib import Path

import pytest

from benchmarks.e2e import layers, pipeline, run
from benchmarks.e2e import workloads as wl
from benchmarks.e2e.trace import Recorder

from repro.data.realworld import build_realworld_cubespace

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = run.SPEC


# -- BENCHMARK.json against the contract -------------------------------
def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = run.spec_metrics("end_to_end")["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_names_and_units():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_emitted_metrics_match_spec_both_ways(tmp_path):
    """One traced smoke run emits exactly the declared names — both the
    end-to-end set and the per-layer set — and passes its own gates."""
    workload = wl.scaled(wl.WORKLOADS["serve-mix"], smoke=True)
    result, layer, rec = layers.run_traced(workload, 42, run.SMOKE_SECONDS, tmp_path)
    assert set(result.metrics) == set(run.spec_metrics("end_to_end"))
    assert set(layer) == set(run.spec_metrics("per_layer"))
    assert result.failed == 0, result.reasons
    assert result.attempted > pipeline.DEFINITION_PAIRS
    assert layer["trace.coverage_ratio"] >= 0.90
    line = json.loads(run.driver_line(result, None))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())
    with pytest.raises(pipeline.BenchmarkError):
        run.with_units("end_to_end", {**result.metrics, "extra": 1.0})


# -- percentiles -------------------------------------------------------
def test_percentile_interpolates():
    values = list(range(1, 102))  # 1..101
    assert pipeline.percentile(values, 0) == 1
    assert pipeline.percentile(values, 50) == 51
    assert pipeline.percentile(values, 90) == 91
    assert pipeline.percentile([1.0, 2.0], 50) == 1.5
    with pytest.raises(ValueError):
        pipeline.percentile([], 50)


def test_percentile_rule_needs_ten_samples_beyond():
    assert pipeline.percentile_supported(100, 90)
    assert not pipeline.percentile_supported(99, 90)
    assert pipeline.percentile_supported(1000, 99)
    assert not pipeline.percentile_supported(360, 99)
    assert pipeline.percentile_supported(20, 50)


# -- spans -------------------------------------------------------------
def test_span_self_time_is_duration_minus_children():
    rec = Recorder("t")
    with rec.span("root"):
        time.sleep(0.02)
        with rec.span("child"):
            time.sleep(0.03)
            with rec.span("grandchild"):
                time.sleep(0.01)
        with rec.span("child"):
            time.sleep(0.01)
    own = rec.self_times()
    by_name = {s.name: s for s in rec.spans}
    root, grandchild = by_name["root"], by_name["grandchild"]
    assert [s.parent_id for s in rec.spans] == [None, 0, 1, 0]
    assert {s.trace_id for s in rec.spans} == {"t"}
    assert own[root.span_id] == pytest.approx(root.duration - rec.total("child"))
    assert own[grandchild.span_id] == grandchild.duration
    assert sum(own.values()) == pytest.approx(root.duration)
    assert rec.self_total("child") == pytest.approx(rec.total("child") - grandchild.duration)
    assert rec.count("child") == 2
    assert rec.coverage(("root",)) == pytest.approx(rec.total("child") / root.duration)
    assert 0.6 < rec.coverage(("root",)) < 0.8


def test_wrap_records_calls_and_restores(tmp_path):
    class Layer:
        @staticmethod
        def work(x):
            return x + 1

    rec = Recorder()
    with rec.wrap(Layer, "work", "layer.work"):
        assert Layer.work(1) == 2 and Layer.work(2) == 3
    assert rec.count("layer.work") == 2
    assert Layer.work(5) == 6 and rec.count("layer.work") == 2
    rec.dump(tmp_path / "trace.jsonl")
    rows = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert [row["name"] for row in rows] == ["layer.work", "layer.work"]
    assert all(row["self"] == row["duration"] for row in rows)


# -- inputs ------------------------------------------------------------
def test_holdout_split_is_seed_deterministic():
    cube = build_realworld_cubespace(0.001, 3)
    total = cube.observation_count()
    base_a, held_a = wl.split_holdout(cube, 20, seed=3)
    base_b, held_b = wl.split_holdout(cube, 20, seed=3)
    _, held_c = wl.split_holdout(cube, 20, seed=4)
    assert [o.uri for o in held_a] == [o.uri for o in held_b]
    assert [o.uri for o in held_a] != [o.uri for o in held_c]
    assert [o.uri for o in base_a.observations()] == [o.uri for o in base_b.observations()]
    assert base_a.observation_count() == total - 20
    assert not {o.uri for o in held_a} & {o.uri for o in base_a.observations()}


def test_request_stream_is_seed_deterministic_and_follows_the_mix():
    uris = [f"http://example.org/o/{i}" for i in range(500)]
    workload = wl.WORKLOADS["serve-mix"]
    first = [next(s) for s in [wl.request_stream(workload, uris, 9)] for _ in range(2000)]
    again = [next(s) for s in [wl.request_stream(workload, uris, 9)] for _ in range(2000)]
    assert first == again
    relations = {relation for relation, _, _ in first}
    assert relations == {relation for relation, _, _ in wl.SERVE_MIX}
    per_uri = Counter(uri for _, uri, _ in first)
    hot_hits = sum(n for n in per_uri.values() if n > 20)  # uniform URIs get ~2 each
    assert 0.4 < hot_hits / len(first) < 0.6
    assert sum(1 for n in per_uri.values() if n > 20) == wl.HOT_SET
    assert wl.request_path("related", "http://a/b c", "?k=10") == "/observations/http%3A%2F%2Fa%2Fb%20c/related?k=10"


def test_paths_hold_only_regular_files():
    here = Path(run.HERE)
    for path in here.rglob("*"):
        if "out" in path.relative_to(here).parts or "__pycache__" in path.parts:
            continue
        assert not path.is_symlink(), path
