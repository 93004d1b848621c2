"""MetricsRegistry primitives: rendering, escaping, histograms."""

import math
import threading

import pytest

from repro.obs.registry import (
    MetricsRegistry,
    escape_label_value,
    format_value,
    get_registry,
)

from tests.exposition import parse_exposition, validate


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestFormatting:
    def test_label_escaping(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        assert escape_label_value("plain") == "plain"

    def test_escaped_labels_round_trip_through_parser(self, registry):
        counter = registry.counter("evil_total", "Evil.", labelnames=("path",))
        nasty = 'C:\\tmp\\"x"\nend'
        counter.inc(path=nasty)
        families = parse_exposition(registry.render())
        (sample,) = families["evil_total"].samples
        assert sample.labels["path"] == nasty

    def test_format_value(self):
        assert format_value(3) == "3"
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"
        assert format_value(math.nan) == "NaN"


class TestCounterGauge:
    def test_counter_basics(self, registry):
        counter = registry.counter("c_total", "C.")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_is_idempotent(self, registry):
        a = registry.counter("same_total", "First.")
        b = registry.counter("same_total", "Second.")
        assert a is b

    def test_kind_mismatch_rejected(self, registry):
        registry.counter("thing_total", "X.")
        with pytest.raises(ValueError):
            registry.gauge("thing_total", "X.")
        registry.counter("lab_total", "X.", labelnames=("a",))
        with pytest.raises(ValueError):
            registry.counter("lab_total", "X.", labelnames=("b",))

    def test_labelled_counter_items(self, registry):
        counter = registry.counter("l_total", "L.", labelnames=("kind",))
        counter.inc(kind="a")
        counter.inc(2, kind="b")
        assert counter.items() == [({"kind": "a"}, 1.0), ({"kind": "b"}, 2.0)]
        assert counter.total() == 3.0

    def test_gauge_set_and_function(self, registry):
        gauge = registry.gauge("g", "G.")
        gauge.set(5)
        gauge.dec(2)
        assert gauge.value() == 3
        gauge.set_function(lambda: 42.0)
        assert "g 42" in registry.render()


class TestHistogram:
    def test_buckets_cumulative_with_inf(self, registry):
        histogram = registry.histogram("h", "H.", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        text = registry.render()
        families = parse_exposition(text)
        buckets = {
            sample.labels["le"]: sample.value
            for sample in families["h"].samples
            if sample.name == "h_bucket"
        }
        assert buckets == {"0.1": 1.0, "1": 2.0, "+Inf": 3.0}
        counts = {
            sample.name: sample.value
            for sample in families["h"].samples
            if sample.name in ("h_sum", "h_count")
        }
        assert counts["h_count"] == 3.0
        assert counts["h_sum"] == pytest.approx(5.55)
        assert validate(text) == []

    def test_labelled_histogram(self, registry):
        histogram = registry.histogram(
            "lat", "L.", buckets=(1.0,), labelnames=("endpoint",)
        )
        histogram.observe(0.5, endpoint="query")
        histogram.observe(2.0, endpoint="query")
        assert histogram.count(endpoint="query") == 2
        assert validate(registry.render()) == []


class TestRegistry:
    def test_render_is_valid_exposition(self, registry):
        registry.counter("a_total", "A.").inc()
        registry.gauge("b", "B.").set(1)
        registry.histogram("c", "C.").observe(0.1)
        text = registry.render()
        assert text.endswith("\n")
        assert validate(text, require=("a_total", "b", "c")) == []

    def test_snapshot_shapes(self, registry):
        registry.counter("u_total", "U.").inc(4)
        labelled = registry.counter("v_total", "V.", labelnames=("k",))
        labelled.inc(k="x")
        snapshot = registry.snapshot()
        assert snapshot["u_total"]["value"] == 4
        assert snapshot["v_total"]["series"] == {"k=x": 1.0}

    def test_reset(self, registry):
        registry.counter("r_total", "R.").inc()
        registry.reset()
        assert registry.counter("r_total", "R.").value() == 0

    def test_standard_metrics(self):
        text = get_registry().render()
        assert "repro_build_info" in text
        assert "repro_process_uptime_seconds" in text
        assert validate(text, require=("repro_build_info",)) == []

    def test_global_registry_has_build_info(self):
        assert "repro_build_info" in get_registry().names()


class TestConcurrency:
    def test_hammer(self, registry):
        """Many threads incrementing shared metrics lose no updates."""
        counter = registry.counter("hammer_total", "H.", labelnames=("worker",))
        histogram = registry.histogram("hammer_lat", "H.", buckets=(0.5,))
        rounds, threads = 200, 8

        def work(ident: int) -> None:
            for _ in range(rounds):
                counter.inc(worker=str(ident % 4))
                histogram.observe(0.25)
                registry.render()  # readers interleave with writers

        pool = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert counter.total() == rounds * threads
        assert histogram.count() == rounds * threads
        assert validate(registry.render()) == []
