"""MetricsRegistry (labeled counter, gauge and histogram families),
resource gauges, and the exposition linter the CI smoke job runs
against the live ``--metrics-port`` endpoint."""

from __future__ import annotations

import logging
import math

import pytest

from repro.obs import MetricsRegistry, register_resource_gauges, rss_bytes
from repro.obs.metrics import LATENCY_BOUNDS
from repro.obs.promlint import lint


class TestRegistry:
    def test_gauge_and_counter_collect(self):
        registry = MetricsRegistry()
        registry.register_gauge("g", lambda: 41.5, help="a gauge")
        counter = registry.counter("c_total", help="a counter")
        counter.inc()
        counter.inc(2)
        assert registry.collect() == {"g": 41.5, "c_total": 3}

    def test_counter_is_idempotent_per_name(self):
        registry = MetricsRegistry()
        a = registry.counter("c_total", help="a counter")
        b = registry.counter("c_total", help="ignored")
        a.inc()
        assert b is a and b.value == 1

    def test_name_collisions_raise(self):
        registry = MetricsRegistry()
        registry.register_gauge("x", lambda: 0, help="h")
        with pytest.raises(ValueError):
            registry.counter("x", help="h")
        registry.counter("y_total", help="h")
        with pytest.raises(ValueError):
            registry.register_gauge("y_total", lambda: 0, help="h")

    def test_failing_gauge_is_skipped_in_collect_and_text(self, caplog):
        """One rule on both surfaces: a gauge that raises is left out,
        and each miss is logged."""
        registry = MetricsRegistry()

        def boom() -> float:
            raise RuntimeError("scrape-time failure")

        registry.register_gauge("bad", boom, help="h")
        registry.register_gauge("good", lambda: 1.0, help="h")
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert registry.collect() == {"good": 1.0}
            text = registry.render_text()
        assert "bad" not in text and "good 1" in text
        misses = [
            r for r in caplog.records if "metrics.gauge_error" in r.getMessage()
        ]
        assert len(misses) == 2

    def test_non_finite_samples_stay_out_of_collect(self):
        registry = MetricsRegistry()
        registry.register_gauge("inf", lambda: math.inf, help="h")
        registry.register_gauge(
            "burn", lambda: {"a": math.inf, "b": 2.0}, help="h",
            labels=("dataset",),
        )
        assert registry.collect() == {"burn": {"b": 2.0}}
        text = registry.render_text()
        assert "inf +Inf" in text and 'burn{dataset="a"} +Inf' in text
        assert lint(text) == []

    def test_render_text_lints_clean(self):
        registry = MetricsRegistry()
        registry.register_gauge("repro_g", lambda: 2.5, help="gauge help")
        registry.counter("repro_c_total", help="counter help").inc(7)
        text = registry.render_text()
        assert lint(text) == []
        assert "# TYPE repro_g gauge" in text
        assert "# TYPE repro_c_total counter" in text

    def test_unregister(self):
        registry = MetricsRegistry()
        registry.register_gauge("g", lambda: 1, help="h")
        registry.unregister("g")
        assert registry.collect() == {}


class TestLabeledFamilies:
    def test_labeled_counter_renders_sorted_series_and_collects_by_label(self):
        registry = MetricsRegistry()
        requests = registry.counter("r_total", help="h", labels=("op",))
        requests.inc(labels=("ping",))
        requests.inc(2, ("get_next",))
        assert registry.collect() == {"r_total": {"get_next": 2, "ping": 1}}
        text = registry.render_text()
        assert text.index('r_total{op="get_next"} 2') < text.index(
            'r_total{op="ping"} 1'
        )
        assert lint(text) == []

    def test_labeled_counter_redeclared_with_other_labels_raises(self):
        registry = MetricsRegistry()
        registry.counter("r_total", help="h", labels=("op",))
        with pytest.raises(ValueError):
            registry.counter("r_total", help="h", labels=("code",))
        with pytest.raises(ValueError):
            registry.histogram("r_total", help="h", labels=("op",))

    def test_histogram_family_renders_cumulative_buckets_per_label(self):
        registry = MetricsRegistry()
        latency = registry.histogram("lat_seconds", help="h", labels=("op",))
        for value in (0.0002, 0.002, 20.0):
            latency.observe(value, ("q",))
        text = registry.render_text()
        assert lint(text) == [], lint(text)
        assert "# TYPE lat_seconds histogram" in text
        bounds = [
            line.split('le="')[1].split('"')[0]
            for line in text.splitlines()
            if line.startswith("lat_seconds_bucket")
        ]
        assert bounds == [str(b) for b in LATENCY_BOUNDS] + ["+Inf"]
        assert 'lat_seconds_bucket{op="q",le="0.00025"} 1' in text
        assert 'lat_seconds_bucket{op="q",le="10.0"} 2' in text
        assert 'lat_seconds_bucket{op="q",le="+Inf"} 3' in text
        assert 'lat_seconds_count{op="q"} 3' in text
        snap = registry.collect()["lat_seconds"]["q"]
        assert snap["count"] == 3
        assert snap["p99_seconds"] == "inf"  # JSON-safe past the last bound

    def test_multi_label_gauge_and_escaped_label_values(self):
        registry = MetricsRegistry()
        registry.register_gauge(
            "g", lambda: {("a\"b", "p99"): 1.5}, help="h",
            labels=("dataset", "objective"),
        )
        text = registry.render_text()
        assert 'g{dataset="a\\"b",objective="p99"} 1.5' in text
        assert lint(text) == []
        assert registry.collect() == {"g": {'a"b,p99': 1.5}}

    def test_unlabeled_families_render_zero_before_first_use(self):
        registry = MetricsRegistry()
        registry.counter("c_total", help="h")
        registry.histogram("h_seconds", help="h")
        text = registry.render_text()
        assert "c_total 0" in text
        assert 'h_seconds_bucket{le="+Inf"} 0' in text
        assert lint(text) == []


class TestResourceGauges:
    def test_standard_names_and_live_values(self):
        registry = MetricsRegistry()
        register_resource_gauges(
            registry, shm_segments=lambda: 0,
            pool_bytes=lambda: 123, cache_bytes=lambda: 456,
        )
        values = registry.collect()
        assert set(values) == {
            "repro_process_rss_bytes", "repro_shm_segments",
            "repro_pool_bytes", "repro_cache_bytes",
        }
        assert values["repro_process_rss_bytes"] > 0
        assert values["repro_shm_segments"] == 0
        assert values["repro_pool_bytes"] == 123
        assert values["repro_cache_bytes"] == 456
        assert lint(registry.render_text()) == []

    def test_optional_gauges_are_omitted_not_zero(self):
        registry = MetricsRegistry()
        register_resource_gauges(registry)
        values = registry.collect()
        assert set(values) == {"repro_process_rss_bytes"}

    def test_rss_bytes_is_positive_here(self):
        assert rss_bytes() > 0


class TestPromlint:
    def test_clean_histogram_passes(self):
        text = (
            "# HELP h Request latency.\n"
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 1\n'
            'h_bucket{le="+Inf"} 2\n'
            "h_sum 0.3\n"
            "h_count 2\n"
        )
        assert lint(text) == []

    def test_missing_help_and_type_flagged(self):
        problems = lint("orphan 1\n")
        assert any("no TYPE" in p for p in problems)
        assert any("no HELP" in p for p in problems)

    def test_duplicate_series_flagged(self):
        text = (
            "# HELP g h\n# TYPE g gauge\n"
            'g{a="1",b="2"} 1\n'
            'g{b="2",a="1"} 2\n'  # same label set, reordered
        )
        assert any("duplicate series" in p for p in lint(text))

    def test_duplicate_help_flagged(self):
        text = "# HELP g h\n# HELP g again\n# TYPE g gauge\ng 1\n"
        assert any("duplicate HELP" in p for p in lint(text))

    def test_non_numeric_value_flagged(self):
        assert any(
            "non-numeric" in p
            for p in lint("# HELP g h\n# TYPE g gauge\ng pizza\n")
        )

    def test_decreasing_buckets_flagged(self):
        text = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="0.2"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_count 5\n"
        )
        assert any("decreases" in p for p in lint(text))

    def test_missing_inf_bucket_flagged(self):
        text = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
        )
        assert any('le="+Inf"' in p for p in lint(text))

    def test_inf_bucket_count_mismatch_flagged(self):
        text = (
            "# HELP h x\n# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 4\n'
            "h_count 5\n"
        )
        assert any("!= count" in p for p in lint(text))
