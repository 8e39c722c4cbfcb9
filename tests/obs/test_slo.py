"""SLO engine: spec parsing, burn-rate math against the real per-dataset
histogram and error families, pre-registered datasets, and the
lint-clean labeled gauges it registers on the metrics registry."""

from __future__ import annotations

import math

import pytest

from repro.obs.promlint import lint
from repro.obs.slo import SloSpec, SloTracker, parse_slo
from repro.server.metrics import ServerMetrics


class TestParse:
    def test_full_spec_round_trips(self):
        spec = parse_slo("p99:50ms,err:0.1%")
        assert spec.latency == {"p99": (0.99, pytest.approx(0.05))}
        assert spec.error_rate == pytest.approx(0.001)
        assert spec.source == "p99:50ms,err:0.1%"
        doc = spec.to_dict()
        assert doc["latency"]["p99"]["quantile"] == 0.99
        assert doc["error_rate"] == pytest.approx(0.001)

    def test_units_and_defaults(self):
        assert parse_slo("p50:250us").latency["p50"][1] == pytest.approx(25e-5)
        assert parse_slo("p95:2s").latency["p95"][1] == 2.0
        assert parse_slo("p95:0.75").latency["p95"][1] == 0.75  # bare = s
        assert parse_slo("err:0.25").error_rate == 0.25  # bare = fraction
        assert parse_slo("p99.9:1s").latency["p99.9"][0] == pytest.approx(0.999)

    def test_multiple_latency_objectives(self):
        spec = parse_slo("p50:5ms, p99:100ms")
        assert set(spec.latency) == {"p50", "p99"}

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "p99",                # no value
            "p99:",               # empty value
            "p0:1ms",             # quantile out of (0, 100)
            "p99:-5ms",           # negative duration
            "p99:0ms",            # zero duration
            "p99:50%",            # latency with a percent
            "err:150%",           # rate > 1
            "err:2",              # bare rate > 1
            "err:5ms",            # rate with a duration unit
            "latency:50ms",       # unknown objective
            "p99:50ms,p99:60ms",  # duplicate latency
            "err:1%,err:2%",      # duplicate err
            "p99:abc",            # unparseable value
        ],
    )
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            parse_slo(bad)


def _metrics_with_traffic(
    *, dataset: str = "default", fast: int = 0, slow: int = 0, errors: int = 0
) -> ServerMetrics:
    metrics = ServerMetrics()
    for _ in range(fast):
        metrics.observe_request("top_stable", 0.0002, dataset=dataset)
    for _ in range(slow):
        metrics.observe_request("top_stable", 0.2, dataset=dataset)
    for _ in range(errors):
        metrics.observe_request(
            "top_stable", 0.0002, error_code="boom", dataset=dataset
        )
    return metrics


def _tracker(spec: str, metrics: ServerMetrics) -> SloTracker:
    return SloTracker(
        parse_slo(spec), metrics.dataset_latency, metrics.dataset_errors
    )


class TestBurnMath:
    def test_latency_burn_is_violation_rate_over_allowance(self):
        # 90 fast + 10 slow at p99:1ms -> violation rate 0.1 against a
        # 1% allowance: burn 10, non-compliant.
        metrics = _metrics_with_traffic(fast=90, slow=10)
        tracker = _tracker("p99:1ms", metrics)
        score = tracker.snapshot()["datasets"]["default"]
        obj = score["objectives"]["p99"]
        assert obj["violations"] == 10
        assert obj["violation_rate"] == pytest.approx(0.1)
        assert obj["burn_rate"] == pytest.approx(10.0)
        assert obj["compliant"] is False
        assert score["compliant"] is False

    def test_all_fast_traffic_is_compliant(self):
        metrics = _metrics_with_traffic(fast=100)
        tracker = _tracker("p99:1ms", metrics)
        obj = tracker.snapshot()["datasets"]["default"]["objectives"]["p99"]
        assert obj["violations"] == 0
        assert obj["burn_rate"] == 0.0
        assert obj["compliant"] is True

    def test_target_inside_a_bucket_counts_the_bucket_as_violating(self):
        # 0.0002s observations land in the le=0.25ms bucket; a 0.1ms
        # target falls below that bound, so conservatively every
        # observation counts as a violation.
        metrics = _metrics_with_traffic(fast=10)
        tracker = _tracker("p99:0.1ms", metrics)
        obj = tracker.snapshot()["datasets"]["default"]["objectives"]["p99"]
        assert obj["violations"] == 10

    def test_error_burn_and_infinite_budget(self):
        metrics = _metrics_with_traffic(fast=95, errors=5)
        tracker = _tracker("err:10%", metrics)
        obj = tracker.snapshot()["datasets"]["default"]["objectives"]["err"]
        assert obj["observed_rate"] == pytest.approx(0.05)
        assert obj["burn_rate"] == pytest.approx(0.5)
        assert obj["compliant"] is True

        strict = _tracker("err:0%", metrics)
        obj = strict.snapshot()["datasets"]["default"]["objectives"]["err"]
        assert obj["burn_rate"] == "inf"  # any error blows a zero budget
        assert obj["compliant"] is False

    def test_zero_traffic_is_compliant_with_zero_burn(self):
        metrics = ServerMetrics()
        tracker = _tracker("p99:1ms,err:1%", metrics)
        tracker.watch("default")
        score = tracker.snapshot()["datasets"]["default"]
        assert score["compliant"] is True
        assert score["objectives"]["p99"]["burn_rate"] == 0.0
        assert score["objectives"]["err"]["burn_rate"] == 0.0

    def test_watched_datasets_appear_before_traffic(self):
        metrics = ServerMetrics()
        tracker = _tracker("p99:1s", metrics)
        tracker.watch("a", "b")
        snap = tracker.snapshot()
        assert set(snap["datasets"]) == {"a", "b"}
        assert snap["compliant"] is True


class TestExposition:
    def test_render_text_lints_clean_with_traffic(self):
        metrics = _metrics_with_traffic(fast=50, slow=5, errors=5)
        tracker = _tracker("p50:1ms,p99:1ms,err:1%", metrics)
        tracker.register(metrics.registry)
        text = metrics.render_text()
        assert lint(text) == [], lint(text)
        assert 'repro_slo_burn_rate{dataset="default",objective="p99"}' in text
        assert 'repro_slo_latency_target_seconds{objective="p50"}' in text
        assert 'repro_slo_compliant{dataset="default"} 0' in text
        assert 'repro_slo_error_rate{dataset="default"}' in text

    def test_infinite_burn_renders_as_prometheus_inf(self):
        metrics = _metrics_with_traffic(fast=9, errors=1)
        _tracker("err:0%", metrics).register(metrics.registry)
        text = metrics.render_text()
        assert lint(text) == [], lint(text)
        line = next(
            l for l in text.splitlines()
            if l.startswith("repro_slo_burn_rate")
        )
        assert line.endswith(" +Inf")
        assert math.isinf(float(line.rsplit(" ", 1)[1]))

    def test_empty_spec_never_constructs(self):
        with pytest.raises(ValueError):
            parse_slo("   ")
        # But a hand-built latency-only spec renders without err series.
        spec = SloSpec(latency={"p99": (0.99, 1.0)}, source="p99:1s")
        metrics = ServerMetrics()
        SloTracker(
            spec, metrics.dataset_latency, metrics.dataset_errors
        ).register(metrics.registry)
        text = metrics.render_text()
        assert "repro_slo_error_rate" not in text
        assert lint(text) == [], lint(text)

    def test_reregistering_without_err_drops_the_error_rate_family(self):
        metrics = _metrics_with_traffic(fast=1)
        _tracker("p99:1s,err:1%", metrics).register(metrics.registry)
        assert "repro_slo_error_rate" in metrics.render_text()
        _tracker("p99:1s", metrics).register(metrics.registry)
        text = metrics.render_text()
        assert "repro_slo_error_rate" not in text
        assert lint(text) == [], lint(text)
