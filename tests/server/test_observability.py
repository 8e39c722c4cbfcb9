"""Server observability: opt-in wire traces, the ``explain`` op, the
extended ``stats`` surface, metrics-endpoint lint, and the hardened
``ServerMetrics`` / ``LatencyHistogram`` edge cases."""

from __future__ import annotations

import json
import math
import sys
import threading
import urllib.request

from server_testlib import make_dataset, running_server

from repro.obs.metrics import LATENCY_BOUNDS, LatencyHistogram
from repro.obs.promlint import lint
from repro.server import ServeClient, protocol
from repro.server.metrics import ServerMetrics

QUERY = {
    "op": "top_stable", "m": 3, "kind": "topk_set", "k": 5,
    "backend": "randomized", "budget": 800,
}


class TestWireTrace:
    def test_traced_request_returns_cost_and_stage_breakdown(self, dataset):
        # A budget large enough that sampling dominates the fixed
        # dispatch overhead — the coverage floor is about the work,
        # not the framing.
        query = dict(QUERY, budget=20_000, trace=True, trace_id="t-42")
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                response = client.request(query)
        assert response["ok"] is True
        cost = response["cost"]
        assert cost["op"] == "top_stable"
        assert cost["samples_drawn"] == 20_000
        assert cost["cached"] is False
        trace = response["trace"]
        assert trace["trace_id"] == "t-42"
        assert trace["total_seconds"] > 0
        assert trace["coverage"] >= 0.9, trace
        names = [stage["name"] for stage in trace["stages"]]
        assert "server.lock_wait" in names

    def test_untraced_response_is_unchanged(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                plain = client.request(dict(QUERY))
                traced = client.request(dict(QUERY, trace=True))
        assert "trace" not in plain and "cost" not in plain
        # Tracing must not change the answer, only annotate it.
        assert traced["result"] == plain["result"]
        assert traced["cost"]["cached"] is True
        assert traced["cost"]["samples_drawn"] == 0

    def test_generated_trace_ids_are_unique(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                a = client.request(dict(QUERY, trace=True))
                b = client.request(dict(QUERY, trace=True))
        assert a["trace"]["trace_id"] != b["trace"]["trace_id"]


class TestExplainOp:
    def test_explain_predicts_without_materializing(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                cold = client.explain(QUERY)
                assert cold["ok"] is True
                plan = cold["explain"]
                assert plan["materialized"] is False
                assert plan["warm_read"] is False
                assert plan["pool_samples"] == 0
                client.request(dict(QUERY))
                warm = client.explain(QUERY)["explain"]
        assert warm["materialized"] is True
        assert warm["pool_samples"] == QUERY["budget"]
        assert warm["warm_read"] is True

    def test_explain_rejects_non_dict_query(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                response = client.request({"op": "explain", "query": 7})
        assert response["ok"] is False
        assert response["error"]["code"] == "bad_request"


class TestStatsSurface:
    def test_per_dataset_registry_stats(self, dataset):
        with running_server(dataset) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                client.request(dict(QUERY))
                client.request(dict(QUERY))  # warm: a session cache hit
                stats = client.stats()
        entry = stats["server"]["registry"]["active"]["default"]
        assert entry["executor"] == "serial"
        assert entry["kernel"] in ("auto", "numpy", "numba")
        assert entry["cache_hit_rate"] == 0.5
        assert entry["pool_samples"] == QUERY["budget"]
        assert entry["pool_bytes"] > 0
        assert entry["uptime_seconds"] >= 0.0

    def test_metrics_endpoint_lints_clean(self, dataset):
        with running_server(dataset, metrics_port=0) as handle:
            with ServeClient(host=handle.host, port=handle.port) as client:
                client.request(dict(QUERY))
            mport = handle.server._metrics_server.sockets[0].getsockname()[1]
            with urllib.request.urlopen(
                f"http://127.0.0.1:{mport}/metrics", timeout=10
            ) as response:
                text = response.read().decode()
        assert lint(text) == [], lint(text)
        assert "repro_process_rss_bytes" in text
        assert "repro_pool_bytes" in text


class TestServerMetricsHardening:
    def test_connection_close_clamps_at_zero(self):
        metrics = ServerMetrics()
        metrics.connection_opened()
        metrics.connection_closed()
        metrics.connection_closed()  # double-close race must not go negative
        assert metrics.snapshot()["connections"] == {"opened": 1, "active": 0}
        metrics.connection_opened()
        assert metrics.snapshot()["connections"] == {"opened": 2, "active": 1}

    def test_concurrent_updates_stay_consistent(self):
        """Satellite check: many threads hammering the hot paths leave
        exact totals and a non-negative gauge."""
        metrics = ServerMetrics()
        threads_n, per_thread = 8, 500

        def worker(idx: int) -> None:
            op = f"op{idx % 3}"
            for i in range(per_thread):
                metrics.connection_opened()
                metrics.observe_request(
                    op, 0.001 * (i % 7),
                    error_code="boom" if i % 50 == 0 else None,
                )
                metrics.connection_closed()
                if i % 100 == 0:
                    metrics.connection_closed()  # racing double-close

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(threads_n)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often: expose lost updates
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)

        total = threads_n * per_thread
        snap = metrics.snapshot()
        assert sum(snap["requests_total"].values()) == total
        assert sum(h["count"] for h in snap["latency"].values()) == total
        assert snap["errors_total"]["boom"] == threads_n * (per_thread // 50)
        assert snap["connections"]["opened"] == total
        assert snap["connections"]["active"] >= 0
        assert lint(metrics.render_text()) == []

    def test_raising_gauge_leaves_stats_encodable(self):
        """A gauge that raises is left out of the snapshot, as it is of
        the exposition, so the strict-JSON ``stats`` frame still goes
        out instead of an ``internal`` error."""
        metrics = ServerMetrics()

        def boom() -> int:
            raise RuntimeError("dictionary changed size during iteration")

        metrics.registry.register_gauge("repro_pool_bytes", boom, help="h")
        metrics.observe_request("top_stable", 0.004, dataset="default")
        frame = json.loads(protocol.encode_response(
            {"ok": True, "server": {"metrics": metrics.snapshot()}}
        ))
        assert frame["ok"] is True
        assert "repro_pool_bytes" not in frame["server"]["metrics"]["resources"]
        assert "repro_pool_bytes" not in metrics.render_text()

    def test_request_past_the_last_bound_leaves_stats_encodable(self):
        metrics = ServerMetrics()
        metrics.observe_request("top_stable", LATENCY_BOUNDS[-1] * 2)
        frame = json.loads(protocol.encode_response(
            {"ok": True, "server": {"metrics": metrics.snapshot()}}
        ))
        assert frame["ok"] is True
        latency = frame["server"]["metrics"]["latency"]["top_stable"]
        assert latency["p99_seconds"] == "inf"


class TestLatencyHistogramQuantiles:
    def test_empty_histogram_reports_zero(self):
        hist = LatencyHistogram()
        for q in (0.0, 0.5, 1.0):
            assert hist.quantile(q) == 0.0
        snap = hist.snapshot()
        assert snap["count"] == 0 and snap["mean_seconds"] == 0.0

    def test_all_observations_past_the_last_bound(self):
        hist = LatencyHistogram()
        for _ in range(5):
            hist.observe(LATENCY_BOUNDS[-1] * 10)
        for q in (0.0, 0.5, 1.0):
            assert hist.quantile(q) == math.inf

    def test_q0_and_q1_snap_to_occupied_buckets(self):
        hist = LatencyHistogram()
        hist.observe(0.0008)   # bucket le=0.001
        hist.observe(0.3)      # bucket le=0.5
        assert hist.quantile(0.0) == 0.001
        assert hist.quantile(1.0) == 0.5

    def test_observation_on_bucket_bound_counts_as_le(self):
        """Prometheus ``le`` is inclusive: a value exactly on a bound
        belongs to that bound's bucket, not the next one."""
        bound = LATENCY_BOUNDS[3]  # 0.001
        hist = LatencyHistogram()
        hist.observe(bound)
        assert hist.buckets[3] == 1
        assert hist.quantile(0.5) == bound

    def test_median_of_a_spread(self):
        hist = LatencyHistogram()
        for value in (0.0002, 0.0002, 0.004, 0.004, 0.004, 8.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 0.005
        assert hist.quantile(1.0) == 10.0
