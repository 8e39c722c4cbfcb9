"""The exposition contract an operator's dashboards depend on.

One served process with ``--slo`` and a ``--state-dir`` answers a fixed
request script (a cold query, a warm query, an error, a checkpoint).
The families no script reaches deterministically (shed load, refused
drains, evictions, checkpoint outcomes: the ``checkpoint`` op itself
is not counted) are fed through
:class:`~repro.server.metrics.ServerMetrics`'s recording methods.  The
scrape must then carry every family below with its TYPE and label
names, lint clean, and the ``stats`` reply must keep the key set that
``repro.cli stats`` reads.  Families may be added; none may disappear
or change its TYPE or labels.
"""

from __future__ import annotations

import re
import urllib.request

from server_testlib import running_server

from repro.obs.promlint import lint
from repro.server import ServeClient

QUERY = {
    "op": "top_stable", "m": 3, "kind": "topk_set", "k": 5,
    "backend": "randomized", "budget": 400,
}

#: family -> (TYPE, label names other than ``le``).
FAMILIES = {
    "repro_server_uptime_seconds": ("gauge", ()),
    "repro_server_connections_active": ("gauge", ()),
    "repro_server_connections_opened_total": ("counter", ()),
    "repro_server_busy_shed_total": ("counter", ()),
    "repro_server_checkpoints_total": ("counter", ()),
    "repro_server_evictions_total": ("counter", ()),
    "repro_server_bytes_total": ("counter", ("direction",)),
    "repro_server_requests_total": ("counter", ("op",)),
    "repro_server_errors_total": ("counter", ("code",)),
    "repro_server_request_seconds": ("histogram", ("op",)),
    "repro_process_rss_bytes": ("gauge", ()),
    "repro_shm_segments": ("gauge", ()),
    "repro_pool_bytes": ("gauge", ()),
    "repro_cache_bytes": ("gauge", ()),
    "repro_retries_total": ("counter", ()),
    "repro_deadline_exceeded_total": ("counter", ()),
    "repro_chaos_injected_total": ("counter", ()),
    "repro_degraded_mode": ("gauge", ()),
    "repro_slo_latency_target_seconds": ("gauge", ("objective",)),
    "repro_slo_burn_rate": ("gauge", ("dataset", "objective")),
    "repro_slo_compliant": ("gauge", ("dataset",)),
    "repro_slo_error_rate": ("gauge", ("dataset",)),
}

#: The ``stats`` ``server.metrics`` keys (``repro.cli stats`` reads them).
STATS_KEYS = {
    "uptime_seconds", "requests_total", "errors_total", "latency",
    "connections", "busy_shed_total", "shutting_down_total",
    "checkpoints_total", "checkpoint_failures_total", "evictions_total",
    "bytes_in", "bytes_out", "resources", "slo",
}
RESOURCE_KEYS = {
    "repro_process_rss_bytes", "repro_shm_segments", "repro_pool_bytes",
    "repro_cache_bytes", "repro_retries_total",
    "repro_deadline_exceeded_total", "repro_chaos_injected_total",
    "repro_degraded_mode",
}

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{([^}]*)\})? \S+$")


def families(text: str) -> dict[str, tuple[str, tuple[str, ...]]]:
    """``{family: (TYPE, sorted label names)}`` of an exposition."""
    types = dict(
        line.split()[2:4]
        for line in text.splitlines()
        if line.startswith("# TYPE ")
    )
    labels: dict[str, set[str]] = {name: set() for name in types}
    for line in text.splitlines():
        match = _SAMPLE.match(line)
        if match is None:
            continue
        name, raw = match.groups()
        for suffix in ("_bucket", "_sum", "_count"):
            base = name[: -len(suffix)]
            if name.endswith(suffix) and types.get(base) == "histogram":
                name = base
        pairs = re.findall(r'([a-zA-Z_][a-zA-Z0-9_]*)="', raw or "")
        labels[name].update(p for p in pairs if p != "le")
    return {
        name: (kind, tuple(sorted(labels[name])))
        for name, kind in types.items()
    }


def test_scrape_and_stats_keep_the_contract(dataset, tmp_path):
    with running_server(
        dataset,
        state_dir=str(tmp_path),
        slo="p99:10s,err:50%",
        metrics_port=0,
    ) as handle:
        with ServeClient(host=handle.host, port=handle.port) as client:
            assert client.request(dict(QUERY))["ok"] is True
            assert client.request(dict(QUERY))["ok"] is True
            bad = client.request(dict(QUERY, k=0))
            assert bad["ok"] is False
            assert client.checkpoint()["ok"] is True
            metrics = handle.server.metrics
            metrics.shed()
            metrics.refused_draining()
            metrics.evicted()
            metrics.checkpointed()
            metrics.checkpointed(failed=True)
            stats = client.stats()
        mport = handle.server._metrics_server.sockets[0].getsockname()[1]
        with urllib.request.urlopen(
            f"http://127.0.0.1:{mport}/metrics", timeout=10
        ) as response:
            text = response.read().decode()

    assert lint(text) == [], lint(text)
    found = families(text)
    assert {n: found.get(n) for n in FAMILIES} == FAMILIES
    assert 'le="0.0001"' in text and 'le="10.0"' in text and 'le="+Inf"' in text
    for series in (
        'repro_server_requests_total{op="top_stable"} 3',
        'repro_server_busy_shed_total 1',
        'repro_server_evictions_total 1',
        'repro_server_checkpoints_total 1',
        'repro_slo_burn_rate{dataset="default",objective="p99"}',
        'repro_slo_compliant{dataset="default"}',
    ):
        assert series in text, series

    assert stats["ok"] is True
    snap = stats["server"]["metrics"]
    assert set(snap) == STATS_KEYS
    assert set(snap["resources"]) == RESOURCE_KEYS
    assert set(snap["connections"]) == {"opened", "active"}
    assert snap["requests_total"]["top_stable"] == 3
    assert snap["errors_total"]["bad_request"] == 1
    assert snap["busy_shed_total"] == 1
    assert snap["shutting_down_total"] == 1
    assert snap["evictions_total"] == 1
    assert snap["checkpoints_total"] == 1
    assert snap["checkpoint_failures_total"] == 1
    assert snap["latency"]["top_stable"]["count"] == 3
    assert snap["slo"]["datasets"]["default"]["requests"] == 3
    assert snap["slo"]["datasets"]["default"]["errors"] == 1
