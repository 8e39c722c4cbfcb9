"""Serving metrics: the server's families on the one metrics registry.

The server records every request (op, latency, error code), connection
lifecycle events, shed load, and checkpoints through
:class:`ServerMetrics`, whose counters and latency histograms are
labeled families of a :class:`~repro.obs.metrics.MetricsRegistry`.
That registry (which also holds the resource gauges, resilience
counters and SLO views) renders both read surfaces:
:meth:`ServerMetrics.snapshot` for the ``stats`` op and
:meth:`ServerMetrics.render_text` for the ``--metrics-port`` endpoint.

All methods are thread-safe: request handlers run on executor threads
while the event loop reads snapshots concurrently.
"""

from __future__ import annotations

import threading
import time

from repro.obs.metrics import MetricsRegistry

__all__ = ["ServerMetrics"]

class ServerMetrics:
    """Recording methods over the server's registry families."""

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = reg = registry if registry is not None else MetricsRegistry()
        self.started_at = time.time()
        self._lock = threading.Lock()
        self.connections_active = 0
        reg.register_gauge("repro_server_uptime_seconds",
                           lambda: time.time() - self.started_at,
                           help="Seconds since server start.")
        reg.register_gauge("repro_server_connections_active",
                           lambda: self.connections_active,
                           help="Currently open client connections.")
        self.connections_opened = reg.counter(
            "repro_server_connections_opened_total",
            help="Connections accepted since start.")
        self.busy_shed = reg.counter(
            "repro_server_busy_shed_total",
            help="Requests shed under backpressure.")
        self.shutting_down = reg.counter(
            "repro_server_shutting_down_total",
            help="Requests refused while the server drains.")
        self.checkpoints = reg.counter(
            "repro_server_checkpoints_total", help="Session checkpoints written.")
        self.checkpoint_failures = reg.counter(
            "repro_server_checkpoint_failures_total",
            help="Session checkpoints that failed.")
        self.evictions = reg.counter(
            "repro_server_evictions_total", help="Idle sessions evicted.")
        self.bytes = reg.counter("repro_server_bytes_total", labels=("direction",),
                                 help="Wire bytes by direction.")
        for direction in ("in", "out"):
            self.bytes.inc(0, (direction,))
        self.requests = reg.counter("repro_server_requests_total", labels=("op",),
                                    help="Requests handled by op.")
        self.errors = reg.counter("repro_server_errors_total", labels=("code",),
                                  help="Errors returned by code.")
        self.latency = reg.histogram("repro_server_request_seconds", labels=("op",),
                                     help="Request latency by op.")
        # Per-dataset query traffic: the SLO tracker's inputs.
        self.dataset_latency = reg.histogram(
            "repro_server_dataset_request_seconds", labels=("dataset",),
            help="Query latency by dataset.")
        self.dataset_errors = reg.counter(
            "repro_server_dataset_errors_total", labels=("dataset",),
            help="Query errors by dataset.")

    # ------------------------------------------------------------------
    def observe_request(
        self,
        op: str,
        seconds: float,
        *,
        error_code: str | None = None,
        dataset: str | None = None,
    ) -> None:
        """Record one handled request (op label, latency, optional error).

        ``dataset`` additionally attributes the request to a dataset's
        SLO families; callers pass it for query ops only so control
        traffic (ping, stats, diag) never skews latency objectives.
        """
        op = op if isinstance(op, str) and op else "<invalid>"
        self.requests.inc(labels=(op,))
        self.latency.observe(seconds, (op,))
        if error_code is not None:
            self.errors.inc(labels=(error_code,))
        if dataset is not None:
            # Latency before errors: a reader that takes errors first
            # never sees more errors than requests.
            self.dataset_latency.observe(seconds, (dataset,))
            if error_code is not None:
                self.dataset_errors.inc(labels=(dataset,))

    def observe_error(self, error_code: str) -> None:
        """Record a protocol-level error that never reached a handler."""
        self.errors.inc(labels=(error_code,))

    def connection_opened(self) -> None:
        self.connections_opened.inc()
        with self._lock:
            self.connections_active += 1

    def connection_closed(self) -> None:
        with self._lock:
            # Clamp at zero: a double-close (reader and writer teardown
            # racing) must not drive the gauge negative.
            self.connections_active = max(0, self.connections_active - 1)

    def shed(self) -> None:
        self.busy_shed.inc()
        self.errors.inc(labels=("busy",))

    def refused_draining(self) -> None:
        self.shutting_down.inc()

    def checkpointed(self, *, failed: bool = False) -> None:
        (self.checkpoint_failures if failed else self.checkpoints).inc()

    def evicted(self) -> None:
        self.evictions.inc()

    def add_bytes(self, *, received: int = 0, sent: int = 0) -> None:
        if received:
            self.bytes.inc(received, ("in",))
        if sent:
            self.bytes.inc(sent, ("out",))

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe metrics for the ``stats`` op.

        The server's own families keep their ``stats`` keys; every other
        unlabeled family (resource gauges, resilience counters) lands
        in ``resources``.
        """
        values = self.registry.collect()
        take = values.pop
        directions = take("repro_server_bytes_total")
        return {  # entries evaluate in order: ``resources`` is the rest
            "uptime_seconds": round(take("repro_server_uptime_seconds"), 3),
            "requests_total": take("repro_server_requests_total"),
            "errors_total": take("repro_server_errors_total"),
            "latency": take("repro_server_request_seconds"),
            "connections": {
                "opened": take("repro_server_connections_opened_total"),
                "active": take("repro_server_connections_active"),
            },
            "busy_shed_total": take("repro_server_busy_shed_total"),
            "shutting_down_total": take("repro_server_shutting_down_total"),
            "checkpoints_total": take("repro_server_checkpoints_total"),
            "checkpoint_failures_total": take(
                "repro_server_checkpoint_failures_total"),
            "evictions_total": take("repro_server_evictions_total"),
            "bytes_in": directions["in"],
            "bytes_out": directions["out"],
            "resources": {
                name: value for name, value in values.items()
                if not isinstance(value, dict)
            },
        }

    def render_text(self) -> str:
        """Prometheus text exposition of the whole registry."""
        return self.registry.render_text()
