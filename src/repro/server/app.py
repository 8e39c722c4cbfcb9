"""The asyncio TCP front-end: many clients, one warm serving state.

:class:`StabilityServer` frames the JSON-lines protocol over TCP and
executes requests against a shared :class:`~repro.server.registry.
SessionRegistry`.  Design points, in the order they matter:

**Concurrency.** Read requests run on the event loop's default
executor; write-classified requests (pool growth, cursor advances,
checkpoints) run on a small dedicated thread pool, so a burst of cold
observes can never occupy every executor thread and starve warm reads
of a slot.  With the registry's ``executor="process"`` the observe
itself leaves the serving process entirely (shared-memory worker pool,
:mod:`repro.service.procpool`): the write thread just waits on worker
futures, the GIL stays free, and the event loop keeps multiplexing
reads while a cold pool grows.  Per-session read/write locks let warm
idempotent queries interleave while pool growth serializes (see
:mod:`repro.server.registry`).  Responses on one connection are written
in request order, so pipelining clients need no correlation ids (though
``"id"`` echoing is supported).

**Backpressure, not buffering.** Each connection stops *reading* once
``max_pending_per_connection`` requests are in flight — TCP's flow
control then pushes back on the client.  A global ``max_inflight``
admission cap protects the executor: requests beyond it are answered
immediately with ``{"error": {"code": "busy"}}`` (load shedding) rather
than queued without bound.

**Graceful drain.** SIGTERM (or the ``shutdown`` op, or
:meth:`StabilityServer.request_shutdown`) stops accepting connections,
lets in-flight requests finish within ``drain_grace`` seconds,
checkpoints every dirty session to the state dir, then exits.  Paired
with restore-on-start this makes rolling restarts cheap: the next
process answers its first query from the warm pools the last one saved.

**Observability.** Every request lands in
:class:`~repro.server.metrics.ServerMetrics` (counter and latency
histogram families on one metrics registry), surfaced via the
``stats`` op and an optional plain-text HTTP ``--metrics`` endpoint.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.obs import log_event, register_resource_gauges
from repro.obs import flight as obs_flight
from repro.server import protocol, resilience
from repro.server.metrics import ServerMetrics
from repro.server.registry import SessionRegistry
from repro.service.procpool import live_segments

__all__ = ["ServerConfig", "StabilityServer", "ServerHandle", "serve_in_thread"]


@dataclass
class ServerConfig:
    """Tunables for one :class:`StabilityServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: pick a free port (tests/benchmarks)
    #: Largest accepted request frame; longer lines are answered with
    #: ``line_too_long`` and discarded without dropping the connection.
    max_line_bytes: int = protocol.MAX_LINE_BYTES
    #: Global admission cap: requests in flight beyond this are shed
    #: with ``busy`` instead of queued.
    max_inflight: int = 64
    #: Per-connection pipelining depth: the reader stops pulling lines
    #: once this many requests from one connection are in flight.
    max_pending_per_connection: int = 8
    #: Seconds the drain waits for in-flight requests before giving up.
    drain_grace: float = 30.0
    #: Checkpoint a session after this many write-ish requests on it
    #: (0: only at drain/eviction or via the ``checkpoint`` op).
    checkpoint_every: int = 0
    #: Width of the dedicated write-dispatch thread pool (pool growth,
    #: cursors, checkpoints).  Writes serialize per session anyway;
    #: this only bounds how many *sessions* can grow concurrently.
    write_threads: int = 2
    #: Optional plain-text metrics endpoint (HTTP GET, any path).
    metrics_port: int | None = None
    #: Requests slower than this (seconds) are logged as ``slow_query``
    #: events with their op and dataset (``None``: disabled).
    slow_query_seconds: float | None = None
    #: Restore existing snapshots *before* binding the listen socket,
    #: so a rolling restart never serves its replay latency to a
    #: client (the first answer is a cache hit, not a restore).
    prewarm: bool = True
    #: Per-dataset service-level objectives, e.g. ``"p99:50ms,err:0.1%"``
    #: (``None``: SLO tracking off).  Parsed by :func:`repro.obs.slo.
    #: parse_slo`; scores surface in ``stats`` and as ``repro_slo_*``
    #: exposition families.
    slo: str | None = None
    #: Keep the process-global flight recorder capturing while this
    #: server runs (events, wire-trace reports, slow queries, periodic
    #: metrics snapshots — the evidence a diag bundle dumps).
    flight: bool = True
    #: Flight-recorder event-ring entry cap.
    flight_max_events: int = 512
    #: Flight-recorder per-ring byte cap.
    flight_max_bytes: int = 256 * 1024
    #: Seconds between metrics snapshots recorded into the flight ring.
    flight_metrics_interval: float = 5.0
    #: Directory diag bundles are written to (``SIGUSR2``, drain-on-
    #: error); ``None``: the current working directory.
    diag_dir: str | None = None
    #: Chaos middleware spec, e.g. ``"delay:p=0.05,ms=100;error:p=0.01;
    #: drop:p=0.005"`` (``None``: no injection).  Parsed by
    #: :func:`repro.server.resilience.parse_chaos`; faults are decided
    #: deterministically from ``chaos_seed`` and arrival order.
    chaos: str | None = None
    #: Seed for the chaos injector's fault stream.
    chaos_seed: int = 0
    #: Degraded-mode memory watermark: when the live pool+cache bytes
    #: reach this, write-classified query ops are shed ``overloaded``
    #: (warm reads keep answering) until usage falls below
    #: ``memory_low_fraction`` of it.  ``None``: no degradation.
    memory_watermark_bytes: int | None = None
    #: Hysteresis floor for leaving degraded mode, as a fraction of
    #: ``memory_watermark_bytes``.
    memory_low_fraction: float = 0.8
    #: ``Retry-After``-style hint (milliseconds) attached to
    #: ``overloaded`` errors.
    overload_retry_after_ms: float = 500.0

    def __post_init__(self):
        # 0 is not a "disabled" sentinel for the admission knobs — a
        # zero-wide semaphore would silently hang every connection.
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.max_pending_per_connection < 1:
            raise ValueError(
                "max_pending_per_connection must be >= 1, got "
                f"{self.max_pending_per_connection}"
            )
        if self.max_line_bytes < 2:
            raise ValueError(
                f"max_line_bytes must be >= 2, got {self.max_line_bytes}"
            )
        if self.drain_grace < 0:
            raise ValueError(
                f"drain_grace must be >= 0, got {self.drain_grace}"
            )
        if self.write_threads < 1:
            raise ValueError(
                f"write_threads must be >= 1, got {self.write_threads}"
            )
        if self.slow_query_seconds is not None and self.slow_query_seconds < 0:
            raise ValueError(
                "slow_query_seconds must be >= 0 or None, got "
                f"{self.slow_query_seconds}"
            )
        if self.flight_max_events < 1:
            raise ValueError(
                f"flight_max_events must be >= 1, got {self.flight_max_events}"
            )
        if self.flight_max_bytes < 1:
            raise ValueError(
                f"flight_max_bytes must be >= 1, got {self.flight_max_bytes}"
            )
        if self.flight_metrics_interval <= 0:
            raise ValueError(
                "flight_metrics_interval must be > 0, got "
                f"{self.flight_metrics_interval}"
            )
        if self.slo is not None:
            from repro.obs.slo import parse_slo

            parse_slo(self.slo)  # fail fast on a bad spec
        if self.chaos is not None:
            resilience.parse_chaos(self.chaos)  # fail fast on a bad spec
        if self.memory_watermark_bytes is not None:
            # OverloadGuard re-validates; constructing one here fails
            # fast on a bad watermark/fraction/hint combination.
            resilience.OverloadGuard(
                self.memory_watermark_bytes,
                low_fraction=self.memory_low_fraction,
                retry_after_ms=self.overload_retry_after_ms,
            )


class StabilityServer:
    """Asyncio TCP/JSON-lines server over a session registry."""

    def __init__(
        self,
        registry: SessionRegistry,
        *,
        config: ServerConfig | None = None,
        metrics: ServerMetrics | None = None,
    ):
        self.registry = registry
        self.config = config if config is not None else ServerConfig()
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self._server: asyncio.Server | None = None
        self._metrics_server: asyncio.Server | None = None
        self._shutdown_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._inflight = 0
        self._draining = False
        self._write_pool: ThreadPoolExecutor | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self.drain_report: list[dict] = []
        self.prewarmed: list[str] = []
        self.slo_tracker = None
        self._flight_task: asyncio.Task | None = None
        self._flight_enabled_here = False
        self._chaos = (
            resilience.ChaosInjector(
                resilience.parse_chaos(self.config.chaos),
                seed=self.config.chaos_seed,
            )
            if self.config.chaos is not None
            else None
        )
        self._memory_used = lambda: 0  # rebound at start()
        self._overload = (
            resilience.OverloadGuard(
                self.config.memory_watermark_bytes,
                low_fraction=self.config.memory_low_fraction,
                retry_after_ms=self.config.overload_retry_after_ms,
            )
            if self.config.memory_watermark_bytes is not None
            else None
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> tuple[str, int]:
        """Prewarm, bind, and start accepting; returns the bound address."""
        self._loop = asyncio.get_running_loop()
        self._shutdown_event = asyncio.Event()
        self.registry.on_evict = self.metrics.evicted
        self._register_resource_gauges()
        if self.config.slo:
            from repro.obs.slo import SloTracker, parse_slo

            tracker = SloTracker(
                parse_slo(self.config.slo),
                self.metrics.dataset_latency,
                self.metrics.dataset_errors,
            )
            # Every catalogued dataset exports zeroed SLO series from
            # the first scrape, not from its first request.
            tracker.watch(*self.registry.names())
            tracker.register(self.metrics.registry)
            self.slo_tracker = tracker
        if self.config.flight:
            obs_flight.enable(
                max_events=self.config.flight_max_events,
                max_bytes=self.config.flight_max_bytes,
            )
            self._flight_enabled_here = True
            self._flight_task = asyncio.get_running_loop().create_task(
                self._flight_loop()
            )
        if self.config.prewarm:
            self.prewarmed = await self.registry.prewarm()
        self._server = await asyncio.start_server(
            self._on_connection,
            self.config.host,
            self.config.port,
            # readuntil() must be able to hold one maximal line plus
            # its newline before declaring overrun.
            limit=self.config.max_line_bytes + 2,
        )
        if self.config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._on_metrics_connection,
                self.config.host,
                self.config.metrics_port,
            )
        return self.address

    def _register_resource_gauges(self) -> None:
        """Resource telemetry on the metrics registry (RSS, shm, pools).

        The closures snapshot the active-session map per read — gauge
        scrapes race session activation/eviction, and the registry
        leaves a gauge that throws out of the exposition and the
        ``stats`` snapshot rather than failing either.
        """
        registry = self.registry

        def pool_bytes() -> int:
            return sum(
                m.session.pool_bytes() for m in list(registry._active.values())
            )

        def cache_bytes() -> int:
            return sum(
                m.session.cache.approx_bytes()
                for m in list(registry._active.values())
            )

        register_resource_gauges(
            self.metrics.registry,
            shm_segments=lambda: len(live_segments()),
            pool_bytes=pool_bytes,
            cache_bytes=cache_bytes,
        )
        # The overload guard watches the same accounting the gauges
        # export — what the operator sees degrade is what degraded.
        self._memory_used = lambda: pool_bytes() + cache_bytes()
        overload = self._overload
        resilience.register_resilience_metrics(
            self.metrics.registry,
            degraded=(lambda: overload.degraded) if overload else None,
        )

    async def _flight_loop(self) -> None:
        """Record a metrics snapshot into the flight ring periodically.

        One immediately, so a bundle taken right after start already
        holds a baseline, then every ``flight_metrics_interval``.
        """
        while True:
            obs_flight.record_metrics(self._metrics_snapshot())
            await asyncio.sleep(self.config.flight_metrics_interval)

    def _metrics_snapshot(self) -> dict:
        """``ServerMetrics.snapshot`` plus the SLO scores under ``--slo``."""
        doc = self.metrics.snapshot()
        if self.slo_tracker is not None:
            doc["slo"] = self.slo_tracker.snapshot()
        return doc

    def dump_diag(self, reason: str) -> str | None:
        """Write a diag bundle to ``diag_dir``; returns its path.

        ``None`` when the flight recorder is not enabled.  Safe to call
        from any thread (only reads the recorder and metrics locks).
        """
        slo = self.slo_tracker.snapshot() if self.slo_tracker else None
        bundle = obs_flight.diag_bundle(
            reason, metrics_snapshot=self._metrics_snapshot(), slo=slo
        )
        if bundle is None:
            return None
        directory = self.config.diag_dir or "."
        path = os.path.join(
            directory, f"repro-diag-{int(time.time())}-{reason}.json"
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(bundle, handle, default=str)
            handle.write("\n")
        log_event("diag.dump", reason=reason, path=path)
        return path

    def request_shutdown(self) -> None:
        """Begin a graceful drain (thread-safe, idempotent)."""
        if self._loop is None or self._shutdown_event is None:
            return
        self._loop.call_soon_threadsafe(self._shutdown_event.set)

    async def serve_until_shutdown(
        self, *, install_signal_handlers: bool = False
    ) -> None:
        """Serve until a shutdown is requested, then drain and return.

        With ``install_signal_handlers`` SIGTERM/SIGINT trigger the
        drain (the production entrypoint); tests and embedded servers
        call :meth:`request_shutdown` instead.
        """
        if self._server is None:
            await self.start()
        installed: list[signal.Signals] = []
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    self._loop.add_signal_handler(sig, self.request_shutdown)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError):
                    pass
            # SIGUSR2: dump a diag bundle without disturbing serving
            # (absent on platforms without the signal, e.g. Windows).
            usr2 = getattr(signal, "SIGUSR2", None)
            if usr2 is not None:
                try:
                    self._loop.add_signal_handler(
                        usr2, lambda: self.dump_diag("sigusr2")
                    )
                    installed.append(usr2)
                except (NotImplementedError, RuntimeError):
                    pass
        try:
            await self._shutdown_event.wait()
        finally:
            for sig in installed:
                self._loop.remove_signal_handler(sig)
        await self._drain()

    async def _drain(self) -> None:
        """Stop accepting, finish in-flight work, checkpoint, release."""
        self._draining = True
        self._server.close()
        if self._metrics_server is not None:
            self._metrics_server.close()
        deadline = self._loop.time() + self.config.drain_grace
        while self._inflight > 0 and self._loop.time() < deadline:
            await asyncio.sleep(0.02)
        # Connections idling in a read are woken so their queued
        # responses flush and their sockets close cleanly.  This must
        # happen *before* wait_closed(): since Python 3.12.1,
        # Server.wait_closed blocks until every client connection is
        # gone — and an idle keep-alive handler parked in readuntil()
        # only exits when cancelled here.
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        with contextlib.suppress(Exception):
            await self._server.wait_closed()
        if self._metrics_server is not None:
            with contextlib.suppress(Exception):
                await self._metrics_server.wait_closed()
        # Every dirty session reaches disk before the process exits —
        # the other half of the rolling-restart contract.  Checkpoints
        # run under each session's write lock (bounded by the grace),
        # so a request that outlived the drain window can never tear a
        # snapshot mid-observe; it loses durability, not integrity.
        self.drain_report = await self.registry.close(
            grace=self.config.drain_grace
        )
        for entry in self.drain_report:
            self.metrics.checkpointed(failed="error" in entry)
        # A drain that failed to checkpoint a session is exactly the
        # moment the flight rings matter — dump them before teardown.
        if any("error" in entry for entry in self.drain_report):
            with contextlib.suppress(Exception):
                self.dump_diag("drain-error")
        if self._flight_task is not None:
            self._flight_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._flight_task
            self._flight_task = None
        if self._flight_enabled_here:
            obs_flight.disable()
            self._flight_enabled_here = False
        # registry.close() closed every session, which shut down their
        # observe pools (process workers included, shared memory
        # unlinked); the write-dispatch threads go last.
        if self._write_pool is not None:
            self._write_pool.shutdown(wait=True)
            self._write_pool = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _read_line(self, reader: asyncio.StreamReader) -> bytes | None:
        """One newline-terminated frame; ``None`` on EOF.

        An oversized frame is *discarded through its newline* and
        reported as :class:`~repro.server.protocol.RequestError`
        (``line_too_long``) — the connection survives, and the next
        line parses normally.
        """
        try:
            return await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return exc.partial or None  # EOF; a final unterminated line
        except asyncio.LimitOverrunError as exc:
            # Discard through the oversized line's newline: drop the
            # buffered prefix, then keep reading (and dropping) until
            # readuntil finds the terminator — it stops exactly after
            # the newline, so the next frame is preserved intact.
            await reader.read(exc.consumed)
            while True:
                try:
                    await reader.readuntil(b"\n")
                    break  # the tail of the oversized line, discarded
                except asyncio.LimitOverrunError as more:
                    await reader.read(more.consumed)
                except asyncio.IncompleteReadError:
                    break  # EOF arrived mid-line
            raise protocol.RequestError(
                "line_too_long",
                f"request line exceeded {self.config.max_line_bytes} bytes",
            ) from None

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.connection_opened()
        self._conn_tasks.add(asyncio.current_task())
        # Bounded: when the client stops reading responses, puts block
        # and the read loop stops pulling lines — backpressure covers
        # protocol-error and busy responses too, not just admitted work.
        queue: asyncio.Queue = asyncio.Queue(
            maxsize=max(2 * self.config.max_pending_per_connection, 8)
        )
        sender = asyncio.create_task(self._send_loop(queue, writer))
        pending = asyncio.Semaphore(self.config.max_pending_per_connection)
        try:
            while not self._draining:
                try:
                    raw = await self._read_line(reader)
                except protocol.RequestError as exc:
                    self.metrics.observe_error(exc.code)
                    if not await self._enqueue(
                        queue,
                        sender,
                        protocol.error_payload(exc.code, exc.message),
                    ):
                        break
                    continue
                if raw is None:
                    break
                self.metrics.add_bytes(received=len(raw))
                if not raw.strip():
                    continue
                try:
                    payload = protocol.parse_request(
                        raw, max_bytes=self.config.max_line_bytes
                    )
                except protocol.RequestError as exc:
                    self.metrics.observe_error(exc.code)
                    if not await self._enqueue(
                        queue,
                        sender,
                        protocol.error_payload(
                            exc.code, exc.message, request_id=exc.request_id
                        ),
                    ):
                        break
                    continue
                # The deadline anchors at receipt — parse-time, before
                # chaos delays or admission waits eat into it.
                deadline = resilience.Deadline.from_request(payload)
                if self._chaos is not None:
                    fault = self._chaos.decide(payload.get("op"))
                    if fault is not None:
                        if fault.kind == "drop":
                            # Abrupt close: queued responses still
                            # flush; this request (and anything the
                            # client pipelined behind it) is lost.
                            break
                        if fault.kind == "error":
                            self.metrics.observe_error("unavailable")
                            if not await self._enqueue(
                                queue,
                                sender,
                                protocol.error_payload(
                                    "unavailable",
                                    "injected fault: the request was not "
                                    "executed",
                                    request_id=payload.get("id"),
                                ),
                            ):
                                break
                            continue
                        await asyncio.sleep(fault.delay_s)
                if payload.get("op") == "shutdown":
                    # Framing-layer op (it ends this read loop), but
                    # the response comes from the shared dispatcher so
                    # TCP and stdio can never drift.
                    handled = protocol.dispatch(None, None, payload)
                    self.metrics.observe_request("shutdown", 0.0)
                    await self._enqueue(queue, sender, handled.response)
                    self.request_shutdown()
                    break
                # Per-connection backpressure: stop reading this socket
                # until one of its in-flight requests completes.
                await pending.acquire()
                if self._draining:
                    pending.release()
                    if deadline is not None and deadline.expired():
                        # The budget ran out before the drain refusal
                        # did: answer the code the client can act on —
                        # deadline_exceeded is terminal, shutting_down
                        # invites a retry the deadline no longer allows.
                        resilience.DEADLINE_EXCEEDED.inc()
                        self.metrics.observe_error("deadline_exceeded")
                        await self._enqueue(
                            queue,
                            sender,
                            protocol.error_payload(
                                "deadline_exceeded",
                                f"deadline of {deadline.deadline_ms:g} ms "
                                "expired while the server was draining",
                                request_id=payload.get("id"),
                            ),
                        )
                        break
                    self.metrics.refused_draining()
                    await self._enqueue(
                        queue,
                        sender,
                        protocol.error_payload(
                            "shutting_down",
                            "server is draining; no new work accepted",
                            request_id=payload.get("id"),
                        ),
                    )
                    break
                if self._inflight >= self.config.max_inflight:
                    pending.release()
                    self.metrics.shed()
                    if not await self._enqueue(
                        queue,
                        sender,
                        protocol.error_payload(
                            "busy",
                            f"{self._inflight} requests in flight (limit "
                            f"{self.config.max_inflight}); retry later",
                            request_id=payload.get("id"),
                        ),
                    ):
                        break
                    continue
                self._inflight += 1
                task = asyncio.create_task(self._process(payload, deadline))
                task.add_done_callback(
                    lambda _t, sem=pending: (
                        sem.release(),
                        self._request_done(),
                    )
                )
                if not await self._enqueue(queue, sender, task):
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            # The task may arrive here cancelled (drain); the remaining
            # awaits must not re-raise out of the protocol callback.
            # The sender gets a bounded grace to flush queued responses
            # (a non-reading client must not park the drain forever).
            with contextlib.suppress(asyncio.QueueFull):
                queue.put_nowait(None)
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await asyncio.wait_for(
                    asyncio.shield(sender), timeout=self.config.drain_grace
                )
            if not sender.done():
                sender.cancel()
                with contextlib.suppress(Exception, asyncio.CancelledError):
                    await sender
            writer.close()
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()
            self._conn_tasks.discard(asyncio.current_task())
            self.metrics.connection_closed()

    def _request_done(self) -> None:
        self._inflight -= 1

    @staticmethod
    async def _enqueue(queue: asyncio.Queue, sender: asyncio.Task, item) -> bool:
        """Queue a response unless the sender is gone.

        The queue is bounded (that is the backpressure), so a put can
        block — but once the sender exits (client disconnected while
        responses were still queued) nothing will ever drain it, and a
        blocked put would park the read loop forever, leaking the
        handler.  Racing the put against the sender's own completion
        turns that into a clean connection teardown.
        """
        if sender.done():
            return False
        put = asyncio.ensure_future(queue.put(item))
        done, _ = await asyncio.wait(
            {put, sender}, return_when=asyncio.FIRST_COMPLETED
        )
        if put in done:
            return True
        put.cancel()
        return False

    async def _send_loop(
        self, queue: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Write responses in request order (pipelining stays ordered)."""
        while True:
            item = await queue.get()
            if item is None:
                return
            if isinstance(item, dict):
                response = item
            else:
                try:
                    response = await item
                except Exception as exc:  # a _process bug, not a request bug
                    response = protocol.error_payload(
                        *protocol.classify_exception(exc)
                    )
            data = protocol.encode_response(response).encode() + b"\n"
            self.metrics.add_bytes(sent=len(data))
            try:
                writer.write(data)
                await writer.drain()
            except ConnectionError:
                return

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    async def _process(self, payload: dict, deadline=None) -> dict:
        op = payload.get("op", "<invalid>")
        start = self._loop.time()
        try:
            response = await self._execute(payload, deadline)
        except protocol.RequestError as exc:
            response = protocol.error_payload(
                exc.code,
                exc.message,
                request_id=payload.get("id"),
                retry_after_ms=exc.retry_after_ms,
            )
        except Exception as exc:
            response = protocol.error_payload(
                *protocol.classify_exception(exc),
                request_id=payload.get("id"),
            )
        error = response.get("error") if isinstance(response, dict) else None
        elapsed = self._loop.time() - start
        dataset = None
        if op in protocol.QUERY_OPS:
            # Attribute query traffic to its dataset for the SLO engine;
            # membership-checked so a client probing bogus names cannot
            # mint unbounded label cardinality.
            name = payload.get("dataset") or self.registry.default_name
            if name in self.registry.names():
                dataset = name
        self.metrics.observe_request(
            op,
            elapsed,
            error_code=error.get("code") if error else None,
            dataset=dataset,
        )
        threshold = self.config.slow_query_seconds
        if threshold is not None and elapsed >= threshold:
            record = {
                "op": op,
                "seconds": round(elapsed, 6),
                "threshold": threshold,
                "dataset": dataset,
                "request_id": payload.get("id"),
                "error": error.get("code") if error else None,
            }
            # Join key with the wire trace: a traced slow request's
            # server-side line carries the same trace_id the client got.
            trace_section = (
                response.get("trace") if isinstance(response, dict) else None
            )
            if isinstance(trace_section, dict):
                record["trace_id"] = trace_section.get("trace_id")
            log_event("slow_query", level=logging.WARNING, **record)
            if obs_flight._ENABLED:
                obs_flight.record_slow_query(record)
        return response

    async def _execute(self, payload: dict, deadline=None) -> dict:
        op = payload["op"]
        # Session-less control ops share the stdio dispatcher directly.
        if op == "ping":
            return protocol.dispatch(
                None, None, payload, deadline=deadline
            ).response
        if op == "hello":
            handled = protocol.dispatch(
                None, None, payload, hello_extra=self._hello_extra(),
                deadline=deadline,
            )
            return handled.response
        if op in ("diag", "profile"):
            handled = protocol.dispatch(
                None, None, payload, diag_extra=self._diag_extra,
                deadline=deadline,
            )
            return handled.response
        try:
            managed = await self.registry.get(payload.get("dataset"))
        except KeyError as exc:
            raise protocol.RequestError(
                "unknown_dataset",
                f"unknown dataset {exc.args[0]!r}; "
                f"registered: {', '.join(self.registry.names())}",
            ) from None
        # Pin across the whole request: between registry.get and the
        # lock acquisition the session looks idle, and LRU eviction
        # must not close it out from under us.
        managed.pins += 1
        try:
            if op == "checkpoint":
                # Exclusive: a snapshot never interleaves with growth.
                # Runs on the *default* executor, not the write pool —
                # a checkpoint holding this session's write lock must
                # not also queue behind other sessions' long observes.
                async with managed.lock.write():
                    handled = await self._dispatch_in_executor(
                        managed, payload, deadline=deadline
                    )
                return handled.response
            write = protocol.needs_write(managed.session, payload)
            # Event-loop-side lock wait, grafted onto the trace when the
            # request asked for one — dispatch on the executor thread
            # cannot see how long admission to the session took.
            lock_t0 = self._loop.time()
            while True:
                if write:
                    self._check_overload(op, payload)
                    await self._acquire_session_lock(
                        managed.lock, write=True, deadline=deadline
                    )
                    try:
                        handled = await self._dispatch_in_executor(
                            managed,
                            payload,
                            write=True,
                            lock_wait=self._loop.time() - lock_t0,
                            deadline=deadline,
                        )
                        if handled.mutated:
                            managed.mark_dirty()
                    finally:
                        await managed.lock.release_write()
                    break
                await self._acquire_session_lock(
                    managed.lock, write=False, deadline=deadline
                )
                try:
                    # The pre-lock classification can be invalidated by
                    # an interleaved writer (an invalidate dropping the
                    # pool we judged warm); re-check now that mutators
                    # are excluded, and escalate if it flipped.
                    if protocol.needs_write(managed.session, payload):
                        write = True
                        continue
                    handled = await self._dispatch_in_executor(
                        managed,
                        payload,
                        lock_wait=self._loop.time() - lock_t0,
                        deadline=deadline,
                    )
                    if handled.mutated:
                        # A read-classified request can still fill the
                        # result cache, which snapshots persist.
                        managed.mark_dirty()
                finally:
                    await managed.lock.release_read()
                break
            # Both branches can dirty the session; the cadence check
            # takes the write lock itself when a checkpoint is due.
            await self._maybe_auto_checkpoint(managed)
        finally:
            managed.pins -= 1
        return handled.response

    def _check_overload(self, op: str, payload: dict) -> None:
        """Degraded-mode admission for write-classified query ops.

        Folding one usage sample into the guard per cold admission and
        shedding with ``overloaded`` + a ``retry_after_ms`` hint while
        degraded.  Warm reads and control ops never pass through here —
        in particular ``invalidate``, the op that *frees* memory, must
        stay admissible under pressure.
        """
        if self._overload is None or op not in protocol.QUERY_OPS:
            return
        if self._overload.update(self._memory_used()):
            self._overload.shed()
            raise protocol.RequestError(
                "overloaded",
                "server is degraded under memory pressure; cold queries "
                "are shed (warm reads still answer)",
                retry_after_ms=self._overload.retry_after_ms,
            )

    async def _acquire_session_lock(self, lock, *, write: bool, deadline) -> None:
        """Acquire the session RW lock, bounded by the request deadline.

        A request must not spend its whole deadline parked behind
        another session writer and then start an observe it can no
        longer finish — an expired wait answers ``deadline_exceeded``
        (the lock is *not* held on that path)."""
        acquire = lock.acquire_write() if write else lock.acquire_read()
        if deadline is None:
            await acquire
            return
        remaining = deadline.remaining()
        if remaining <= 0:
            acquire.close()
            resilience.DEADLINE_EXCEEDED.inc()
            raise protocol.RequestError(
                "deadline_exceeded",
                f"deadline of {deadline.deadline_ms:g} ms expired before "
                "the session lock was acquired",
            )
        try:
            await asyncio.wait_for(acquire, timeout=remaining)
        except asyncio.TimeoutError:
            resilience.DEADLINE_EXCEEDED.inc()
            raise protocol.RequestError(
                "deadline_exceeded",
                f"deadline of {deadline.deadline_ms:g} ms expired while "
                "waiting for the session lock",
            ) from None

    def _write_executor(self) -> ThreadPoolExecutor:
        """Dedicated pool for write-classified dispatches.

        Slow observes (cold pool growth) run here instead of the
        default loop executor, so reads always find a free thread even
        while every registered dataset is warming up at once.
        """
        if self._write_pool is None:
            self._write_pool = ThreadPoolExecutor(
                max_workers=self.config.write_threads,
                thread_name_prefix="repro-server-write",
            )
        return self._write_pool

    async def _dispatch_in_executor(
        self, managed, payload, *, write: bool = False, lock_wait: float = 0.0,
        deadline=None,
    ) -> protocol.Handled:
        def stats_extra() -> dict:
            # Built only when dispatch actually serves a stats op —
            # the warm cache-hit path must not pay two registry walks
            # and a metrics snapshot per request.
            return {
                "server": {
                    "metrics": self._metrics_snapshot(),
                    "registry": self.registry.stats(),
                    "inflight": self._inflight,
                    "draining": self._draining,
                    "chaos": (
                        self._chaos.snapshot() if self._chaos else None
                    ),
                    "overload": (
                        self._overload.snapshot() if self._overload else None
                    ),
                }
            }

        return await self._loop.run_in_executor(
            self._write_executor() if write else None,
            lambda: protocol.dispatch(
                managed.session,
                managed.dataset,
                payload,
                checkpoint=(
                    managed.checkpoint
                    if managed.state_path is not None
                    else None
                ),
                stats_extra=stats_extra,
                trace_extra={"server.lock_wait": round(lock_wait, 9)},
                allow_shutdown=False,  # handled at the framing layer
                # run_in_executor does not propagate contextvars — the
                # deadline crosses as an explicit argument and dispatch
                # scopes it on the executor thread itself.
                deadline=deadline,
            ),
        )

    async def _maybe_auto_checkpoint(self, managed) -> None:
        every = self.config.checkpoint_every
        if (
            every <= 0
            or managed.state_path is None
            or managed.dirty < every
        ):
            return
        async with managed.lock.write():
            if managed.dirty < every:
                return  # another writer checkpointed meanwhile
            try:
                # Default executor, not the write pool: while this
                # session's write lock is held, waiting on a write-pool
                # slot occupied by another session's cold observe would
                # stall this session's readers for the whole window.
                await self._loop.run_in_executor(None, managed.checkpoint)
            except Exception:
                # Durability best-effort mid-flight; the drain retries.
                self.metrics.checkpointed(failed=True)
            else:
                self.metrics.checkpointed()

    def _diag_extra(self) -> dict:
        """The server's contribution to a wire ``diag`` bundle."""
        return {
            "metrics": self._metrics_snapshot(),
            "slo": self.slo_tracker.snapshot() if self.slo_tracker else None,
        }

    def _hello_extra(self) -> dict:
        return protocol.hello_fields(
            transport="tcp",
            datasets=list(self.registry.names()),
            default_dataset=self.registry.default_name,
            durable=self.registry.state_dir is not None,
        )

    # ------------------------------------------------------------------
    # Metrics endpoint
    # ------------------------------------------------------------------
    async def _on_metrics_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Minimal HTTP/1.0 responder: any request gets the metrics text."""
        with contextlib.suppress(Exception):
            await asyncio.wait_for(reader.readline(), timeout=5.0)
        body = self.metrics.render_text().encode()
        writer.write(
            b"HTTP/1.0 200 OK\r\n"
            b"Content-Type: text/plain; version=0.0.4\r\n"
            b"Content-Length: " + str(len(body)).encode() + b"\r\n"
            b"Connection: close\r\n\r\n" + body
        )
        with contextlib.suppress(Exception):
            await writer.drain()
        writer.close()
        with contextlib.suppress(Exception):
            await writer.wait_closed()


# ----------------------------------------------------------------------
# Embedding helper (tests, benchmarks, notebooks)
# ----------------------------------------------------------------------
class ServerHandle:
    """A server running on a daemon thread with its own event loop."""

    def __init__(self, server: StabilityServer, thread: threading.Thread,
                 address: tuple[str, int]):
        self.server = server
        self.thread = thread
        self.address = address

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def metrics_port(self) -> int | None:
        """The bound metrics-endpoint port (``None`` unless configured).

        Resolves ``ServerConfig(metrics_port=0)`` ephemeral binds so
        harnesses (the loadgen soak) can scrape the live endpoint."""
        server = self.server._metrics_server
        if server is None or not server.sockets:
            return None
        return server.sockets[0].getsockname()[1]

    def stop(self, timeout: float = 30.0) -> list[dict]:
        """Drain gracefully and join the serving thread."""
        self.server.request_shutdown()
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise TimeoutError("server thread did not drain in time")
        return self.server.drain_report

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        if self.thread.is_alive():
            self.stop()


def serve_in_thread(
    registry: SessionRegistry,
    *,
    config: ServerConfig | None = None,
    metrics: ServerMetrics | None = None,
    start_timeout: float = 30.0,
) -> ServerHandle:
    """Start a :class:`StabilityServer` on a background thread.

    The embedding entrypoint for tests and benchmarks: the caller gets
    the bound address immediately and a handle whose :meth:`~ServerHandle.
    stop` performs the full graceful drain (checkpoint included).
    """
    server = StabilityServer(registry, config=config, metrics=metrics)
    started = threading.Event()
    box: dict = {}

    def runner():
        async def main():
            try:
                box["address"] = await server.start()
            except Exception as exc:
                box["error"] = exc
                started.set()
                return
            started.set()
            await server.serve_until_shutdown()

        asyncio.run(main())

    thread = threading.Thread(
        target=runner, name="repro-server", daemon=True
    )
    thread.start()
    if not started.wait(start_timeout):
        raise TimeoutError("server did not start in time")
    if "error" in box:
        raise box["error"]
    return ServerHandle(server, thread, box["address"])
