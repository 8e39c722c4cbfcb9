"""The resilient-request-path layer: deadlines, retries, overload, chaos.

The serving tier's failure-handling primitives live in one module so
the contract stays coherent across the stack:

- **Deadlines** — a request's optional ``deadline_ms`` field becomes a
  :class:`Deadline` anchored at receipt.  The dispatcher fast-fails
  requests that are already expired (``deadline_exceeded``), and long
  cold observes check the ambient deadline between chunk-plan groups
  (:func:`deadline_scope` / :func:`current_deadline`) — cooperative
  cancellation that keeps every completed chunk in the pool, so a
  retry resumes warm instead of resampling from zero.  The deadline
  primitives live in :mod:`repro.deadline`, below the service tier
  that reads them; this module re-exports them.

- **Retries** — :class:`RetryPolicy` (exponential backoff with full
  jitter, a token retry budget) plus a per-address
  :class:`CircuitBreaker`.  Retries are permitted only for the ops the
  protocol's read/write classifier marks safe (:data:`IDEMPOTENT_OPS`)
  and only on pre-execution rejections (:data:`RETRYABLE_ERROR_CODES`)
  or connection-level failures — never for cursor-consuming
  ``get_next``.

- **Overload degradation** — :class:`OverloadGuard` turns pool+cache
  byte accounting into a degraded-mode state machine with hysteresis:
  above the high watermark the server sheds cold observes with a
  ``Retry-After``-style ``overloaded`` error while warm reads keep
  answering; below ``low_fraction`` of the watermark it recovers.

- **Chaos** — :func:`parse_chaos` grammar
  (``"delay:p=0.05,ms=100;error:p=0.01;drop:p=0.005"``) and the seeded
  deterministic :class:`ChaosInjector` the TCP transport consults per
  request.  Every injected fault is counted and recorded as a
  ``chaos.inject`` flight-recorder event, so retry/deadline/breaker
  paths are *exercised* by loadgen and CI rather than trusted.

The module's counters (:data:`RETRIES`, :data:`DEADLINE_EXCEEDED`,
:data:`CHAOS_INJECTED`) are process-global so self-hosted harnesses
(the chaos soak runs clients and server in one process) see one truth;
:func:`register_resilience_metrics` renders them — plus the
``repro_degraded_mode`` gauge — into a server's Prometheus exposition.
"""

from __future__ import annotations

import random
import re
import threading
import time
from dataclasses import dataclass

from repro.deadline import (
    Deadline,
    DeadlineExceededError,
    current_deadline,
    deadline_scope,
)
from repro.obs import log_event
from repro.obs.metrics import Counter, MetricsRegistry

__all__ = [
    "RETRYABLE_ERROR_CODES",
    "IDEMPOTENT_OPS",
    "Deadline",
    "DeadlineExceededError",
    "deadline_scope",
    "current_deadline",
    "RetryPolicy",
    "RetryState",
    "CircuitBreaker",
    "CircuitOpenError",
    "breaker_for",
    "reset_breakers",
    "OverloadGuard",
    "ChaosConfig",
    "ChaosInjector",
    "parse_chaos",
    "parse_size",
    "RETRIES",
    "DEADLINE_EXCEEDED",
    "CHAOS_INJECTED",
    "register_resilience_metrics",
]

#: Structured error codes that mean "the server rejected this request
#: *before executing it*" — safe to retry after backing off.  ``busy``
#: and ``overloaded`` are admission-control sheds, ``shutting_down`` a
#: drain refusal, ``unavailable`` an injected/transient transport fault
#: answered at the framing layer.
RETRYABLE_ERROR_CODES = frozenset(
    {"busy", "shutting_down", "overloaded", "unavailable"}
)

#: Ops the protocol's read/write classification marks safe to repeat:
#: pool-based reads are idempotent at a fixed budget, and the control
#: reads touch no durable state.  ``get_next`` consumes a cursor and is
#: never retried; ``invalidate``/``checkpoint``/``profile`` mutate
#: server state and are excluded too.
IDEMPOTENT_OPS = frozenset(
    {"top_stable", "stability_of", "ping", "hello", "stats", "explain", "diag"}
)


# ----------------------------------------------------------------------
# Process-global resilience counters
# ----------------------------------------------------------------------
RETRIES = Counter(
    "repro_retries_total",
    "Client-side request retries (backoff-and-retry attempts).",
)
DEADLINE_EXCEEDED = Counter(
    "repro_deadline_exceeded_total",
    "Requests answered with deadline_exceeded.",
)
CHAOS_INJECTED = Counter(
    "repro_chaos_injected_total",
    "Faults injected by the chaos middleware.",
)


def register_resilience_metrics(
    registry: MetricsRegistry, *, degraded=None
) -> None:
    """Render the resilience counters (and degraded gauge) on ``registry``.

    The counters are process-global singletons, so a self-hosted
    harness's client-side retries land in the same exposition the
    server scrapes.  Idempotent per registry (attach replaces).
    ``degraded`` is a zero-argument callable returning the current
    degraded-mode truth (``None`` registers a constant-0 gauge so the
    family exists on every server).
    """
    for counter in (RETRIES, DEADLINE_EXCEEDED, CHAOS_INJECTED):
        registry.attach(counter)
    fn = degraded if degraded is not None else (lambda: False)
    registry.register_gauge(
        "repro_degraded_mode",
        lambda: 1.0 if fn() else 0.0,
        help="1 while the server sheds cold observes under memory pressure.",
    )


# ----------------------------------------------------------------------
# Client-side retry machinery
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`~repro.server.client.ServeClient` retries.

    Attributes
    ----------
    max_attempts:
        Total tries per request, the first included.
    base_delay, max_delay:
        Exponential backoff with *full jitter*: attempt ``i`` sleeps
        ``uniform(0, min(max_delay, base_delay * 2**(i-1)))`` seconds
        (a server-supplied ``retry_after_ms`` hint raises the floor).
    budget_tokens, budget_refill:
        Token retry budget: the state starts with ``budget_tokens``,
        each retry spends one, each successful response earns
        ``budget_refill`` back (capped at the start value) — a
        misbehaving dependency degrades to roughly one retry per
        ``1/budget_refill`` successes instead of a retry storm.
    breaker_threshold, breaker_reset:
        Per-address circuit breaker: ``breaker_threshold`` consecutive
        connection-level failures open the circuit; after
        ``breaker_reset`` seconds one half-open probe is allowed.
    seed:
        Seed for the jitter rng (``None``: nondeterministic).
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    budget_tokens: float = 16.0
    budget_refill: float = 0.1
    breaker_threshold: int = 5
    breaker_reset: float = 5.0
    seed: int | None = None

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.budget_tokens < 0 or self.budget_refill < 0:
            raise ValueError("retry budget values must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_reset < 0:
            raise ValueError(
                f"breaker_reset must be >= 0, got {self.breaker_reset}"
            )


class RetryState:
    """Per-client mutable retry runtime: jitter rng + token budget."""

    def __init__(self, policy: RetryPolicy):
        self.policy = policy
        self.rng = random.Random(policy.seed)
        self.tokens = float(policy.budget_tokens)
        self.retries = 0

    def spend(self) -> bool:
        """Take one budget token; ``False`` when the budget is dry."""
        if self.tokens < 1.0:
            return False
        self.tokens -= 1.0
        self.retries += 1
        return True

    def earn(self) -> None:
        """A success pays a fraction of a token back into the budget."""
        self.tokens = min(
            float(self.policy.budget_tokens),
            self.tokens + self.policy.budget_refill,
        )

    def backoff(self, attempt: int, *, retry_after_ms=None) -> float:
        """The sleep before retry number ``attempt`` (full jitter)."""
        policy = self.policy
        cap = min(policy.max_delay, policy.base_delay * (2 ** max(attempt - 1, 0)))
        delay = self.rng.uniform(0.0, cap)
        if isinstance(retry_after_ms, (int, float)) and not isinstance(
            retry_after_ms, bool
        ):
            delay = max(delay, max(float(retry_after_ms), 0.0) / 1000.0)
        return delay


class CircuitOpenError(ConnectionError):
    """The per-address circuit breaker is open; the call failed fast."""


class CircuitBreaker:
    """Closed -> open after N consecutive connection failures -> half-open.

    Tracks *connection-level* failures only: a structured error response
    proves the address is alive, so it resets the streak.  Thread-safe —
    one breaker is shared by every client of an address.
    """

    def __init__(self, threshold: int = 5, reset_after: float = 5.0):
        self.threshold = max(int(threshold), 1)
        self.reset_after = float(reset_after)
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0

    @property
    def state(self) -> str:
        return self._state

    def allow(self) -> bool:
        """Whether a call may proceed (transitions open -> half-open)."""
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open":
                if time.monotonic() - self._opened_at >= self.reset_after:
                    self._state = "half-open"  # one probe
                    return True
                return False
            return False  # half-open: the probe is already in flight

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._state = "closed"

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._state == "half-open" or self._failures >= self.threshold:
                self._state = "open"
                self._opened_at = time.monotonic()


_BREAKERS: dict[tuple[str, int], CircuitBreaker] = {}
_BREAKERS_LOCK = threading.Lock()


def breaker_for(address: tuple[str, int], policy: RetryPolicy) -> CircuitBreaker:
    """The process-wide breaker of one ``(host, port)`` address.

    Shared across clients so a flapping server trips once, not once per
    connection; the first policy to reference an address sets its
    thresholds.
    """
    with _BREAKERS_LOCK:
        breaker = _BREAKERS.get(address)
        if breaker is None:
            breaker = _BREAKERS[address] = CircuitBreaker(
                policy.breaker_threshold, policy.breaker_reset
            )
        return breaker


def reset_breakers() -> None:
    """Forget every per-address breaker (test isolation)."""
    with _BREAKERS_LOCK:
        _BREAKERS.clear()


# ----------------------------------------------------------------------
# Overload degradation
# ----------------------------------------------------------------------
class OverloadGuard:
    """Memory-watermark degraded mode with hysteresis.

    ``update(used_bytes)`` is called on every write-classified query
    admission: at or above ``high_bytes`` the server enters degraded
    mode (cold observes shed ``overloaded``; warm reads keep
    answering), and it stays there until usage falls below
    ``low_fraction * high_bytes`` — a band, not a line, so the server
    cannot flap per request at the boundary.  Transitions are logged
    as ``degrade.enter`` / ``degrade.exit`` events.
    """

    def __init__(
        self,
        high_bytes: int,
        *,
        low_fraction: float = 0.8,
        retry_after_ms: float = 500.0,
    ):
        if high_bytes < 1:
            raise ValueError(f"high_bytes must be >= 1, got {high_bytes}")
        if not 0.0 < low_fraction <= 1.0:
            raise ValueError(
                f"low_fraction must be in (0, 1], got {low_fraction}"
            )
        if retry_after_ms < 0:
            raise ValueError(
                f"retry_after_ms must be >= 0, got {retry_after_ms}"
            )
        self.high_bytes = int(high_bytes)
        self.low_bytes = int(high_bytes * low_fraction)
        self.retry_after_ms = float(retry_after_ms)
        self._lock = threading.Lock()
        self._degraded = False
        self.transitions = 0
        self.shed_total = 0

    @property
    def degraded(self) -> bool:
        return self._degraded

    def update(self, used_bytes: int) -> bool:
        """Fold one usage sample; returns the (possibly new) state."""
        with self._lock:
            if self._degraded:
                if used_bytes < self.low_bytes:
                    self._degraded = False
                    self.transitions += 1
                    log_event(
                        "degrade.exit",
                        used_bytes=int(used_bytes),
                        low_bytes=self.low_bytes,
                    )
            elif used_bytes >= self.high_bytes:
                self._degraded = True
                self.transitions += 1
                log_event(
                    "degrade.enter",
                    used_bytes=int(used_bytes),
                    high_bytes=self.high_bytes,
                )
            return self._degraded

    def shed(self) -> None:
        with self._lock:
            self.shed_total += 1

    def snapshot(self) -> dict:
        return {
            "degraded": self._degraded,
            "high_bytes": self.high_bytes,
            "low_bytes": self.low_bytes,
            "transitions": self.transitions,
            "shed_total": self.shed_total,
        }


_SIZE_SUFFIXES = {
    "": 1,
    "b": 1,
    "kb": 1 << 10,
    "kib": 1 << 10,
    "mb": 1 << 20,
    "mib": 1 << 20,
    "gb": 1 << 30,
    "gib": 1 << 30,
}


def parse_size(text) -> int:
    """``"64mb"`` / ``"512KiB"`` / ``"1073741824"`` -> bytes."""
    if isinstance(text, bool):
        raise ValueError(f"not a size: {text!r}")
    if isinstance(text, (int, float)):
        value, suffix = float(text), ""
    else:
        match = re.fullmatch(
            r"\s*([0-9]+(?:\.[0-9]+)?)\s*([a-zA-Z]*)\s*", str(text)
        )
        if match is None:
            raise ValueError(f"not a size: {text!r}")
        value, suffix = float(match.group(1)), match.group(2).lower()
    if suffix not in _SIZE_SUFFIXES:
        raise ValueError(
            f"unknown size suffix {suffix!r} in {text!r} "
            f"(use b/kb/mb/gb)"
        )
    result = int(value * _SIZE_SUFFIXES[suffix])
    if result < 1:
        raise ValueError(f"size must be >= 1 byte, got {text!r}")
    return result


# ----------------------------------------------------------------------
# Chaos middleware
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosConfig:
    """Parsed fault mix of one chaos spec (all probabilities per request)."""

    delay_p: float = 0.0
    delay_ms: float = 100.0
    error_p: float = 0.0
    drop_p: float = 0.0

    def __post_init__(self):
        for name in ("delay_p", "error_p", "drop_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.delay_ms < 0:
            raise ValueError(f"delay ms must be >= 0, got {self.delay_ms}")
        if self.delay_p + self.error_p + self.drop_p > 1.0:
            raise ValueError(
                "fault probabilities sum past 1.0 — at most one fault is "
                "injected per request"
            )

    @property
    def enabled(self) -> bool:
        return (self.delay_p + self.error_p + self.drop_p) > 0.0

    def describe(self) -> str:
        parts = []
        if self.delay_p:
            parts.append(f"delay:p={self.delay_p:g},ms={self.delay_ms:g}")
        if self.error_p:
            parts.append(f"error:p={self.error_p:g}")
        if self.drop_p:
            parts.append(f"drop:p={self.drop_p:g}")
        return ";".join(parts) or "off"


_CHAOS_KEYS = {
    "delay": {"p", "ms"},
    "error": {"p"},
    "drop": {"p"},
}


def parse_chaos(spec: str) -> ChaosConfig:
    """``"delay:p=0.05,ms=100;error:p=0.01;drop:p=0.005"`` -> config.

    Grammar: ``;``-separated fault clauses, each ``kind:key=value[,
    key=value]``.  Kinds are ``delay`` (keys ``p``, ``ms``), ``error``
    (``p``), ``drop`` (``p``).  Repeating a kind, an unknown kind, or
    an unknown key raises ``ValueError`` — a chaos spec typo must fail
    server start, not silently inject nothing.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError("chaos spec must be a non-empty string")
    fields: dict[str, float] = {}
    seen: set[str] = set()
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, colon, body = clause.partition(":")
        kind = kind.strip().lower()
        if kind not in _CHAOS_KEYS:
            raise ValueError(
                f"unknown chaos fault {kind!r} (use delay/error/drop)"
            )
        if kind in seen:
            raise ValueError(f"chaos fault {kind!r} given twice")
        seen.add(kind)
        if not colon or not body.strip():
            raise ValueError(f"chaos fault {kind!r} needs key=value settings")
        for item in body.split(","):
            key, eq, raw = item.partition("=")
            key = key.strip().lower()
            if not eq or key not in _CHAOS_KEYS[kind]:
                raise ValueError(
                    f"chaos fault {kind!r} does not understand {item.strip()!r}"
                )
            try:
                value = float(raw.strip())
            except ValueError:
                raise ValueError(
                    f"chaos setting {kind}:{key} needs a number, got "
                    f"{raw.strip()!r}"
                ) from None
            fields[f"{kind}_{key}" if key != "p" else f"{kind}_p"] = value
    if not fields:
        raise ValueError("chaos spec names no faults")
    return ChaosConfig(**fields)


@dataclass(frozen=True)
class ChaosFault:
    """One injection decision: ``kind`` is delay / error / drop."""

    kind: str
    delay_s: float = 0.0


class ChaosInjector:
    """Seeded deterministic fault injector for the transport layer.

    One uniform draw per request, split by cumulative probability into
    drop / error / delay bands — the fault sequence is a pure function
    of the seed and the request arrival order.  ``shutdown`` is never
    injected (the drain path must stay drivable), and every injection
    bumps :data:`CHAOS_INJECTED` and emits a ``chaos.inject``
    flight-recorder event.
    """

    def __init__(self, config: ChaosConfig, *, seed: int = 0):
        self.config = config
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self.injected = {"delay": 0, "error": 0, "drop": 0}

    def decide(self, op) -> ChaosFault | None:
        """The fault for one arriving request, or ``None`` (most of them)."""
        config = self.config
        if not config.enabled or op == "shutdown":
            return None
        draw = self._rng.random()
        if draw < config.drop_p:
            fault = ChaosFault("drop")
        elif draw < config.drop_p + config.error_p:
            fault = ChaosFault("error")
        elif draw < config.drop_p + config.error_p + config.delay_p:
            fault = ChaosFault("delay", delay_s=config.delay_ms / 1000.0)
        else:
            return None
        self.injected[fault.kind] += 1
        CHAOS_INJECTED.inc()
        log_event("chaos.inject", kind=fault.kind, op=op)
        return fault

    def snapshot(self) -> dict:
        return {
            "spec": self.config.describe(),
            "seed": self.seed,
            "injected": dict(self.injected),
        }
