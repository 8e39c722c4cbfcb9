"""The metrics model: one registry of labeled counter, gauge and
histogram families.

Every family of the server's exposition lives in a
:class:`MetricsRegistry`: request counters and latency histograms,
resource gauges, resilience counters and the ``repro_slo_*`` views.
The registry renders them as the Prometheus text exposition
(:meth:`~MetricsRegistry.render_text`) and as JSON-safe values
(:meth:`~MetricsRegistry.collect`, reshaped into ``stats``).  One rule
holds on both surfaces: a gauge whose callback raises is left out.

Zero dependencies: RSS comes from ``/proc/self/statm`` with a
``resource.getrusage`` fallback.
"""

from __future__ import annotations

import logging
import math
import os
import threading
from bisect import bisect_left
from typing import Any, Callable

from repro.obs.logs import log_event

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BOUNDS",
    "LatencyHistogram",
    "MetricsRegistry",
    "register_resource_gauges",
    "rss_bytes",
]

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096

#: Upper bucket bounds in seconds (log-spaced, 100 us .. 10 s); the
#: final implicit bucket is +Inf.
LATENCY_BOUNDS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def rss_bytes() -> int:
    """Resident-set size of this process in bytes (0 when unknowable)."""
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS; Linux is the target.
        return int(rss_kb) * 1024
    except Exception:
        return 0


class LatencyHistogram:
    """Fixed-bucket latency histogram with cumulative Prometheus counts."""

    __slots__ = ("bounds", "buckets", "count", "sum")

    def __init__(self, bounds: tuple[float, ...] = LATENCY_BOUNDS):
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)  # last bucket is +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, seconds: float) -> None:
        self.buckets[bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.sum += seconds

    def copy(self) -> LatencyHistogram:
        clone = LatencyHistogram(self.bounds)
        clone.buckets[:], clone.count, clone.sum = self.buckets, self.count, self.sum
        return clone

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding it.

        ``q=0`` returns the bound of the first non-empty bucket (not the
        first bucket outright), ``q=1`` the bound of the last non-empty
        one; observations past the final bound report ``+Inf``.
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            seen += n
            if seen >= rank:
                return self.bounds[i] if i < len(self.bounds) else float("inf")
        return float("inf")

    def snapshot(self) -> dict:
        """JSON-safe summary; a quantile past the last bound reads ``"inf"``."""
        doc = {
            "count": self.count,
            "sum_seconds": round(self.sum, 6),
            "mean_seconds": round(self.sum / self.count, 6) if self.count else 0.0,
        }
        for q in (50, 95, 99):
            value = self.quantile(q / 100)
            doc[f"p{q}_seconds"] = value if math.isfinite(value) else "inf"
        return doc


class _Family:
    """Name, help text and label names; ``samples()`` returns a
    consistent ``{label values: value}`` copy."""

    kind = ""

    def __init__(self, name: str, help_text: str, labels: tuple = ()):
        self.name = name
        self.help = help_text
        self.labels = tuple(labels)
        self._lock = threading.Lock()


class Counter(_Family):
    """One monotonically increasing value per label set (an unlabeled
    counter holds its one series, at 0, from creation)."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, labels: tuple = ()):
        super().__init__(name, help_text, labels)
        self._values: dict[tuple, int] = {} if self.labels else {(): 0}

    def inc(self, amount: int = 1, labels: tuple = ()) -> None:
        with self._lock:
            self._values[labels] = self._values.get(labels, 0) + amount

    @property
    def value(self) -> int:
        """The unlabeled series' value."""
        return self._values.get((), 0)

    def samples(self) -> dict[tuple, int]:
        with self._lock:
            return dict(self._values)


class Histogram(_Family):
    """One :class:`LatencyHistogram` per label set."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str, labels: tuple = ()):
        super().__init__(name, help_text, labels)
        self._children = {} if self.labels else {(): LatencyHistogram()}

    def observe(self, seconds: float, labels: tuple = ()) -> None:
        with self._lock:
            hist = self._children.get(labels)
            if hist is None:
                hist = self._children[labels] = LatencyHistogram()
            hist.observe(seconds)

    def samples(self) -> dict[tuple, LatencyHistogram]:
        with self._lock:
            return {key: hist.copy() for key, hist in self._children.items()}


class Gauge(_Family):
    """A callback sampled at scrape time: ``fn`` returns a scalar, or a
    ``{label values: value}`` map (one-label keys may be bare)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str, fn: Callable[[], Any],
                 labels: tuple = ()):
        super().__init__(name, help_text, labels)
        self.fn = fn

    def samples(self) -> dict[tuple, int | float]:
        value = self.fn()
        pairs = value.items() if self.labels else [((), value)]
        return {
            key if isinstance(key, tuple) else (key,):
                int(v) if isinstance(v, int) else float(v)  # bools -> 0/1
            for key, v in pairs
        }


def _number(value: int | float) -> str:
    """One sample value: exact ints, shortest round-tripping floats."""
    if isinstance(value, int):
        return str(value)
    if not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("+Inf" if value > 0 else "-Inf")
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


def _labels(names: tuple, values: tuple, *extra: str) -> str:
    pairs = [
        n + '="' + str(v).replace("\\", r"\\").replace('"', r"\"")
        .replace("\n", r"\n") + '"'
        for n, v in zip(names, values)
    ]
    pairs += extra
    return "{" + ",".join(pairs) + "}" if pairs else ""


class MetricsRegistry:
    """Labeled families rendered as the Prometheus exposition and as
    JSON-safe values, in registration order (a replaced family keeps
    its place)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _add(self, family: _Family, *, replace: bool) -> Any:
        with self._lock:
            old = self._families.get(family.name)
            if old is not None and (old.kind, old.labels) != (
                family.kind, family.labels
            ):
                raise ValueError(
                    f"metric {family.name!r} already registered as "
                    f"{old.kind} {old.labels}"
                )
            if old is None or replace:
                self._families[family.name] = old = family
            return old

    def counter(self, name: str, *, help: str, labels: tuple = ()) -> Counter:
        """Get-or-create a counter family (idempotent per name)."""
        return self._add(Counter(name, help, labels), replace=False)

    def histogram(self, name: str, *, help: str, labels: tuple = ()) -> Histogram:
        """Get-or-create a histogram family (idempotent per name)."""
        return self._add(Histogram(name, help, labels), replace=False)

    def register_gauge(self, name: str, fn: Callable[[], Any], *, help: str,
                       labels: tuple = ()) -> None:
        """Register (or replace) a callback gauge; sampled at render time."""
        self._add(Gauge(name, help, fn, labels), replace=True)

    def attach(self, family: _Family) -> None:
        """Register an existing family instance, replacing one of its name.

        Lets process-global counters (the resilience layer's retry /
        deadline / chaos totals) render through a per-server registry
        without the registry owning their lifetime — attaching the same
        instance to a second server lifecycle is a no-op, not a reset.
        """
        self._add(family, replace=True)

    def unregister(self, name: str) -> None:
        with self._lock:
            self._families.pop(name, None)

    def _sample(self) -> list[tuple[_Family, dict]]:
        """Every family with its samples; a raising gauge is left out
        (and logged, so a scrape never hides the fault)."""
        with self._lock:
            families = list(self._families.values())
        sampled = []
        for family in families:
            try:
                sampled.append((family, family.samples()))
            except Exception as exc:
                log_event("metrics.gauge_error", level=logging.WARNING,
                          metric=family.name, error=repr(exc))
        return sampled

    def collect(self) -> dict[str, Any]:
        """JSON-safe values: an unlabeled family maps to its value, a
        labeled one to ``{label values: value}`` keyed by the
        comma-joined values.  Histograms report
        :meth:`LatencyHistogram.snapshot`; non-finite samples stay in
        the exposition only, since strict JSON cannot carry them."""
        values: dict[str, Any] = {}
        for family, samples in self._sample():
            out = {
                ",".join(map(str, key)): value.snapshot()
                if isinstance(value, LatencyHistogram) else value
                for key, value in samples.items()
                if not isinstance(value, float) or math.isfinite(value)
            }
            if family.labels:
                values[family.name] = out
            elif "" in out:
                values[family.name] = out[""]
        return values

    def render_text(self) -> str:
        """Prometheus text exposition (HELP/TYPE pair per family)."""
        lines: list[str] = []
        for family, samples in self._sample():
            name, names = family.name, family.labels
            lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key, value in sorted(samples.items()):
                if not isinstance(value, LatencyHistogram):
                    lines.append(f"{name}{_labels(names, key)} {_number(value)}")
                    continue
                cumulative = 0
                for bound, n in zip(value.bounds, value.buckets):
                    cumulative += n
                    le = _labels(names, key, f'le="{bound}"')
                    lines.append(f"{name}_bucket{le} {cumulative}")
                le = _labels(names, key, 'le="+Inf"')
                lines.append(f"{name}_bucket{le} {value.count}")
                lines.append(f"{name}_sum{_labels(names, key)} {_number(value.sum)}")
                lines.append(f"{name}_count{_labels(names, key)} {value.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def register_resource_gauges(
    registry: MetricsRegistry,
    *,
    shm_segments: Callable[[], int] | None = None,
    pool_bytes: Callable[[], int] | None = None,
    cache_bytes: Callable[[], int] | None = None,
) -> None:
    """Install the standard process-resource gauges on ``registry``.

    ``shm_segments`` / ``pool_bytes`` / ``cache_bytes`` are
    caller-supplied closures; omitted gauges are skipped rather than
    reported as zero.  Every standard name is unregistered first, so a
    second server lifecycle in one process never renders a previous
    server's closures.
    """
    for name, fn, help_text in (
        ("repro_process_rss_bytes", rss_bytes,
         "Resident set size of the serving process."),
        ("repro_shm_segments", shm_segments,
         "Live shared-memory segments owned by this process."),
        ("repro_pool_bytes", pool_bytes,
         "Approximate bytes held by Monte-Carlo sample pools."),
        ("repro_cache_bytes", cache_bytes,
         "Approximate bytes held by result caches."),
    ):
        registry.unregister(name)
        if fn is not None:
            registry.register_gauge(name, fn, help=help_text)
