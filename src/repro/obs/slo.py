"""Per-dataset service-level objectives with burn-rate computation.

An operator states objectives once — ``--slo "p99:50ms,err:0.1%"`` —
and the tracker continuously scores each served dataset against them
using a per-dataset latency histogram family and error counter family
(the ones :class:`repro.server.metrics.ServerMetrics` records into).
No second measurement pipeline: the SLO engine is a pure *view* over
families the hot path was already paying for.

The headline number per objective is the **burn rate**: the observed
violation fraction divided by the objective's allowance.  Burn 1.0
means the error budget is being consumed exactly as fast as the
objective permits; 2.0 means twice as fast (the classic page-at-burn
multi-window signal); 0 means no violations (or no traffic yet).

Latency violation counting is conservative against the fixed
histogram buckets: a request is "within objective" only when it
landed in a bucket whose upper bound is <= the target, so a target
that falls inside a bucket counts the whole bucket as violating.

Surfaces: the ``stats`` protocol op (``"slo"`` section), the
Prometheus exposition (``repro_slo_*`` families: labeled callback
gauges on the same :class:`~repro.obs.metrics.MetricsRegistry`, per
dataset and objective), and diag bundles.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field

from repro.obs.metrics import Counter, Histogram, MetricsRegistry

__all__ = ["SloSpec", "SloTracker", "parse_slo"]

_LATENCY_RE = re.compile(r"^p(\d{1,2}(?:\.\d+)?)$")
_VALUE_RE = re.compile(r"^(\d+(?:\.\d+)?)(ms|s|us|%)?$")


@dataclass(frozen=True)
class SloSpec:
    """Parsed objectives: latency quantile targets + max error rate."""

    #: objective label -> (quantile in (0, 1), target seconds),
    #: e.g. ``{"p99": (0.99, 0.05)}``.
    latency: dict[str, tuple[float, float]] = field(default_factory=dict)
    #: Maximum tolerated error fraction in [0, 1], or ``None``.
    error_rate: float | None = None
    #: The original spec string, echoed in snapshots.
    source: str = ""

    def to_dict(self) -> dict:
        return {
            "source": self.source,
            "latency": {
                label: {"quantile": q, "target_seconds": target}
                for label, (q, target) in self.latency.items()
            },
            "error_rate": self.error_rate,
        }


def parse_slo(spec: str) -> SloSpec:
    """Parse ``"p99:50ms,err:0.1%"`` into an :class:`SloSpec`.

    Grammar: comma-separated ``objective:value`` terms.  Objectives are
    ``pNN`` / ``pNN.N`` (latency quantile; value in ``us``/``ms``/``s``,
    default seconds) or ``err`` (value as a percentage with ``%`` or a
    bare fraction).  Raises :class:`ValueError` with the offending term
    on anything else.
    """
    latency: dict[str, tuple[float, float]] = {}
    error_rate: float | None = None
    text = spec.strip()
    if not text:
        raise ValueError("empty SLO spec")
    for term in text.split(","):
        term = term.strip()
        if not term:
            continue
        key, sep, raw = term.partition(":")
        key = key.strip().lower()
        raw = raw.strip().lower()
        if not sep or not raw:
            raise ValueError(f"SLO term {term!r} is not 'objective:value'")
        value_match = _VALUE_RE.match(raw)
        if value_match is None:
            raise ValueError(f"SLO term {term!r} has unparseable value {raw!r}")
        number = float(value_match.group(1))
        unit = value_match.group(2)
        if key == "err":
            if unit == "%":
                rate = number / 100.0
            elif unit is None:
                rate = number
            else:
                raise ValueError(
                    f"SLO term {term!r}: error rate takes '%' or a fraction"
                )
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"SLO term {term!r}: rate outside [0, 1]")
            if error_rate is not None:
                raise ValueError(f"duplicate 'err' objective in {spec!r}")
            error_rate = rate
            continue
        quantile_match = _LATENCY_RE.match(key)
        if quantile_match is None:
            raise ValueError(f"unknown SLO objective {key!r} in {term!r}")
        quantile = float(quantile_match.group(1)) / 100.0
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"SLO term {term!r}: quantile outside (0, 100)")
        if unit == "%":
            raise ValueError(f"SLO term {term!r}: latency target takes a duration")
        scale = {"us": 1e-6, "ms": 1e-3, "s": 1.0, None: 1.0}[unit]
        target = number * scale
        if target <= 0:
            raise ValueError(f"SLO term {term!r}: target must be positive")
        if key in latency:
            raise ValueError(f"duplicate {key!r} objective in {spec!r}")
        latency[key] = (quantile, target)
    if not latency and error_rate is None:
        raise ValueError(f"SLO spec {spec!r} defines no objectives")
    return SloSpec(latency=latency, error_rate=error_rate, source=text)


class SloTracker:
    """Scores per-dataset traffic against an :class:`SloSpec`.

    A pure view over two families labeled by ``dataset``: the query
    latency histogram (its count is the request count) and the query
    error counter.  Datasets named via :meth:`watch` (the server's
    catalogue) appear in every snapshot even before their first
    request, so dashboards and the CI promlint see the series
    immediately.
    """

    def __init__(self, spec: SloSpec, latency: Histogram, errors: Counter):
        self.spec = spec
        self._latency = latency
        self._errors = errors
        self._known: set[str] = set()
        self._lock = threading.Lock()

    def watch(self, *datasets: str) -> None:
        """Pre-register dataset names so they export zeroed series."""
        with self._lock:
            self._known.update(d for d in datasets if d)

    # ------------------------------------------------------------------
    def _score(self, hist, errors: int) -> dict:
        requests = hist.count if hist is not None else 0
        out: dict = {"requests": requests, "errors": errors, "objectives": {}}
        compliant = True
        for label, (quantile, target) in self.spec.latency.items():
            allowed = 1.0 - quantile
            if requests:
                # Whole buckets only: observations provably <= target.
                violations = requests - sum(
                    n for bound, n in zip(hist.bounds, hist.buckets)
                    if bound <= target
                )
                violation_rate = violations / requests
            else:
                violations = 0
                violation_rate = 0.0
            burn = (violation_rate / allowed) if allowed > 0 else 0.0
            ok = burn <= 1.0
            compliant = compliant and ok
            out["objectives"][label] = {
                "target_seconds": target,
                "violations": violations,
                "violation_rate": round(violation_rate, 6),
                "burn_rate": round(burn, 4),
                "compliant": ok,
            }
        if self.spec.error_rate is not None:
            rate = (errors / requests) if requests else 0.0
            target = self.spec.error_rate
            burn = (rate / target) if target > 0 else (
                0.0 if rate == 0 else float("inf")
            )
            ok = rate <= target
            compliant = compliant and ok
            out["objectives"]["err"] = {
                "target_rate": target,
                "observed_rate": round(rate, 6),
                "burn_rate": round(burn, 4) if burn != float("inf") else "inf",
                "compliant": ok,
            }
        out["compliant"] = compliant
        return out

    def snapshot(self) -> dict:
        """JSON-safe per-dataset scores for ``stats`` and diag bundles."""
        # Errors before latency: the recorder observes latency first,
        # so errors never outnumber requests in one snapshot.
        errors = self._errors.samples()
        latency = self._latency.samples()
        with self._lock:
            names = self._known | {key[0] for key in latency}
        datasets = {
            name: self._score(latency.get((name,)), errors.get((name,), 0))
            for name in sorted(names)
        }
        return {
            "spec": self.spec.to_dict(),
            "datasets": datasets,
            "compliant": all(d["compliant"] for d in datasets.values()),
        }

    # ------------------------------------------------------------------
    def register(self, registry: MetricsRegistry) -> None:
        """Export the scores on ``registry`` as labeled ``repro_slo_*``
        callback gauges (error rates only with an ``err`` objective)."""

        def scores():
            return self.snapshot()["datasets"].items()

        registry.register_gauge(
            "repro_slo_latency_target_seconds",
            lambda: {o: target for o, (_, target) in self.spec.latency.items()},
            labels=("objective",), help="Configured latency objective.")
        registry.register_gauge(
            "repro_slo_burn_rate",
            lambda: {
                (name, o): float(obj["burn_rate"])  # "inf" -> +Inf
                for name, score in scores()
                for o, obj in score["objectives"].items()
            },
            labels=("dataset", "objective"),
            help="Error-budget burn rate per dataset and objective "
                 "(1.0 = burning exactly at the allowance).")
        registry.register_gauge(
            "repro_slo_compliant",
            lambda: {name: score["compliant"] for name, score in scores()},
            labels=("dataset",),
            help="Whether the dataset currently meets every objective "
                 "(1 = yes).")
        registry.unregister("repro_slo_error_rate")
        if self.spec.error_rate is not None:
            registry.register_gauge(
                "repro_slo_error_rate",
                lambda: {
                    name: score["objectives"]["err"]["observed_rate"]
                    for name, score in scores()
                },
                labels=("dataset",), help="Observed error fraction per dataset.")
