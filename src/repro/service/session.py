"""The :class:`StabilitySession`: reusable serving state for one dataset.

A session is what turns the per-call :class:`~repro.engine.StabilityEngine`
into a service tier.  It fingerprints its dataset, owns one engine per
query configuration ``(kind, k, backend)``, and keeps every piece of
expensive state alive across calls:

- **cumulative Monte-Carlo pools** — randomized configurations keep one
  :class:`~repro.engine.kernel.RankingTally` each, so a follow-up query
  answers from samples already drawn instead of starting from zero;
- **the k-skyband index** — one shared
  :class:`~repro.operators.skyline.KSkybandIndex` serves every top-k
  configuration (bands cache per ``k``);
- **cached arrangement cells / sweep results** — exact backends are
  instantiated once, so the 2D sweeps and the lazy MD arrangement keep
  their enumerations and split bookkeeping;
- **a keyed LRU result cache** — idempotent queries (``top_stable``,
  ``stability_of``) memoize their results under the full query identity
  (:func:`repro.service.cache.make_key`), so a warm repeat returns in
  microseconds.

Query semantics
---------------
Session queries are *pool-based*: ``budget`` (and ``min_samples``)
name a **cumulative** pool target, not a per-call increment.

- :meth:`StabilitySession.top_stable` / :meth:`~StabilitySession.stability_of`
  are idempotent — same query, same pool, same answer — which is what
  makes them cacheable;
- :meth:`StabilitySession.get_next` is a cursor over the current pool:
  it tops the pool up to the target, then consumes the best unreturned
  ranking.  Once every observed ranking has been returned it raises
  :class:`~repro.errors.ExhaustedError`; pass a larger ``budget`` (or
  call :meth:`~StabilitySession.observe`) to discover more.

Because pool growth is monotone in the *target*, executing a batch of
requests after one shared top-up (see :mod:`repro.service.batch`)
produces exactly the answers sequential execution would — with one
sampling pass instead of one per request.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.core.dataset import Dataset
from repro.core.randomized import RankingKind
from repro.core.region import FullSpace, RegionOfInterest
from repro.core.stability import StabilityResult
from repro.engine.backends import DEFAULT_BUDGET, resolve_backend
from repro.engine.engine import StabilityEngine
from repro.engine.kernel import blas_info
from repro.errors import ExhaustedError
from repro.obs import log_event
from repro.obs import tracing as obs_trace
from repro.operators.skyline import KSkybandIndex
from repro.service.budget import (
    PrecisionBudget,
    ensure_precision,
    leading_interval,
    parse_budget,
    precision_satisfied,
)
from repro.service.cache import MISS, ResultCache, dataset_fingerprint, make_key
from repro.service.parallel import ObserveExecutor

__all__ = ["StabilitySession", "VERIFY_MIN_SAMPLES"]

#: Default cumulative pool target for ``stability_of`` on a randomized
#: configuration (the paper's first-call budget).
VERIFY_MIN_SAMPLES = 5_000


@dataclass
class _ConfigState:
    """Per-``(kind, k, backend)`` serving state."""

    engine: StabilityEngine
    # Exact backends enumerate deterministically; the session records
    # the enumeration prefix so top_stable stays non-consuming while
    # get_next cursors over the same list.
    yielded: list[StabilityResult] = field(default_factory=list)
    cursor: int = 0
    exhausted: bool = False

    @property
    def is_randomized(self) -> bool:
        return self.engine.backend_name == "randomized"


class StabilitySession:
    """Batched, cached, reusable stability serving over one dataset.

    Parameters
    ----------
    dataset:
        The database being served.
    region:
        Region of interest shared by every query of the session.
    seed:
        Reproducibility anchor.  Each query configuration derives an
        independent, deterministic stream from ``(seed, kind, k,
        backend)`` — creation order does not matter, so sequential and
        batched executions of the same requests sample identically.
    rng:
        Alternative entropy source when ``seed`` is not given (one
        integer is drawn to anchor the session).
    confidence:
        Confidence level for Monte-Carlo error half-widths.
    cache:
        A shared :class:`~repro.service.cache.ResultCache`, or ``None``
        to give the session a private cache of ``cache_size`` entries.
        Pass ``cache_size=0`` to disable caching.
    parallel:
        ``"auto"`` (default) shards observe passes across a worker pool
        when the dataset and pass are large enough; ``True`` forces
        thread-pool sharding, ``False`` forces serial observe.
        Subsumed by ``executor`` (kept for compatibility).
    executor:
        Observe-executor mode: ``"serial"``, ``"thread"``,
        ``"process"`` (persistent shared-memory worker pool, see
        :mod:`repro.service.procpool`), or ``"auto"`` (pick per pass
        from the work size and key width).  ``None`` derives the mode
        from ``parallel``.  The ``REPRO_EXECUTOR`` environment
        variable overrides either.
    max_workers:
        Worker-pool width for sharded observe (default:
        :func:`repro.service.parallel.default_workers` — affinity-aware
        cores minus 1, capped by ``REPRO_MAX_WORKERS``).
    start_method:
        Multiprocessing start method for ``executor="process"``
        (default: ``fork`` where available; ``REPRO_START_METHOD``
        overrides).
    budget:
        Default cumulative pool target per configuration (default
        5,000, the paper's first-call budget); also used as the
        dispatch hint when resolving ``backend="auto"``.  Accepts a
        plain sample count or a precision spec — ``"ci:0.02"`` /
        ``"ci:0.02@200000"`` (see :mod:`repro.service.budget`) — in
        which case pools grow adaptively until the leading ranking's
        confidence half-width meets the target, and stop there.
    kernel:
        Kernel backend for the chunk reduction (``"numpy"``,
        ``"numba"``, ``"auto"``); ``None`` defers to the
        ``REPRO_KERNEL`` environment variable, then auto-selection.
        A pure speed dial: every backend produces byte-identical
        tallies, so answers (and snapshots) do not depend on it.
    sampling:
        ``"mc"`` (default) or ``"qmc"`` — the randomized pools' weight
        source (plain Monte-Carlo vs a randomised low-discrepancy
        stream; see :class:`repro.core.randomized.GetNextRandomized`).
    """

    def __init__(
        self,
        dataset: Dataset,
        *,
        region: RegionOfInterest | None = None,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        confidence: float = 0.95,
        cache: ResultCache | None = None,
        cache_size: int = 512,
        parallel: bool | str = "auto",
        executor: str | None = None,
        max_workers: int | None = None,
        start_method: str | None = None,
        budget: "int | str | PrecisionBudget | None" = None,
        kernel: str | None = None,
        sampling: str = "mc",
    ):
        self.dataset = dataset
        self.region = (
            region if region is not None else FullSpace(dataset.n_attributes)
        )
        self.confidence = confidence
        if parallel not in (True, False, "auto"):
            raise ValueError(f"parallel must be True, False or 'auto', got {parallel!r}")
        self.parallel = parallel
        self.max_workers = max_workers
        if executor is None:
            executor = {False: "serial", True: "thread", "auto": "auto"}[parallel]
        self._observer = ObserveExecutor(
            executor, max_workers=max_workers, start_method=start_method
        )
        if sampling not in ("mc", "qmc"):
            raise ValueError(f"sampling must be 'mc' or 'qmc', got {sampling!r}")
        self.kernel = kernel
        self.sampling = sampling
        budget = parse_budget(budget)
        self._budget_hint = budget
        self.default_budget = budget if budget is not None else DEFAULT_BUDGET
        if seed is not None:
            self._entropy = int(seed)
        elif rng is not None:
            self._entropy = int(rng.integers(2**63))
        else:
            self._entropy = int(np.random.SeedSequence().entropy % (2**63))
        self.cache = cache if cache is not None else ResultCache(cache_size)
        self._fingerprint = dataset_fingerprint(dataset)
        self._region_key = repr(self.region)
        self._states: dict[tuple, _ConfigState] = {}
        self._skyband: KSkybandIndex | None = None
        self._local = threading.local()
        self._created_at = time.time()
        self._cost_lock = threading.Lock()
        # Cumulative cost attribution across every query of the session
        # (cache_hits/misses count only the cacheable idempotent ops).
        self._cost_totals = {
            "queries": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "samples_drawn": 0,
            "samples_reused": 0,
        }

    @property
    def last_query_cached(self) -> bool:
        """Whether this thread's most recent top_stable/stability_of
        call answered from the result cache (always False for
        get_next).  Batch execution reports it per outcome; a diff of
        the shared cache's global hit counter would misattribute hits
        made concurrently by other sessions.  Thread-local, because
        the TCP server interleaves read-locked queries from several
        executor threads over one session — a shared flag would let
        thread A's cache hit masquerade as thread B's.
        """
        return getattr(self._local, "cached", False)

    @last_query_cached.setter
    def last_query_cached(self, value: bool) -> None:
        self._local.cached = bool(value)

    @property
    def last_query_cost(self) -> dict | None:
        """Cost-attribution record of this thread's most recent query.

        ``{"op", "backend", "cached", "samples_before", "samples_after",
        "samples_drawn", "pool_reused_fraction", "executor", "chunks",
        "kernel", "sampling"[, "ci_width", "target"]}`` for randomized
        configurations; exact backends report op/backend/cached only.
        Thread-local for the same reason as :attr:`last_query_cached`.
        """
        return getattr(self._local, "cost", None)

    def _finish_cost(self, op: str, state: "_ConfigState", *, before,
                     cached: bool, target=None, cacheable: bool = True) -> dict:
        """Build + store the per-query cost record and bump the totals."""
        cost: dict = {
            "op": op,
            "backend": state.engine.backend_name,
            "cached": bool(cached),
        }
        if state.is_randomized:
            raw = state.engine.backend.raw
            after = raw.total_samples
            before = after if before is None else before
            drawn = max(after - before, 0)
            cost.update(
                kernel=raw.kernel_backend.name,
                sampling=raw.sampling,
                samples_before=before,
                samples_after=after,
                samples_drawn=drawn,
                pool_reused_fraction=(
                    round(before / after, 6) if after else 1.0
                ),
            )
            last_pass = self._observer.last_pass
            if drawn > 0 and last_pass is not None:
                cost["executor"] = last_pass["executor"]
                cost["chunks"] = last_pass["chunks"]
            else:
                cost["executor"] = "none"
                cost["chunks"] = 0
            if isinstance(target, PrecisionBudget):
                cost["target"] = target.spec
                leading = leading_interval(raw, self.confidence)
                if leading is not None:
                    cost["ci_width"] = round(leading[1], 9)
        else:
            drawn = before = 0
        self._local.cost = cost
        with self._cost_lock:
            totals = self._cost_totals
            totals["queries"] += 1
            totals["samples_drawn"] += drawn
            totals["samples_reused"] += before or 0
            if cacheable:
                if cached:
                    totals["cache_hits"] += 1
                else:
                    totals["cache_misses"] += 1
        return cost

    # ------------------------------------------------------------------
    # Identity & lifecycle
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Content hash of the served dataset (cache key component)."""
        return self._fingerprint

    @property
    def skyband_index(self) -> KSkybandIndex:
        """The shared k-skyband index (built lazily, cached per ``k``)."""
        if self._skyband is None:
            self._skyband = KSkybandIndex(self.dataset.values)
        return self._skyband

    def invalidate(self) -> int:
        """Drop all engines, pools, indexes, and this dataset's cache rows.

        Returns the number of cache entries removed.
        """
        self._states.clear()
        self._skyband = None
        return self.cache.invalidate(self._fingerprint)

    def refresh(self) -> bool:
        """Re-fingerprint the dataset; invalidate everything on mutation.

        :class:`~repro.core.dataset.Dataset` is nominally immutable, but
        a service that hands out array views cannot rely on that alone.
        Returns ``True`` when a mutation was detected and state dropped.
        """
        current = dataset_fingerprint(self.dataset)
        if current == self._fingerprint:
            return False
        self.invalidate()
        self._fingerprint = current
        return True

    def replace_dataset(self, dataset: Dataset) -> None:
        """Swap in a new dataset, invalidating all state of the old one."""
        self.invalidate()
        self.dataset = dataset
        self._fingerprint = dataset_fingerprint(dataset)
        if self.region.dim != dataset.n_attributes:
            self.region = FullSpace(dataset.n_attributes)
            self._region_key = repr(self.region)

    def save(self, path) -> "SnapshotInfo":
        """Snapshot this session's durable state to ``path``.

        Serializes every randomized pool (byte-packed tally, mid-stream
        rng state, GET-NEXT return cursor, chunking knobs), every exact
        enumeration cursor, and the warm result-cache entries of this
        dataset into the versioned container of
        :mod:`repro.service.persist`.  The write is atomic (temp file +
        rename), so it is safe as a live checkpoint.
        """
        from repro.service.persist import save_session

        return save_session(self, path)

    @classmethod
    def restore(
        cls,
        path,
        dataset: Dataset,
        *,
        region: RegionOfInterest | None = None,
        cache: ResultCache | None = None,
        cache_size: int = 512,
        parallel: bool | str = "auto",
        executor: str | None = None,
        max_workers: int | None = None,
        start_method: str | None = None,
        kernel: str | None = None,
    ) -> "StabilitySession":
        """Rebuild a session from a :meth:`save` snapshot of it.

        ``dataset`` must be byte-identical (same fingerprint) to the
        snapshotted one and ``region`` must match the snapshot's; a
        mismatch raises :class:`~repro.errors.SnapshotMismatchError`.
        The restored session answers every query byte-identically to
        the session that never restarted — including future ``observe``
        passes, which resume the saved rng streams mid-sequence.
        Runtime-only knobs (``parallel``, ``executor``, ``kernel``) are
        the caller's to choose afresh — a pool sampled under one kernel
        backend restores and continues identically under another.
        """
        from repro.service.persist import load_session

        return load_session(
            path,
            dataset,
            region=region,
            cache=cache,
            cache_size=cache_size,
            parallel=parallel,
            executor=executor,
            max_workers=max_workers,
            start_method=start_method,
            kernel=kernel,
        )

    def close(self) -> None:
        """Shut down the observe worker pools (idempotent).

        Thread workers join; process workers terminate and their
        shared-memory segments are unlinked — the server's drain and
        eviction paths route through here, so no segment outlives its
        session.
        """
        self._observer.close()

    def __enter__(self) -> "StabilitySession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Engine management
    # ------------------------------------------------------------------
    def _resolve(self, kind: RankingKind, backend: str) -> str:
        if backend != "auto":
            return backend
        return resolve_backend(self.dataset, kind=kind, budget=self._budget_hint)

    def _rng_for(self, kind: str, k: int | None, backend: str) -> np.random.Generator:
        stream = zlib.crc32(f"{kind}:{k}:{backend}".encode())
        return np.random.default_rng([self._entropy, stream])

    def _state(
        self, kind: RankingKind, k: int | None, backend: str
    ) -> _ConfigState:
        resolved = self._resolve(kind, backend)
        key = (kind, k, resolved)
        state = self._states.get(key)
        if state is None:
            options = {}
            if resolved == "randomized":
                if kind != "full":
                    options["skyband"] = self.skyband_index
                if self.kernel is not None:
                    options["kernel_backend"] = self.kernel
                if self.sampling != "mc":
                    options["sampling"] = self.sampling
            engine = StabilityEngine(
                self.dataset,
                region=self.region,
                backend=resolved,
                kind=kind,
                k=k,
                rng=self._rng_for(kind, k, resolved),
                confidence=self.confidence,
                **options,
            )
            state = _ConfigState(engine=engine)
            self._states[key] = state
        return state

    def engine_for(
        self,
        kind: RankingKind = "full",
        k: int | None = None,
        backend: str = "auto",
    ) -> StabilityEngine:
        """The session's shared engine for one query configuration."""
        return self._state(kind, k, backend).engine

    def query_backend(
        self,
        op: str,
        kind: RankingKind,
        backend: str,
        ranking=None,
    ) -> str:
        """The backend one request dispatches to, before resolution.

        Normally the request's own ``backend``; the one special rule is
        the ranked-prefix fast path: a ``stability_of`` over a
        ``kind="full"`` ranking *shorter* than the dataset can only be
        answered by the randomized pool (prefix counting), so under
        ``backend="auto"`` it pins ``"randomized"``.  The batch
        planner and the server's read/write classifier share this rule
        — a prefix query must plan, lock, and execute against the same
        configuration.
        """
        if (
            op == "stability_of"
            and kind == "full"
            and backend == "auto"
            and ranking is not None
            and 0 < len(tuple(ranking)) < self.dataset.n_items
        ):
            return "randomized"
        return backend

    def query_is_warm_read(
        self,
        op: str,
        *,
        kind: RankingKind = "full",
        k: int | None = None,
        backend: str = "auto",
        ranking=None,
        m: int = 1,
        budget: "int | str | PrecisionBudget | None" = None,
        min_samples: int | None = None,
    ) -> bool:
        """Whether answering this query provably cannot mutate session
        state: an idempotent op over an already-materialised randomized
        configuration whose pool has reached the query's target.

        The concurrency contract a serving tier builds on: warm reads
        touch only the cumulative pool (non-consuming) and the
        thread-safe result cache, so any number may run concurrently;
        everything else — missing configurations, exact-backend
        enumeration, pool growth, ``get_next`` cursors — must
        serialize.  The classification is conservative by construction:
        a query this method rejects merely runs exclusively; accepting
        a mutator would be a data race, so anything unknown is not a
        warm read.
        """
        if op not in ("top_stable", "stability_of"):
            return False
        backend = self.query_backend(op, kind, backend, ranking)
        resolved = self._resolve(kind, backend)
        state = self._states.get((kind, k, resolved))
        if state is None or not state.is_randomized:
            return False
        target = self.pool_target(
            op, m=int(m), budget=budget, min_samples=min_samples
        )
        raw = state.engine.backend.raw
        if isinstance(target, PrecisionBudget):
            # A satisfied precision budget means the controller would
            # observe nothing — pure read; anything else must serialize.
            return precision_satisfied(raw, target, confidence=self.confidence)
        return raw.total_samples >= int(target)

    # ------------------------------------------------------------------
    # Pool management (randomized configurations)
    # ------------------------------------------------------------------
    def _ensure_pool(self, state: _ConfigState, target) -> int:
        """Grow one pool to ``target``; returns the samples drawn."""
        raw = state.engine.backend.raw
        before = raw.total_samples
        with obs_trace.span("session.ensure_pool", target=target):
            if isinstance(target, PrecisionBudget):
                ensure_precision(
                    raw,
                    target,
                    lambda n: self._observer.observe(raw, n),
                    confidence=self.confidence,
                )
            else:
                need = int(target) - before
                if need > 0:
                    self._observer.observe(raw, need)
        drawn = raw.total_samples - before
        if drawn > 0:
            last_pass = self._observer.last_pass or {}
            log_event(
                "pool.grow",
                target=str(target),
                drawn=drawn,
                samples=raw.total_samples,
                executor=last_pass.get("executor"),
            )
        return drawn

    @property
    def observer(self) -> ObserveExecutor:
        """The session's observe executor (serial / thread / process)."""
        return self._observer

    def pool_target(
        self,
        op: str,
        *,
        m: int = 1,
        budget: "int | str | PrecisionBudget | None" = None,
        min_samples: int | None = None,
    ):
        """The cumulative pool target one request wants (batch planning).

        ``get_next`` targets its budget, ``top_stable`` the paper's
        budget schedule (first-call budget plus one fifth per further
        result), ``stability_of`` its verification floor.  Returns a
        plain sample count, or a
        :class:`~repro.service.budget.PrecisionBudget` when the request
        (or the session default) names a ``"ci:..."`` precision target
        — precision budgets have no per-result schedule; the width *is*
        the target.
        """
        budget = parse_budget(budget)
        if op == "get_next":
            return budget if budget is not None else self.default_budget
        if op == "top_stable":
            if budget is not None:
                return budget
            first = self.default_budget
            if isinstance(first, PrecisionBudget):
                return first
            return first + (m - 1) * max(first // 5, 1)
        if op == "stability_of":
            if min_samples is not None:
                return min_samples
            return VERIFY_MIN_SAMPLES
        raise ValueError(f"unknown operation {op!r}")

    def observe(
        self,
        n_samples,
        *,
        kind: RankingKind = "full",
        k: int | None = None,
        backend: str = "auto",
    ) -> int:
        """Grow one configuration's cumulative pool to ``n_samples`` total.

        ``n_samples`` is a cumulative sample target or a precision spec
        (``"ci:0.02"``-style: grow until the leading ranking's CI
        half-width meets the target).  Returns the pool size afterwards.
        Exact configurations have no pool; calling this for one is an
        error.
        """
        state = self._state(kind, k, backend)
        if not state.is_randomized:
            raise ValueError(
                f"backend {state.engine.backend_name!r} is exact — it has no sample pool"
            )
        target = n_samples
        if isinstance(target, str):
            target = parse_budget(target)
        self._ensure_pool(state, target)
        return state.engine.backend.raw.total_samples

    # ------------------------------------------------------------------
    # Exact-backend enumeration prefix
    # ------------------------------------------------------------------
    def _ensure_yielded(self, state: _ConfigState, count: int) -> None:
        while len(state.yielded) < count and not state.exhausted:
            try:
                state.yielded.append(state.engine.get_next())
            except ExhaustedError:
                state.exhausted = True

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def get_next(
        self,
        *,
        kind: RankingKind = "full",
        k: int | None = None,
        backend: str = "auto",
        budget: int | None = None,
    ) -> StabilityResult:
        """The next most stable not-yet-returned ranking (a cursor).

        For randomized configurations ``budget`` is the cumulative pool
        target; the pool is topped up (shard-parallel when it pays) and
        the best unreturned ranking of the pool is consumed.  Exact
        configurations stream their enumeration.  Raises
        :class:`~repro.errors.ExhaustedError` when the pool (or the
        enumeration) has nothing left — grow the pool to continue.
        """
        state = self._state(kind, k, backend)
        self.last_query_cached = False
        if state.is_randomized:
            target = self.pool_target("get_next", budget=budget)
            before = state.engine.backend.raw.total_samples
            self._ensure_pool(state, target)
            result = state.engine.backend.next_from_pool()
            self._finish_cost("get_next", state, before=before, cached=False,
                              target=target, cacheable=False)
            return result
        self._ensure_yielded(state, state.cursor + 1)
        if state.cursor >= len(state.yielded):
            raise ExhaustedError(
                "every feasible ranking of this configuration has been returned"
            )
        result = state.yielded[state.cursor]
        state.cursor += 1
        self._finish_cost("get_next", state, before=None, cached=False,
                          cacheable=False)
        return result

    def top_stable(
        self,
        m: int,
        *,
        kind: RankingKind = "full",
        k: int | None = None,
        backend: str = "auto",
        budget: int | None = None,
        min_stability: float = 0.0,
    ) -> list[StabilityResult]:
        """The ``m`` most stable rankings — idempotent and cached.

        Unlike :meth:`StabilityEngine.top_stable`, this does not consume
        GET-NEXT state: randomized configurations answer with the ``m``
        most frequent rankings of the cumulative pool, exact ones with
        their enumeration prefix.  Results stop at the first entry
        below ``min_stability``.
        """
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        state = self._state(kind, k, backend)
        resolved = state.engine.backend_name
        ensured = False
        before = (
            state.engine.backend.raw.total_samples
            if state.is_randomized
            else None
        )
        if state.is_randomized:
            target = self.pool_target("top_stable", m=m, budget=budget)
            if isinstance(target, PrecisionBudget):
                # A precision target's pool size is only known after the
                # controller runs, so ensure first and key the cache on
                # the actual pool — idempotent: a satisfied budget grows
                # nothing, so the repeat keys identically and hits.
                self._ensure_pool(state, target)
                ensured = True
                samples = state.engine.backend.raw.total_samples
            else:
                # The key carries the pool size the answer is computed
                # from (ensure-to-target never shrinks a pool), so a
                # session whose pool outgrew the target neither serves
                # nor poisons entries of sessions answering from
                # target-sized pools.
                samples = max(
                    state.engine.backend.raw.total_samples, target
                )
        else:
            target = samples = None
        key = make_key(
            self._fingerprint,
            "top_stable",
            region=self._region_key,
            kind=kind,
            k=k,
            backend=resolved,
            m=m,
            samples=samples,
        )
        with obs_trace.span("cache.lookup", op="top_stable"):
            cached = self.cache.get(key)
        if cached is not MISS:
            self.last_query_cached = True
            self._finish_cost("top_stable", state, before=before, cached=True,
                              target=target if state.is_randomized else None)
            return self._cut(list(cached), min_stability)
        self.last_query_cached = False
        if state.is_randomized:
            if not ensured:
                self._ensure_pool(state, target)
            with obs_trace.span("pool.top", m=m):
                results = state.engine.backend.top_from_pool(m)
        else:
            self._ensure_yielded(state, m)
            results = state.yielded[:m]
        self.cache.put(key, tuple(results))
        self._finish_cost("top_stable", state, before=before, cached=False,
                          target=target if state.is_randomized else None)
        return self._cut(list(results), min_stability)

    def stability_of(
        self,
        ranking,
        *,
        kind: RankingKind = "full",
        k: int | None = None,
        backend: str = "auto",
        min_samples: int | None = None,
    ) -> StabilityResult:
        """Stability of one explicit (partial) ranking — cached.

        Randomized configurations answer from the cumulative pool after
        topping it up to ``min_samples`` (default 5,000); exact ones
        verify directly (sweep interval / arrangement oracle).

        A ``kind="full"`` ranking shorter than the dataset is a *ranked
        prefix* query: under ``backend="auto"`` it dispatches to the
        randomized backend, whose cumulative full-ranking pool answers
        it by prefix counting (see
        :meth:`repro.core.randomized.GetNextRandomized.stability_of`)
        — no dedicated top-k pool is sampled.
        """
        ids = tuple(int(i) for i in ranking)
        if kind == "topk_set":
            ids = tuple(sorted(ids))
        backend = self.query_backend("stability_of", kind, backend, ids)
        state = self._state(kind, k, backend)
        resolved = state.engine.backend_name
        before = (
            state.engine.backend.raw.total_samples
            if state.is_randomized
            else None
        )
        if state.is_randomized:
            target = self.pool_target("stability_of", min_samples=min_samples)
            samples = max(
                state.engine.backend.raw.total_samples, target
            )
        else:
            target = samples = None
        key = make_key(
            self._fingerprint,
            "stability_of",
            region=self._region_key,
            kind=kind,
            k=k,
            backend=resolved,
            ids=ids,
            samples=samples,
        )
        with obs_trace.span("cache.lookup", op="stability_of"):
            cached = self.cache.get(key)
        if cached is not MISS:
            self.last_query_cached = True
            self._finish_cost("stability_of", state, before=before,
                              cached=True, target=target)
            return cached
        self.last_query_cached = False
        if state.is_randomized:
            self._ensure_pool(state, target)
            with obs_trace.span("pool.verify"):
                result = state.engine.stability_of(ids, min_samples=target)
        else:
            with obs_trace.span("pool.verify"):
                result = state.engine.stability_of(list(ids))
        self.cache.put(key, result)
        self._finish_cost("stability_of", state, before=before, cached=False,
                          target=target)
        return result

    def run_batch(self, requests) -> list:
        """Execute a batch of requests with one amortized sampling pass.

        Delegates to :func:`repro.service.batch.execute_batch`; see
        :class:`repro.service.batch.StabilityRequest` for the request
        form.
        """
        from repro.service.batch import execute_batch

        return execute_batch(self, requests)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @staticmethod
    def _cut(results: list[StabilityResult], min_stability: float):
        out: list[StabilityResult] = []
        for result in results:
            if result.stability < min_stability:
                break
            out.append(result)
        return out

    def pool_bytes(self) -> int:
        """Approximate bytes held by the randomized sample pools (safe
        to call while request threads create configs)."""
        total = 0
        for state in list(self._states.values()):
            if state.is_randomized:
                total += state.engine.backend.raw.tally.nbytes
        return total

    def stats(self) -> dict:
        """Serving statistics: cache counters, per-config pool state,
        cost-attribution totals, executor/kernel/BLAS identity, and uptime.

        ``blas`` is :func:`repro.engine.kernel.blas_info` — numpy's
        OpenBLAS build and thread count, ``None`` when numpy's BLAS is
        not OpenBLAS — so an answer can be traced to the BLAS that
        scored it."""
        pools = {}
        for (kind, k, backend), state in list(self._states.items()):
            label = f"{kind}" + (f":k={k}" if k is not None else "") + f"@{backend}"
            if state.is_randomized:
                raw = state.engine.backend.raw
                pools[label] = {
                    "total_samples": raw.total_samples,
                    "distinct_rankings": len(raw.tally),
                    "returned": len(raw.returned),
                    "kernel": raw.kernel_backend.name,
                    "sampling": raw.sampling,
                    "pool_bytes": raw.tally.nbytes,
                }
            else:
                pools[label] = {
                    "yielded": len(state.yielded),
                    "cursor": state.cursor,
                    "exhausted": state.exhausted,
                }
        with self._cost_lock:
            cost = dict(self._cost_totals)
        lookups = cost["cache_hits"] + cost["cache_misses"]
        return {
            "fingerprint": self._fingerprint,
            "uptime_seconds": round(time.time() - self._created_at, 3),
            "cache": self.cache.stats.snapshot(),
            # Session-scoped hit ratio: the shared cache's counters mix
            # every session on the process; these count only this
            # session's cacheable queries.
            "cache_session": {
                "hits": cost["cache_hits"],
                "misses": cost["cache_misses"],
                "hit_rate": (cost["cache_hits"] / lookups) if lookups else 0.0,
            },
            "cost": cost,
            "executor": self._observer.mode,
            "executor_workers": self._observer.workers,
            "kernel": self.kernel if self.kernel is not None else "auto",
            "blas": blas_info(),
            "sampling": self.sampling,
            "pool_bytes": self.pool_bytes(),
            "cache_bytes": self.cache.approx_bytes(),
            "configs": pools,
            "skyband_bands": (
                self._skyband.built_bands if self._skyband is not None else ()
            ),
        }

    def explain(self, payload: dict) -> dict:
        """Predict how one wire-form query would execute — a pure read.

        Never materialises engines or pools: configurations the session
        has not yet built report ``materialized: false`` with the
        backend the request *would* resolve to.  Powers the ``explain``
        protocol op, so it must stay safe under the server's read lock.
        """
        from repro.service.batch import StabilityRequest

        request = StabilityRequest.from_dict(payload)
        backend = self.query_backend(
            request.op, request.kind, request.backend, request.ranking
        )
        resolved = self._resolve(request.kind, backend)
        state = self._states.get((request.kind, request.k, resolved))
        if state is not None:
            randomized = state.is_randomized
        else:
            randomized = resolved == "randomized"
        plan: dict = {
            "op": request.op,
            "kind": request.kind,
            "k": request.k,
            "backend": resolved,
            "randomized": randomized,
            "materialized": state is not None,
            "executor": self._observer.mode,
            "workers": self._observer.workers,
            "sampling": self.sampling,
            "warm_read": self.query_is_warm_read(
                request.op,
                kind=request.kind,
                k=request.k,
                backend=request.backend,
                ranking=request.ranking,
                m=request.m,
                budget=request.budget,
                min_samples=request.min_samples,
            ),
        }
        if not randomized:
            return plan
        if state is not None:
            raw = state.engine.backend.raw
            pool = raw.total_samples
            plan["kernel"] = raw.kernel_backend.name
        else:
            raw = None
            pool = 0
            plan["kernel"] = self.kernel if self.kernel is not None else "auto"
        plan["pool_samples"] = pool
        target = self.pool_target(
            request.op,
            m=request.m,
            budget=request.budget,
            min_samples=request.min_samples,
        )
        if isinstance(target, PrecisionBudget):
            plan["target"] = target.spec
            satisfied = raw is not None and precision_satisfied(
                raw, target, confidence=self.confidence
            )
            plan["precision_satisfied"] = satisfied
            # An unsatisfied precision budget's sample need is adaptive;
            # the controller discovers it, so explain does not guess.
            plan["samples_needed"] = 0 if satisfied else None
        else:
            plan["target"] = int(target)
            plan["samples_needed"] = max(int(target) - pool, 0)
        return plan

    def __repr__(self) -> str:
        return (
            f"StabilitySession(n={self.dataset.n_items}, "
            f"d={self.dataset.n_attributes}, "
            f"fingerprint={self._fingerprint[:8]}..., "
            f"configs={len(self._states)})"
        )
