"""Thread-pool observe, and the executor dial over serial/thread/process.

An observe pass is embarrassingly parallel across scoring chunks: each
chunk's BLAS product, ranking-key reduction and byte-pack is
independent, and numpy releases the GIL inside all three, so a thread
pool scales the pass across cores without pickling the dataset.  The
executors are the only parallelism layer: each product runs on the
thread that reduces its chunk (:func:`repro.engine.kernel.score_block`
pins numpy's OpenBLAS to one thread), so no BLAS worker competes with
the pool's threads or spins between products.  A *process* pool
(:mod:`repro.service.procpool`) goes further, moving the whole
reduction — including the GIL-bound byte-pack/unique tail — out of the
serving process over zero-copy shared-memory views.

Every executor runs the same loop,
:meth:`GetNextRandomized.observe <repro.core.randomized.GetNextRandomized.observe>`,
and supplies only its ``reduce_many`` map from weight blocks to chunk
reductions.  Serial equivalence therefore holds by construction: the
loop prepares the pruning index and chunk plan (pinnable via the
``REPRO_SCORING_CHUNK`` environment variable), draws weights on the
caller's thread in plan order, and folds results in plan order —
counts, totals, first-seen tie-breaks and the rng stream match the
serial pass byte for byte, and the ``observe.*`` trace stages are the
same under every executor.

:class:`ObserveExecutor` is the one dial over all of it: ``serial`` /
``thread`` / ``process`` backends behind a single ``observe`` call,
with an ``auto`` mode that picks per pass from the work size
(``n_items`` x chunks x cores) and the packed-key width.  The
``REPRO_EXECUTOR`` environment variable overrides the mode,
``REPRO_MAX_WORKERS`` caps the auto-sized pools.
"""

from __future__ import annotations

import os
from concurrent.futures import Executor, ThreadPoolExecutor
from contextlib import ExitStack
from functools import partial

from repro.core.randomized import GetNextRandomized
from repro.obs import tracing as obs_trace

__all__ = [
    "PARALLEL_MIN_ITEMS",
    "PARALLEL_MIN_CHUNKS",
    "PROCESS_MIN_ITEMS",
    "PROCESS_MAX_KEY_BYTES",
    "EXECUTOR_ENV_VAR",
    "MAX_WORKERS_ENV_VAR",
    "EXECUTOR_MODES",
    "default_workers",
    "should_parallelize",
    "pool_group",
    "resolve_executor_mode",
    "parallel_observe",
    "ObserveExecutor",
]

#: Below this many (effective) items a chunk reduction is too cheap for
#: thread handoff to pay off — the serial fallback runs instead.
PARALLEL_MIN_ITEMS = 2_048

#: A pass needs at least this many chunks for sharding to matter.
PARALLEL_MIN_CHUNKS = 2

#: Below this many items the per-chunk IPC (pickle weights out, packed
#: uniques back) outweighs what a worker process saves over a thread.
PROCESS_MIN_ITEMS = 50_000

#: Auto mode never routes a pass whose packed ranking keys are wider
#: than this to the process pool: result transport is ``O(rows x
#: key_bytes)``, so full-ranking keys at large ``n`` (4 bytes per item
#: per sample) would drown the win in IPC.  Top-k keys are a few dozen
#: bytes and ship for free.
PROCESS_MAX_KEY_BYTES = 256

#: Environment override forcing the executor mode for every pass.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: Environment cap on auto-sized worker pools (see :func:`default_workers`).
MAX_WORKERS_ENV_VAR = "REPRO_MAX_WORKERS"

EXECUTOR_MODES = ("auto", "serial", "thread", "process")


def default_workers() -> int:
    """Worker count for an auto-configured pool.

    Precedence (an explicit ``max_workers`` argument anywhere in the
    stack always wins over all of this):

    1. ``REPRO_MAX_WORKERS`` — a hard cap on the derived value;
    2. ``os.sched_getaffinity`` — the CPUs this process may actually
       run on (cgroup/taskset limits), where the platform has it;
    3. ``os.cpu_count()`` — the host's logical cores.

    The derived value is "available cores minus one" (the caller's
    thread keeps sampling weights while workers reduce), floored at 1.
    """
    try:
        available = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        available = os.cpu_count() or 1
    workers = max(available - 1, 1)
    cap = os.environ.get(MAX_WORKERS_ENV_VAR)
    if cap:
        capped = int(cap)
        if capped < 1:
            raise ValueError(
                f"{MAX_WORKERS_ENV_VAR} must be a positive integer, got {cap!r}"
            )
        workers = min(workers, capped)
    return workers


def should_parallelize(n_items: int, n_chunks: int, max_workers: int) -> bool:
    """The auto threshold: shard only when the pass can win."""
    return (
        max_workers > 1
        and n_items >= PARALLEL_MIN_ITEMS
        and n_chunks >= PARALLEL_MIN_CHUNKS
    )


def pool_group(width: int) -> int:
    """Chunks between deadline checks on a pool of ``width`` workers.

    Enough to keep every worker busy twice over; the inline executor
    uses the observe loop's default of 4.
    """
    return max(4, 2 * max(width, 1))


def resolve_executor_mode(
    n_items: int,
    n_chunks: int,
    max_workers: int,
    *,
    key_bytes: int | None = None,
) -> str:
    """Auto-select ``serial`` / ``thread`` / ``process`` for one pass.

    The decision surface (also the README's executor-selection table):

    - too small to shard (``n_items < 2_048``, fewer than 2 chunks, or
      a single worker) -> ``serial``;
    - shardable but under 50_000 items, or packed keys wider than
      :data:`PROCESS_MAX_KEY_BYTES` (full rankings at large ``n``) ->
      ``thread`` — the GIL-releasing numpy sections dominate there and
      IPC would eat the process win;
    - at least 50_000 items with narrow keys -> ``process``.
    """
    if not should_parallelize(n_items, n_chunks, max_workers):
        return "serial"
    if n_items < PROCESS_MIN_ITEMS:
        return "thread"
    if key_bytes is not None and key_bytes > PROCESS_MAX_KEY_BYTES:
        return "thread"
    return "process"


def parallel_observe(
    op,
    n_new: int,
    *,
    executor: Executor | None = None,
    max_workers: int | None = None,
    force: bool = False,
) -> int:
    """Grow ``op``'s sample pool by ``n_new``, sharding across threads.

    Parameters
    ----------
    op:
        A :class:`~repro.core.randomized.GetNextRandomized` operator or
        a backend wrapping one (anything with a ``.raw`` attribute).
    n_new:
        Number of new sampled functions to observe.
    executor:
        An existing pool to run chunk reductions on.  ``None`` creates
        a transient :class:`~concurrent.futures.ThreadPoolExecutor`
        when the auto threshold passes, and falls back to the serial
        ``op.observe`` otherwise.  A caller-owned pool skips the
        *worker-count* half of the threshold (the pool's width is its
        owner's business) but still short-circuits to serial when the
        pass itself is too small to amortise handoff — a session
        keeping one warm pool must not pay chunk submission for every
        tiny top-up.
    max_workers:
        Pool width (default: :func:`default_workers`): the size of the
        transient pool, and the width deadline groups are sized for.
        ``max_workers <= 1`` forces the serial fallback.
    force:
        Run the sharded path unconditionally (tests pinning the
        sharded code path on tiny fixtures; requires an ``executor``
        or ``max_workers > 1``).

    Returns
    -------
    int
        The number of chunks reduced on the pool, or ``0`` when the
        serial fallback ran.  Either way the pool has grown by
        ``n_new`` and the tally matches the serial result exactly.
    """
    op = getattr(op, "raw", op)
    if not isinstance(op, GetNextRandomized):
        raise TypeError(
            f"parallel_observe requires a randomized operator, got {type(op).__name__}"
        )
    if n_new <= 0:
        return 0
    op.prepare_observe(n_new)
    n_chunks = len(op.plan_chunks(n_new))
    workers = max_workers if max_workers is not None else default_workers()
    if not force:
        # A caller-owned executor has already sized its pool; judge only
        # the pass (items x chunks), not the worker count.
        effective_workers = 2 if executor is not None else workers
        if not should_parallelize(op.dataset.n_items, n_chunks, effective_workers):
            op.observe(n_new)
            return 0
    with ExitStack() as stack:
        if executor is None:
            executor = stack.enter_context(ThreadPoolExecutor(
                max_workers=min(max(workers, 1), n_chunks),
                thread_name_prefix="repro-observe",
            ))
        op.observe(
            n_new,
            reduce_many=partial(executor.map, op.reduce_for_weights),
            group=pool_group(workers),
        )
    return n_chunks


class ObserveExecutor:
    """One dial over serial / thread-pool / process-pool observe.

    The session, the batch planner, and the server all route pool
    growth through one of these; it owns the persistent pools (one
    thread pool, one process engine per dataset) and picks the backend
    per pass:

    - ``mode="serial"`` — always ``op.observe`` on the caller's thread;
    - ``mode="thread"`` / ``"process"`` — always that pool (explicit
      modes run the sharded path even for tiny passes: the caller has
      decided, and tests rely on pinning the code path);
    - ``mode="auto"`` — :func:`resolve_executor_mode` per pass.

    ``REPRO_EXECUTOR`` overrides ``mode`` at construction;
    ``REPRO_MAX_WORKERS`` caps auto-sized pool widths (explicit
    ``max_workers`` wins).  :meth:`close` shuts both pools down and
    unlinks the process engine's shared-memory segments — sessions call
    it from their own ``close``, so server drains and evictions release
    everything deterministically.
    """

    def __init__(
        self,
        mode: str = "auto",
        *,
        max_workers: int | None = None,
        start_method: str | None = None,
    ):
        env = os.environ.get(EXECUTOR_ENV_VAR)
        if env:
            mode = env
        if mode not in EXECUTOR_MODES:
            raise ValueError(
                f"executor mode must be one of {EXECUTOR_MODES}, got {mode!r}"
            )
        self.mode = mode
        self.max_workers = max_workers
        self.start_method = start_method
        self._thread_pool: ThreadPoolExecutor | None = None
        self._proc = None  # ProcessObserveEngine, lazy
        self._closed = False
        #: Cost-attribution record of the most recent pass:
        #: ``{"executor", "n", "chunks", "kernel"}`` (observability only).
        self.last_pass: dict | None = None

    # -- sizing ---------------------------------------------------------
    @property
    def workers(self) -> int:
        return (
            self.max_workers
            if self.max_workers is not None
            else default_workers()
        )

    def resolve(self, op, n_chunks: int) -> str:
        """The backend one pass of ``n_chunks`` over ``op`` would use."""
        if self.mode != "auto":
            return self.mode
        raw = getattr(op, "raw", op)
        key_bytes = raw.tally.key_length * raw.tally.dtype.itemsize
        return resolve_executor_mode(
            raw.dataset.n_items, n_chunks, self.workers, key_bytes=key_bytes
        )

    # -- pools ----------------------------------------------------------
    def _threads(self) -> ThreadPoolExecutor:
        if self._thread_pool is None:
            self._thread_pool = ThreadPoolExecutor(
                max_workers=max(self.workers, 1),
                thread_name_prefix="repro-observe",
            )
        return self._thread_pool

    def _processes(self, dataset):
        from repro.service.procpool import ProcessObserveEngine

        if self._proc is not None and self._proc.dataset.values is not dataset.values:
            # The served dataset was swapped; the old segments are stale.
            self._proc.close()
            self._proc = None
        if self._proc is None:
            self._proc = ProcessObserveEngine(
                dataset,
                max_workers=max(self.workers, 1),
                start_method=self.start_method,
            )
        return self._proc

    # -- the one entry point -------------------------------------------
    def observe(self, op, n_new: int) -> str:
        """Grow ``op``'s pool by ``n_new``; returns the backend used.

        Every backend produces the byte-identical tally; the return
        value (``"serial"`` / ``"thread"`` / ``"process"``) is for
        observability and tests only.
        """
        if self._closed:
            raise RuntimeError("ObserveExecutor is closed")
        raw = getattr(op, "raw", op)
        if n_new <= 0:
            return "serial"
        with obs_trace.span("observe.pass", n=n_new) as pass_span:
            mode, n_chunks = self._observe_one(raw, n_new)
            pass_span.set(executor=mode, chunks=n_chunks,
                          kernel=raw.kernel_backend.name)
        self.last_pass = {
            "executor": mode,
            "n": n_new,
            "chunks": n_chunks,
            "kernel": raw.kernel_backend.name,
        }
        return mode

    def _observe_one(self, raw, n_new: int) -> tuple[str, int]:
        """Pick the pass's ``reduce_many`` map and run the observe loop."""
        if self.mode == "serial":
            raw.observe(n_new)
            return "serial", 0
        raw.prepare_observe(n_new)
        n_chunks = len(raw.plan_chunks(n_new))
        mode = self.resolve(raw, n_chunks)
        if mode == "serial" or self.workers < 1:
            raw.observe(n_new)
            return "serial", n_chunks
        if mode == "process":
            reduce_many = self._processes(raw.dataset).reduce_many(raw)
        else:
            reduce_many = partial(self._threads().map, raw.reduce_for_weights)
        raw.observe(n_new, reduce_many=reduce_many, group=pool_group(self.workers))
        return mode, n_chunks

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut down both pools (idempotent); unlinks shared memory."""
        if self._closed:
            return
        self._closed = True
        if self._thread_pool is not None:
            self._thread_pool.shutdown(wait=True)
            self._thread_pool = None
        if self._proc is not None:
            self._proc.close()
            self._proc = None

    def __enter__(self) -> "ObserveExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
