"""Process-parallel observe: shared-memory datasets, persistent workers.

The thread pool of :mod:`repro.service.parallel` only wins inside
GIL-releasing numpy sections; the byte-pack / ``np.unique`` / dict-fold
tail of every chunk reduction still serializes on the GIL, and every
chunk's BLAS product runs on a thread of the serving process (numpy's
OpenBLAS is pinned to the calling thread, see
:func:`repro.engine.kernel.score_block`).  This module moves the pure
chunk reduction *out of process*:

- the scored dataset (and, when top-k pruning is installed, the
  candidate matrix and its identifier map) is placed in
  :mod:`multiprocessing.shared_memory` **once** per engine, and every
  worker maps a zero-copy read-only view — dataset transport costs one
  ``memcpy`` total, not one pickle per task;
- a persistent :class:`~concurrent.futures.ProcessPoolExecutor` keeps
  workers alive across observe passes, so a serving session pays the
  fork/spawn latency once;
- the engine only supplies the observe loop's ``reduce_many`` map
  (:meth:`ProcessObserveEngine.reduce_many`): the loop in
  :meth:`~repro.core.randomized.GetNextRandomized.observe` still draws
  weights on the caller's thread and folds results in plan order, so
  counts, totals, first-seen tie-breaks and the rng stream match the
  serial tally byte-for-byte, and the trace stages are the serial
  pass's ``observe.*``.

Crash safety: a worker that dies mid-pass breaks the pool, not the
tally — the owner still holds every sampled weight block, so the
remaining chunks are reduced in-process (same fold order, same bytes)
and the pool is rebuilt lazily on the next pass.

Shared-memory lifecycle: segments are owned by the creating process.
:meth:`ProcessObserveEngine.close` (called by
:meth:`StabilitySession.close`, server drain, and session eviction)
unlinks them; an :mod:`atexit` hook unlinks anything left behind by an
abnormal exit, and :func:`live_segments` exposes the owner-side
registry so tests can assert nothing leaked.  Workers attach by name;
the attachment re-registers the segment with the (shared) resource
tracker, whose cache is a set — the duplicate collapses and the
owner's unlink clears the single entry, so workers must **not**
unregister (that would delete the owner's registration out from under
it; see :func:`_attach`).
"""

from __future__ import annotations

import atexit
import logging
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import shared_memory

import numpy as np

from repro.core.randomized import GetNextRandomized
from repro.engine import kernels
from repro.obs import log_event

__all__ = [
    "START_METHOD_ENV_VAR",
    "default_start_method",
    "SharedArray",
    "ProcessObserveEngine",
    "live_segments",
    "live_segment_bytes",
]

#: Environment override for the worker start method (``fork``,
#: ``spawn``, or ``forkserver``).  Single-threaded owners default to
#: ``fork`` where available: workers inherit the imported numpy/repro
#: modules for free, so pool spin-up is milliseconds instead of an
#: interpreter boot per worker.  Owners that are already
#: multi-threaded when the pool is built (the asyncio server grows
#: pools from its write-dispatch threads) default to ``forkserver``:
#: forking a multi-threaded process can clone a held lock (logging,
#: allocator, BLAS) into every worker and hang it — the forkserver
#: daemon forks from its own single-purpose process instead.
START_METHOD_ENV_VAR = "REPRO_START_METHOD"


def default_start_method() -> str:
    """The worker start method: env override, else fork/forkserver.

    ``fork`` when this process is still single-threaded, ``forkserver``
    once threads exist (fork-safety — see :data:`START_METHOD_ENV_VAR`),
    ``spawn`` where POSIX forking is unavailable.
    """
    override = os.environ.get(START_METHOD_ENV_VAR)
    methods = multiprocessing.get_all_start_methods()
    if override:
        if override not in methods:
            raise ValueError(
                f"{START_METHOD_ENV_VAR}={override!r} is not available "
                f"on this platform (choices: {methods})"
            )
        return override
    if "fork" not in methods:
        return "spawn"
    import threading

    if threading.active_count() > 1 and "forkserver" in methods:
        return "forkserver"
    return "fork"


# ----------------------------------------------------------------------
# Owner-side segment registry (leak accounting + abnormal-exit cleanup)
# ----------------------------------------------------------------------
_LIVE: dict[str, shared_memory.SharedMemory] = {}


def live_segments() -> tuple[str, ...]:
    """Names of shared-memory segments this process currently owns.

    Test fixtures assert this is empty after every test — a segment
    surviving its engine is a leak (on Linux it would pin RAM in
    ``/dev/shm`` until reboot).
    """
    return tuple(sorted(_LIVE))


def live_segment_bytes() -> int:
    """Total bytes of the shared-memory segments this process owns.

    The resource-telemetry gauge behind ``repro_shm_segments``' sibling
    measurements; owner-side only (worker attachments map the same
    pages and are not double-counted).
    """
    return sum(shm.size for shm in _LIVE.values())


def _cleanup_at_exit() -> None:  # pragma: no cover - abnormal exits only
    for name in list(_LIVE):
        shm = _LIVE.pop(name, None)
        if shm is None:
            continue
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass


atexit.register(_cleanup_at_exit)


class SharedArray:
    """An owner-side ndarray backed by a named shared-memory segment.

    ``create`` copies ``arr`` into a fresh segment (the one transport
    cost); ``spec`` is the picklable ``(name, shape, dtype)`` triple a
    worker needs to map a zero-copy read-only view.  The owner — and
    only the owner — unlinks.
    """

    __slots__ = ("shm", "array", "spec")

    def __init__(self, shm: shared_memory.SharedMemory, array: np.ndarray):
        self.shm = shm
        self.array = array
        self.spec = (shm.name, array.shape, array.dtype.str)

    @classmethod
    def create(cls, arr: np.ndarray) -> "SharedArray":
        src = np.ascontiguousarray(arr)
        shm = shared_memory.SharedMemory(create=True, size=max(src.nbytes, 1))
        view = np.ndarray(src.shape, dtype=src.dtype, buffer=shm.buf)
        view[...] = src
        view.setflags(write=False)
        _LIVE[shm.name] = shm
        return cls(shm, view)

    def unlink(self) -> None:
        """Release the mapping and remove the segment (idempotent)."""
        if _LIVE.pop(self.shm.name, None) is None:
            return
        # Drop the exported buffer view before closing the mapping —
        # closing with a live memoryview export raises BufferError.
        self.array = None
        try:
            self.shm.close()
        finally:
            self.shm.unlink()


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-worker cache of attached segments: ``name -> (shm, ndarray)``.
#: The SharedMemory object must stay referenced or its buffer (and the
#: ndarray view over it) would be torn down mid-use.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, np.ndarray]] = {}


def _attach(spec) -> np.ndarray:
    """Map (and cache) a read-only view of one owner segment."""
    name, shape, dtype = spec
    cached = _ATTACHED.get(name)
    if cached is None:
        shm = shared_memory.SharedMemory(name=name)
        # Attaching re-registers the name with the resource tracker,
        # but fork/spawn workers share the owner's tracker process and
        # its cache is a set — the duplicate collapses, and the owner's
        # unlink clears the single entry.  Do NOT unregister here: that
        # would delete the owner's registration out from under it.
        arr = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        arr.setflags(write=False)
        cached = (shm, arr)
        _ATTACHED[name] = cached
    return cached[1]


def _proc_reduce(spec: dict, weights: np.ndarray):
    """Worker body: one chunk's pure reduction, identical to the serial
    :meth:`GetNextRandomized.reduce_for_weights`.

    The spec names the owner's kernel backend; workers share the host
    (and its numba availability), so resolving the name here routes the
    reduction through the same backend — byte-identical either way.
    """
    backend = kernels.resolve_kernel(spec.get("kernel"))
    if spec["cand_values"] is not None:
        values = _attach(spec["cand_values"])
        cand_ids = _attach(spec["cand_ids"])
    else:
        values = _attach(spec["values"])
        cand_ids = None
    return backend.reduce_chunk(
        values,
        weights,
        kind=spec["kind"],
        k=spec["k"],
        key_dtype=np.dtype(spec["key_dtype"]),
        candidates=cand_ids,
    )


def _proc_reduce_many(spec: dict, weight_blocks: list):
    """Reduce several chunks in one task (one submit, one result pickle).

    Each chunk is still reduced *separately*, preserving the serial
    path's per-chunk fold boundaries — grouping only amortises the
    executor round-trip, it never merges chunks.
    """
    return [_proc_reduce(spec, weights) for weights in weight_blocks]


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class ProcessObserveEngine:
    """A persistent worker pool bound to one dataset's shared segments.

    Parameters
    ----------
    dataset:
        The served dataset; its ``values`` matrix is copied into shared
        memory once, here.
    max_workers:
        Pool width (default:
        :func:`repro.service.parallel.default_workers`).
    start_method:
        ``fork`` / ``spawn`` / ``forkserver``; default
        :func:`default_start_method` (env-overridable via
        ``REPRO_START_METHOD``).
    """

    def __init__(
        self,
        dataset,
        *,
        max_workers: int | None = None,
        start_method: str | None = None,
    ):
        if max_workers is None:
            from repro.service.parallel import default_workers

            max_workers = default_workers()
        self.dataset = dataset
        self.max_workers = max(1, int(max_workers))
        self.start_method = (
            start_method if start_method is not None else default_start_method()
        )
        if self.start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start method {self.start_method!r} is not available "
                f"(choices: {multiprocessing.get_all_start_methods()})"
            )
        self._values = SharedArray.create(dataset.values)
        # Candidate-matrix segments, keyed by the id of the operator's
        # installed candidate array.  The array itself is held in the
        # value to pin the id (a gc'd array could recycle it).
        self._extras: dict[int, tuple] = {}
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise RuntimeError("ProcessObserveEngine is closed")
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=multiprocessing.get_context(self.start_method),
            )
        return self._pool

    def warm_up(self) -> None:
        """Pre-start the workers (optional; the first observe also does)."""
        pool = self._ensure_pool()
        pool.submit(int, 0).result()

    def _reset_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut workers down and unlink every shared segment (idempotent).

        Wired into :meth:`StabilitySession.close`, so SIGTERM drains and
        registry evictions release the segments deterministically.
        """
        if self._closed:
            return
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None
        self._values.unlink()
        for _, sa_values, sa_ids in self._extras.values():
            sa_values.unlink()
            sa_ids.unlink()
        self._extras.clear()

    def __enter__(self) -> "ProcessObserveEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - gc timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- task specs -----------------------------------------------------
    def _spec_for(self, op: GetNextRandomized) -> dict:
        spec = {
            "values": self._values.spec,
            "cand_values": None,
            "cand_ids": None,
            "kind": op.kind,
            "k": op.k,
            "key_dtype": op.tally.dtype.str,
            "kernel": op.kernel_backend.name,
        }
        if op._candidate_values is not None:
            key = id(op._candidates)
            entry = self._extras.get(key)
            if entry is None:
                entry = (
                    op._candidates,
                    SharedArray.create(op._candidate_values),
                    SharedArray.create(
                        np.ascontiguousarray(op._candidates, dtype=np.int64)
                    ),
                )
                self._extras[key] = entry
            spec["cand_values"] = entry[1].spec
            spec["cand_ids"] = entry[2].spec
        return spec

    # -- the observe pass ----------------------------------------------
    def reduce_many(self, op):
        """The observe loop's ``reduce_many`` map, run on the workers.

        The returned callable takes weight blocks in plan order and
        yields their reductions in the same order.  Several chunks ride
        in one task: the auto-tuned chunk shrinks as n grows (bounded
        score-matrix footprint), so a big pass at n >= 100K is hundreds
        of tiny chunks, and one executor round-trip each would
        dominate.  Each chunk is still reduced separately, so the fold
        boundaries stay the serial pass's.

        A worker that dies mid-pass breaks the pool, not the tally: the
        weights are still in hand, so the remaining chunks reduce
        in-process (same bytes), a ``worker.rescue`` event is logged,
        and the pool is rebuilt lazily on the next pass.
        """
        if self._closed:
            raise RuntimeError("ProcessObserveEngine is closed")
        op = getattr(op, "raw", op)
        if not isinstance(op, GetNextRandomized):
            raise TypeError(
                "process observe requires a randomized operator, "
                f"got {type(op).__name__}"
            )
        if op.dataset.values is not self.dataset.values:
            raise ValueError(
                "operator dataset does not match this engine's shared "
                "segments; build one engine per dataset"
            )

        def run(blocks):
            blocks = list(blocks)
            spec = self._spec_for(op)
            size = max(1, -(-len(blocks) // (4 * self.max_workers)))
            groups = [blocks[i:i + size] for i in range(0, len(blocks), size)]
            futures = []
            try:
                pool = self._ensure_pool()
                for group in groups:
                    futures.append(pool.submit(_proc_reduce_many, spec, group))
            except Exception:
                pass  # reduce what was not submitted in-process
            rescued = 0
            for i, group in enumerate(groups):
                results = None
                if not rescued and i < len(futures):
                    try:
                        results = futures[i].result()
                    except Exception:
                        pass
                if results is None:
                    results = [op.reduce_for_weights(w) for w in group]
                    rescued += len(group)
                yield from results
            if rescued:
                log_event(
                    "worker.rescue",
                    level=logging.WARNING,
                    rescued_chunks=rescued,
                    total_chunks=len(blocks),
                    workers=self.max_workers,
                )
                self._reset_pool()

        return run

    def observe(self, op, n_new: int, *, force: bool = False) -> int:
        """Grow ``op``'s pool by ``n_new`` on the worker processes.

        Returns the number of chunks reduced out-of-process (``0`` when
        the serial fallback ran).  The resulting tally is byte-identical
        to the serial path's in every case, a worker crash included
        (see :meth:`reduce_many`).
        """
        from repro.service.parallel import pool_group, should_parallelize

        reduce_many = self.reduce_many(op)
        op = getattr(op, "raw", op)
        if n_new <= 0:
            return 0
        op.prepare_observe(n_new)
        n_chunks = len(op.plan_chunks(n_new))
        if not force and not should_parallelize(
            op.dataset.n_items, n_chunks, self.max_workers + 1
        ):
            op.observe(n_new)
            return 0
        op.observe(n_new, reduce_many=reduce_many, group=pool_group(self.max_workers))
        return n_chunks
