"""Pluggable kernel backends for the chunk reduction.

Every observe pass — serial, thread-sharded, or process-sharded —
bottoms out in the same chunk reduction: score a block of sampled
functions (one BLAS GEMM), reduce each score row to a ranking key,
byte-pack the keys, and ``np.unique`` them into a mergeable mini-tally.
This module makes the *reduction* stage pluggable:

- :class:`KernelBackend` (``"numpy"``) — the reference implementation,
  delegating to :mod:`repro.engine.kernel` (threshold-then-order top-k,
  fused-key full rankings);
- :class:`NumbaKernel` (``"numba"``) — a jitted per-row exact top-k
  selection (``nogil``, ``parallel``), compiled lazily on first use and
  falling back to the reference automatically when numba is absent.

Byte identity is a hard contract, not an aspiration: the scoring GEMM
is shared by every backend (a re-derived dot product could differ in
the last ulp and flip a near-tie), and the jitted selection uses the
same exact comparisons — descending score, ties by ascending item id —
as :func:`repro.core.ranking._top_k_order`.  The shared GEMM is also
single-threaded (:func:`repro.engine.kernel.score_block` pins numpy's
OpenBLAS to the calling thread): a threaded GEMM splits the product by
the host's core count, and at some shapes (n=604 pruned bands) the
split moves a few scores by one ulp, so tallies would depend on the
host.  Backends therefore produce identical packed tallies (keys,
counts, first-seen order) for any chunk plan and any host core count,
and never touch the rng stream.

Selection precedence: an explicit name (the ``--kernel`` CLI flag or a
``kernel=`` argument) beats the ``REPRO_KERNEL`` environment variable,
which beats auto-selection (the fastest available backend).  Requesting
an unavailable backend degrades to numpy with a warning rather than
failing — an operator restored on a host without numba must keep
serving.
"""

from __future__ import annotations

import importlib.util
import os
import warnings

import numpy as np

from repro.engine import kernel

__all__ = [
    "KERNEL_ENV_VAR",
    "KernelBackend",
    "NumbaKernel",
    "register_kernel",
    "available_kernels",
    "get_kernel",
    "resolve_kernel",
]

#: Environment override for the default kernel backend (an explicit
#: ``kernel=`` argument / ``--kernel`` flag still wins).
KERNEL_ENV_VAR = "REPRO_KERNEL"

_REGISTRY: dict[str, type] = {}
_INSTANCES: dict[str, "KernelBackend"] = {}


def register_kernel(cls):
    """Class decorator adding a kernel backend to the registry."""
    _REGISTRY[cls.name] = cls
    return cls


def available_kernels() -> dict[str, bool]:
    """Registered backend names mapped to availability on this host."""
    return {name: cls.available() for name, cls in _REGISTRY.items()}


@register_kernel
class KernelBackend:
    """The numpy reference backend (and base class for the others).

    Stateless: one shared instance per name serves every operator.  The
    unit of work is :meth:`reduce_chunk` — the full chunk reduction from
    sampled weights to a mergeable ``np.unique`` mini-tally — with
    :meth:`rank_rows` as the stage subclasses actually override.
    """

    name = "numpy"

    #: Multiplier applied to :func:`repro.engine.kernel.auto_chunk_size`
    #: tuning — a backend whose reduction is cheaper per row tolerates a
    #: larger transient score block.  ``REPRO_SCORING_CHUNK`` pinning
    #: overrides all of this (see :data:`repro.engine.kernel.CHUNK_ENV_VAR`).
    chunk_scale = 1.0

    @classmethod
    def available(cls) -> bool:
        return True

    def rank_rows(self, scores: np.ndarray, *, kind: str, k: int | None) -> np.ndarray:
        """Reduce a block of score rows to ranking-identifier rows."""
        if kind == "full":
            return kernel.full_ranking_rows(scores)
        return kernel.topk_rows(scores, k, ranked=kind == "topk_ranked")

    def reduce_chunk(
        self,
        values: np.ndarray,
        weights: np.ndarray,
        *,
        kind: str,
        k: int | None,
        key_dtype: np.dtype,
        candidates: np.ndarray | None = None,
        out: np.ndarray | None = None,
    ):
        """One chunk's pure reduction: score, rank, pack, unique.

        ``candidates`` maps candidate-space rows back to dataset
        identifiers (the k-skyband pruning path); ``out`` is an optional
        preallocated score buffer reused across the chunks of one pass.
        Returns ``(uniques, freqs, n_rows)`` ready for
        :meth:`~repro.engine.kernel.RankingTally.observe_packed`.
        """
        scores = kernel.score_block(values, weights, out=out)
        rows = self.rank_rows(scores, kind=kind, k=k)
        if candidates is not None:
            rows = candidates[rows]
        packed = kernel.pack_rows(rows, key_dtype)
        uniques, freqs = np.unique(packed, return_counts=True)
        return uniques, freqs, int(rows.shape[0])

    def __repr__(self) -> str:
        return f"<KernelBackend {self.name!r}>"


@register_kernel
class NumbaKernel(KernelBackend):
    """Jitted top-k selection: one exact pass per score row.

    The selection keeps the ``k`` best ``(score desc, id asc)`` items in
    an insertion-sorted window while streaming each row once, where the
    reference streams it twice (block maxima, then the candidate
    compare) before ordering its candidates.  Both compare exact
    float64 scores throughout.  Scanning ids in
    ascending order makes the tie-break free: an incoming item can never
    displace an equal-scored stored one (its id is larger), which is
    precisely the :func:`repro.core.ranking._top_k_order` convention.

    Compiled lazily on first use (``nogil`` + ``parallel`` ``prange``
    over rows, on-disk cache), so importing this module costs nothing.
    ``kind="full"`` falls back to the reference reduction: a complete
    ranking's key is as wide as the dataset and the fused-key value sort
    is already near-optimal there.
    """

    name = "numba"
    chunk_scale = 4.0

    _compiled = None

    @classmethod
    def available(cls) -> bool:
        return importlib.util.find_spec("numba") is not None

    @classmethod
    def _topk(cls):
        if cls._compiled is None:
            import numba

            @numba.njit(cache=True, nogil=True, parallel=True)
            def _topk_rows_jit(scores, k, ranked):  # pragma: no cover - jitted
                batch, n = scores.shape
                out = np.empty((batch, k), dtype=np.int64)
                for i in numba.prange(batch):
                    best_s = np.empty(k, dtype=np.float64)
                    best_j = np.empty(k, dtype=np.int64)
                    count = 0
                    for j in range(n):
                        s = scores[i, j]
                        # Ids ascend with j, so an item tied with the
                        # current worst can never enter the window.
                        if count == k and s <= best_s[k - 1]:
                            continue
                        if count < k:
                            pos = count
                            count += 1
                        else:
                            pos = k - 1
                        m = pos
                        # Strict > keeps equal scores in ascending-id
                        # order (the stored item has the smaller id).
                        while m > 0 and s > best_s[m - 1]:
                            best_s[m] = best_s[m - 1]
                            best_j[m] = best_j[m - 1]
                            m -= 1
                        best_s[m] = s
                        best_j[m] = j
                    if ranked:
                        out[i] = best_j
                    else:
                        out[i] = np.sort(best_j)
                return out

            cls._compiled = _topk_rows_jit
        return cls._compiled

    def rank_rows(self, scores: np.ndarray, *, kind: str, k: int | None) -> np.ndarray:
        if kind == "full":
            return kernel.full_ranking_rows(scores)
        scores = np.ascontiguousarray(np.atleast_2d(scores), dtype=np.float64)
        n = scores.shape[1]
        if not 1 <= k <= n:
            raise ValueError(f"k must be in [1, {n}], got {k}")
        return self._topk()(scores, k, kind == "topk_ranked")


def get_kernel(name: str) -> KernelBackend:
    """The shared backend instance for ``name`` (strict: must exist
    and be available)."""
    cls = _REGISTRY.get(name)
    if cls is None:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"registered: {', '.join(_REGISTRY)}"
        )
    if not cls.available():
        raise ValueError(f"kernel backend {name!r} is not available on this host")
    instance = _INSTANCES.get(name)
    if instance is None:
        instance = _INSTANCES[name] = cls()
    return instance


def resolve_kernel(choice: "str | KernelBackend | None" = None) -> KernelBackend:
    """Resolve the kernel backend for one operator.

    Precedence: an explicit ``choice`` (name or instance) beats the
    ``REPRO_KERNEL`` environment variable, which beats ``"auto"`` — the
    last-registered available backend (numba when importable, else
    numpy).  A *named* backend that is not available on this host
    degrades to numpy with a :class:`RuntimeWarning` instead of failing;
    an unknown name is always an error.
    """
    if isinstance(choice, KernelBackend):
        return choice
    name = choice
    if name is None:
        name = os.environ.get(KERNEL_ENV_VAR) or None
    if name is None or name == "auto":
        for cls in reversed(list(_REGISTRY.values())):
            if cls.available():
                return get_kernel(cls.name)
        return get_kernel("numpy")  # pragma: no cover - numpy always available
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"registered: {', '.join(_REGISTRY)} (or 'auto')"
        )
    if not _REGISTRY[name].available():
        warnings.warn(
            f"kernel backend {name!r} is not available on this host; "
            "falling back to 'numpy' (tallies are identical, only slower)",
            RuntimeWarning,
            stacklevel=2,
        )
        return get_kernel("numpy")
    return get_kernel(name)
