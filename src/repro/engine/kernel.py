"""Vectorized ranking kernel shared by every stability backend.

The Monte-Carlo operators of sections 4.3-4.5 spend their entire budget
in one inner loop: score the database under a batch of sampled
functions, reduce each score row to a ranking key, and tally the keys.
The seed implementation did that with per-sample Python work — a tuple
per sampled ranking, a ``Counter`` keyed by tuples/frozensets, and a
linear rescan of the whole count table to find the best unreturned key.
This module replaces all of it with batch-level numpy:

- :func:`auto_chunk_size` — pick the number of sampled functions scored
  per BLAS call so the transient score matrix stays cache/memory
  friendly regardless of ``n``;
- :func:`score_block` — the ``(batch, d) @ (d, n)`` scoring product,
  run on the calling thread (:func:`blas_info` reports the BLAS);
- :func:`full_ranking_rows` / :func:`topk_rows` — reduce a block of
  score rows to ranking keys in bulk (a fused-key value sort for
  complete rankings; an exact float64 threshold-then-order selection
  for top-k);
- :func:`pack_rows` / :func:`unpack_key` — compact byte-packed keys
  (one ``bytes`` object per ranking, minimal-width integer dtype)
  replacing Python tuples and frozensets as hash keys;
- :class:`RankingTally` — the count table of Algorithms 7-8 with a
  lazy max-heap over (count, first-seen) so "best unreturned ranking"
  is a heap peek instead of a full-table scan.
"""

from __future__ import annotations

import ctypes
import functools
import heapq
import math
import os
import sys

import numpy as np

__all__ = [
    "auto_chunk_size",
    "score_block",
    "blas_info",
    "full_ranking_rows",
    "topk_rows",
    "batch_topk_indices",
    "key_dtype_for",
    "pack_rows",
    "unpack_key",
    "RankingTally",
]

# Target transient footprint of one score block (bytes): 16 MiB.  Rows
# at n = 10_000 are 80 KB, giving ~200-row batches — big enough to
# amortise the per-batch Python overhead.  The value also fixes the
# chunk plan, and with it the tally's first-seen order.
_TARGET_BLOCK_BYTES = 16 * 1024 * 1024
_MIN_CHUNK = 16
_MAX_CHUNK = 8192

#: Environment override pinning the scoring chunk to a fixed row count.
#: The auto-tuned size is already a pure function of ``n``, but pinning
#: it lets serial and shard-parallel observe passes (and runs on hosts
#: with different tuning constants) share one reproducible chunk
#: decomposition — the tally's first-seen tie-break order depends on it.
CHUNK_ENV_VAR = "REPRO_SCORING_CHUNK"


def auto_chunk_size(
    n_items: int,
    *,
    target_bytes: int = _TARGET_BLOCK_BYTES,
    lo: int = _MIN_CHUNK,
    hi: int = _MAX_CHUNK,
    scale: float = 1.0,
) -> int:
    """Rows of sampled functions per scoring block, auto-tuned to ``n``.

    Bounds the transient ``(chunk, n)`` float64 score matrix near
    ``target_bytes``, clamped to ``[lo, hi]``; the reference reduction
    adds one same-shaped temporary per block (the boolean candidate
    mask of a top-k selection, the ``uint64`` key block of a full
    ranking).  ``scale`` is the active kernel backend's chunk
    multiplier (:attr:`repro.engine.kernels.KernelBackend.chunk_scale`):
    a compiled reduction streams each row once with no such temporary,
    so it tolerates proportionally larger blocks (the clamp ceiling
    scales with it).  Deterministic: the result depends only on ``n``
    and the explicit arguments, so two operators over the same dataset
    *and kernel backend* always agree on the chunk decomposition.
    Setting the ``REPRO_SCORING_CHUNK`` environment variable overrides
    the tuning — including ``scale`` — with a fixed positive row count,
    which is what pins one reproducible decomposition across backends.
    """
    if n_items < 1:
        raise ValueError(f"n_items must be >= 1, got {n_items}")
    override = os.environ.get(CHUNK_ENV_VAR)
    if override:
        pinned = int(override)
        if pinned < 1:
            raise ValueError(
                f"{CHUNK_ENV_VAR} must be a positive integer, got {override!r}"
            )
        return pinned
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    per_row = 8 * max(n_items, 1)
    return int(
        np.clip(int(target_bytes * scale) // per_row, lo, max(hi, int(hi * scale)))
    )


@functools.cache
def _numpy_openblas():
    """``(set_num_threads, get_num_threads, get_config)`` of numpy's OpenBLAS.

    Looked up on the handle of numpy's own ``_multiarray_umath``
    extension, which searches the extension and the libraries it links:
    this finds the copy numpy loaded (under ``numpy.libs``/``.dylibs``,
    or a system ``libopenblas``), never scipy's separate ``scipy.libs``
    copy.  ``None`` when numpy's BLAS is not OpenBLAS.
    """
    umath = sys.modules.get("numpy._core._multiarray_umath") or sys.modules.get(
        "numpy.core._multiarray_umath"
    )
    try:
        lib = ctypes.CDLL(umath.__file__)
    except (AttributeError, OSError):
        return None
    # numpy >= 2 wheels, numpy 1.x wheels (64-bit integers), system builds.
    for symbol in ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}"):
        try:
            set_threads, get_threads, get_config = (
                getattr(lib, symbol.format(name))
                for name in ("set_num_threads", "get_num_threads", "get_config")
            )
        except AttributeError:
            continue
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        get_config.argtypes, get_config.restype = [], ctypes.c_char_p
        return set_threads, get_threads, get_config
    return None


@functools.cache
def _pin_blas() -> None:
    """Run numpy's OpenBLAS on the calling thread, once per process."""
    blas = _numpy_openblas()
    if blas is not None:
        set_threads, _, _ = blas
        set_threads(1)


def blas_info() -> dict | None:
    """``{"library", "threads"}`` of numpy's OpenBLAS, or ``None``.

    ``library`` is OpenBLAS's build string (version and the CPU kernel
    it dispatched to); ``threads`` its current thread count, which is 1
    in any process that has called :func:`score_block`.
    """
    blas = _numpy_openblas()
    if blas is None:
        return None
    _, get_threads, get_config = blas
    return {
        "library": " ".join(get_config().decode().split()),
        "threads": int(get_threads()),
    }


def score_block(
    values: np.ndarray, weights: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Score every item under every sampled function: ``(batch, n)``.

    One BLAS GEMM — ``weights @ values.T`` — with both operands forced
    to contiguous float64 so the product never falls back to a strided
    loop.  ``out`` is an optional preallocated ``(>= batch, n)`` float64
    buffer; the leading ``batch`` rows are written in place and returned,
    so one observe pass can reuse a single buffer across all its chunks
    instead of allocating a fresh score matrix per BLAS call.

    The first call in a process pins numpy's OpenBLAS to one thread
    (process-wide, so it also covers the host application's own numpy
    products).  The executors of :mod:`repro.service.parallel` are the
    only parallelism layer: a BLAS worker thread would otherwise spin
    between the short products and burn a core, and a threaded GEMM
    partitions the product by the host's core count, which can move a
    score by one ulp.  Fork workers inherit the pin; spawned workers
    pin on their first product.
    """
    _pin_blas()
    v = np.ascontiguousarray(values, dtype=np.float64)
    w = np.ascontiguousarray(np.atleast_2d(weights), dtype=np.float64)
    if out is not None:
        target = out[: w.shape[0]]
        np.matmul(w, v.T, out=target)
        return target
    return w @ v.T


def _descending_keys(scores: np.ndarray) -> tuple[np.ndarray, int]:
    """Fuse each score with its item id into one sortable ``uint64``.

    The IEEE-754 bit pattern of a non-negative float compares like an
    unsigned integer, so ``~bits`` sorts descending; a sign-flip
    transform extends this to negative scores.  The low
    ``ceil(log2 n)`` mantissa bits are truncated and replaced by the
    item identifier, so one *value* sort (``np.sort``, no index
    payload — much faster than ``argsort``) yields the ranking with
    the tie-break-by-identifier convention built in: exactly equal
    scores share the truncated prefix and order by id ascending.

    Truncation can collide two scores that differ only in the stolen
    mantissa bits (relative gap under ``2^-(52 - id_bits)``); callers
    must detect shared-prefix neighbours and repair against the exact
    float64 scores.

    Returns the ``(batch, n)`` key block and the number of id bits.
    """
    batch, n = scores.shape
    id_bits = max(1, int(n - 1).bit_length())
    if id_bits > 32:  # pragma: no cover - 4G items will not fit in RAM
        raise ValueError(f"dataset too large for fused ranking keys (n={n})")
    low_mask = np.uint64((1 << id_bits) - 1)
    s = np.ascontiguousarray(scores, dtype=np.float64)
    smin = s.min() if s.size else 0.0
    if smin < 0.0:
        u = (s + 0.0).view(np.uint64)
        sign = np.uint64(0x8000000000000000)
        u = u ^ (((u >> np.uint64(63)) * np.uint64(0xFFFFFFFFFFFFFFFF)) | sign)
    elif smin == 0.0:
        u = (s + 0.0).view(np.uint64)  # normalise -0.0 to +0.0
    else:
        u = s.view(np.uint64)
    keys = (~u & ~low_mask) | np.arange(n, dtype=np.uint64)
    return keys, id_bits


def full_ranking_rows(scores: np.ndarray) -> np.ndarray:
    """Complete-ranking key rows for a block of score rows.

    Equivalent to ``np.argsort(-scores, axis=1, kind="stable")`` —
    descending score, ties broken by ascending item identifier (the
    paper's convention) — but implemented as one fused-key *value*
    sort (:func:`_descending_keys`).  Rows whose sorted keys contain a
    shared truncated prefix are verified against the exact scores and
    re-sorted only if the collision was real.
    """
    scores = np.atleast_2d(scores)
    keys, id_bits = _descending_keys(scores)
    keys.sort(axis=1)
    low_mask = np.uint64((1 << id_bits) - 1)
    rows = (keys & low_mask).astype(np.intp)
    if scores.shape[1] > 1:
        collided = (keys[:, 1:] ^ keys[:, :-1]) <= low_mask
        for i in np.flatnonzero(collided.any(axis=1)):
            ordered = scores[i, rows[i]]
            runs = np.flatnonzero(collided[i])
            # A shared prefix with *equal* scores is already in stable
            # order (ids ascend within the run); only genuinely
            # different scores need the exact re-sort.
            if np.any(ordered[runs] != ordered[runs + 1]):
                rows[i] = np.argsort(-scores[i], kind="stable")
    return rows


def _topk_threshold(scores: np.ndarray, k: int) -> np.ndarray:
    """Per-row lower bound ``t`` on each row's k-th largest score.

    The k-th largest of ``B >= k`` strided block maxima (``B`` about
    ``sqrt(n * k)``, item ``j`` in block ``j % B``), which costs one
    streaming ``max`` pass: the k best blocks each hold a distinct item
    ``>= t``, so at least k items clear it.  Without ties at ``t`` only
    those k blocks contribute, bounding the candidates by k blocks'
    worth of items.  The bound holds for any block length, down to one
    item per block.
    """
    batch, n = scores.shape
    n_blocks = max(k, math.isqrt(n * k))
    length = n // n_blocks
    body = length * n_blocks
    maxima = scores[:, :body].reshape(batch, length, n_blocks).max(axis=1)
    # Fold the ragged tail into the leading blocks, so every item
    # belongs to one block and sorted rows get the exact bound.
    tail = scores[:, body:]
    head = maxima[:, : tail.shape[1]]
    np.maximum(head, tail, out=head)
    return np.partition(maxima, n_blocks - k, axis=1)[:, n_blocks - k]


def _row_positions(rows: np.ndarray, batch: int) -> np.ndarray:
    """Position of each entry within its row, for ascending ``rows``."""
    starts = np.searchsorted(rows, np.arange(batch))
    return np.arange(rows.shape[0]) - starts[rows]


def topk_rows(scores: np.ndarray, k: int, *, ranked: bool) -> np.ndarray:
    """Top-k key rows for a block of score rows.

    An exact threshold-then-order selection, all in float64, that
    streams the block twice and sorts only the candidates:

    1. :func:`_topk_threshold` bounds each row's k-th largest score
       from below;
    2. one compare and one ``flatnonzero`` collect the candidates
       ``scores >= t`` — a superset of every row's top-k, boundary
       ties included.  Each row then keeps only its items above ``t``
       and its first k candidates, the only ones that can win, so ties
       at ``t`` cannot flood the next step (in an all-equal row every
       item is a candidate);
    3. the candidates are laid out left-aligned in a ``(batch, width)``
       block, padded on the right with entries that sort last, and one
       stable per-row sort orders them by (score desc, id asc); the
       first k of each row are kept.

    Exact score ties — within the top-k and at the selection boundary —
    therefore break by ascending identifier, matching
    :func:`~repro.core.ranking._top_k_order` row for row.

    Returns ``(batch, k)`` identifier rows: rank order when ``ranked``,
    ascending-id canonical set form otherwise.
    """
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    batch, n = scores.shape
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    t = _topk_threshold(scores, k)
    # Row-major flat positions: rows ascend, and ids ascend within a row.
    flat = np.flatnonzero(scores >= t[:, None])
    rows = flat // n
    vals = scores.take(flat)
    # With k items above t none at t can win; with fewer, the lowest
    # ids at t fill the gap, and those are the row's first candidates.
    keep = (vals > t[rows]) | (_row_positions(rows, batch) < k)
    flat, rows, vals = flat[keep], rows[keep], vals[keep]
    # Pads sort after every real candidate: their +inf ties only a -inf
    # score, which precedes them, and each row holds at least k real
    # candidates.  The stable sort keeps ids ascending within a tie.
    pos = _row_positions(rows, batch)
    width = int(pos.max(initial=k - 1)) + 1
    at = rows * width + pos
    neg = np.full(batch * width, np.inf)
    neg[at] = -vals
    ids = np.zeros(batch * width, dtype=np.intp)
    ids[at] = flat - rows * n
    order = np.argsort(neg.reshape(batch, width), axis=1, kind="stable")
    out = np.take_along_axis(ids.reshape(batch, width), order[:, :k], axis=1)
    if not ranked:
        out.sort(axis=1)
    return out


def batch_topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Deterministic ranked top-k for one score row or a block of rows.

    The engine-level replacement for per-row ``_top_k_order`` loops:
    a single row returns shape ``(k,)``, a block returns ``(batch, k)``.
    """
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim == 1:
        return topk_rows(s[None, :], k, ranked=True)[0]
    return topk_rows(s, k, ranked=True)


def key_dtype_for(n_items: int) -> np.dtype:
    """Minimal unsigned dtype able to hold every item identifier."""
    if n_items <= np.iinfo(np.uint8).max + 1:
        return np.dtype(np.uint8)
    if n_items <= np.iinfo(np.uint16).max + 1:
        return np.dtype(np.uint16)
    return np.dtype(np.uint32)


def pack_rows(rows: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """View identifier rows as one opaque fixed-width key per row.

    Casts to the minimal ``dtype`` and reinterprets each row as a
    single ``numpy.void`` scalar, so a block of rankings can be
    deduplicated with one :func:`numpy.unique` call and hashed as raw
    bytes — no per-sample tuple construction.
    """
    arr = np.ascontiguousarray(rows.astype(dtype, copy=False))
    void = np.dtype((np.void, arr.dtype.itemsize * arr.shape[1]))
    return arr.view(void).ravel()


def unpack_key(key: bytes, dtype: np.dtype) -> tuple[int, ...]:
    """Invert :func:`pack_rows` for a single byte-packed key."""
    return tuple(int(i) for i in np.frombuffer(key, dtype=dtype))


class RankingTally:
    """Count table + best-unreturned heap for the randomized operators.

    Keys are byte-packed rankings (:func:`pack_rows`).  Counts only ever
    grow, so the "most frequent unreturned key" query is served by a
    *lazy* max-heap: every count update pushes a fresh entry and stale
    entries are discarded when popped.  Ties are broken by first-seen
    order (then by key bytes), matching the seed's insertion-order scan.

    Parameters
    ----------
    n_items:
        Dataset size; fixes the packed key dtype.
    key_length:
        Identifiers per key (``n`` for complete rankings, ``k`` for
        top-k keys).
    """

    __slots__ = ("dtype", "key_length", "counts", "total", "_first_seen",
                 "_heap", "_returned")

    def __init__(self, n_items: int, key_length: int):
        self.dtype = key_dtype_for(n_items)
        self.key_length = int(key_length)
        self.counts: dict[bytes, int] = {}
        self.total = 0
        self._first_seen: dict[bytes, int] = {}
        self._heap: list[tuple[int, int, bytes]] = []
        self._returned: set[bytes] = set()

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes of this tally (telemetry only).

        Packed-key bytes across the count table, first-seen map, lazy
        heap, and returned set, plus CPython per-entry container
        overhead (dict slot + boxed int ~ 100 bytes).  A gauge for the
        resource-telemetry layer, not an allocator-accurate number.
        """
        key_bytes = self.key_length * self.dtype.itemsize
        n_keys = len(self.counts)
        return (
            2 * n_keys * (key_bytes + 100)            # counts + first_seen
            + len(self._heap) * (key_bytes + 120)     # heap tuples
            + len(self._returned) * (key_bytes + 60)  # returned set
        )

    def observe_rows(self, rows: np.ndarray) -> None:
        """Tally a block of identifier rows (one ranking key per row)."""
        if rows.shape[0] == 0:
            return
        packed = pack_rows(rows, self.dtype)
        uniques, freqs = np.unique(packed, return_counts=True)
        self.observe_packed(uniques, freqs, int(rows.shape[0]))

    def observe_packed(self, keys, freqs, n_rows: int) -> None:
        """Merge a pre-reduced block of byte-packed keys into the tally.

        ``keys``/``freqs`` are the ``np.unique(..., return_counts=True)``
        reduction of one block of packed rows; ``n_rows`` is the block's
        row count.  ``keys`` may be the packed ``numpy.void`` array
        itself (the hot path: one C-level ``tolist()`` yields the
        ``bytes`` hash keys, no per-key Python loop materialises an
        intermediate list) or any iterable of ``bytes``.  This is the
        mergeable half of :meth:`observe_rows`: a worker can reduce its
        block off-thread (or out-of-process) and the owner folds the
        result in here.  Folding blocks in their serial order
        reproduces the serial tally exactly — counts, totals, and
        first-seen tie-break order.
        """
        if isinstance(keys, np.ndarray):
            # void-dtype arrays list-ify straight to bytes objects.
            keys = keys.tolist()
        if isinstance(freqs, np.ndarray):
            freqs = freqs.tolist()
        counts = self.counts
        first_seen = self._first_seen
        heap = self._heap
        for key, freq in zip(keys, freqs):
            new = counts.get(key, 0) + int(freq)
            counts[key] = new
            seq = first_seen.setdefault(key, len(first_seen))
            if key not in self._returned:
                heapq.heappush(heap, (-new, seq, key))
        self.total += int(n_rows)

    def merge(self, other: "RankingTally") -> None:
        """Fold another tally's counts into this one.

        Keys are ingested in ``other``'s first-seen order, so merging
        shard tallies in shard order matches processing the shards'
        blocks sequentially *per shard*; returned-marks of ``other``
        are ignored (shards never return results themselves).
        """
        if other.key_length != self.key_length or other.dtype != self.dtype:
            raise ValueError("cannot merge tallies with different key layouts")
        ordered = sorted(other.counts, key=other._first_seen.__getitem__)
        self.observe_packed(
            ordered, [other.counts[key] for key in ordered], other.total
        )

    def export_state(self) -> dict:
        """The count table as flat, serialization-friendly buffers.

        Keys are emitted in first-seen order (the tie-break order is
        part of the observable state), concatenated into one ``bytes``
        blob of fixed-width packed keys; counts ride alongside as a
        little-endian ``uint64`` array.  Returned-marks are *not*
        included — they belong to the operator that owns the return
        protocol (see :meth:`GetNextRandomized.export_state`).
        """
        # Keys only ever enter ``counts`` at first observation (and are
        # never deleted), so dict insertion order *is* first-seen order
        # — no sort needed.
        ordered = list(self.counts)
        return {
            "key_length": self.key_length,
            "dtype": self.dtype.name,
            "n_keys": len(ordered),
            "total": self.total,
            "keys": b"".join(ordered),
            "counts": np.array(
                [self.counts[key] for key in ordered], dtype="<u8"
            ),
        }

    @classmethod
    def from_state(
        cls,
        n_items: int,
        *,
        key_length: int,
        dtype: str,
        n_keys: int,
        total: int,
        keys: bytes,
        counts: np.ndarray,
    ) -> "RankingTally":
        """Rebuild a tally from :meth:`export_state` buffers.

        Validates the layout hard — a snapshot whose buffers disagree
        with their declared shape (or whose counts do not sum to the
        total) must never produce a silently wrong count table.
        """
        tally = cls(n_items, key_length)
        if tally.dtype.name != dtype:
            raise ValueError(
                f"key dtype mismatch: n_items={n_items} implies "
                f"{tally.dtype.name}, state says {dtype}"
            )
        width = tally.key_length * tally.dtype.itemsize
        if len(keys) != n_keys * width:
            raise ValueError(
                f"key blob holds {len(keys)} bytes, expected "
                f"{n_keys} keys x {width} bytes"
            )
        freqs = np.asarray(counts, dtype=np.uint64)
        if freqs.shape != (n_keys,):
            raise ValueError(
                f"counts shape {freqs.shape} does not match n_keys={n_keys}"
            )
        if n_keys and int(freqs.min(initial=1)) < 1:
            raise ValueError("tally counts must be positive")
        if int(freqs.sum()) != int(total):
            raise ValueError(
                f"counts sum to {int(freqs.sum())}, total says {total}"
            )
        heap = tally._heap
        for i in range(n_keys):
            key = keys[i * width : (i + 1) * width]
            count = int(freqs[i])
            tally.counts[key] = count
            tally._first_seen[key] = i
            heap.append((-count, i, key))
        if len(tally.counts) != n_keys:
            raise ValueError("key blob contains duplicate keys")
        heapq.heapify(heap)
        tally.total = int(total)
        return tally

    def top_keys(self, m: int) -> list[bytes]:
        """The ``m`` highest-count keys, best first — non-consuming.

        Ignores returned-marks; ties break by first-seen order then key
        bytes, exactly like :meth:`best_unreturned`.
        """
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        first_seen = self._first_seen
        return [
            key
            for _, _, key in heapq.nsmallest(
                m,
                (
                    (-count, first_seen[key], key)
                    for key, count in self.counts.items()
                ),
            )
        ]

    def pack_prefix(self, ids) -> bytes:
        """Byte-pack a ranking *prefix* (``1 <= len(ids) <= key_length``).

        The packed bytes are exactly the leading bytes of any full key
        sharing the prefix, so prefix membership is one ``startswith``
        per key — no unpacking.
        """
        ids = list(ids)
        if not 1 <= len(ids) <= self.key_length:
            raise ValueError(
                f"prefix length must be in [1, {self.key_length}], "
                f"got {len(ids)}"
            )
        # Delegate to pack_rows so prefix bytes can never drift from
        # the packing that produced the stored keys.
        row = np.asarray(ids, dtype=self.dtype)[None, :]
        return pack_rows(row, self.dtype)[0].tobytes()

    def prefix_count(self, ids) -> int:
        """Total observations whose key starts with the identifiers ``ids``.

        For a full-ranking tally this is the number of sampled functions
        whose induced ranking *begins* with ``ids`` — i.e. the sample
        count of the ranked prefix — summed over every observed
        completion, so the prefix never needs to be re-sampled under a
        dedicated top-k configuration.  A full-length ``ids`` degrades
        to :meth:`count_of`.  Cost is one bytes-prefix comparison per
        distinct observed key.
        """
        prefix = self.pack_prefix(ids)
        if len(ids) == self.key_length:
            return self.counts.get(prefix, 0)
        return sum(
            count
            for key, count in self.counts.items()
            if key.startswith(prefix)
        )

    def best_unreturned(self) -> bytes | None:
        """The not-yet-returned key with the highest count, or ``None``."""
        heap = self._heap
        while heap:
            neg_count, seq, key = heap[0]
            if key in self._returned or self.counts[key] != -neg_count:
                heapq.heappop(heap)  # stale or already returned
                continue
            return key
        return None

    def mark_returned(self, key: bytes) -> None:
        self._returned.add(key)

    def is_returned(self, key: bytes) -> bool:
        return key in self._returned

    def count_of(self, key: bytes) -> int:
        return self.counts.get(key, 0)

    def unpack(self, key: bytes) -> tuple[int, ...]:
        return unpack_key(key, self.dtype)

    def pack(self, ids) -> bytes:
        """Byte-pack one iterable of identifiers into this tally's key form."""
        row = np.asarray(list(ids), dtype=self.dtype)[None, :]
        return pack_rows(row, self.dtype)[0].tobytes()

    def __len__(self) -> int:
        return len(self.counts)
