"""Top-k retrieval primitives.

The randomized GET-NEXT operator evaluates thousands of sampled scoring
functions and needs the top-k under each in better than ``O(n log n)``.
Selection is served by the shared vectorized kernel
(:func:`repro.engine.kernel.batch_topk_indices`), which also accepts a
whole ``(batch, n)`` block of score rows at once; this module keeps the
operator-level names plus the score threshold separating the top-k from
the rest (useful in analyses).
"""

from __future__ import annotations

import numpy as np

from repro.engine.kernel import batch_topk_indices

__all__ = ["top_k_indices", "top_k_threshold"]


def top_k_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest scores, ordered by (score desc, id asc).

    ``O(n)`` selection via the kernel's threshold-then-order path with
    exact, deterministic handling of ties at the k-th score boundary
    (lowest identifiers win, matching the ranking convention of
    section 2.1.1).  Accepts a single score row or a ``(batch, n)``
    block (one result row per input row).
    """
    return np.asarray(
        batch_topk_indices(np.asarray(scores, dtype=np.float64), k), dtype=np.intp
    )


def top_k_threshold(scores: np.ndarray, k: int) -> float:
    """The k-th largest score — the admission threshold of the top-k."""
    s = np.asarray(scores, dtype=np.float64)
    if not 1 <= k <= s.shape[0]:
        raise ValueError(f"k must be in [1, {s.shape[0]}], got {k}")
    return float(np.partition(-s, k - 1)[k - 1] * -1.0)
