"""Stability verification for top-k results (Problem 1, partial form).

Section 2.2.5 defines two stability notions for the top-k portion of a
ranked list — same *set*, or same set in the same *order*.  The
GET-NEXT-R operator discovers stable top-k results; this module answers
the complementary consumer question: *given* a published shortlist, how
stable is it?

Exact regions are unavailable for top-k results (a top-k result's region
is a union of full-ranking cells, section 4.5.1), so verification is
Monte-Carlo like the discovery operator, sharing its sampling machinery.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.dataset import Dataset
from repro.core.ranking import Ranking
from repro.core.region import FullSpace, RegionOfInterest
from repro.core.stability import StabilityResult
from repro.engine import kernel
from repro.errors import InvalidRankingError
from repro.sampling.montecarlo import confidence_error

__all__ = ["verify_topk_set_stability", "verify_topk_ranking_stability"]


def _sample_scores(
    dataset: Dataset,
    region: RegionOfInterest,
    n_samples: int,
    rng: np.random.Generator,
    chunk: int = 64,
):
    """Yield score matrices for batches of sampled functions."""
    remaining = n_samples
    values_t = dataset.values.T
    while remaining > 0:
        batch = min(chunk, remaining)
        weights = region.sample(batch, rng)
        yield weights @ values_t
        remaining -= batch


def verify_topk_set_stability(
    dataset: Dataset,
    items: Iterable[int],
    *,
    region: RegionOfInterest | None = None,
    n_samples: int = 5_000,
    rng: np.random.Generator | None = None,
    confidence: float = 0.95,
) -> StabilityResult:
    """Stability of a published top-k *set* (order-insensitive).

    The fraction of the region of interest whose induced top-k set is
    exactly ``items``.

    Parameters
    ----------
    dataset:
        The database.
    items:
        The published shortlist; ``k = len(items)``.
    region, n_samples, rng, confidence:
        Monte-Carlo controls; region defaults to the full space.
    """
    target = frozenset(int(i) for i in items)
    k = len(target)
    if not 1 <= k <= dataset.n_items:
        raise InvalidRankingError(f"set size must be in [1, {dataset.n_items}]")
    if any(i < 0 or i >= dataset.n_items for i in target):
        raise InvalidRankingError("set contains out-of-range item identifiers")
    roi = region if region is not None else FullSpace(dataset.n_attributes)
    generator = rng if rng is not None else np.random.default_rng()
    expected = np.array(sorted(target))
    hits = 0
    for scores in _sample_scores(dataset, roi, n_samples, generator):
        rows = kernel.topk_rows(scores, k, ranked=False)
        hits += int(np.all(rows == expected, axis=1).sum())
    stability = hits / n_samples
    return StabilityResult(
        ranking=Ranking(sorted(target), n_items=dataset.n_items),
        stability=stability,
        confidence_error=confidence_error(
            stability, n_samples, confidence=confidence
        ),
        sample_count=hits,
        top_k_set=target,
    )


def verify_topk_ranking_stability(
    dataset: Dataset,
    prefix: Iterable[int],
    *,
    region: RegionOfInterest | None = None,
    n_samples: int = 5_000,
    rng: np.random.Generator | None = None,
    confidence: float = 0.95,
) -> StabilityResult:
    """Stability of a published ranked top-k (order-sensitive).

    The fraction of the region of interest whose induced ranked top-k
    equals ``prefix`` exactly (same items, same order).
    """
    target = tuple(int(i) for i in prefix)
    k = len(target)
    if len(set(target)) != k:
        raise InvalidRankingError("prefix contains repeated items")
    if not 1 <= k <= dataset.n_items:
        raise InvalidRankingError(f"prefix length must be in [1, {dataset.n_items}]")
    if any(i < 0 or i >= dataset.n_items for i in target):
        raise InvalidRankingError("prefix contains out-of-range item identifiers")
    roi = region if region is not None else FullSpace(dataset.n_attributes)
    generator = rng if rng is not None else np.random.default_rng()
    expected = np.array(target)
    hits = 0
    for scores in _sample_scores(dataset, roi, n_samples, generator):
        rows = kernel.topk_rows(scores, k, ranked=True)
        hits += int(np.all(rows == expected, axis=1).sum())
    stability = hits / n_samples
    return StabilityResult(
        ranking=Ranking(target, n_items=dataset.n_items),
        stability=stability,
        confidence_error=confidence_error(
            stability, n_samples, confidence=confidence
        ),
        sample_count=hits,
    )
