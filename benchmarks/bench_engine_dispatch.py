"""Engine dispatch + kernel throughput on the randomized observe path.

Acceptance benchmark for the unified ``StabilityEngine``: at
``n = 10_000`` the engine's observe path — fused-key sorting /
exact top-k selection, strict k-skyband pruning, byte-packed tallies —
must beat the seed's per-sample loop (tuple-keyed ``Counter`` and a
per-row Python reduction) by **at least 5×** on the top-k workload the
paper runs at this scale (Figure 16: ranked top-10), with the
full-ranking and top-k-set paths reported alongside.

The k-skyband pruning index is a one-time construction (reported
separately, like the ONION index build); throughput below is the
steady-state observe rate.

Runs standalone (``python benchmarks/bench_engine_dispatch.py``) or
under pytest.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from repro import Dataset, StabilityEngine
from repro.core.ranking import _top_k_order
from repro.engine import kernel
from repro.operators.skyline import k_skyband

N_ITEMS = 10_000
N_ATTRS = 4
K = 10
MIN_SPEEDUP = 5.0


class _SeedObserver:
    """The seed implementation's observe loop, verbatim in structure:
    chunked scoring, then per-sample Python key extraction into a
    tuple/frozenset-keyed ``Counter``."""

    def __init__(self, dataset, *, kind="full", k=None, scoring_chunk=64):
        self.dataset = dataset
        self.kind = kind
        self.k = k
        self.scoring_chunk = scoring_chunk
        self.counts: Counter = Counter()
        self.total_samples = 0

    def observe(self, weights: np.ndarray) -> None:
        values = self.dataset.values
        for start in range(0, weights.shape[0], self.scoring_chunk):
            block = weights[start : start + self.scoring_chunk]
            scores = block @ values.T
            if self.kind == "full":
                orders = np.argsort(-scores, axis=1, kind="stable")
                for row in orders:
                    self.counts[tuple(row.tolist())] += 1
            elif self.kind == "topk_ranked":
                for srow in scores:
                    self.counts[tuple(_top_k_order(srow, self.k))] += 1
            else:
                for srow in scores:
                    self.counts[frozenset(_top_k_order(srow, self.k))] += 1
            self.total_samples += block.shape[0]


class _KernelObserver:
    """The same tally driven through the engine kernel, with the
    k-skyband candidate index on the top-k paths."""

    def __init__(self, dataset, *, kind="full", k=None, candidates=None):
        self.dataset = dataset
        self.kind = kind
        self.k = k
        key_length = dataset.n_items if kind == "full" else k
        self.tally = kernel.RankingTally(dataset.n_items, key_length)
        self.chunk = kernel.auto_chunk_size(dataset.n_items)
        if candidates is not None and kind != "full":
            self.candidates = candidates
            self.values = np.ascontiguousarray(dataset.values[candidates])
        else:
            self.candidates = None
            self.values = dataset.values

    def observe(self, weights: np.ndarray) -> None:
        for start in range(0, weights.shape[0], self.chunk):
            scores = kernel.score_block(
                self.values, weights[start : start + self.chunk]
            )
            if self.kind == "full":
                rows = kernel.full_ranking_rows(scores)
            else:
                rows = kernel.topk_rows(
                    scores, self.k, ranked=self.kind == "topk_ranked"
                )
                if self.candidates is not None:
                    rows = self.candidates[rows]
            self.tally.observe_rows(rows)


def _throughput(observe, weights: np.ndarray, *, repeats: int = 3) -> float:
    """Best-of-``repeats`` samples/second for one observe callable."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        observe(weights)
        best = min(best, time.perf_counter() - start)
    return weights.shape[0] / best


def run(n_samples: int = 768, *, verbose: bool = True) -> dict[str, float]:
    rng = np.random.default_rng(20180905)
    dataset = Dataset(rng.uniform(size=(N_ITEMS, N_ATTRS)))
    # One shared pre-drawn weight block: the comparison isolates the
    # observe path (scoring + key extraction + tally), not the sampler.
    weights = np.abs(rng.standard_normal((n_samples, N_ATTRS)))
    weights /= np.linalg.norm(weights, axis=1, keepdims=True)

    start = time.perf_counter()
    candidates = k_skyband(dataset.values, K)
    build = time.perf_counter() - start
    if verbose:
        print(
            f"  k-skyband index: {candidates.size}/{N_ITEMS} candidates, "
            f"one-time build {build * 1000:.0f} ms"
        )

    speedups: dict[str, float] = {}
    for kind, k in (("topk_ranked", K), ("topk_set", K), ("full", None)):
        seed_obs = _SeedObserver(dataset, kind=kind, k=k)
        kern_obs = _KernelObserver(dataset, kind=kind, k=k, candidates=candidates)
        seed_rate = _throughput(seed_obs.observe, weights)
        kernel_rate = _throughput(kern_obs.observe, weights)
        # Identical tallies: the kernel path is an optimisation, not an
        # approximation.
        assert sum(seed_obs.counts.values()) > 0
        assert len(kern_obs.tally) == len(
            set(seed_obs.counts)
        ), f"{kind}: key cardinality diverged"
        speedups[kind] = kernel_rate / seed_rate
        if verbose:
            print(
                f"  {kind:<12} n={N_ITEMS}  seed {seed_rate:8.0f}/s  "
                f"kernel {kernel_rate:8.0f}/s  speedup {speedups[kind]:5.1f}x"
            )
    return speedups


def test_engine_dispatch_speedup():
    speedups = run(verbose=True)
    assert speedups["topk_ranked"] >= MIN_SPEEDUP, (
        f"kernel observe path only {speedups['topk_ranked']:.1f}x faster "
        f"than the seed loop at n={N_ITEMS}; the engine requires "
        f">= {MIN_SPEEDUP}x"
    )
    assert speedups["full"] > 2.0, "full-ranking path regressed"


def test_facade_routes_randomized_observe():
    # The public route: StabilityEngine auto-dispatches n=10_000, d=4 to
    # the randomized backend, whose observe loop is the kernel path.
    rng = np.random.default_rng(7)
    dataset = Dataset(rng.uniform(size=(N_ITEMS, N_ATTRS)))
    engine = StabilityEngine(dataset, rng=rng)
    assert engine.backend_name == "randomized"
    result = engine.get_next(budget=512)
    assert 0.0 < result.stability <= 1.0


if __name__ == "__main__":
    print(f"randomized observe path, n={N_ITEMS}, d={N_ATTRS}, k={K}:")
    speedups = run(verbose=True)
    floor = speedups["topk_ranked"]
    print(
        f"top-k ranked observe speedup: {floor:.1f}x "
        f"(acceptance floor {MIN_SPEEDUP}x); "
        f"full-ranking: {speedups['full']:.1f}x, "
        f"top-k set: {speedups['topk_set']:.1f}x"
    )
    raise SystemExit(0 if floor >= MIN_SPEEDUP else 1)
