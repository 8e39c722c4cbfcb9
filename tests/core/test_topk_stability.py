"""Unit tests for top-k stability verification (Problem 1, partial form)."""

import math

import numpy as np
import pytest

from repro import (
    Cone,
    Dataset,
    FullSpace,
    GetNextRandomized,
    ScoringFunction,
    verify_topk_ranking_stability,
    verify_topk_set_stability,
)
from repro.core.ranking import _top_k_order
from repro.core.topk_stability import _sample_scores
from repro.errors import InvalidRankingError


@pytest.fixture
def ds(rng_factory):
    return Dataset(rng_factory(51).uniform(size=(12, 3)))


class TestVerifyTopkSet:
    def test_dominant_set_fully_stable(self, rng):
        values = np.vstack([np.full((3, 3), 0.9), np.full((6, 3), 0.1)])
        values += np.random.default_rng(0).uniform(0, 0.005, values.shape)
        ds = Dataset(values)
        res = verify_topk_set_stability(ds, [0, 1, 2], n_samples=500, rng=rng)
        assert res.stability == 1.0
        assert res.top_k_set == frozenset({0, 1, 2})

    def test_never_topk_set_zero(self, rng):
        values = np.vstack([np.full((3, 3), 0.9), np.full((6, 3), 0.1)])
        ds = Dataset(values)
        res = verify_topk_set_stability(ds, [3, 4, 5], n_samples=500, rng=rng)
        assert res.stability == 0.0

    def test_agrees_with_discovery_engine(self, ds, rng_factory):
        engine = GetNextRandomized(
            ds, kind="topk_set", k=4, rng=rng_factory(52)
        )
        best = engine.get_next(budget=8000)
        verified = verify_topk_set_stability(
            ds, best.top_k_set, n_samples=8000, rng=rng_factory(53)
        )
        assert abs(verified.stability - best.stability) < 0.03

    def test_cone_restriction_raises_stability(self, ds, rng_factory):
        f = ScoringFunction.equal_weights(3)
        top = f.rank(ds).top_k_set(4)
        broad = verify_topk_set_stability(
            ds, top, n_samples=4000, rng=rng_factory(54)
        )
        narrow = verify_topk_set_stability(
            ds,
            top,
            region=Cone(f.weights, math.pi / 500),
            n_samples=4000,
            rng=rng_factory(55),
        )
        assert narrow.stability >= broad.stability

    def test_rejects_out_of_range(self, ds, rng):
        with pytest.raises(InvalidRankingError):
            verify_topk_set_stability(ds, [0, 99], n_samples=10, rng=rng)

    def test_rejects_oversized_set(self, ds, rng):
        with pytest.raises(InvalidRankingError):
            verify_topk_set_stability(ds, range(13), n_samples=10, rng=rng)


class TestVerifyTopkRanking:
    def test_set_at_least_as_stable_as_prefix(self, ds, rng_factory):
        f = ScoringFunction.equal_weights(3)
        prefix = f.rank(ds).order[:4]
        ranked = verify_topk_ranking_stability(
            ds, prefix, n_samples=6000, rng=rng_factory(56)
        )
        as_set = verify_topk_set_stability(
            ds, prefix, n_samples=6000, rng=rng_factory(56)
        )
        assert as_set.stability >= ranked.stability - 1e-12

    def test_full_prefix_matches_full_ranking_stability(self, rng_factory):
        # k = n: the ranked top-k IS the complete ranking; compare with
        # the exact 2D verification.
        from repro import verify_stability_2d

        ds = Dataset(rng_factory(57).uniform(size=(7, 2)))
        ranking = ScoringFunction.equal_weights(2).rank(ds)
        exact = verify_stability_2d(ds, ranking).stability
        mc = verify_topk_ranking_stability(
            ds, ranking.order, n_samples=40_000, rng=rng_factory(58)
        )
        assert abs(mc.stability - exact) < 0.01

    def test_rejects_duplicates(self, ds, rng):
        with pytest.raises(InvalidRankingError):
            verify_topk_ranking_stability(ds, [0, 0, 1], n_samples=10, rng=rng)

    def test_reports_confidence_error(self, ds, rng):
        res = verify_topk_ranking_stability(
            ds, [0, 1], n_samples=2000, rng=rng
        )
        assert res.confidence_error >= 0.0
        assert res.sample_count == round(res.stability * 2000)


class TestBlockRankedHits:
    """Block-ranked hit counts equal the per-row scalar loop's."""

    @staticmethod
    def _scores(ds, n_samples, seed):
        return _sample_scores(
            ds, FullSpace(ds.n_attributes), n_samples,
            np.random.default_rng(seed),
        )

    def _first_sampled(self, ds, k, seed):
        # The stream's own first top-k, so every target is hit at least once.
        return _top_k_order(next(self._scores(ds, 1, seed))[0], k)

    def _scalar_hits(self, ds, target, n_samples, seed, *, ranked):
        hits = 0
        for scores in self._scores(ds, n_samples, seed):
            for row in scores:
                order = _top_k_order(row, len(target))
                hits += (tuple(order) if ranked else frozenset(order)) == target
        return hits

    @pytest.fixture
    def tied(self):
        # Few distinct attribute values: duplicate items tie exactly
        # under every weight vector, inside the top-k and at its edge.
        values = np.random.default_rng(61).integers(0, 4, size=(40, 3))
        return Dataset(values.astype(float))

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_set_hits_match_scalar_loop(self, tied, k):
        target = frozenset(self._first_sampled(tied, k, 62))
        expected = self._scalar_hits(tied, target, 3000, 62, ranked=False)
        res = verify_topk_set_stability(
            tied, target, n_samples=3000, rng=np.random.default_rng(62)
        )
        assert expected > 0
        assert res.sample_count == expected

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_ranked_hits_match_scalar_loop(self, tied, k):
        target = tuple(self._first_sampled(tied, k, 63))
        expected = self._scalar_hits(tied, target, 3000, 63, ranked=True)
        res = verify_topk_ranking_stability(
            tied, target, n_samples=3000, rng=np.random.default_rng(63)
        )
        assert expected > 0
        assert res.sample_count == expected
