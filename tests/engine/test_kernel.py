"""Unit tests for the vectorized ranking kernel."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.ranking import _top_k_order
from repro.engine import kernel, kernels

AVAILABLE_KERNELS = [name for name, ok in kernels.available_kernels().items() if ok]


class TestAutoChunkSize:
    def test_bounds(self):
        assert kernel.auto_chunk_size(1) == 8192
        assert kernel.auto_chunk_size(10_000_000) == 16

    def test_scales_inversely_with_n(self):
        assert kernel.auto_chunk_size(100) >= kernel.auto_chunk_size(100_000)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            kernel.auto_chunk_size(0)


class TestScoreBlock:
    def test_matches_matmul(self, rng):
        values = rng.uniform(size=(50, 3))
        weights = rng.uniform(size=(7, 3))
        assert np.allclose(kernel.score_block(values, weights), weights @ values.T)

    def test_single_weight_row(self, rng):
        values = rng.uniform(size=(10, 2))
        w = rng.uniform(size=2)
        out = kernel.score_block(values, w)
        assert out.shape == (1, 10)

    def test_scores_on_the_calling_thread(self, rng):
        kernel.score_block(rng.uniform(size=(10, 2)), rng.uniform(size=2))
        info = kernel.blas_info()
        assert info is None or info["threads"] == 1


#: Digests of the pruned-band scores (n=604, 3472 rows, d=4) and of the
#: tally of one pruned-path observe pass; prints one JSON line.
_HOST_DIGESTS = """
import hashlib, json
import numpy as np
from repro import Dataset
from repro.core.randomized import GetNextRandomized
from repro.core.region import FullSpace
from repro.engine import kernel

rng = np.random.default_rng(604)
scores = kernel.score_block(rng.uniform(size=(604, 4)), FullSpace(4).sample(3472, rng))
op = GetNextRandomized(Dataset(rng.uniform(size=(10_000, 4))), kind="topk_set",
                       k=6, rng=rng, prune_topk=True)
op.observe(4_000)
state = op.tally.export_state()
print(json.dumps({
    "scores": hashlib.sha256(scores.tobytes()).hexdigest(),
    "tally": hashlib.sha256(state["keys"] + state["counts"].tobytes()).hexdigest(),
    "pruned": op._candidates is not None,
}))
"""


@pytest.mark.skipif(kernel.blas_info() is None, reason="numpy's BLAS is not OpenBLAS")
class TestHostIndependentScores:
    def test_score_bytes_ignore_openblas_thread_count(self):
        # A threaded GEMM splits the product by core count and moves a
        # few pruned-band scores by one ulp; scoring on the calling
        # thread makes the bytes (and tallies) the same on every host.
        src = Path(__file__).resolve().parents[2] / "src"
        digests = []
        for threads in ("1", "2"):
            out = subprocess.run(
                [sys.executable, "-c", _HOST_DIGESTS],
                env={**os.environ, "PYTHONPATH": str(src),
                     "OPENBLAS_NUM_THREADS": threads},
                capture_output=True,
                text=True,
                check=True,
            )
            digests.append(json.loads(out.stdout))
        assert digests[0]["pruned"]
        assert digests[0] == digests[1]


class TestFullRankingRows:
    def test_matches_stable_argsort(self, rng):
        scores = rng.uniform(-1, 1, size=(20, 37))
        expected = np.argsort(-scores, axis=1, kind="stable")
        assert np.array_equal(kernel.full_ranking_rows(scores), expected)

    def test_exact_ties_break_by_id(self):
        scores = np.array([[0.5, 0.7, 0.5, 0.7, 0.1]])
        assert kernel.full_ranking_rows(scores).tolist() == [[1, 3, 0, 2, 4]]

    def test_all_equal_scores(self):
        scores = np.zeros((3, 6))
        expected = np.tile(np.arange(6), (3, 1))
        assert np.array_equal(kernel.full_ranking_rows(scores), expected)

    def test_signed_zero(self):
        scores = np.array([[-0.0, 0.0, 1.0]])
        assert kernel.full_ranking_rows(scores).tolist() == [[2, 0, 1]]

    def test_truncation_collision_repaired(self, rng):
        # Scores that differ far below the stolen id bits must still
        # order by the exact float64 comparison.
        base = rng.uniform(0.5, 1.0, size=12)
        scores = np.tile(base, (4, 1))
        # Higher id gets the infinitesimally larger score: the truncated
        # keys collide and would order by id, so the repair must kick in.
        scores[:, 7] = scores[:, 3] + 1e-15
        expected = np.argsort(-scores, axis=1, kind="stable")
        assert np.array_equal(kernel.full_ranking_rows(scores), expected)
        ranked = kernel.topk_rows(scores, 12, ranked=True)
        assert np.array_equal(ranked, expected)

    def test_negative_scores(self, rng):
        scores = -rng.uniform(1, 2, size=(5, 9))
        expected = np.argsort(-scores, axis=1, kind="stable")
        assert np.array_equal(kernel.full_ranking_rows(scores), expected)


class TestTopkRows:
    @pytest.mark.parametrize("k", [1, 3, 8, 11, 12])
    def test_ranked_matches_scalar(self, rng, k):
        scores = rng.uniform(size=(15, 12))
        rows = kernel.topk_rows(scores, k, ranked=True)
        for i in range(15):
            assert list(rows[i]) == _top_k_order(scores[i], k)

    def test_set_is_sorted_ids(self, rng):
        scores = rng.uniform(size=(8, 20))
        rows = kernel.topk_rows(scores, 5, ranked=False)
        for i in range(8):
            assert list(rows[i]) == sorted(_top_k_order(scores[i], 5))

    def test_boundary_ties_take_lowest_ids(self):
        scores = np.array([[1.0, 0.5, 0.5, 0.5, 0.2]])
        assert kernel.topk_rows(scores, 2, ranked=True).tolist() == [[0, 1]]
        assert kernel.topk_rows(scores, 3, ranked=True).tolist() == [[0, 1, 2]]

    def test_heavy_ties_match_scalar(self, rng):
        scores = np.round(rng.uniform(size=(10, 30)), 1)
        rows = kernel.topk_rows(scores, 7, ranked=True)
        for i in range(10):
            assert list(rows[i]) == _top_k_order(scores[i], 7)

    def test_negative_infinity_ranks_before_padding(self):
        # Row 1 keeps three candidates, so rows 0 and 2 are padded to
        # its width; their -inf scores must still rank ahead of the pads.
        scores = np.array([
            [-np.inf] * 8,
            [0.9, 0.1, 0.1, 0.1, 0.95, 0.1, 0.1, 0.1],
            [-np.inf, 3.0] + [-np.inf] * 6,
        ])
        for ranked in (True, False):
            rows = kernel.topk_rows(scores, 2, ranked=ranked)
            for row, expected in zip(rows, ([0, 1], [4, 0], [1, 0])):
                assert list(row) == (expected if ranked else sorted(expected))

    def test_k_bounds(self, rng):
        scores = rng.uniform(size=(2, 5))
        with pytest.raises(ValueError):
            kernel.topk_rows(scores, 0, ranked=True)
        with pytest.raises(ValueError):
            kernel.topk_rows(scores, 6, ranked=True)

    def test_batch_topk_single_row(self, rng):
        scores = rng.uniform(size=40)
        assert list(kernel.batch_topk_indices(scores, 4)) == _top_k_order(scores, 4)


def _grid_shapes():
    """(n, k) pairs: k in {1, 3, 10, n-1, n} against n in {k, k+1, 2k,
    64, 604, 9973, 10000}, the relative forms paired with the fixed n."""
    fixed_n = (64, 604, 9973, 10_000)
    shapes = {
        (n, k)
        for k in (1, 3, 10)
        for n in (k, k + 1, 2 * k, *fixed_n)
    }
    shapes |= {(n, k) for n in fixed_n for k in (n - 1, n)}
    return sorted(shapes)


def _grid_scores(data: str, n: int, seed: int, batch: int = 4) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if data == "uniform":
        return rng.uniform(size=(batch, n))
    if data == "rounded":
        # Heavy exact ties inside the top-k and across its boundary.
        return np.round(rng.uniform(size=(batch, n)), 1)
    if data == "sorted":
        # Monotone rows, both directions: the top-k sit at adjacent ids
        # at either end of the row.
        rows = np.sort(rng.uniform(size=(batch, n)), axis=1)
        rows[1::2] = rows[1::2, ::-1]
        return rows
    if data == "all_equal":
        return np.full((batch, n), 0.25)
    if data == "plateau":
        # A tied floor with a few higher scores at random ids: the ties
        # flood the candidates while the top-k mixes both.
        scores = np.full((batch, n), 0.25)
        for row in scores:
            high = rng.choice(n, size=min(n, int(rng.integers(0, 6))), replace=False)
            row[high] = np.round(rng.uniform(0.5, 1.0, size=high.shape[0]), 1)
        return scores
    if data == "signed_zero":
        return rng.choice([-0.0, 0.0, 0.5, -0.5], size=(batch, n))
    if data == "negative_inf":
        scores = -np.round(rng.uniform(1.0, 2.0, size=(batch, n)), 2)
        scores[rng.uniform(size=(batch, n)) < 0.05] = np.inf
        scores[rng.uniform(size=(batch, n)) < 0.05] = -np.inf
        return scores
    raise AssertionError(data)


def _assert_rows_match_scalar(backend: str, scores, k: int, ranked: bool):
    kind = "topk_ranked" if ranked else "topk_set"
    rows = kernels.get_kernel(backend).rank_rows(scores, kind=kind, k=k)
    assert rows.shape == (scores.shape[0], k)
    for i, row in enumerate(scores):
        expected = _top_k_order(np.array(row), k)
        assert list(rows[i]) == (expected if ranked else sorted(expected)), i


GRID_DATA = [
    "uniform", "rounded", "sorted", "all_equal", "plateau", "signed_zero",
    "negative_inf",
]


class TestTopkDifferentialGrid:
    """Every available backend's top-k equals the scalar routine row by row."""

    @pytest.mark.parametrize("backend", AVAILABLE_KERNELS)
    @pytest.mark.parametrize("data", GRID_DATA)
    @pytest.mark.parametrize("ranked", [True, False])
    @pytest.mark.parametrize("n,k", _grid_shapes())
    def test_matches_scalar(self, backend, n, k, ranked, data):
        scores = _grid_scores(data, n, seed=n * 31 + k)
        _assert_rows_match_scalar(backend, scores, k, ranked)

    @pytest.mark.parametrize("backend", AVAILABLE_KERNELS)
    @pytest.mark.parametrize("data", GRID_DATA)
    @pytest.mark.parametrize("n,k", [(64, 3), (604, 6), (10_000, 10)])
    def test_out_buffer_row_slice(self, backend, n, k, data):
        # The observe loop hands the kernel the leading rows of a reused
        # oversized score buffer.
        scores = _grid_scores(data, n, seed=n + k)
        buf = np.full((scores.shape[0] + 3, n), np.nan)
        buf[: scores.shape[0]] = scores
        for ranked in (True, False):
            _assert_rows_match_scalar(backend, buf[: scores.shape[0]], k, ranked)

    @pytest.mark.parametrize("backend", AVAILABLE_KERNELS)
    @pytest.mark.parametrize("data", GRID_DATA)
    @pytest.mark.parametrize("n,k", [(64, 3), (604, 6), (10_000, 10)])
    def test_non_contiguous_view(self, backend, n, k, data):
        scores = _grid_scores(data, n, seed=n - k)
        wide = np.full((scores.shape[0], 2 * n), np.nan)
        wide[:, ::2] = scores
        for view in (wide[:, ::2], np.asfortranarray(scores)):
            for ranked in (True, False):
                _assert_rows_match_scalar(backend, view, k, ranked)


class TestPackedKeys:
    def test_dtype_selection(self):
        assert kernel.key_dtype_for(200) == np.uint8
        assert kernel.key_dtype_for(60_000) == np.uint16
        assert kernel.key_dtype_for(1_000_000) == np.uint32

    def test_pack_unpack_roundtrip(self, rng):
        rows = rng.integers(0, 500, size=(6, 9))
        dtype = kernel.key_dtype_for(500)
        packed = kernel.pack_rows(rows, dtype)
        for i in range(6):
            assert kernel.unpack_key(packed[i].tobytes(), dtype) == tuple(
                int(x) for x in rows[i]
            )


class TestRankingTally:
    def test_counts_and_total(self):
        tally = kernel.RankingTally(10, 3)
        rows = np.array([[0, 1, 2], [0, 1, 2], [3, 4, 5]])
        tally.observe_rows(rows)
        assert tally.total == 3
        assert len(tally) == 2
        assert tally.count_of(tally.pack([0, 1, 2])) == 2

    def test_best_unreturned_is_most_frequent(self):
        tally = kernel.RankingTally(10, 2)
        tally.observe_rows(np.array([[0, 1]] * 3 + [[2, 3]] * 5 + [[4, 5]]))
        best = tally.best_unreturned()
        assert tally.unpack(best) == (2, 3)
        tally.mark_returned(best)
        assert tally.unpack(tally.best_unreturned()) == (0, 1)

    def test_tie_breaks_by_first_seen(self):
        tally = kernel.RankingTally(10, 2)
        tally.observe_rows(np.array([[7, 8]]))
        tally.observe_rows(np.array([[1, 2]]))
        # Both counts are 1; the first-observed key wins.
        assert tally.unpack(tally.best_unreturned()) == (7, 8)

    def test_counts_grow_across_batches(self):
        tally = kernel.RankingTally(10, 2)
        tally.observe_rows(np.array([[0, 1], [2, 3]]))
        tally.observe_rows(np.array([[2, 3], [2, 3]]))
        assert tally.count_of(tally.pack([2, 3])) == 3
        assert tally.unpack(tally.best_unreturned()) == (2, 3)

    def test_exhaustion_returns_none(self):
        tally = kernel.RankingTally(4, 2)
        tally.observe_rows(np.array([[0, 1]]))
        tally.mark_returned(tally.best_unreturned())
        assert tally.best_unreturned() is None
