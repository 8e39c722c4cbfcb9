"""Property-based tests for the operator substrates (skyline, top-k)."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.operators.skyline import skyline
from repro.operators.topk import top_k_indices, top_k_threshold

VALUES = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(1, 25), st.integers(2, 4)),
    elements=st.floats(0.0, 1.0, allow_nan=False, width=64),
)

SCORES = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(1, 40),
    elements=st.floats(-100, 100, allow_nan=False, width=64),
)


class TestSkylineProperties:
    @given(values=VALUES)
    @settings(max_examples=100, deadline=None)
    def test_members_not_dominated(self, values):
        sky = skyline(values)
        for i in sky:
            others = np.delete(values, i, axis=0)
            dominated = np.any(
                np.all(others >= values[i], axis=1)
                & np.any(others > values[i], axis=1)
            )
            assert not dominated

    @given(values=VALUES)
    @settings(max_examples=100, deadline=None)
    def test_non_members_dominated(self, values):
        sky = set(skyline(values).tolist())
        for i in range(values.shape[0]):
            if i in sky:
                continue
            geq = np.all(values >= values[i], axis=1)
            gt = np.any(values > values[i], axis=1)
            geq[i] = False
            assert np.any(geq & gt)

    @given(values=VALUES)
    @settings(max_examples=60, deadline=None)
    def test_union_bound(self, values):
        # skyline(A ∪ B) ⊆ skyline(A) ∪ skyline(B) under index mapping.
        mid = values.shape[0] // 2
        if mid == 0:
            return
        sky_union = set(skyline(values).tolist())
        sky_a = set(skyline(values[:mid]).tolist())
        sky_b = {i + mid for i in skyline(values[mid:]).tolist()}
        assert sky_union <= (sky_a | sky_b)

    @given(values=VALUES)
    @settings(max_examples=60, deadline=None)
    @example(values=np.array([[0.9999999999999999, 1.0], [1.0, 1.0]]))
    def test_max_sum_item_always_in_skyline(self, values):
        # Rounded sums are monotone under dominance, so a dominator of a
        # max-sum row ties it at the maximum; some row among the ties
        # is undominated.  ``argmax`` alone may pick a dominated one:
        # both sums in the pinned example round to 2.0.
        sums = values.sum(axis=1)
        ties = np.flatnonzero(sums == sums.max())
        sky = set(skyline(values).tolist())
        assert sky.intersection(ties.tolist())


class TestTopKProperties:
    @given(scores=SCORES, data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_stable_sort(self, scores, data):
        k = data.draw(st.integers(1, scores.shape[0]))
        expected = np.argsort(-scores, kind="stable")[:k]
        assert np.array_equal(top_k_indices(scores, k), expected)

    @given(scores=SCORES, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_threshold_separates(self, scores, data):
        k = data.draw(st.integers(1, scores.shape[0]))
        chosen = top_k_indices(scores, k)
        thresh = top_k_threshold(scores, k)
        rest = np.setdiff1d(np.arange(scores.shape[0]), chosen)
        assert np.all(scores[chosen] >= thresh)
        if rest.size:
            assert np.all(scores[rest] <= thresh)

    @given(scores=SCORES)
    @settings(max_examples=60, deadline=None)
    def test_nested_prefixes(self, scores):
        n = scores.shape[0]
        previous: list[int] = []
        for k in range(1, n + 1):
            current = top_k_indices(scores, k).tolist()
            assert current[: len(previous)] == previous
            previous = current
