import pytest

from measure import (
    windowed,
    percentile,
    quartiles,
    relative_spread,
    self_times,
    tail_percentile,
    union_length,
)


def test_percentile_interpolates_between_ranks():
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([10, 0], 90) == pytest.approx(9.0)
    assert percentile([7], 99) == 7


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, med, q3 = quartiles(values)
    assert (q1, med, q3) == (2.75, 5.5, 8.25)
    assert relative_spread(values) == pytest.approx(5.5 / 5.5)


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 3), (2, 5), (8, 12)], 0, 10) == 6
    assert union_length([], 0, 10) == 0
    assert union_length([(-5, 20)], 0, 10) == 10


def test_self_time_subtracts_children_once():
    spans = [
        (0.0, 10.0, None),  # root: children cover [1, 5] and [8, 10]
        (1.0, 3.0, 0),
        (2.0, 5.0, 0),      # overlaps its sibling: counted once
        (8.0, 12.0, 0),     # runs past the root: clipped at 10
        (2.5, 3.0, 2),      # grandchild: only its parent loses it
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 2.5, 4.0, 0.5])


def test_self_times_sum_to_root_for_nested_serial_calls():
    spans = [(0.0, 1.0, None), (0.1, 0.6, 0), (0.2, 0.5, 1), (0.7, 0.9, 0)]
    assert sum(self_times(spans)) == pytest.approx(1.0)


def test_windowed_takes_the_median_over_supported_windows():
    # 3,000 samples at one per millisecond: p99 needs 1,000 per window.
    samples = [(0.001 * (i + 1), 1.0) for i in range(3000)]
    for i in range(0, 1000, 50):  # one disturbed stretch in the first third
        samples[i] = (samples[i][0], 100.0)
    out = windowed(samples, 0.0, 99.0)
    assert out["windows"] == 3
    assert out["p50"] == 1.0
    assert out["tail"] == 1.0  # the disturbed window is outvoted
    assert out["rate"] == pytest.approx(1000.0)


def test_windowed_falls_back_to_one_window():
    samples = [(float(i + 1), float(i)) for i in range(150)]
    out = windowed(samples, 0.0, 90.0)
    assert out["windows"] == 1
    assert out["p50"] == percentile([s[1] for s in samples], 50)
    assert out["rate"] == pytest.approx(1.0)
