"""Summary statistics shared by the runner, the comparer and the tests.

Pure functions over lists of numbers and span records; nothing here
touches a process, a socket or the clock.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail metric may report, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: A percentile is reportable only with at least this many samples
#: beyond it; fewer would make the figure a single outlier.
MIN_BEYOND = 10

#: Most windows a timed phase is split into by :func:`windowed`.
MAX_WINDOWS = 5


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def tail_percentile(n_samples: int) -> float | None:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the median lacks that support.
    """
    best = None
    for q in PERCENTILE_LADDER:
        if n_samples * (100.0 - q) >= MIN_BEYOND * 100.0 - 1e-6:
            best = q
    return best


def windowed(samples, start: float, tail: float) -> dict:
    """Median-of-windows latency and rate over one timed phase.

    ``samples`` are ``(done, latency)`` pairs.  They are split, in
    completion order, into as many equal-count windows as still leave
    ``MIN_BEYOND`` samples beyond the ``tail`` percentile in each (at
    most ``MAX_WINDOWS``).  Each window gives its median, its ``tail``
    percentile and its completion rate; the result is the median of
    each over the windows, so one disturbed stretch of a run moves the
    figure less than it would a whole-run percentile.
    """
    ordered = sorted(samples)
    need = math.ceil(MIN_BEYOND * 100.0 / (100.0 - tail) - 1e-6)
    n_windows = max(1, min(MAX_WINDOWS, len(ordered) // need))
    size = len(ordered) // n_windows
    p50s, tails, rates = [], [], []
    prev_done = start
    for i in range(n_windows):
        chunk = ordered[i * size:(i + 1) * size if i < n_windows - 1 else None]
        lat = [latency for _, latency in chunk]
        p50s.append(percentile(lat, 50))
        tails.append(percentile(lat, tail))
        rates.append(len(chunk) / (chunk[-1][0] - prev_done))
        prev_done = chunk[-1][0]
    return {
        "windows": n_windows,
        "p50": statistics.median(p50s),
        "tail": statistics.median(tails),
        "rate": statistics.median(rates),
    }


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    data = list(values)
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, q2, q3 = statistics.quantiles(data, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` is a sequence of ``(start, end, parent)`` tuples where
    ``parent`` indexes into the same sequence (or is ``None``).
    Children that overlap each other are counted once, and a child
    running past its parent's end is clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _parent) in enumerate(spans):
        covered = union_length(children.get(i, ()), start, end)
        out.append(max(end - start - covered, 0.0))
    return out
