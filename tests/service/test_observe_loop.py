"""The one observe loop behind the serial, thread and process executors.

``GetNextRandomized.observe`` samples, checks deadlines, folds and
traces; an executor supplies only its ``reduce_many`` map.  So every
executor must leave the same tally and rng state *and* report the same
trace stages, with those stages covering the pass.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Dataset, obs
from repro.core.randomized import GetNextRandomized
from repro.deadline import Deadline, deadline_scope
from repro.service.parallel import ObserveExecutor
from repro.service.procpool import live_segments

EXECUTORS = ("serial", "thread", "process")


def _op(dataset, seed=3):
    return GetNextRandomized(
        dataset,
        kind="topk_set",
        k=4,
        rng=np.random.default_rng([seed, 7]),
        scoring_chunk=64,
    )


@pytest.fixture(scope="module")
def dataset():
    return Dataset(np.random.default_rng(11).uniform(size=(3_000, 3)))


def _assert_identical(a, b):
    assert b.total_samples == a.total_samples
    assert b.tally.counts == a.tally.counts
    assert b.tally._first_seen == a.tally._first_seen
    assert b.rng.bit_generator.state == a.rng.bit_generator.state


class TestExecutorParity:
    def _traced_pass(self, dataset, mode):
        op = _op(dataset)
        with ObserveExecutor(mode, max_workers=2) as executor:
            executor.observe(op, 256)  # start the pool outside the trace
            with obs.trace("pass") as t:
                assert executor.observe(op, 4_000) == mode
        return op, t

    def test_same_stages_and_coverage_under_every_executor(self, dataset):
        names, ops = {}, {}
        for mode in EXECUTORS:
            ops[mode], t = self._traced_pass(dataset, mode)
            report = obs.stage_report(t)
            names[mode] = {s["name"] for s in report["stages"]}
            assert report["coverage"] >= 0.99, (mode, report)
            [pass_span] = t.root.children
            assert pass_span.name == "observe.pass"
            staged = sum(child.seconds for child in pass_span.children)
            assert staged >= 0.99 * pass_span.seconds, (mode, report)
        assert names["serial"] == {
            "observe.pass", "observe.sample", "observe.reduce", "observe.fold"
        }
        assert names["thread"] == names["serial"]
        assert names["process"] == names["serial"]
        _assert_identical(ops["serial"], ops["thread"])
        _assert_identical(ops["serial"], ops["process"])
        assert live_segments() == ()


class TestReduceMany:
    def test_custom_map_is_used_and_matches_inline(self, dataset):
        inline, mapped = _op(dataset), _op(dataset)
        inline.observe(1_000)
        seen = []

        def reduce_many(blocks):
            blocks = list(blocks)
            seen.append(len(blocks))
            return map(mapped.reduce_for_weights, blocks)

        mapped.observe(1_000, reduce_many=reduce_many)
        assert seen == [len(mapped.plan_chunks(1_000))]  # one group
        _assert_identical(inline, mapped)

    def test_deadline_groups_keep_the_tally(self, dataset):
        whole, grouped = _op(dataset), _op(dataset)
        whole.observe(1_000)
        seen = []

        def reduce_many(blocks):
            blocks = list(blocks)
            seen.append(len(blocks))
            return map(grouped.reduce_for_weights, blocks)

        with deadline_scope(Deadline(60_000)):
            grouped.observe(1_000, reduce_many=reduce_many, group=3)
        assert seen == [3, 3, 3, 3, 3, 1]  # 16 chunks of 64 (the last 40)
        _assert_identical(whole, grouped)
