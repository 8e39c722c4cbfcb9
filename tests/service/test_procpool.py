"""Process-pool observe: byte-exact equivalence, lifecycle, crash safety.

The process pool must be an *optimisation*, never an approximation:
given the same seed, a pool grown out-of-process is byte-identical to
the serial (and thread-pool) tally — counts, totals, first-seen
tie-break order, rng stream, and GET-NEXT cursors — across ranking
kinds, start methods, worker crashes, and snapshot/restore cycles.
Shared-memory segments must be unlinked on every exit path (the
autouse ``no_shared_memory_leaks`` fixture in ``tests/conftest.py``
asserts it around every test in the suite).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import Dataset, StabilitySession, parallel_observe
from repro.core.randomized import GetNextRandomized
from repro.engine import kernel
from repro.service.parallel import (
    EXECUTOR_ENV_VAR,
    ObserveExecutor,
    resolve_executor_mode,
)
from repro.service.procpool import (
    ProcessObserveEngine,
    SharedArray,
    _proc_reduce,
    default_start_method,
    live_segments,
)


def _dataset(seed: int, n: int = 1_500, d: int = 3) -> Dataset:
    return Dataset(np.random.default_rng(seed).uniform(size=(n, d)))


def _op(dataset, seed, *, kind="full", k=None, scoring_chunk=64, **kw):
    return GetNextRandomized(
        dataset,
        kind=kind,
        k=k,
        rng=np.random.default_rng([seed, 7]),
        scoring_chunk=scoring_chunk,
        **kw,
    )


def _assert_identical(a: GetNextRandomized, b: GetNextRandomized) -> None:
    assert b.total_samples == a.total_samples
    assert b.tally.counts == a.tally.counts
    assert b.tally._first_seen == a.tally._first_seen
    assert b.rng.bit_generator.state == a.rng.bit_generator.state


class TestSharedArray:
    def test_roundtrip_and_unlink(self):
        src = np.arange(12, dtype=np.float64).reshape(3, 4)
        shared = SharedArray.create(src)
        assert shared.shm.name in live_segments()
        np.testing.assert_array_equal(shared.array, src)
        with pytest.raises((ValueError, RuntimeError)):
            shared.array[0, 0] = 99.0  # read-only view
        shared.unlink()
        assert live_segments() == ()
        shared.unlink()  # idempotent


class TestProcessObserveEquality:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "kind,k", [("full", None), ("topk_ranked", 4), ("topk_set", 4)]
    )
    def test_property_grid_process_thread_serial(self, seed, kind, k):
        dataset = _dataset(seed)
        serial = _op(dataset, seed, kind=kind, k=k)
        threaded = _op(dataset, seed, kind=kind, k=k)
        proc = _op(dataset, seed, kind=kind, k=k)
        serial.observe(500)
        with ThreadPoolExecutor(max_workers=2) as pool:
            parallel_observe(threaded, 500, executor=pool, force=True)
        with ProcessObserveEngine(dataset, max_workers=2) as engine:
            assert engine.observe(proc, 500, force=True) > 0
        _assert_identical(serial, threaded)
        _assert_identical(serial, proc)

    def test_split_passes_match_one_pass(self):
        # Budgets are multiples of the chunk, so the split passes share
        # the one-pass chunk boundaries (first-seen order folds per
        # chunk — the same contract the serial path has).
        dataset = _dataset(5)
        serial = _op(dataset, 5, scoring_chunk=50)
        proc = _op(dataset, 5, scoring_chunk=50)
        serial.observe(400)
        with ProcessObserveEngine(dataset, max_workers=2) as engine:
            engine.observe(proc, 150, force=True)
            engine.observe(proc, 250, force=True)
        _assert_identical(serial, proc)

    def test_mid_get_next_cursor_matches(self):
        dataset = _dataset(6)
        serial = _op(dataset, 6, kind="topk_set", k=3)
        proc = _op(dataset, 6, kind="topk_set", k=3)
        a = serial.get_next(budget=400)
        serial.observe(200)
        with ProcessObserveEngine(dataset, max_workers=2) as engine:
            engine.observe(proc, 400, force=True)
            b = proc.next_from_pool()
            engine.observe(proc, 200, force=True)
        assert a.top_k_set == b.top_k_set
        assert a.stability == b.stability
        _assert_identical(serial, proc)

    def test_pruning_candidates_shared_with_workers(self):
        # prune_topk=True installs the k-skyband candidate matrix; the
        # workers must score the identical candidate subspace and map
        # rows back to dataset identifiers.
        dataset = _dataset(7, n=900)
        serial = _op(dataset, 7, kind="topk_set", k=3, prune_topk=True)
        proc = _op(dataset, 7, kind="topk_set", k=3, prune_topk=True)
        serial.observe(300)
        with ProcessObserveEngine(dataset, max_workers=2) as engine:
            engine.observe(proc, 300, force=True)
            assert (proc._candidates is None) == (serial._candidates is None)
            if proc._candidates is not None:
                # dataset values + candidate values + candidate ids
                assert len(live_segments()) == 3
        _assert_identical(serial, proc)

    def test_spawn_start_method(self):
        dataset = _dataset(8)
        serial = _op(dataset, 8, kind="topk_ranked", k=4)
        proc = _op(dataset, 8, kind="topk_ranked", k=4)
        serial.observe(300)
        with ProcessObserveEngine(
            dataset, max_workers=1, start_method="spawn"
        ) as engine:
            assert engine.observe(proc, 300, force=True) > 0
        _assert_identical(serial, proc)

    def test_auto_threshold_serial_fallback(self):
        dataset = _dataset(9, n=200)  # far below PARALLEL_MIN_ITEMS
        serial = _op(dataset, 9)
        proc = _op(dataset, 9)
        serial.observe(200)
        with ProcessObserveEngine(dataset, max_workers=2) as engine:
            assert engine.observe(proc, 200) == 0
        _assert_identical(serial, proc)


class TestCrashSafety:
    def test_worker_crash_rescues_in_process(self):
        dataset = _dataset(10)
        serial = _op(dataset, 10, kind="topk_set", k=4)
        proc = _op(dataset, 10, kind="topk_set", k=4)
        serial.observe(600)
        with ProcessObserveEngine(dataset, max_workers=1) as engine:
            engine.warm_up()
            # SIGKILL every live worker: the pending futures break, the
            # engine reduces the remaining chunks in-process from the
            # already-sampled weights, and the tally stays byte-exact.
            for process in list(engine._pool._processes.values()):
                process.kill()
            engine.observe(proc, 600, force=True)
            _assert_identical(serial, proc)
            # The pool was rebuilt lazily; a follow-up pass still works.
            serial.observe(200)
            engine.observe(proc, 200, force=True)
            _assert_identical(serial, proc)
        assert live_segments() == ()

    def test_close_is_idempotent_and_unlinks(self):
        dataset = _dataset(11)
        engine = ProcessObserveEngine(dataset, max_workers=1)
        assert len(live_segments()) == 1
        engine.close()
        engine.close()
        assert live_segments() == ()
        with pytest.raises(RuntimeError):
            engine.observe(_op(dataset, 11), 100, force=True)

    def test_rejects_foreign_dataset(self):
        engine = ProcessObserveEngine(_dataset(12), max_workers=1)
        try:
            with pytest.raises(ValueError):
                engine.observe(_op(_dataset(13), 13), 100, force=True)
        finally:
            engine.close()

    def test_rejects_exact_backend(self, paper_dataset):
        from repro import StabilityEngine

        engine = ProcessObserveEngine(paper_dataset, max_workers=1)
        try:
            exact = StabilityEngine(paper_dataset)  # twod_exact
            with pytest.raises(TypeError):
                engine.observe(exact.backend, 100, force=True)
        finally:
            engine.close()


class TestObserveExecutor:
    def test_modes_agree_byte_for_byte(self):
        dataset = _dataset(20, n=3_000)
        results = {}
        for mode in ("serial", "thread", "process"):
            op = _op(dataset, 20, kind="topk_set", k=4)
            with ObserveExecutor(mode, max_workers=2) as executor:
                used = executor.observe(op, 500)
                assert used == mode
            results[mode] = op
        _assert_identical(results["serial"], results["thread"])
        _assert_identical(results["serial"], results["process"])
        assert live_segments() == ()

    def test_auto_resolves_per_pass(self):
        dataset = _dataset(21, n=200)
        op = _op(dataset, 21)
        with ObserveExecutor("auto", max_workers=2) as executor:
            # Tiny dataset: auto must pick serial regardless of pools.
            assert executor.observe(op, 100) == "serial"

    def test_env_override_forces_mode(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "serial")
        executor = ObserveExecutor("process", max_workers=2)
        assert executor.mode == "serial"
        executor.close()

    def test_env_override_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "gpu")
        with pytest.raises(ValueError):
            ObserveExecutor("auto")

    def test_default_start_method_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_START_METHOD", "spawn")
        assert default_start_method() == "spawn"
        monkeypatch.setenv("REPRO_START_METHOD", "bogus")
        with pytest.raises(ValueError):
            default_start_method()

    def test_resolve_uses_key_width(self):
        # Full rankings at large n have wide keys -> thread, not process.
        assert resolve_executor_mode(60_000, 4, 4, key_bytes=16) == "process"
        assert resolve_executor_mode(60_000, 4, 4, key_bytes=240_000) == "thread"


def _blas_threads_around_reduce(spec, weights):
    """Worker probe: BLAS threads before and after one chunk reduction."""
    before = kernel.blas_info()["threads"]
    _proc_reduce(spec, weights)
    return before, kernel.blas_info()["threads"]


@pytest.mark.skipif(kernel.blas_info() is None, reason="numpy's BLAS is not OpenBLAS")
class TestSingleThreadedBlas:
    """The executors are the only parallelism layer: wherever a chunk is
    scored, numpy's OpenBLAS runs on the calling thread."""

    def test_thread_executor_threads(self):
        dataset = _dataset(40, n=3_000)
        op = _op(dataset, 40, kind="topk_set", k=4)
        with ObserveExecutor("thread", max_workers=2) as executor:
            assert executor.observe(op, 500) == "thread"
            reports = list(executor._threads().map(
                lambda _: kernel.blas_info()["threads"], range(8)
            ))
        assert reports == [1] * 8

    def test_process_workers(self):
        dataset = _dataset(41, n=3_000)
        op = _op(dataset, 41, kind="topk_set", k=4)
        # The owner scores before its pool starts, so fork workers
        # inherit the pin; spawn and forkserver workers pin on their
        # first product.
        kernel.score_block(dataset.values, op.sample_weights(1))
        with ProcessObserveEngine(dataset, max_workers=2) as engine:
            assert engine.observe(op, 500, force=True) > 0
            spec = engine._spec_for(op)
            pool = engine._ensure_pool()
            futures = [
                pool.submit(_blas_threads_around_reduce, spec, op.sample_weights(64))
                for _ in range(8)
            ]
            reports = [future.result() for future in futures]
            start_method = engine.start_method
        assert [after for _, after in reports] == [1] * 8
        if start_method == "fork":
            assert [before for before, _ in reports] == [1] * 8


class TestSessionIntegration:
    def test_session_process_executor_matches_serial(self):
        dataset = _dataset(30, n=2_500)
        query = dict(kind="topk_set", k=4, backend="randomized", budget=600)
        with StabilitySession(dataset, seed=3, parallel=False) as serial:
            expected = serial.top_stable(3, **query)
            expected_next = serial.get_next(**query)
        with StabilitySession(
            dataset, seed=3, executor="process", max_workers=2
        ) as session:
            assert session.observer.mode == "process"
            got = session.top_stable(3, **query)
            got_next = session.get_next(**query)
        assert [r.stability for r in got] == [r.stability for r in expected]
        assert got_next.stability == expected_next.stability
        assert got_next.ranking.order == expected_next.ranking.order
        assert live_segments() == ()

    def test_session_close_unlinks_segments(self):
        dataset = _dataset(31, n=2_500)
        session = StabilitySession(
            dataset, seed=4, executor="process", max_workers=1
        )
        session.observe(400, kind="topk_set", k=4, backend="randomized")
        assert len(live_segments()) >= 1
        session.close()
        assert live_segments() == ()

    def test_snapshot_restore_of_process_grown_pool(self, tmp_path):
        dataset = _dataset(32, n=2_500)
        query = dict(kind="topk_ranked", k=4, backend="randomized", budget=500)
        path = tmp_path / "proc.snap"
        with StabilitySession(
            dataset, seed=5, executor="process", max_workers=2
        ) as grown:
            grown.get_next(**query)
            grown.save(path)
            # The uninterrupted continuation is the ground truth.
            expected = grown.get_next(**{**query, "budget": 900})
        restored = StabilitySession.restore(
            path, dataset, executor="process", max_workers=2
        )
        with restored:
            got = restored.get_next(**{**query, "budget": 900})
        assert got.stability == expected.stability
        assert got.ranking.order == expected.ranking.order
        assert live_segments() == ()

    def test_stats_reports_executor_mode(self):
        dataset = _dataset(33, n=300)
        with StabilitySession(dataset, seed=6, executor="serial") as session:
            assert session.stats()["executor"] == "serial"


class TestQuasiSamplingParity:
    """QMC streams sample on the caller in plan order, so the sharded
    paths stay byte-identical to serial — same contract as mc."""

    @pytest.mark.parametrize(
        "kind,k", [("full", None), ("topk_set", 4)]
    )
    def test_qmc_process_thread_serial(self, kind, k):
        dataset = _dataset(11)
        serial = _op(dataset, 11, kind=kind, k=k, sampling="qmc")
        threaded = _op(dataset, 11, kind=kind, k=k, sampling="qmc")
        proc = _op(dataset, 11, kind=kind, k=k, sampling="qmc")
        serial.observe(500)
        with ThreadPoolExecutor(max_workers=2) as pool:
            parallel_observe(threaded, 500, executor=pool, force=True)
        with ProcessObserveEngine(dataset, max_workers=2) as engine:
            assert engine.observe(proc, 500, force=True) > 0
        _assert_identical(serial, threaded)
        _assert_identical(serial, proc)
        assert serial._qmc.index == threaded._qmc.index == proc._qmc.index
