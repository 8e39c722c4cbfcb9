import itertools

import numpy as np
import pytest

import workloads as wl


@pytest.fixture(scope="module")
def values():
    return wl.dataset_values(5)


def take(plan, n):
    return list(itertools.islice(plan, n))


def test_dataset_is_a_function_of_the_seed():
    assert np.array_equal(wl.dataset_values(3), wl.dataset_values(3))
    assert not np.array_equal(wl.dataset_values(3), wl.dataset_values(4))
    assert wl.dataset_values(3).shape == (wl.N_ITEMS, wl.N_ATTRIBUTES)


def test_csv_round_trips_exactly(tmp_path, values):
    path = tmp_path / "data.csv"
    wl.write_csv(path, values[:50])
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(back, values[:50])


def test_cold_plan_is_deterministic(values):
    n = wl.COLD_STEPS * len(wl.TOPK_CONFIGS) + 20
    first = take(wl.cold_topk_plan(9, values), n)
    assert first == take(wl.cold_topk_plan(9, values), n)
    assert first != take(wl.cold_topk_plan(10, values), n)


def test_cold_plan_grows_every_pool_below_the_pruning_threshold(values):
    n = 2 * wl.COLD_STEPS * len(wl.TOPK_CONFIGS) + 1
    pools: dict = {}
    invalidations = 0
    for payload, cls in take(wl.cold_topk_plan(1, values), n):
        if payload["op"] == "invalidate":
            assert cls == "control"
            invalidations += 1
            pools.clear()
            continue
        cfg = (payload["kind"], payload["k"])
        target = payload.get("budget", payload.get("min_samples"))
        assert target == pools.get(cfg, 0) + wl.COLD_STEP
        assert target < 10_000
        pools[cfg] = target
    assert invalidations == 1


def test_warm_reads_are_deterministic_and_stability_of_never_repeats(values):
    a = take(wl.warm_read_plan(2, values, 0), 500)
    assert a == take(wl.warm_read_plan(2, values, 0), 500)
    assert a != take(wl.warm_read_plan(2, values, 1), 500)
    rankings = [(p["kind"], tuple(p["ranking"])) for p, _ in a
                if p["op"] == "stability_of"]
    assert len(rankings) == len(set(rankings))
    tops = [p for p, _ in a if p["op"] == "top_stable"]
    assert all(p in wl.warm_top_keys() for p in tops)
    assert 0.5 < len(tops) / len(a) < 0.7


def test_mixed_schedule_is_deterministic_and_ordered(values):
    sched = wl.mixed_rw_schedule(3, values, 50.0, 6.0)
    assert sched == wl.mixed_rw_schedule(3, values, 50.0, 6.0)
    dues = [due for due, *_ in sched]
    assert dues == sorted(dues) and dues[-1] < 6.0
    ckpts = [due for due, _, p, _ in sched if p["op"] == "checkpoint"]
    assert ckpts == [wl.CHECKPOINT_EVERY_S * i for i in range(1, len(ckpts) + 1)]
    assert len(ckpts) == int(6.0 / wl.CHECKPOINT_EVERY_S) - (6.0 % wl.CHECKPOINT_EVERY_S == 0)
    writes = [(due, conn, p) for due, conn, p, cls in sched if cls in ("grow", "cursor")]
    assert len(writes) == int(6.0 / wl.WRITE_PERIOD_S)
    assert all(conn == 0 for _, conn, _ in writes)
    budgets: dict = {}
    for _, _, p in writes:
        cfg = (p["kind"], p["k"])
        assert p["budget"] >= budgets.get(cfg, wl.HOT_START)
        budgets[cfg] = p["budget"]
    assert not any(p.get("kind") == "full" for _, _, p, _ in sched)
