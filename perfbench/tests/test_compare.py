import json

from compare import load_runs, verdict


def runs(values):
    return dict(enumerate(values))


def test_no_bound_is_information_only():
    assert verdict(runs([1, 2]), runs([5, 6]), "lower", None) == "info"


def test_worse_beyond_the_bound():
    parent = runs([10.0, 10.2, 9.9, 10.1, 10.0])
    change = runs([13.0, 13.1, 12.9, 13.2, 12.0])
    assert verdict(parent, change, "lower", 0.1) == "worse"
    assert verdict(change, parent, "higher", 0.1) == "worse"


def test_within_the_bound_is_the_same():
    parent = runs([10.0, 10.2, 9.9, 10.1, 10.0])
    change = runs([10.3, 10.0, 10.4, 10.1, 10.2])
    assert verdict(parent, change, "lower", 0.1) == "same"


def test_spread_wider_than_the_bound_is_unresolved():
    parent = runs([10.0, 14.0, 8.0, 12.0, 9.0])
    change = runs([11.0, 15.0, 9.0, 13.0, 8.5])
    assert verdict(parent, change, "lower", 0.1) == "unresolved"


def test_every_change_run_better_wins_despite_spread():
    parent = runs([10.0, 14.0, 12.0, 13.0])
    change = runs([5.0, 7.0, 6.0, 9.0])
    assert verdict(parent, change, "lower", 0.1) == "better"


def test_paired_wins_beyond_the_parent_spread_are_better():
    parent = runs([10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9])
    change = runs([9.3, 9.4, 9.5, 9.6, 9.7, 9.8, 9.9, 10.0, 10.1, 10.2])
    assert verdict(parent, change, "lower", 0.2) == "better"


def test_load_runs_groups_by_workload_and_trace(tmp_path):
    for seed in (1, 2):
        (tmp_path / f"r{seed}.json").write_text(json.dumps({
            "workload": "warm_read", "trace": False, "seed": seed,
            "metrics": {"lat_p50_ms": {"value": float(seed), "unit": "ms"}},
        }))
    assert load_runs(str(tmp_path)) == {
        ("warm_read", False): {1: {"lat_p50_ms": 1.0}, 2: {"lat_p50_ms": 2.0}}
    }
