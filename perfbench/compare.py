"""Compare two sets of benchmark runs: parent and change.

Usage::

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are directories of result files written by ``run.py``
(``.perfbench/results/`` of each checkout) or lists of such files joined
with commas.  For every workload and metric the comparer prints each
side's median and quartiles and a verdict against ``BENCHMARK.json``:

- ``worse``: the change's median is worse than the parent's by more
  than the metric's bound;
- ``better``: the change wins at least nine tenths of the runs paired by
  seed and its median is better by more than the parent's own spread,
  or every change run beats every parent run;
- ``unresolved``: the run-to-run spread (inter-quartile distance over
  the median, on either side) is wider than the bound;
- ``same``: none of the above;
- ``info``: the metric has no bound (per-layer metrics, and the
  latency and rate figures every run reports without gating on them).

The exit code is 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import quartiles, relative_spread  # noqa: E402

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_runs(spec: str) -> dict:
    """``{(workload, trace): {seed: {metric: value}}}`` from result files."""
    paths: list[Path] = []
    for part in spec.split(","):
        path = Path(part)
        paths += sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict = {}
    for path in paths:
        result = json.loads(path.read_text())
        key = (result["workload"], bool(result["trace"]))
        metrics = {**result.get("reported", {}), **result["metrics"]}
        values = {name: m["value"] for name, m in metrics.items()}
        runs.setdefault(key, {})[result["seed"]] = values
    return runs


def verdict(parent: dict, change: dict, better: str, bound: float | None) -> str:
    """Judge one metric; ``parent``/``change`` map seed -> value."""
    if bound is None:
        return "info"
    sign = 1.0 if better == "lower" else -1.0
    p_vals, c_vals = list(parent.values()), list(change.values())
    p_med, c_med = quartiles(p_vals)[1], quartiles(c_vals)[1]
    separated = (max(c_vals) < min(p_vals)) if better == "lower" else (min(c_vals) > max(p_vals))
    if separated:
        return "better"
    p_spread, c_spread = relative_spread(p_vals), relative_spread(c_vals)
    if max(p_spread, c_spread) > bound:
        return "unresolved"
    worsening = sign * (c_med - p_med) / abs(p_med) if p_med else 0.0
    if worsening > bound:
        return "worse"
    seeds = set(parent) & set(change)
    wins = sum(sign * (change[s] - parent[s]) < 0 for s in seeds)
    if seeds and wins >= 0.9 * len(seeds) and -worsening > p_spread:
        return "better"
    return "same"


def metric_specs() -> dict:
    spec = json.loads(BENCHMARK.read_text())
    out = {False: {}, True: {}}
    for m in spec["end_to_end"]:
        out[False][m["name"]] = (m["unit"], m["better"], m["bound"])
    for m in spec["per_layer"]:
        out[True][m["name"]] = (m["unit"], m.get("better"), None)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load_runs(argv[0]), load_runs(argv[1])
    specs = metric_specs()
    worse = 0
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        print(f"{workload} ({'per-layer' if trace else 'end-to-end'}; "
              f"{len(parent[key])} parent runs, {len(change[key])} change runs)")
        names = list(specs[trace]) + sorted(
            {n for runs in (parent[key], change[key]) for v in runs.values() for n in v}
            - set(specs[trace]))
        for name in names:
            unit, better, bound = specs[trace].get(name, ("", None, None))
            p = {s: v[name] for s, v in parent[key].items() if name in v}
            c = {s: v[name] for s, v in change[key].items() if name in v}
            if not p or not c:
                continue
            result = verdict(p, c, better, bound)
            worse += result == "worse"
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            print(f"  {name:42s} {unit:9s} parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}]"
                  f"  change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}]  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
