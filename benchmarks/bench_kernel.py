"""Kernel-backend acceptance benchmark: reduction speed, QMC sample savings.

Two claims back ``repro.engine.kernels`` + the precision machinery:

1. **Compiled reduction throughput** — the ``numba`` backend runs the
   chunk reduction (score block -> per-row exact top-k -> pack ->
   ``np.unique``) at **>= 3x** the numpy reference at
   ``n >= 100_000`` items, because the jitted selection streams each
   row once in parallel, while the reference streams it twice (block
   maxima, then the candidate compare) before ordering the
   candidates.  The floor arms only where numba is importable (the
   numpy fallback is the *reference*, not a regression); parity —
   identical packed keys, counts, and row totals — is asserted on
   every host where both backends run.
2. **Quasi-MC sample savings** — randomised Halton points reach a fixed
   empirical RMS error on a known cap-volume target with **<= 0.5x**
   the samples plain MC needs (extending
   ``bench_ablation_quasi_mc.py``'s fixed-budget comparison to a
   samples-to-precision ladder — the quantity the ``"ci:..."`` budget
   controller actually spends).

Every run also times the numpy reference's ``topk_rows`` on one
score chunk of each serving shape — the dense ``cold_topk`` chunk
(n=10K, 209 rows, k=10) and the pruned ``mixed_rw`` band (n=604,
k=6) — and fails if any row differs from the scalar
``_top_k_order``, so the smoke run guards exactness as well as speed.

Every run — smoke or full, with or without numba — emits a
machine-readable ``BENCH_kernel.json`` so the perf trajectory is
tracked from here on.

Run: ``python benchmarks/bench_kernel.py [--smoke] [--json PATH]``.
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np

from repro.core.ranking import _top_k_order
from repro.engine import kernel, kernels
from repro.geometry.spherical import cap_area
from repro.sampling.cap import sample_cap
from repro.sampling.quasi import quasi_cap_points

N_ITEMS = 100_000
N_ITEMS_SMOKE = 5_000
K = 10
CHUNK = 512
N_CHUNKS = 8
N_CHUNKS_SMOKE = 3
MIN_COMPILED_SPEEDUP = 3.0
MAX_QMC_SAMPLE_RATIO = 0.5
QMC_TARGET_RMSE = 0.01
QMC_TARGET_RMSE_SMOKE = 0.03
QMC_LADDER = (125, 250, 500, 1_000, 2_000, 4_000, 8_000, 16_000)
QMC_LADDER_SMOKE = (125, 250, 500, 1_000)
QMC_REPLICATIONS = 16
QMC_DIM = 3
QMC_THETA = 0.3
#: (n_items, k) of the per-chunk ``topk_rows`` timings: the dense
#: cold_topk chunk and the pruned mixed_rw band.  Rows per chunk come
#: from ``auto_chunk_size`` (209 and 3472).
TOPK_SHAPES = ((10_000, 10), (604, 6))
TOPK_REPEATS = 15
TOPK_REPEATS_SMOKE = 5
SEED = 20180905
JSON_PATH = "BENCH_kernel.json"


def _chunk_workload(n_items: int, n_chunks: int):
    """Pre-sampled values + weight chunks, so timing sees only reduction."""
    rng = np.random.default_rng(SEED)
    values = rng.uniform(0.05, 1.0, size=(n_items, 4))
    chunks = [
        np.abs(rng.standard_normal((CHUNK, 4))) + 1e-9
        for _ in range(n_chunks)
    ]
    return values, chunks


def _time_reduction(backend, values, chunks) -> tuple[float, float, list]:
    """Wall and process-CPU seconds for one full pass over ``chunks``;
    returns mini-tallies.  CPU time counts every thread of the process,
    so a BLAS worker spinning beside the selection shows there."""
    dtype = kernel.key_dtype_for(values.shape[0])
    out = np.empty((CHUNK, values.shape[0]))
    results = []
    cpu = time.process_time()
    start = time.perf_counter()
    for weights in chunks:
        results.append(
            backend.reduce_chunk(
                values, weights, kind="topk_set", k=K, key_dtype=dtype, out=out
            )
        )
    return time.perf_counter() - start, time.process_time() - cpu, results


def _assert_chunk_parity(a: list, b: list) -> None:
    assert len(a) == len(b)
    for (ka, fa, na), (kb, fb, nb) in zip(a, b):
        assert np.array_equal(ka, kb), "packed keys diverged"
        assert np.array_equal(fa, fb), "counts diverged"
        assert na == nb, "row totals diverged"


def _reduction_benchmark(n_items: int, n_chunks: int) -> dict:
    """numpy vs numba on identical chunks; byte parity where both run."""
    values, chunks = _chunk_workload(n_items, n_chunks)
    numpy_backend = kernels.get_kernel("numpy")
    # Untimed warm-up pass (page faults; the first product pins
    # numpy's OpenBLAS to the calling thread).
    _, _, reference = _time_reduction(numpy_backend, values, chunks)
    numpy_seconds, numpy_cpu, reference = _time_reduction(
        numpy_backend, values, chunks
    )

    numba_available = kernels.available_kernels().get("numba", False)
    numba_seconds = 0.0
    speedup = 0.0
    if numba_available:
        numba_backend = kernels.get_kernel("numba")
        # First call compiles; time the steady state.
        _, _, jitted = _time_reduction(numba_backend, values, chunks)
        _assert_chunk_parity(reference, jitted)
        numba_seconds, _, jitted = _time_reduction(numba_backend, values, chunks)
        _assert_chunk_parity(reference, jitted)
        speedup = numpy_seconds / numba_seconds if numba_seconds > 0 else 0.0
    return {
        "n_items": n_items,
        "k": K,
        "chunk": CHUNK,
        "chunks": n_chunks,
        "numpy_seconds": numpy_seconds,
        "numpy_ms_per_chunk": numpy_seconds / n_chunks * 1000,
        "numpy_cpu_ms_per_chunk": numpy_cpu / n_chunks * 1000,
        "numba_available": numba_available,
        "numba_seconds": numba_seconds,
        "speedup": speedup,
    }


def _topk_chunk_benchmark(repeats: int) -> list[dict]:
    """Median per-chunk ``topk_rows`` time on the numpy reference, plus
    the number of rows (either form) that differ from ``_top_k_order``."""
    rng = np.random.default_rng(SEED + 2)
    results = []
    for n_items, k in TOPK_SHAPES:
        rows = kernel.auto_chunk_size(n_items)
        values = rng.uniform(0.05, 1.0, size=(n_items, 4))
        weights = np.abs(rng.standard_normal((rows, 4))) + 1e-9
        scores = kernel.score_block(values, weights)
        ranked = kernel.topk_rows(scores, k, ranked=True)
        as_set = kernel.topk_rows(scores, k, ranked=False)
        mismatches = 0
        for i in range(rows):
            expected = _top_k_order(scores[i], k)
            mismatches += list(ranked[i]) != expected
            mismatches += list(as_set[i]) != sorted(expected)
        seconds = []
        for _ in range(repeats):
            start = time.perf_counter()
            kernel.topk_rows(scores, k, ranked=False)
            seconds.append(time.perf_counter() - start)
        results.append({
            "n_items": n_items,
            "rows": rows,
            "k": k,
            "median_ms": float(np.median(seconds)) * 1000,
            "mismatches": int(mismatches),
        })
    return results


def _qmc_truth() -> float:
    inner = QMC_THETA / math.e
    return cap_area(QMC_DIM, inner) / cap_area(QMC_DIM, QMC_THETA)


def _rmse(sampler: str, budget: int) -> float:
    axis = np.full(QMC_DIM, 1.0 / math.sqrt(QMC_DIM))
    threshold = math.cos(QMC_THETA / math.e)
    truth = _qmc_truth()
    errors = []
    for rep in range(QMC_REPLICATIONS):
        rng = np.random.default_rng([SEED, rep, budget])
        if sampler == "mc":
            points = sample_cap(axis, QMC_THETA, budget, rng)
        else:
            points = quasi_cap_points(axis, QMC_THETA, budget, rng=rng)
        errors.append(float(np.mean(points @ axis >= threshold)) - truth)
    return float(np.sqrt(np.mean(np.square(errors))))


def _samples_to_width(sampler: str, target: float, ladder) -> int:
    """Smallest ladder budget whose empirical RMSE meets ``target``
    (0 when even the top rung misses — the ratio then stays unmeasured
    rather than lying)."""
    for budget in ladder:
        if _rmse(sampler, budget) <= target:
            return budget
    return 0


def _qmc_benchmark(smoke: bool) -> dict:
    target = QMC_TARGET_RMSE_SMOKE if smoke else QMC_TARGET_RMSE
    ladder = QMC_LADDER_SMOKE if smoke else QMC_LADDER
    mc_samples = _samples_to_width("mc", target, ladder)
    qmc_samples = _samples_to_width("qmc", target, ladder)
    measured = mc_samples > 0 and qmc_samples > 0
    return {
        "target_rmse": target,
        "ladder": list(ladder),
        "replications": QMC_REPLICATIONS,
        "mc_samples_to_width": mc_samples,
        "qmc_samples_to_width": qmc_samples,
        "measured": measured,
        "ratio": qmc_samples / mc_samples if measured else 0.0,
    }


def _stage_breakdown(n_items: int, n_chunks: int) -> dict:
    """Cold serial observe under a trace: the shared ``"stages"``
    schema, with per-chunk sample/reduce/fold timings aggregated."""
    from repro import obs
    from repro.core.dataset import Dataset
    from repro.core.randomized import GetNextRandomized

    dataset = Dataset(
        np.random.default_rng(SEED + 1).uniform(0.05, 1.0, size=(n_items, 4))
    )
    op = GetNextRandomized(
        dataset, kind="topk_set", k=K, rng=np.random.default_rng(3)
    )
    with obs.trace("bench.kernel_observe") as t:
        op.observe(n_chunks * CHUNK)
    return obs.stage_report(t)


def run(*, smoke: bool = False, verbose: bool = True) -> dict:
    n_items = N_ITEMS_SMOKE if smoke else N_ITEMS
    n_chunks = N_CHUNKS_SMOKE if smoke else N_CHUNKS
    reduction = _reduction_benchmark(n_items, n_chunks)
    topk_chunks = _topk_chunk_benchmark(TOPK_REPEATS_SMOKE if smoke else TOPK_REPEATS)
    qmc = _qmc_benchmark(smoke)
    speed_armed = not smoke and reduction["numba_available"]
    qmc_armed = not smoke and qmc["measured"]
    metrics = {
        "mode": "smoke" if smoke else "full",
        "stages": _stage_breakdown(n_items, n_chunks),
        "kernels": kernels.available_kernels(),
        "reduction": reduction,
        "topk_chunks": topk_chunks,
        "qmc": qmc,
        "tallies_byte_identical": True,
        "floors": [
            {
                "name": "numba_vs_numpy_reduction_speedup",
                "value": reduction["speedup"],
                "floor": MIN_COMPILED_SPEEDUP,
                "comparator": ">=",
                "asserted": speed_armed,
                "passed": reduction["speedup"] >= MIN_COMPILED_SPEEDUP,
            },
            {
                "name": "qmc_vs_mc_samples_to_width_ratio",
                "value": qmc["ratio"],
                "floor": MAX_QMC_SAMPLE_RATIO,
                "comparator": "<=",
                "asserted": qmc_armed,
                "passed": qmc["measured"]
                and qmc["ratio"] <= MAX_QMC_SAMPLE_RATIO,
            },
        ],
    }
    if verbose:
        print(
            f"  [{metrics['mode']}] reduction n={n_items} k={K} "
            f"chunk={CHUNK}x{n_chunks}"
        )
        print(
            f"  numpy per chunk: {reduction['numpy_ms_per_chunk']:6.2f} ms wall, "
            f"{reduction['numpy_cpu_ms_per_chunk']:6.2f} ms cpu"
        )
        if reduction["numba_available"]:
            print(
                f"  numpy {reduction['numpy_seconds'] * 1000:8.1f} ms   "
                f"numba {reduction['numba_seconds'] * 1000:8.1f} ms   "
                f"speedup {reduction['speedup']:5.2f}x "
                f"(floor {MIN_COMPILED_SPEEDUP}x); tallies byte-identical"
            )
        else:
            print(
                f"  numpy {reduction['numpy_seconds'] * 1000:8.1f} ms   "
                "numba not installed: speedup reported as 0, floor not armed"
            )
        for chunk in topk_chunks:
            print(
                f"  numpy topk_rows n={chunk['n_items']} rows={chunk['rows']} "
                f"k={chunk['k']}: {chunk['median_ms']:6.2f} ms/chunk, "
                f"{chunk['mismatches']} rows differ from _top_k_order"
            )
        print(
            f"  samples to rmse<={qmc['target_rmse']}: "
            f"mc {qmc['mc_samples_to_width']}   "
            f"qmc {qmc['qmc_samples_to_width']}   "
            f"ratio {qmc['ratio']:4.2f} (ceiling {MAX_QMC_SAMPLE_RATIO})"
        )
        if not (speed_armed and qmc_armed):
            print("  unarmed floors are reported, not asserted")
    return metrics


def check_floors(metrics: dict) -> list[str]:
    """Armed floors that failed, then inexact top-k chunks (empty == pass)."""
    failed = [
        f"{floor['name']}: {floor['value']:.3f} vs floor {floor['floor']}"
        for floor in metrics["floors"]
        if floor["asserted"] and not floor["passed"]
    ]
    failed += [
        f"topk_rows n={chunk['n_items']} k={chunk['k']}: "
        f"{chunk['mismatches']} rows differ from _top_k_order"
        for chunk in metrics["topk_chunks"]
        if chunk["mismatches"]
    ]
    return failed


def test_reduction_parity_and_structure():
    reduction = _reduction_benchmark(N_ITEMS_SMOKE, 2)
    assert reduction["numpy_seconds"] > 0
    assert reduction["numpy_cpu_ms_per_chunk"] >= 0
    if reduction["numba_available"]:
        assert reduction["speedup"] > 0


def test_smoke_metrics_structure():
    # Smoke sizes measure overhead, not throughput: floors must stay
    # unarmed, parity must have run, and the JSON payload must be
    # shaped for the trajectory tooling.
    metrics = run(smoke=True, verbose=False)
    assert metrics["tallies_byte_identical"] is True
    names = {floor["name"] for floor in metrics["floors"]}
    assert names == {
        "numba_vs_numpy_reduction_speedup",
        "qmc_vs_mc_samples_to_width_ratio",
    }
    assert all(not floor["asserted"] for floor in metrics["floors"])
    assert check_floors(metrics) == []


def test_topk_chunks_exact():
    chunks = _topk_chunk_benchmark(1)
    assert [(c["n_items"], c["k"]) for c in chunks] == list(TOPK_SHAPES)
    assert all(c["mismatches"] == 0 and c["median_ms"] > 0 for c in chunks)


def test_qmc_needs_fewer_samples_than_mc():
    qmc = _qmc_benchmark(True)
    if not qmc["measured"]:
        return  # the smoke ladder may top out on slow hosts; full mode decides
    assert qmc["qmc_samples_to_width"] <= qmc["mc_samples_to_width"]


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    json_path = JSON_PATH
    if "--json" in sys.argv:
        json_path = sys.argv[sys.argv.index("--json") + 1]
    metrics = run(smoke=smoke, verbose=True)
    with open(json_path, "w") as handle:
        json.dump(metrics, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  wrote {json_path}")
    failed = check_floors(metrics)
    for line in failed:
        print(f"  FLOOR REGRESSION: {line}", file=sys.stderr)
    raise SystemExit(1 if failed else 0)
