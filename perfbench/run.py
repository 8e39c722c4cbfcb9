"""Run one benchmark workload against the TCP server and print its metrics.

Usage::

    python3 perfbench/run.py --workload cold_topk --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the workload once untraced and
once through ``launcher.py`` and reports the per-layer metrics.  A full
result file (fingerprint, per-op accounting, latency breakdown) is
written to ``.perfbench/results/``.  The exit code is 1 when any answer
differs from the oracle or any request fails.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    ServerProcess,
    clock,
    closed_loop,
    control_requests,
    open_loop,
)
from measure import percentile, self_times, tail_percentile, windowed  # noqa: E402
from oracle import Oracle, check_mixed, check_reads, check_sequence  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("cold_topk", "warm_read", "mixed_rw")

#: Server spawns per untraced run; setup_s is their median.
SETUPS = 3

#: The tail percentile each workload reports as ``lat_tail_ms``; the run
#: fails when its answers leave fewer than ten samples beyond it.  On
#: cold_topk and mixed_rw it is the highest percentile a run supports.
#: warm_read supports p99, but its p99 swung from 4 to 21 ms across ten
#: seeds on the reference host (CPU steal comes in bursts), so it gates
#: on p90 and reports read_p99_ms in the breakdown.
TAIL = {"cold_topk": 90.0, "warm_read": 90.0, "mixed_rw": 99.0}

#: mixed_rw's mean read arrival rate (requests per second): about a sixth
#: of warm_read's closed-loop throughput on the reference 2-core host, so
#: the server keeps up with the writes added even when the host runs
#: slow; at half of it, queueing made runs disagree beyond the bounds.
MIXED_RATE = 80.0

#: Per-layer self times reported as mean seconds per timed request.
SELF_METRICS = {
    "engine.kernel.score_block_s": "engine.kernel.score_block",
    "engine.kernel.topk_rows_s": "engine.kernel.topk_rows",
    "engine.kernel.full_ranking_rows_s": "engine.kernel.full_ranking_rows",
    "engine.kernel.pack_rows_s": "engine.kernel.pack_rows",
    "engine.kernels.reduce_chunk_self_s": "engine.kernels.reduce_chunk",
    "engine.tally.observe_packed_s": "engine.tally.observe_packed",
    "engine.tally.top_keys_s": "engine.tally.top_keys",
    "engine.tally.prefix_count_s": "engine.tally.prefix_count",
    "core.randomized.sample_weights_s": "core.randomized.sample_weights",
    "core.randomized.reduce_for_weights_s": "core.randomized.reduce_for_weights",
    "core.randomized.top_from_pool_s": "core.randomized.top_from_pool",
    "core.randomized.stability_of_s": "core.randomized.stability_of",
    "service.parallel.observe_s": "service.parallel.observe",
    "service.session.top_stable_s": "service.session.top_stable",
    "service.session.stability_of_s": "service.session.stability_of",
    "service.session.get_next_s": "service.session.get_next",
    "service.cache.get_s": "service.cache.get",
    "server.protocol.parse_request_s": "server.protocol.parse_request",
    "server.protocol.dispatch_s": "server.protocol.dispatch",
    "server.protocol.encode_response_s": "server.protocol.encode_response",
}

#: Functions that are stages of pool growth only when called from the
#: named reduction; elsewhere their time stays with the caller.
GROWTH_STAGES = {"engine.kernel.pack_rows": "engine.kernels.reduce_chunk"}

#: Spans whose full duration counts as accounted-for server time when
#: computing the unattributed remainder of a request.
ATTRIBUTED = (
    "server.protocol.parse_request",
    "server.registry.read_lock_wait",
    "server.registry.write_lock_wait",
    "server.protocol.dispatch",
    "server.protocol.encode_response",
)


class Bench:
    """One invocation: inputs, oracle, servers, and their cleanup."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = ROOT / ".perfbench" / "work" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.values = wl.dataset_values(seed)
        self.csv = self.work / "data.csv"
        wl.write_csv(self.csv, self.values)
        self.oracle = Oracle(self.csv, seed)
        self.servers: list[ServerProcess] = []
        self.pristine = None
        self.snapshot_bytes = None
        if workload != "cold_topk":
            self.pristine = self.work / "snapshot"
            self.snapshot_bytes = self.oracle.build_warm_snapshot(
                self.pristine, full=workload == "warm_read")
        self.expected: dict = {}
        self.problems: list[str] = []

    def close(self) -> None:
        for server in self.servers:
            server.kill()
        self.oracle.close()
        shutil.rmtree(self.work, ignore_errors=True)

    def warmup_payloads(self) -> list[dict]:
        payloads = [{"op": "stats"}]
        if self.workload == "cold_topk":
            return payloads + [wl.COLD_WARMUP]
        payloads += wl.warm_top_keys()
        if self.workload == "mixed_rw":
            payloads += wl.mixed_warmup()
        return payloads

    def spawn(self, tag: str, spans_out: Path | None = None):
        """Start a server and warm it; returns ``(server, warmup, setup_s)``."""
        state_dir = None
        if self.pristine is not None:
            state_dir = self.work / f"state-{tag}"
            shutil.copytree(self.pristine, state_dir)
        server = ServerProcess(ROOT, self.work, tag, self.csv, seed=self.seed,
                               state_dir=state_dir, spans_out=spans_out)
        self.servers.append(server)
        address = server.wait_ready()
        warmup = control_requests(address, self.warmup_payloads(), f"w{tag}.")
        return server, warmup, clock() - server.spawned

    def drive(self, address: str):
        """The timed phase; returns ``(records, start)``."""
        if self.workload == "cold_topk":
            return closed_loop(address, wl.cold_topk_plan(self.seed, self.values),
                               self.seconds, "t")
        if self.workload == "warm_read":
            return closed_loop(address, wl.warm_read_plan(self.seed, self.values, 0),
                               self.seconds, "t")
        schedule = wl.mixed_rw_schedule(self.seed, self.values, MIXED_RATE, self.seconds)
        return open_loop(address, schedule, "t")

    def phase(self, server: ServerProcess):
        """Stats, the timed phase, stats again; returns a phase summary."""
        before = control_requests(server.address, [{"op": "stats"}], "sb.")[0]
        cpu = server.cpu_seconds()
        records, start = self.drive(server.address)
        cpu = server.cpu_seconds() - cpu
        after = control_requests(server.address, [{"op": "stats"}], "sa.")[0]
        return {
            "records": records,
            "start": start,
            "cpu_s": cpu,
            "stats": (before.response["stats"], after.response["stats"]),
            "rss_mb": server.peak_rss_mb(),
        }

    def check(self, warmup, records) -> list[str]:
        """Compare one server's answers with the oracle's."""
        if self.workload == "cold_topk":
            return check_sequence(self.oracle, records, self.expected.setdefault("seq", []))
        primed = [r for r in warmup if r.payload["op"] == "top_stable"
                  and r.payload.get("budget") == wl.WARM_TOPK_SAMPLES]
        if self.workload == "warm_read":
            return check_reads(self.oracle, primed + records)
        return check_mixed(self.oracle, [r for r in warmup if r.payload["op"] != "stats"],
                           records, self.expected)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def latencies_ms(records, cls=None) -> list[float]:
    return [(r.done - r.due) * 1000.0 for r in records
            if r.ok and (cls is None or r.cls == cls)]


def delta(stats_pair, *path) -> float:
    before, after = stats_pair
    for key in path:
        before, after = before[key], after[key]
    return float(after - before)


def end_to_end(workload: str, phase: dict, setup_times: list[float], failed: int) -> dict:
    records = phase["records"]
    win = windowed([(r.done, (r.done - r.due) * 1000.0) for r in records if r.ok],
                   phase["start"], TAIL[workload])
    return {
        "setup_s": (percentile(setup_times, 50), "s"),
        "lat_p50_ms": (win["p50"], "ms"),
        "lat_tail_ms": (win["tail"], "ms"),
        "throughput_rps": (win["rate"], "1/s"),
        "server_cpu_ms": (1000.0 * phase["cpu_s"] / len(records), "ms"),
        "server_rss_mb": (phase["rss_mb"], "MB"),
        "ok_ratio": ((len(records) - failed) / len(records), "ratio"),
    }


def breakdown(phase: dict, failed: int) -> dict:
    """The latency of each request class, n/a where a class is absent."""
    records = phase["records"]
    out: dict = {}
    for cls, tail in (("grow", 90.0), ("read", 99.0), ("ckpt", None), ("cursor", None)):
        lat = latencies_ms(records, cls)
        out[f"{cls}_count"] = len(lat)
        out[f"{cls}_p50_ms"] = percentile(lat, 50) if lat else None
        if tail is not None:
            q = tail_percentile(len(lat))
            out[f"{cls}_p{tail:g}_ms"] = percentile(lat, tail) if lat else None
            out[f"{cls}_p{tail:g}_supported"] = q is not None and q >= tail
    grow_s = sum(r.done - r.due for r in records if r.ok and r.cls == "grow")
    drawn = delta(phase["stats"], "cost", "samples_drawn")
    out["samples_per_s"] = drawn / grow_s if grow_s else None
    out["error_rate"] = failed / len(records)
    late = [(r.sent - r.due) * 1000.0 for r in records]
    out["late_p99_ms"] = percentile(late, 99) if late else 0.0
    return out


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(spans: list, traced: dict, untraced: dict, import_s: float) -> dict:
    records = [r for r in traced["records"] if r.ok]
    n = len(records)
    timed = {r.rid for r in records}
    index = {span[0]: i for i, span in enumerate(spans)}
    parents = [index.get(s[4]) for s in spans]
    selfs = self_times([(s[2], s[3], p) for s, p in zip(spans, parents)])
    for i, (span, parent) in enumerate(zip(spans, parents)):
        stage_of = GROWTH_STAGES.get(span[1])
        if stage_of and (parent is None or spans[parent][1] != stage_of):
            # A growth-stage function called outside pool growth (packing a
            # query key) counts as its caller's own work.
            if parent is not None:
                selfs[parent] += selfs[i]
            selfs[i] = 0.0
    by_name: dict = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span[1], []).append((span, own))

    def timed_spans(name):
        return [(s, own) for s, own in by_name.get(name, ()) if s[5] in timed]

    out = {}
    for metric, name in SELF_METRICS.items():
        out[metric] = (sum(own for _, own in timed_spans(name)) / n, "s/req")
    for side in ("read", "write"):
        waits = timed_spans(f"server.registry.{side}_lock_wait")
        out[f"server.registry.{side}_lock_wait_s"] = (
            sum(s[3] - s[2] for s, _ in waits) / n, "s/req")
        out[f"server.registry.{side}_lock_waits"] = (len(waits) / n, "count/req")
    covered: Counter = Counter()
    for name in ATTRIBUTED:
        for s, _ in timed_spans(name):
            covered[s[5]] += s[3] - s[2]
    out["server.app.unattributed_s"] = (
        sum((r.done - r.sent) - covered[r.rid] for r in records) / n, "s/req")
    observes = timed_spans("service.parallel.observe")
    out["service.parallel.samples"] = (sum(s[6]["n"] for s, _ in observes) / n, "count/req")
    bands = {s[6]["k"]: s[6]["size"] / s[6]["n"] for s, _ in by_name.get("operators.skyline.band", ())}
    out["operators.skyline.build_s"] = (
        sum(s[3] - s[2] for s, _ in by_name.get("operators.skyline.band", ())), "s")
    out["operators.skyline.band_ratio"] = (ratio(sum(bands.values()), len(bands)), "ratio")
    saves = timed_spans("service.persist.save")
    out["service.persist.save_s"] = (ratio(sum(s[3] - s[2] for s, _ in saves), len(saves)), "s")
    ckpts = [r.response["checkpoint"]["bytes"] for r in records if r.cls == "ckpt"]
    out["service.persist.save_bytes"] = (ratio(sum(ckpts), len(ckpts)), "bytes")
    out["service.persist.load_s"] = (
        sum(s[3] - s[2] for s, _ in by_name.get("service.persist.load", ())), "s")
    out["startup.import_s"] = (import_s, "s")
    stats = traced["stats"]
    hits = delta(stats, "cache_session", "hits")
    misses = delta(stats, "cache_session", "misses")
    out["service.cache.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    reused = delta(stats, "cost", "samples_reused")
    drawn = delta(stats, "cost", "samples_drawn")
    out["service.session.pool_reuse_ratio"] = (ratio(reused, reused + drawn), "ratio")
    late = [(r.sent - r.due) * 1000.0 for r in untraced["records"]]
    out["loadgen.late_p99_ms"] = (percentile(late, 99), "ms")
    mean_t = sum(r.done - r.due for r in records) / n
    base = [r for r in untraced["records"] if r.ok]
    mean_u = sum(r.done - r.due for r in base) / len(base)
    out["trace.overhead"] = (mean_t / mean_u - 1.0, "ratio")
    return out


def gated_metrics(trace: bool) -> set[str]:
    """The metric names ``BENCHMARK.json`` lists for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def import_seconds() -> float:
    """Wall time of ``import repro.cli`` in a fresh interpreter."""
    code = ("import time; t = time.monotonic(); import repro.cli; "
            "print(time.monotonic() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip())


# ----------------------------------------------------------------------
# Fingerprint and accounting
# ----------------------------------------------------------------------
def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(seed: int, stats: dict, spans: list | None) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    fp = {
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "numba": importlib.util.find_spec("numba") is not None,
        "server_executor": stats.get("executor"),
        "server_executor_workers": stats.get("executor_workers"),
        "server_kernels": sorted({c["kernel"] for c in stats.get("configs", {}).values()
                                  if "kernel" in c}),
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256_16": source_digest(),
    }
    if spans is not None:
        fp["executor_used"] = dict(Counter(
            s[6]["mode"] for s in spans if s[1] == "service.parallel.observe"))
    return fp


def accounting(phases: dict) -> dict:
    """Requests sent, succeeded and failed, per phase and op."""
    out = {}
    for phase, records in phases.items():
        table: dict = {}
        for r in records:
            row = table.setdefault(r.payload["op"], {"sent": 0, "ok": 0, "failed": 0})
            row["sent"] += 1
            row["ok" if r.ok else "failed"] += 1
        out[phase] = table
    return out


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, bool]:
    bench = Bench(workload, seed, seconds)
    try:
        phases: dict = {}
        if not trace:
            setup_times = []
            for i in range(SETUPS):
                server, warmup, setup_s = bench.spawn(f"s{i}")
                setup_times.append(setup_s)
                if i < SETUPS - 1:
                    server.stop()
            main = bench.phase(server)
            server.stop()
            bench.problems += bench.check(warmup, main["records"])
            phases = {"warmup": warmup, "timed": main["records"]}
            spans = None
        else:
            server, warmup_u, _ = bench.spawn("u")
            untraced = bench.phase(server)
            server.stop()
            spans_out = bench.work / "spans.json"
            server, warmup, _ = bench.spawn("x", spans_out=spans_out)
            main = bench.phase(server)
            server.stop()
            with open(spans_out) as handle:
                dumped = json.load(handle)
            spans = dumped["spans"]
            if dumped["missing"]:
                print(f"warning: not traced: {dumped['missing']}", file=sys.stderr)
            bench.problems += bench.check(warmup_u, untraced["records"])
            bench.problems += bench.check(warmup, main["records"])
            phases = {"warmup": warmup_u + warmup, "timed": untraced["records"],
                      "timed_traced": main["records"]}
        if not trace:
            n_ok = len(latencies_ms(main["records"]))
            if (tail_percentile(n_ok) or 0) < TAIL[workload]:
                bench.problems.append(f"{n_ok} answers are too few for p{TAIL[workload]:g}")
        timed = [r for name, recs in phases.items() if name != "warmup" for r in recs]
        all_records = phases["warmup"] + timed
        failed = sum(not r.ok for r in all_records) + len(bench.problems)
        result = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "fingerprint": fingerprint(seed, main["stats"][1], spans),
            "accounting": accounting(phases),
            "breakdown": breakdown(main, failed),
            "snapshot_bytes": bench.snapshot_bytes,
            "problems": bench.problems[:50],
            "attempted": len(all_records),
            "failed": failed,
        }
        if trace:
            metrics = per_layer(spans, main, untraced, import_seconds())
        else:
            result["setup_times_s"] = setup_times
            metrics = end_to_end(workload, main, setup_times, failed)
        as_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        gated = gated_metrics(trace)
        result["metrics"] = {k: m for k, m in as_json.items() if k in gated}
        result["reported"] = {k: m for k, m in as_json.items() if k not in gated}
        return result, failed == 0
    finally:
        bench.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no source tree at {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # A terminated run still stops its servers (the cleanup is in finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    result, correct = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result["wall_s"] = time.monotonic() - started
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1, default=str))
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} wall={result['wall_s']:.1f}s")
    for key, value in sorted(result["breakdown"].items()):
        print(f"  breakdown {key} = {value}")
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    for key, metric in result["reported"].items():
        print(f"  reported {key} = {metric['value']:.6g} {metric['unit']}")
    for key, metric in result["metrics"].items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
