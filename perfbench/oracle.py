"""The answer oracle: an in-process serial session fed the same requests.

The oracle loads the benchmark's CSV exactly as the server does, opens a
:class:`repro.StabilitySession` with the server's seed on the serial
executor, and answers each query through the session's own methods.
Results are serialized with the server's result encoder and compared as
canonical JSON, so a server answer passes only if it is byte-identical.
"""

from __future__ import annotations

import json
from collections import Counter

from harness import Record
from workloads import (
    TOPK_CONFIGS,
    WARM_FULL_SAMPLES,
    WARM_TOPK_SAMPLES,
)


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, allow_nan=False)


class Oracle:
    def __init__(self, csv_path, seed: int):
        from repro import FullSpace, StabilitySession
        from repro.cli import load_csv_dataset
        from repro.server.protocol import value_to_json

        self.dataset = load_csv_dataset(csv_path)
        self.region = FullSpace(self.dataset.n_attributes)
        self.session = StabilitySession(
            self.dataset, region=self.region, seed=seed, executor="serial"
        )
        self._encode = value_to_json
        self._reads: dict[str, str] = {}

    def close(self) -> None:
        self.session.close()

    def answer(self, payload: dict) -> str:
        """The canonical JSON result the server must return for ``payload``."""
        s = self.session
        op = payload["op"]
        kind = payload.get("kind", "full")
        k = payload.get("k")
        if op == "top_stable":
            value = s.top_stable(payload.get("m", 1), kind=kind, k=k,
                                 budget=payload.get("budget"))
        elif op == "stability_of":
            value = s.stability_of(payload["ranking"], kind=kind, k=k,
                                   min_samples=payload.get("min_samples"))
        elif op == "get_next":
            value = s.get_next(kind=kind, k=k, budget=payload.get("budget"))
        elif op == "invalidate":
            s.invalidate()
            return canonical(None)
        else:
            raise ValueError(f"the oracle does not answer {op!r}")
        return canonical(self._encode(self.dataset, value))

    def read_answer(self, payload: dict) -> str:
        """:meth:`answer` memoized for reads, which leave the pools unchanged."""
        key = canonical({k: v for k, v in payload.items() if k != "id"})
        if key not in self._reads:
            self._reads[key] = self.answer(payload)
        return self._reads[key]

    def build_warm_snapshot(self, state_dir, *, full: bool) -> int:
        """Grow the warm pools and snapshot them where the server's
        ``--state-dir`` looks; returns the snapshot's size in bytes.

        ``full`` adds the full-ranking pool behind ranked-prefix reads.
        """
        from repro.server.registry import snapshot_path_for

        state_dir.mkdir(parents=True, exist_ok=True)
        for kind, k in TOPK_CONFIGS:
            self.session.observe(WARM_TOPK_SAMPLES, kind=kind, k=k)
        if full:
            self.session.observe(WARM_FULL_SAMPLES, kind="full", backend="randomized")
        info = self.session.save(snapshot_path_for(state_dir, self.dataset, self.region))
        return info.file_bytes


def server_result(rec: Record) -> str | None:
    if not rec.ok:
        return None
    if rec.payload["op"] == "invalidate":
        return canonical(None)
    return canonical(rec.response.get("result"))


def check_sequence(oracle: Oracle, records: list[Record], expected: list[str]) -> list[str]:
    """Compare records to the oracle's answers for the same sequence.

    ``expected`` caches answers by position, so several runs of one
    plan replay the oracle once.  Returns one message per mismatch.
    """
    problems = []
    for i, rec in enumerate(records):
        if i == len(expected):
            expected.append(oracle.answer(rec.payload))
        got = server_result(rec)
        if got is not None and got != expected[i]:
            problems.append(f"{rec.rid}: {rec.payload['op']} answer differs")
    return problems


def check_reads(oracle: Oracle, records: list[Record]) -> list[str]:
    problems = []
    for rec in records:
        got = server_result(rec)
        if got is not None and got != oracle.read_answer(rec.payload):
            problems.append(f"{rec.rid}: {rec.payload['op']} read differs")
    return problems


def check_mixed(oracle: Oracle, warmup: list[Record], records: list[Record],
                expected: dict) -> list[str]:
    """mixed_rw: reads exactly; hot-config writes replayed in send order,
    with ``get_next`` judged as a per-configuration multiset."""
    problems = check_reads(oracle, [r for r in records if r.cls == "read"])
    writes = [r for r in warmup + records if r.cls in ("grow", "cursor", "warmup")
              and r.payload["op"] != "stats"]
    if "writes" not in expected:
        expected["writes"] = [oracle.answer(r.payload) for r in writes]
    want_next: dict = {}
    got_next: dict = {}
    for rec, want in zip(writes, expected["writes"]):
        got = server_result(rec)
        if got is None:
            continue
        if rec.payload["op"] == "get_next":
            cfg = (rec.payload["kind"], rec.payload["k"])
            want_next.setdefault(cfg, Counter())[want] += 1
            got_next.setdefault(cfg, Counter())[got] += 1
        elif got != want:
            problems.append(f"{rec.rid}: {rec.payload['op']} write differs")
    for cfg in want_next:
        if want_next[cfg] != got_next.get(cfg):
            problems.append(f"get_next rankings on {cfg} differ")
    for rec in records:
        if rec.cls == "ckpt" and rec.ok:
            if not rec.response.get("checkpoint", {}).get("bytes"):
                problems.append(f"{rec.rid}: checkpoint wrote nothing")
    return problems
