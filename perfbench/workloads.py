"""Seeded inputs for the three workloads: the dataset and the request plans.

Everything here is a pure function of the seed: the same seed gives the
same dataset and the same request sequence, byte for byte.  The server
only ever sees the generated CSV and the requests.

Workloads (see README.md for why each exists):

- ``cold_topk``: every request grows one of eight top-k pools by
  ``COLD_STEP`` samples and stays below the 10,000-sample pruning
  threshold, so each request runs the dense observe path.  Pools are
  reset with ``invalidate`` between epochs.
- ``warm_read``: top-stable cache hits and stability_of cache misses
  over pools restored from a snapshot; nothing samples.
- ``mixed_rw``: the warm reads, plus a minority of pool-growing writes
  on hot configurations past the pruning threshold, ``get_next``
  cursor reads and periodic checkpoints, arriving open-loop.
"""

from __future__ import annotations

import numpy as np

N_ITEMS = 10_000
N_ATTRIBUTES = 4

#: The eight top-k configurations of ``cold_topk`` and of the warm pools.
TOPK_CONFIGS = tuple(
    (kind, k) for kind in ("topk_set", "topk_ranked") for k in (3, 5, 8, 10)
)

#: cold_topk: samples added per request, and requests per config per epoch.
#: 19 * 500 = 9,500 keeps every pool under the 10,000-sample threshold
#: after which the observe path switches to k-skyband pruning.
COLD_STEP = 500
COLD_STEPS = 19

#: A config outside TOPK_CONFIGS grown once during cold_topk's warm-up,
#: so lazy first-use costs fall outside the timed phase.
COLD_WARMUP = {"op": "top_stable", "kind": "topk_set", "k": 4, "m": 1,
               "budget": COLD_STEP}

#: Warm pools written into the snapshot: each top-k config, and one
#: full-ranking pool that answers ranked-prefix stability_of.
WARM_TOPK_SAMPLES = 2_000
WARM_FULL_SAMPLES = 100

#: top_stable result counts in the warm working set (8 configs x 4 = 32
#: cache entries, well inside the 512-entry result cache).
WARM_M = (1, 2, 3, 4)

#: Share of warm reads that are top_stable (the rest are stability_of),
#: and of stability_of reads that ask a ranked prefix of the full pool.
WARM_TOP_SHARE = 0.6
WARM_PREFIX_SHARE = 0.15

#: mixed_rw hot configs: grown past the pruning threshold in warm-up,
#: then by HOT_STEP per growing write.
HOT_CONFIGS = (("topk_set", 6), ("topk_ranked", 6))
HOT_START = 10_000
HOT_STEP = 2_000

#: mixed_rw: reads arrive as a Poisson stream; writes and checkpoints
#: arrive on fixed periods, so every seed sees the same interference
#: pattern.  Each write is a growing top_stable, a growing get_next, or
#: a get_next that only consumes the cursor, in these proportions.
WRITE_PERIOD_S = 0.5
WRITE_MIX = (0.45, 0.3, 0.25)
CHECKPOINT_EVERY_S = 2.5

#: Candidate rankings are drawn from the top-(k + 2) of this many
#: random weight vectors per configuration.
N_BASES = 256


def dataset_values(seed: int) -> np.ndarray:
    """The ``independent`` synthetic dataset: i.i.d. uniform attributes."""
    rng = np.random.default_rng([seed, 0])
    return rng.uniform(0.0, 1.0, size=(N_ITEMS, N_ATTRIBUTES))


def write_csv(path, values: np.ndarray) -> None:
    """Write ``values`` with a header row; floats round-trip exactly."""
    names = [f"a{j + 1}" for j in range(values.shape[1])]
    with open(path, "w") as handle:
        handle.write(",".join(names) + "\n")
        for row in values:
            handle.write(",".join(repr(float(x)) for x in row) + "\n")


class Candidates:
    """Seeded candidate rankings for ``stability_of``.

    Each candidate is a near-top ranking: ``k`` of the top ``k + 2``
    items under a random weight vector, and half the time with one item
    swapped for a random one, so some candidates are in the pool and
    most are rare.  ``unique`` candidates never repeat within one
    stream, so they always miss the result cache.
    """

    def __init__(self, values: np.ndarray, rng: np.random.Generator):
        self.values = values
        self.rng = rng
        self._bases: dict[int, np.ndarray] = {}
        self._seen: set = set()

    def _base(self, width: int) -> np.ndarray:
        if width not in self._bases:
            weights = self.rng.uniform(0.0, 1.0, size=(N_BASES, N_ATTRIBUTES))
            scores = weights @ self.values.T
            top = np.argpartition(-scores, width, axis=1)[:, :width]
            rows = np.take_along_axis(scores, top, axis=1)
            order = np.argsort(-rows, axis=1, kind="stable")
            self._bases[width] = np.take_along_axis(top, order, axis=1)
        return self._bases[width]

    def _draw(self, kind: str, length: int) -> tuple[int, ...]:
        base = self._base(length + 2)[int(self.rng.integers(N_BASES))]
        drop = set(self.rng.choice(length + 2, size=2, replace=False).tolist())
        ids = [int(i) for j, i in enumerate(base) if j not in drop]
        if self.rng.random() < 0.5:
            pos = int(self.rng.integers(length))
            new = int(self.rng.integers(N_ITEMS))
            if new not in ids:
                ids[pos] = new
        if kind == "topk_set":
            ids.sort()
        return tuple(ids)

    def ranking(self, kind: str, length: int, *, unique: bool) -> list[int]:
        for _ in range(32):
            ids = self._draw(kind, length)
            if not unique or (kind, length, ids) not in self._seen:
                break
        self._seen.add((kind, length, ids))
        return list(ids)


def cold_topk_plan(seed: int, values: np.ndarray):
    """Endless closed-loop request stream; yields ``(payload, cls)``.

    ``cls`` is ``"grow"`` for requests that add ``COLD_STEP`` samples to
    a pool and ``"control"`` for the ``invalidate`` opening each epoch
    after the first.
    """
    rng = np.random.default_rng([seed, 1])
    cands = Candidates(values, rng)
    epoch = 0
    while True:
        if epoch:
            yield {"op": "invalidate"}, "control"
        pools = [0] * len(TOPK_CONFIGS)
        order = rng.permutation(np.repeat(np.arange(len(TOPK_CONFIGS)), COLD_STEPS))
        for ci in order.tolist():
            kind, k = TOPK_CONFIGS[ci]
            pools[ci] += COLD_STEP
            target = pools[ci]
            u = rng.random()
            if u < 0.4:
                payload = {"op": "top_stable", "kind": kind, "k": k,
                           "m": int(rng.integers(1, 4)), "budget": target}
            elif u < 0.75:
                payload = {"op": "stability_of", "kind": kind, "k": k,
                           "ranking": cands.ranking(kind, k, unique=False),
                           "min_samples": target}
            else:
                payload = {"op": "get_next", "kind": kind, "k": k,
                           "budget": target}
            yield payload, "grow"
        epoch += 1


def warm_top_keys() -> list[dict]:
    """Every top_stable request of the warm working set (cache priming)."""
    return [
        {"op": "top_stable", "kind": kind, "k": k, "m": m,
         "budget": WARM_TOPK_SAMPLES}
        for kind, k in TOPK_CONFIGS
        for m in WARM_M
    ]


class WarmReads:
    """Seeded warm-read requests: Zipf top_stable and unique stability_of."""

    def __init__(self, seed: int, values: np.ndarray, stream: int,
                 prefix_share: float = WARM_PREFIX_SHARE):
        self.rng = np.random.default_rng([seed, 2, stream])
        self.prefix_share = prefix_share
        self.cands = Candidates(values, self.rng)
        keys = warm_top_keys()
        # One popularity order per seed, shared by every stream.
        perm = np.random.default_rng([seed, 3]).permutation(len(keys))
        self.keys = [keys[i] for i in perm]
        weights = 1.0 / np.arange(1, len(keys) + 1) ** 1.1
        self.cdf = np.cumsum(weights / weights.sum())

    def next(self) -> dict:
        rng = self.rng
        if rng.random() < WARM_TOP_SHARE:
            i = int(np.searchsorted(self.cdf, rng.random(), side="right"))
            return dict(self.keys[min(i, len(self.keys) - 1)])
        if rng.random() < self.prefix_share:
            length = int(rng.integers(2, 5))
            return {"op": "stability_of", "kind": "full",
                    "ranking": self.cands.ranking("full", length, unique=True),
                    "min_samples": WARM_FULL_SAMPLES}
        kind, k = TOPK_CONFIGS[int(rng.integers(len(TOPK_CONFIGS)))]
        return {"op": "stability_of", "kind": kind, "k": k,
                "ranking": self.cands.ranking(kind, k, unique=True),
                "min_samples": WARM_TOPK_SAMPLES}


def warm_read_plan(seed: int, values: np.ndarray, stream: int):
    """Endless closed-loop read stream for one connection."""
    reads = WarmReads(seed, values, stream)
    while True:
        yield reads.next(), "read"


def mixed_warmup() -> list[dict]:
    """Hot-config growth to HOT_START: builds the k-skyband index."""
    return [
        {"op": "top_stable", "kind": kind, "k": k, "m": 1, "budget": HOT_START}
        for kind, k in HOT_CONFIGS
    ]


def mixed_rw_schedule(seed: int, values: np.ndarray, rate: float, seconds: float):
    """The open-loop arrival schedule: ``[(due_s, conn, payload, cls)]``.

    Reads arrive as a Poisson stream at ``rate`` per second, on
    alternating connections, and never ask ranked prefixes (the mixed
    snapshot holds no full-ranking pool).  A write is due every
    ``WRITE_PERIOD_S`` and a checkpoint every ``CHECKPOINT_EVERY_S``;
    both travel on connection 0, so each hot config's writes reach the
    server in plan order.
    """
    rng = np.random.default_rng([seed, 4])
    reads = WarmReads(seed, values, 0, prefix_share=0.0)
    items = []
    t, n_reads = 0.0, 0
    while True:
        t += float(rng.exponential(1.0 / rate))
        if t >= seconds:
            break
        items.append((t, n_reads % 2, reads.next(), "read"))
        n_reads += 1
    pools = {cfg: HOT_START for cfg in HOT_CONFIGS}
    t = WRITE_PERIOD_S / 2
    while t < seconds:
        cfg = HOT_CONFIGS[int(rng.integers(len(HOT_CONFIGS)))]
        kind, k = cfg
        write = rng.choice(3, p=WRITE_MIX)
        if write < 2:
            pools[cfg] += HOT_STEP
        if write == 0:
            payload = {"op": "top_stable", "kind": kind, "k": k,
                       "m": int(rng.integers(1, 4)), "budget": pools[cfg]}
        else:
            payload = {"op": "get_next", "kind": kind, "k": k, "budget": pools[cfg]}
        items.append((t, 0, payload, "grow" if write < 2 else "cursor"))
        t += WRITE_PERIOD_S
    t = CHECKPOINT_EVERY_S
    while t < seconds:
        items.append((t, 0, {"op": "checkpoint"}, "ckpt"))
        t += CHECKPOINT_EVERY_S
    items.sort(key=lambda item: item[0])
    return items
