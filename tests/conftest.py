"""Shared fixtures: the paper's running example and seeded generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Dataset

try:
    from hypothesis import settings
except ImportError:  # the kernel-only CI job runs without hypothesis
    pass
else:
    # Tier-1 is deterministic: every run draws the same examples, and no
    # example database replays what an earlier run found.  Random
    # exploration runs under ``--hypothesis-profile explore`` (the
    # fuzz-smoke CI job); pin what it finds with ``@example``.
    settings.register_profile("tier1", derandomize=True, database=None)
    settings.register_profile("explore", derandomize=False, print_blob=True)
    settings.load_profile("tier1")


@pytest.fixture
def paper_values() -> np.ndarray:
    """The 5-item HR example of Figure 1a (Example 2)."""
    return np.array(
        [
            [0.63, 0.71],  # t1
            [0.83, 0.65],  # t2
            [0.58, 0.78],  # t3
            [0.70, 0.68],  # t4
            [0.53, 0.82],  # t5
        ]
    )


@pytest.fixture
def paper_dataset(paper_values) -> Dataset:
    return Dataset(
        paper_values,
        item_labels=["t1", "t2", "t3", "t4", "t5"],
        attribute_names=["x1", "x2"],
    )


@pytest.fixture(autouse=True)
def no_shared_memory_leaks():
    """Every test must leave the shared-memory registry empty.

    A segment surviving its owning engine would pin RAM in ``/dev/shm``
    for the life of the machine; the owner-side registry makes the
    invariant cheap to assert after every single test.
    """
    from repro.service.procpool import live_segments

    assert live_segments() == (), "shared memory leaked into this test"
    yield
    assert live_segments() == (), "test leaked shared-memory segments"


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20181218)


@pytest.fixture
def rng_factory():
    """Factory for independent, deterministic generators."""

    def make(seed: int = 0) -> np.random.Generator:
        return np.random.default_rng(seed)

    return make
