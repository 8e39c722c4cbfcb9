"""Lower layers never import upper ones.

The library tiers (``core``, ``engine``, ``service``, ``sampling``,
``operators``, ``geometry``, ``obs``) must import without the serving
tiers above them, and ``obs`` is the bottom tier: it imports no other
``repro`` package.  Every module is parsed with :mod:`ast`, so imports
inside functions count too — a lazy import still couples the layers
and still pays the upper tier's import cost on first use.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"
LOWER = ("core", "engine", "service", "sampling", "operators", "geometry", "obs")
UPPER = ("repro.server", "repro.cli", "repro.loadgen")


def _modules():
    for tier in LOWER:
        yield from sorted((PACKAGE / tier).rglob("*.py"))


def _imported(path: Path, tree: ast.AST):
    """Absolute names of every module ``tree`` imports (with line numbers)."""
    package = ["repro", *path.relative_to(PACKAGE).parent.parts]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package[: len(package) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            yield node.lineno, module
            # ``from repro import server`` names the upper module as an
            # attribute of the package.
            for alias in node.names:
                yield node.lineno, f"{module}.{alias.name}"


def _is_upper(name: str) -> bool:
    return any(name == up or name.startswith(up + ".") for up in UPPER)


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.relative_to(PACKAGE)}:{line} imports {name}"
        for line, name in _imported(path, tree)
        if _is_upper(name)
    ]


def _leaves_obs(name: str) -> bool:
    in_repro = name == "repro" or name.startswith("repro.")
    in_obs = name == "repro.obs" or name.startswith("repro.obs.")
    return in_repro and not in_obs


def test_lower_tiers_exist():
    assert all((PACKAGE / tier / "__init__.py").exists() for tier in LOWER)


@pytest.mark.parametrize(
    "path", list(_modules()), ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_no_upward_imports(path):
    assert _violations(path) == []


@pytest.mark.parametrize(
    "path",
    sorted((PACKAGE / "obs").rglob("*.py")),
    ids=lambda p: str(p.relative_to(PACKAGE)),
)
def test_obs_imports_no_other_tier(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [
        f"{path.relative_to(PACKAGE)}:{line} imports {name}"
        for line, name in _imported(path, tree)
        if _leaves_obs(name)
    ] == []


def test_obs_checker_sees_lazy_and_relative_imports():
    module = PACKAGE / "obs" / "probe.py"
    tree = ast.parse(
        "from repro.obs.metrics import MetricsRegistry\n"
        "from . import flight\n"
        "def f():\n"
        "    from repro.service.procpool import live_segments\n"
        "    from ..engine import kernel\n"
        "    from repro import errors\n"
    )
    flagged = {name for _, name in _imported(module, tree) if _leaves_obs(name)}
    assert "repro.service.procpool" in flagged
    assert "repro.engine" in flagged
    assert "repro.errors" in flagged
    assert not any(n.startswith("repro.obs") for n in flagged)


def test_checker_sees_function_local_and_relative_imports():
    module = PACKAGE / "service" / "probe.py"
    tree = ast.parse(
        "def f():\n"
        "    from repro.server.resilience import current_deadline\n"
        "    from ..cli import main\n"
        "    from repro import loadgen\n"
        "    import repro.engine\n"
    )
    flagged = [name for _, name in _imported(module, tree) if _is_upper(name)]
    assert "repro.server.resilience" in flagged
    assert "repro.cli" in flagged
    assert "repro.loadgen" in flagged
    assert not any(n.startswith("repro.engine") for n in flagged)


def test_library_observe_does_not_load_the_server_tier():
    # A fresh interpreter: this suite's own imports would mask it.
    script = (
        "import sys, numpy as np\n"
        "from repro import Dataset, StabilitySession\n"
        "from repro.deadline import Deadline, deadline_scope\n"
        "data = Dataset(np.random.default_rng(0).uniform(size=(100, 3)))\n"
        "with StabilitySession(data, seed=1) as session, "
        "deadline_scope(Deadline(60_000)):\n"
        "    session.top_stable(1, kind='topk_set', k=3,\n"
        "                       backend='randomized', budget=500)\n"
        "print(sorted(m for m in sys.modules if m.startswith(%r)))\n"
        % (UPPER,)
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
