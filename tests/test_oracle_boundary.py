"""The oracle boundary: reference implementations live in ``tests/`` only.

Production code has one event engine, one GA kernel and one FIFO search;
their slow reference twins sit in :mod:`tests.oracles` and are put in from
the test side.  These checks keep it that way: no ``src/`` module imports
from ``tests``, and the retired engine switch cannot come back unnoticed.
"""

from __future__ import annotations

import ast
from dataclasses import fields
from pathlib import Path

import repro
import repro.sim
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig, table2_experiments
from tests.oracles.engine_reference import SingleHeapEngine

SRC = Path(repro.__file__).resolve().parent


def imported_modules(path: Path):
    """Every absolute module name *path* imports."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module


def test_src_never_imports_tests():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, f"no modules found under {SRC}"
    offenders = [
        f"{path.relative_to(SRC.parent)}: {name}"
        for path in modules
        for name in imported_modules(path)
        if name == "tests" or name.startswith("tests.")
    ]
    assert offenders == []
    assert "engine" not in {f.name for f in fields(ExperimentConfig)}
    assert "SingleHeapEngine" not in repro.sim.__all__
    assert not hasattr(repro.sim, "SingleHeapEngine")


def test_engine_oracle_goes_in_through_runner_engine(monkeypatch):
    # The equivalence suite swaps the oracle in by patching runner.Engine;
    # if build_grid stopped reading that name the suite would compare the
    # partitioned engine with itself.
    monkeypatch.setattr(runner, "Engine", SingleHeapEngine)
    config = table2_experiments(request_count=2)[0]
    assert isinstance(runner.build_grid(config).sim, SingleHeapEngine)
