"""Partitioned-engine equivalence: lanes must never change firing order.

The lane-partitioned :class:`~repro.sim.engine.Engine` is a pure
performance refactor; :class:`~tests.oracles.engine_reference.SingleHeapEngine`
is the seed implementation kept as the correctness oracle.  Two layers of
evidence here:

* **Paper-scale byte-identity** — the three Table-2 experiment configs run
  on both engines across five master seeds must agree on completion
  records, metrics JSON, and the final RNG digest, byte for byte.  The
  oracle is put into ``build_grid`` by substituting it for
  ``runner.Engine``.
* **Hypothesis-driven run() equivalence** — random scripted workloads
  (same-instant cascades, cross-lane scheduling from callbacks, cancels,
  chunked ``run(max_events=...)`` that stops mid-cascade) must produce the
  identical fire sequence on both engines.  This drives the partitioned
  engine's fused run loop directly — including the deferred head publish
  and the cascade carry path — which the experiment drivers (``step()``
  based) do not exercise.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.message as message_module
from repro.experiments import runner
from repro.experiments.config import table2_experiments
from repro.experiments.runner import run_experiment
from repro.sim.engine import Engine
from repro.sim.events import DEFAULT_LANE, Priority
from tests.oracles.engine_reference import SingleHeapEngine

#: The engine class ``build_grid`` instantiates, per compared engine.
ENGINES = {"partitioned": Engine, "single-heap": SingleHeapEngine}

SEEDS = (2003, 7, 41, 97, 1234)

LANES = (DEFAULT_LANE, "cluster-a", "cluster-b", "cluster-c", "cluster-d")

PRIORITIES = (
    Priority.COMPLETION,
    Priority.ARRIVAL,
    Priority.SCHEDULING,
    Priority.DEFAULT,
)


def metrics_json(metrics) -> str:
    # NaN epsilons break dataclass equality; JSON text comparison does not.
    return json.dumps(asdict(metrics), sort_keys=True)


def records_json(result) -> str:
    return json.dumps([asdict(r) for r in result.records], sort_keys=True)


class TestPaperScaleByteIdentity:
    """Table-2 configs agree byte-for-byte on both engines, five seeds."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_table2_experiments_identical(self, seed, monkeypatch):
        for config in table2_experiments(master_seed=seed, request_count=60):
            results = {}
            for engine in ("partitioned", "single-heap"):
                monkeypatch.setattr(runner, "Engine", ENGINES[engine])
                message_module.set_message_counter(0)
                results[engine] = run_experiment(config)
            part, single = results["partitioned"], results["single-heap"]
            assert records_json(part) == records_json(single), config.name
            assert metrics_json(part.metrics) == metrics_json(single.metrics)
            assert part.rng_digest == single.rng_digest, config.name


class _ScriptedRun:
    """Replays one seeded random workload on an engine, logging fire order.

    Every random decision is drawn from a private ``random.Random``; the
    two engines fire callbacks in the same order iff they are equivalent,
    so the nth draw — and therefore the whole script — matches between
    them.  Callbacks schedule same-instant cascades (routed through lane
    views, like transports do), jump lanes, cancel pending events, and
    occasionally schedule from inside a cascade into the past-most lane,
    covering the deferred-publish and carry invariants.
    """

    #: Hard cap on scheduled events per script — each fire spawns 0–3
    #: children (a supercritical cascade), so the budget is what drains it.
    BUDGET = 300

    def __init__(self, engine, seed: int) -> None:
        self.engine = engine
        self.rng = random.Random(seed)
        self.log = []
        self.live = []
        self.budget = self.BUDGET

    def seed_events(self, count: int) -> None:
        for _ in range(count):
            self._schedule(self.engine.now)

    def _schedule(self, base_time: float) -> None:
        if self.budget == 0:
            return
        self.budget -= 1
        rng = self.rng
        view = self.engine.lane_view(rng.choice(LANES))
        time = base_time + rng.choice((0.0, 0.0, 0.25, 1.0, 3.5))
        priority = rng.choice(PRIORITIES)
        label = f"ev{len(self.log)}-{len(self.live)}"
        handle = view.schedule(time, self._fire, priority, label)
        self.live.append(handle)

    def _fire(self) -> None:
        rng = self.rng
        self.log.append((self.engine.now, len(self.log)))
        for _ in range(rng.randrange(0, 4)):
            self._schedule(self.engine.now)
        if self.live and rng.random() < 0.3:
            victim = self.live.pop(rng.randrange(len(self.live)))
            victim.cancel()

    def drain(self, chunk: int) -> None:
        # Chunked draining stops runs mid-cascade, exercising the carry
        # restore on exit and re-entry.
        while self.engine.run(max_events=chunk):
            pass


class TestScriptedRunEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        initial=st.integers(1, 12),
        chunk=st.integers(1, 50),
    )
    def test_fire_sequence_identical(self, seed, initial, chunk):
        runs = []
        for engine in (Engine(), SingleHeapEngine()):
            scripted = _ScriptedRun(engine, seed)
            scripted.seed_events(initial)
            scripted.drain(chunk)
            runs.append(scripted)
        part, single = runs
        assert part.log == single.log
        assert part.engine.fired_count == single.engine.fired_count
        assert part.engine.now == single.engine.now
        assert part.engine.pending == single.engine.pending == 0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), initial=st.integers(2, 10))
    def test_single_run_matches_chunked_run(self, seed, initial):
        # The fused run loop (one run() call) and repeated small chunks
        # must fire identically on the partitioned engine itself.
        runs = []
        for chunk in (10**9, 3):
            scripted = _ScriptedRun(Engine(), seed)
            scripted.seed_events(initial)
            scripted.drain(chunk)
            runs.append(scripted)
        assert runs[0].log == runs[1].log
