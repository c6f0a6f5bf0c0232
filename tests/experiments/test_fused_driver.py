"""The fused run driver stops exactly where a per-event loop stops.

:meth:`Run._advance` drives ``Engine.run`` in chunks bounded by the next
hook boundary, and a portal result listener halts a chunk on the event
that makes the stop predicate true.  The oracle
(:class:`tests.oracles.driver_reference.PerEventRun`) steps one event at a
time and re-checks everything after each.  Every mode and hook must end at
the same ``fired_count`` with identical outputs and identical snapshots.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace

import pytest

import repro.net.message as message_module
from repro.checkpoint.format import read_snapshot
from repro.experiments.config import ExperimentConfig
from repro.experiments.experiment4 import degradation_config, experiment4_base_config
from repro.experiments.experiment7 import experiment7_cells
from repro.experiments.runner import Run
from repro.scheduling.scheduler import SchedulingPolicy
from repro.sim.engine import Engine
from tests.oracles.driver_reference import PerEventRun
from tests.oracles.engine_reference import SingleHeapEngine

DRIVERS = {"fused": Run, "per-event": PerEventRun}


def strict_config(seed: int = 2003, requests: int = 12) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"fused-{seed}",
        policy=SchedulingPolicy.GA,
        agents_enabled=True,
        request_count=requests,
        master_seed=seed,
    )


def horizon_config(seed: int = 2003) -> ExperimentConfig:
    return degradation_config(
        experiment4_base_config(master_seed=seed, request_count=20),
        loss=0.2,
        churn_rate=0.25,
    )


#: (mode, config, extra Run options) of every driven shape.
CASES = {
    "strict": ("strict", strict_config(), {}),
    "strict-fifo": ("strict", replace(strict_config(7), policy=SchedulingPolicy.FIFO), {}),
    "horizon": ("horizon", horizon_config(), {}),
    "soak": ("soak", strict_config(11, requests=20), {"window_seconds": 7.0}),
}


def outputs(run, result) -> dict:
    """Everything a run reports, in a comparable form."""
    return {
        "steps": result.steps,
        "fired": run.system.sim.fired_count,
        "end_time": result.end_time,
        "records": [asdict(r) for r in result.records],
        # NaN epsilons for idle resources: compare JSON text, not floats.
        "metrics": json.dumps(asdict(result.metrics), sort_keys=True),
        "rng_digest": result.rng_digest,
        "messages": result.messages_sent,
        "windows": [asdict(w) for w in result.windows],
        "outcome": (result.succeeded, result.failed, result.unresolved),
    }


def drive(driver, mode, config, topology=None, **options):
    message_module.set_message_counter(0)
    run = DRIVERS[driver](config, topology, mode=mode, **options)
    return outputs(run, run.execute())


def resume_with(driver, path):
    """:func:`repro.experiments.runner.resume` through the chosen driver."""
    run = DRIVERS[driver].from_snapshot(path)
    return outputs(run, run.execute())


@pytest.mark.parametrize("case", sorted(CASES))
def test_stops_at_the_per_event_fired_count(case):
    mode, config, options = CASES[case]
    fused = drive("fused", mode, config, **options)
    oracle = drive("per-event", mode, config, **options)
    assert fused["fired"] == oracle["fired"] == fused["steps"]
    assert fused == oracle


@pytest.mark.parametrize("cell", ["fork-join-uniform", "pipeline"])
def test_workflow_run_stops_at_the_per_event_fired_count(cell):
    (built,) = experiment7_cells(workflow_count=3, cells=(cell,))
    fused, oracle = (
        drive(driver, "strict", built.config, topology=built.topology, **built.run_options)
        for driver in DRIVERS
    )
    assert fused["fired"] == oracle["fired"] == fused["steps"]
    assert fused == oracle


@pytest.mark.parametrize("case", sorted(CASES))
def test_checkpoint_every_writes_the_same_snapshots(case, tmp_path):
    mode, config, options = CASES[case]
    written = {}
    for driver in DRIVERS:
        path = tmp_path / f"{driver}.json"
        result = drive(
            driver, mode, config, checkpoint_every=97, checkpoint_path=str(path), **options
        )
        written[driver] = (result, path.read_bytes())
    assert written["fused"] == written["per-event"]


@pytest.mark.parametrize("case", sorted(CASES))
def test_snapshot_at_lands_on_the_same_event(case, tmp_path):
    mode, config, options = CASES[case]
    digests, resumed = {}, {}
    for driver in DRIVERS:
        path = str(tmp_path / f"{driver}.json")
        message_module.set_message_counter(0)
        digests[driver] = DRIVERS[driver](config, mode=mode, **options).snapshot_at(
            301, path
        )
        assert read_snapshot(path)["steps"] == 301
        resumed[driver] = resume_with(driver, path)
    assert digests["fused"] == digests["per-event"]
    assert resumed["fused"] == resumed["per-event"]
    assert resumed["fused"] == drive("fused", mode, config, **options)


def test_single_heap_engine_serves_the_fused_driver(monkeypatch):
    """The oracle engine speaks the same ``run``/``halt`` interface."""
    import repro.experiments.runner as runner

    mode, config, options = CASES["soak"]
    expected = drive("fused", mode, config, **options)
    monkeypatch.setattr(runner, "Engine", SingleHeapEngine)
    assert drive("fused", mode, config, **options) == expected


class TestEngineBounds:
    def engine(self, engine_cls):
        engine = engine_cls()
        log = []
        for t in (1.0, 2.0, 2.0, 3.0, 5.0):
            engine.schedule(t, lambda t=t: log.append(t))
        return engine, log

    @pytest.mark.parametrize("engine_cls", [Engine, SingleHeapEngine])
    def test_until_leaves_later_events_queued(self, engine_cls):
        engine, log = self.engine(engine_cls)
        assert engine.run(until=2.0) == 3
        assert log == [1.0, 2.0, 2.0] and engine.pending == 2
        assert engine.next_event_time() == 3.0

    @pytest.mark.parametrize("engine_cls", [Engine, SingleHeapEngine])
    def test_halt_at_fires_the_first_event_at_or_past_it(self, engine_cls):
        engine, log = self.engine(engine_cls)
        assert engine.run(halt_at=2.5) == 4
        assert log == [1.0, 2.0, 2.0, 3.0] and engine.now == 3.0

    @pytest.mark.parametrize("engine_cls", [Engine, SingleHeapEngine])
    def test_halt_from_a_callback_stops_after_that_event(self, engine_cls):
        engine = engine_cls()
        log = []
        engine.schedule(1.0, lambda: log.append("a"))
        engine.schedule(2.0, lambda: (log.append("b"), engine.halt()))
        engine.schedule(2.0, lambda: log.append("c"))
        assert engine.run() == 2 and log == ["a", "b"]
        # A new run starts un-halted.
        assert engine.run() == 1 and log == ["a", "b", "c"]

    def test_bounds_mid_cascade_keep_the_index_consistent(self):
        """A bound that trips while the fused loop carries a same-lane
        cascade leaves the lane-head index valid for the next run."""
        engine = Engine()
        view = engine.lane_view("x")
        log = []

        def cascade(n):
            log.append(n)
            if n < 5:
                view.schedule(engine.now + 1.0, lambda: cascade(n + 1))

        view.schedule(0.0, lambda: cascade(0))
        engine.schedule(10.0, lambda: log.append("late"))
        assert engine.run(until=2.5) == 3
        assert engine.run(halt_at=3.0) == 1
        assert engine.run(max_events=1) == 1
        assert engine.run() == 2
        assert log == [0, 1, 2, 3, 4, 5, "late"]
