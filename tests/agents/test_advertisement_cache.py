"""The cached advertisement plane against its uncached oracle.

An agent builds its Fig. 5 record once and re-issues it only when the
advertised freetime moves; the scheduler caches its per-node free vector
under a version bumped at every booking change.  After every event of a
run, every agent's ``service_info()`` must equal the record the uncached
construction (:mod:`tests.oracles.advertisement_reference`) derives from
scratch — across every local policy, every ``freetime_mode``, push
advertisement, a grey-combo chaos run, workflows, cancellation and a
mid-run checkpoint restore.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.net.message as message_module
from repro.experiments.config import ExperimentConfig
from repro.experiments.experiment7 import experiment7_cells
from repro.experiments.runner import Run
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.tasks.task import TaskState
from tests.oracles.advertisement_reference import (
    reference_freetime,
    reference_service_info,
)

MODES = ("makespan", "mean", "min")


def config(policy=SchedulingPolicy.GA, mode="makespan", **overrides) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"cache-{policy.value}-{mode}",
        policy=policy,
        agents_enabled=True,
        freetime_mode=mode,
        **{"request_count": 10, **overrides},
    )


class RecordChecker:
    """Compares every agent's record with the oracle; counts record reuse."""

    def __init__(self, run: Run) -> None:
        self.agents = list(run.system.agents.values())
        self.last = {}
        self.reused = 0
        self.checks = 0

    def __call__(self) -> None:
        for agent in self.agents:
            info = agent.service_info()
            expected = reference_service_info(agent)
            assert info == expected, (agent.name, info, expected)
            previous = self.last.get(agent.name)
            if previous is not None and previous.freetime == expected.freetime:
                # Unchanged freetime: the very same frozen record.
                assert info is previous, agent.name
                self.reused += 1
            self.last[agent.name] = info
            self.checks += 1


def drive_checked(run: Run, max_events: int = 20_000) -> RecordChecker:
    """Fire *run*'s events one at a time, checking every record after each."""
    check = RecordChecker(run)
    check()
    sim = run.system.sim
    fired = 0
    while not run._done() and fired < max_events and sim.step():
        fired += 1
        check()
    assert fired > 0
    assert check.reused > 0
    return check


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("policy", list(SchedulingPolicy), ids=lambda p: p.value)
def test_records_match_the_oracle_after_every_event(policy, mode):
    run = Run(config(policy, mode))
    drive_checked(run)
    assert run._done()


@pytest.mark.parametrize("policy", list(SchedulingPolicy), ids=lambda p: p.value)
def test_runtime_noise_matches_the_oracle(policy):
    """Actual runtimes drift from the bookings, so executor launches move
    the free vector on their own (without a scheduler-side change)."""
    drive_checked(Run(config(policy, runtime_noise=0.4)))


def test_push_advertisement_matches_the_oracle():
    drive_checked(Run(config(advertisement="push")))


def test_grey_combo_chaos_matches_the_oracle():
    spec = ScenarioSpec(
        name="cache-chaos",
        agent_count=20,
        request_count=16,
        chaos="grey-combo",
        master_seed=3,
    )
    scenario = generate_scenario(spec)
    run = Run(
        spec.config(),
        scenario.topology,
        mode="horizon",
        workload=list(scenario.workload),
    )
    drive_checked(run, max_events=3_000)


@pytest.mark.parametrize("cell", ["fork-join-uniform", "pipeline"])
def test_workflow_cell_matches_the_oracle(cell):
    (built,) = experiment7_cells(workflow_count=2, cells=(cell,))
    run = Run(built.config, built.topology, **built.run_options)
    drive_checked(run)
    assert run._done()


@pytest.mark.parametrize("mode", ["strict", "horizon"])
def test_restored_run_matches_the_oracle(mode, tmp_path):
    cfg = config(SchedulingPolicy.GA, request_count=16)
    if mode == "horizon":
        from repro.experiments.experiment4 import degradation_config

        cfg = degradation_config(cfg, loss=0.2, churn_rate=0.25)
    path = str(tmp_path / "snap.json")
    message_module.set_message_counter(0)
    Run(cfg, mode=mode).snapshot_at(400, path)
    drive_checked(Run.from_snapshot(path), max_events=6_000)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("policy", list(SchedulingPolicy), ids=lambda p: p.value)
def test_cancel_task_invalidates_the_free_vector(
    policy, mode, sim, small_resource, evaluator, make_request
):
    scheduler = LocalScheduler(
        sim,
        small_resource,
        evaluator,
        policy=policy,
        rng=np.random.default_rng(5),
        generations_per_event=3,
        freetime_mode=mode,
    )

    def check() -> None:
        assert scheduler.freetime() == reference_freetime(scheduler)

    tasks = [
        scheduler.submit(make_request(app, deadline_offset=60.0))
        for app in ("sweep3d", "fft", "improc", "closure", "jacobi", "memsort")
    ]
    check()
    sim.run(until=0.0)  # static policies launch their t=0 placements
    check()
    running = next(t for t in tasks if t.state is TaskState.RUNNING)
    queued = next(t for t in tasks if t.state is TaskState.QUEUED)
    scheduler.cancel_task(queued.task_id)
    check()
    scheduler.cancel_task(running.task_id)
    check()
    while sim.step():
        check()
    assert sim.now > 0.0


def test_unchanged_freetime_reuses_the_record():
    run = Run(config())
    agent = next(iter(run.system.agents.values()))
    first = agent.service_info()
    assert agent.service_info() is first
    assert first.with_freetime(first.freetime) is first
    moved = first.with_freetime(first.freetime + 1.0)
    assert moved is not first and replace(first, freetime=moved.freetime) == moved
