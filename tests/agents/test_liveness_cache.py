"""The cached liveness plane against its uncached oracle.

An agent caches the set of its neighbours' endpoints (the failure
detector's membership test) and the next-of-kin gossip its child-bound
heartbeats carry, and drops both at every link mutation.  After every
event of a run, every agent's cached values must equal what the uncached
construction (:mod:`tests.oracles.liveness_reference`) reads off the
current links — under grey-combo and coordinator-churn chaos with
self-healing re-parenting agents, across ``Hierarchy.rewire`` and after a
mid-run checkpoint restore.
"""

from __future__ import annotations

import pytest

import repro.net.message as message_module
from repro.agents.agent import Agent
from repro.experiments.runner import Run
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
from tests.oracles.liveness_reference import (
    reference_is_neighbour,
    reference_kin_info,
    reference_neighbour_endpoints,
)


class LivenessChecker:
    """Compares every agent's liveness caches with the oracle."""

    def __init__(self, agents) -> None:
        self.agents = list(agents)
        self.endpoints = [agent.endpoint for agent in self.agents]
        self.moves = 0
        self._links = {}

    def __call__(self) -> None:
        for agent in self.agents:
            endpoints = agent.neighbour_endpoints()
            assert endpoints == reference_neighbour_endpoints(agent), agent.name
            expected_kin = reference_kin_info(agent)
            if expected_kin is not None:
                assert agent.kin_info() == expected_kin, agent.name
            links = (agent.parent, tuple(agent.children))
            if self._links.get(agent.name, links) != links:
                self.moves += 1
            self._links[agent.name] = links

    def check_membership_test(self) -> None:
        """The detector's set lookup answers like the oracle's scan."""
        for agent in self.agents:
            endpoints = agent.neighbour_endpoints()
            for endpoint in self.endpoints:
                assert (endpoint in endpoints) == reference_is_neighbour(
                    agent, endpoint
                ), (agent.name, endpoint)


def drive_checked(run: Run, max_events: int) -> LivenessChecker:
    """Fire *run*'s events one at a time, checking every agent after each."""
    check = LivenessChecker(run.system.agents.values())
    check()
    check.check_membership_test()
    sim = run.system.sim
    fired = 0
    while not run._done() and fired < max_events and sim.step():
        fired += 1
        check()
    check.check_membership_test()
    assert fired > 0
    return check


def chaos_run(chaos: str, seed: int, agents: int = 30, requests: int = 24) -> Run:
    spec = ScenarioSpec(
        name=f"liveness-{chaos}",
        agent_count=agents,
        request_count=requests,
        chaos=chaos,
        master_seed=seed,
    )
    scenario = generate_scenario(spec)
    return Run(
        spec.config(),
        scenario.topology,
        mode="horizon",
        workload=list(scenario.workload),
    )


def healed(run: Run) -> int:
    return sum(
        agent.healer.stats.adoptions_completed + agent.healer.stats.promotions
        for agent in run.system.agents.values()
    )


@pytest.mark.parametrize("chaos", ["grey-combo", "coordinator-churn"])
def test_caches_match_the_oracle_through_healing(chaos):
    run = chaos_run(chaos, seed=3)
    check = drive_checked(run, max_events=60_000)
    # Links really moved: confirmed-dead peers were severed and orphans
    # re-parented, so the caches were dropped and rebuilt mid-run.
    assert check.moves > 0
    assert healed(run) > 0


def test_rewire_drops_every_affected_cache():
    run = chaos_run("grey-combo", seed=5)
    check = drive_checked(run, max_events=2_000)
    hierarchy = run.system.hierarchy
    head = hierarchy.head
    mover = next(
        a for a in hierarchy if a.parent is not None and a.parent is not head
    )
    old_parent = mover.parent
    hierarchy.rewire(mover.name, head.name)
    assert mover.parent is head and mover not in old_parent.children
    check()
    check.check_membership_test()
    assert check.moves >= 3  # the mover, its old parent and the head
    drive_checked(run, max_events=4_000)


@pytest.mark.parametrize("chaos", ["grey-combo", "coordinator-churn"])
def test_restored_run_matches_the_oracle(chaos, tmp_path, monkeypatch):
    path = str(tmp_path / "snap.json")
    message_module.set_message_counter(0)
    snapshotted = chaos_run(chaos, seed=3)
    snapshotted.snapshot_at(3_000, path)
    # The snapshot sits after a repair: restore must re-wire the links.
    built = chaos_run(chaos, seed=3).system.agents
    assert any(
        reference_neighbour_endpoints(agent)
        != reference_neighbour_endpoints(built[name])
        for name, agent in snapshotted.system.agents.items()
    )

    restore = Agent.restore_state

    def restore_warm(agent, state, **kwargs):
        # Fill the caches from the freshly built links first, so a restore
        # that re-wires without dropping them leaves them stale.
        agent.neighbour_endpoints()
        agent.kin_info()
        restore(agent, state, **kwargs)

    monkeypatch.setattr(Agent, "restore_state", restore_warm)
    restored = Run.from_snapshot(path)
    drive_checked(restored, max_events=40_000)


def test_heartbeats_reuse_the_gossip_until_a_link_moves():
    run = chaos_run("grey-combo", seed=5)
    coordinator = next(a for a in run.system.agents.values() if a.children)
    kin = coordinator.kin_info()
    assert coordinator.kin_info() is kin
    endpoints = coordinator.neighbour_endpoints()
    assert coordinator.neighbour_endpoints() is endpoints
    child = coordinator.children[-1]
    coordinator._remove_child(child)  # noqa: SLF001 - wiring
    assert coordinator.kin_info() == reference_kin_info(coordinator)
    assert child.endpoint not in coordinator.neighbour_endpoints()
