"""Tests for the agent/portal resilience layer (ACK, retry, TTL, churn)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.agents.advertisement import EventPushStrategy, PeriodicPullStrategy
from repro.agents.agent import Agent
from repro.agents.hierarchy import wire_hierarchy
from repro.agents.portal import UserPortal
from repro.agents.resilience import ResilienceConfig
from repro.errors import ValidationError
from repro.net.faults import FaultPlan, FaultPlanSpec, LinkFault
from repro.net.message import Endpoint, Message, MessageKind
from repro.net.payloads import RequestEnvelope
from repro.net.transport import Transport
from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import SGI_ORIGIN_2000, SUN_SPARC_STATION_2
from repro.pace.resource import ResourceModel
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.tasks.task import Environment, TaskRequest


class ResilientGrid:
    """Head A1 (fast) with children A2 (fast) and A3 (slow), ACK/retry on."""

    def __init__(
        self,
        sim,
        *,
        resilience: ResilienceConfig = ResilienceConfig(enabled=True),
        pull_interval: float = 10.0,
    ):
        self.sim = sim
        self.resilience = resilience
        self.transport = Transport(sim)
        self.evaluator = EvaluationEngine()
        platforms = {
            "A1": SGI_ORIGIN_2000,
            "A2": SGI_ORIGIN_2000,
            "A3": SUN_SPARC_STATION_2,
        }
        self.schedulers = {}
        agents = {}
        for i, (name, platform) in enumerate(platforms.items()):
            scheduler = LocalScheduler(
                sim,
                ResourceModel.homogeneous(name, platform, 4),
                self.evaluator,
                policy=SchedulingPolicy.GA,
                rng=np.random.default_rng(100 + i),
                generations_per_event=5,
            )
            self.schedulers[name] = scheduler
            agents[name] = Agent(
                name,
                Endpoint(f"{name.lower()}.grid", 1000 + i),
                scheduler,
                self.transport,
                advertisement=PeriodicPullStrategy(pull_interval),
                resilience=resilience,
            )
        self.agents = agents
        self.hierarchy = wire_hierarchy(agents, {"A1": None, "A2": "A1", "A3": "A1"})
        self.portal = UserPortal(self.transport, sim, resilience=resilience)
        self.hierarchy.start_all()

    def install_faults(self, spec: FaultPlanSpec) -> FaultPlan:
        names = {name: agent.endpoint for name, agent in self.agents.items()}
        names["portal"] = self.portal.endpoint
        plan = FaultPlan(spec, rng=np.random.default_rng(42), endpoints=names)
        self.transport.set_fault_plan(plan)
        return plan

    def run_for(self, seconds: float) -> None:
        """Fire every event in the next *seconds* and advance the clock."""
        self.sim.run_until(self.sim.now + seconds)


@pytest.fixture
def rgrid(sim):
    return ResilientGrid(sim)


class TestResilienceConfig:
    def test_defaults_disabled(self):
        cfg = ResilienceConfig()
        assert not cfg.enabled
        assert cfg.registry_ttl is None

    def test_validation(self):
        with pytest.raises(ValidationError):
            ResilienceConfig(ack_timeout=0.0)
        with pytest.raises(ValidationError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValidationError):
            ResilienceConfig(backoff_base=0.5)
        with pytest.raises(ValidationError):
            ResilienceConfig(registry_ttl=0.0)

    def test_timeout_backoff(self):
        cfg = ResilienceConfig(ack_timeout=2.0, backoff_base=3.0)
        assert cfg.timeout_for(0) == 2.0
        assert cfg.timeout_for(1) == 6.0
        assert cfg.timeout_for(2) == 18.0


class TestAckFlow:
    def test_request_is_acknowledged(self, sim, rgrid, specs):
        rid = rgrid.portal.submit(
            rgrid.agents["A1"], specs["sweep3d"].model, Environment.TEST, sim.now + 500
        )
        rgrid.run_for(1.0)
        assert rgrid.agents["A1"].stats.acks_sent >= 1
        assert rgrid.portal.stats.acks_received >= 1
        assert rgrid.portal.pending_ack_count == 0
        rgrid.run_for(200.0)
        assert rgrid.portal.result(rid).success

    def test_disabled_layer_sends_no_acks(self, sim, specs):
        grid = ResilientGrid(sim, resilience=ResilienceConfig())
        grid.portal.submit(
            grid.agents["A1"], specs["sweep3d"].model, Environment.TEST, sim.now + 500
        )
        grid.run_for(200.0)
        assert all(a.stats.acks_sent == 0 for a in grid.agents.values())
        assert grid.portal.stats.acks_received == 0

    def test_duplicate_request_deduplicated(self, sim, rgrid, specs):
        a1 = rgrid.agents["A1"]
        acks = []
        sender = Endpoint("tester", 9999)
        rgrid.transport.register(sender, acks.append)
        envelope = RequestEnvelope(
            request_id=12345,
            request=TaskRequest(
                application=specs["sweep3d"].model,
                environment=Environment.TEST,
                deadline=sim.now + 500,
                submit_time=sim.now,
            ),
            reply_to=sender,
        )
        for _ in range(2):
            rgrid.transport.send(
                Message(MessageKind.REQUEST, sender, a1.endpoint, payload=envelope)
            )
        rgrid.run_for(1.0)
        assert a1.stats.requests_seen == 1
        assert a1.stats.duplicates_ignored == 1
        # Both copies are acknowledged: a retransmission means the first
        # ACK was lost in flight.
        assert a1.stats.acks_sent == 2
        assert sum(1 for m in acks if m.kind is MessageKind.ACK) == 2


class TestRetryAndReroute:
    def test_black_holed_forward_is_retried_and_absorbed(self, sim, rgrid, specs):
        # A3 (slow) forwards tight-deadline work to A1; black-hole that
        # link so the forward vanishes without a transport error.
        rgrid.install_faults(
            FaultPlanSpec(link_faults=(LinkFault("A3", "A1", 1.0),))
        )
        rgrid.run_for(1.0)  # let the initial pulls warm the registries
        a3 = rgrid.agents["A3"]
        rid = rgrid.portal.submit(
            a3, specs["sweep3d"].model, Environment.TEST, sim.now + 30.0
        )
        rgrid.run_for(300.0)
        assert a3.stats.retries >= 1
        # With its only neighbour (the parent) exhausted, A3 absorbs the
        # request rather than losing it.
        assert a3.stats.gave_up >= 1
        assert a3.stats.submitted_locally == 1
        result = rgrid.portal.result(rid)
        assert result is not None and result.success

    def test_ack_clears_pending_timer(self, sim, rgrid, specs):
        rgrid.run_for(1.0)
        a3 = rgrid.agents["A3"]
        rgrid.portal.submit(
            a3, specs["sweep3d"].model, Environment.TEST, sim.now + 30.0
        )
        rgrid.run_for(300.0)
        # Healthy links: the forward was acknowledged, nothing retried.
        assert a3.pending_ack_count == 0
        assert a3.stats.retries == 0

    def test_forwarding_twice_leaves_one_live_timer(self, sim, rgrid, specs):
        """A request that comes back through an agent and is forwarded again
        supersedes the first forward's ack timer instead of orphaning it."""
        a1 = rgrid.agents["A1"]
        a2 = rgrid.agents["A2"].endpoint
        # Black-hole the forwards so no ACK cancels either timer.
        rgrid.install_faults(FaultPlanSpec(link_faults=(LinkFault("A1", "A2", 1.0),)))
        envelope = RequestEnvelope(
            request_id=4242,
            request=TaskRequest(
                application=specs["sweep3d"].model,
                environment=Environment.TEST,
                deadline=sim.now + 500,
                submit_time=sim.now,
            ),
            reply_to=rgrid.portal.endpoint,
        )
        for hops in (0, 2):
            assert a1.forward_request(envelope, hops, a2, exclude=frozenset(), attempt=0)

        def live_timers():
            return [
                event
                for heap in sim._lanes.values()
                for *_, event in heap
                if event.label == "ack-timeout-A1-4242" and not event.cancelled
            ]

        assert a1.pending_ack_count == 1
        assert len(live_timers()) == 1
        assert live_timers()[0] is a1._pending_acks[4242].handle
        # The surviving timer belongs to the second forward: it fires once,
        # and retries exactly once.
        sim.run_until(sim.now + rgrid.resilience.timeout_for(0))
        assert a1.stats.retries == 1


class TestRegistryTTL:
    def test_stale_records_expire(self, sim, specs):
        grid = ResilientGrid(
            sim,
            resilience=ResilienceConfig(enabled=True, registry_ttl=5.0),
            pull_interval=1000.0,  # never refreshed after the warm-up pull
        )
        grid.run_for(1.0)
        a3 = grid.agents["A3"]
        assert len(a3.registry) > 0
        grid.run_for(20.0)  # clock now far past the TTL
        grid.portal.submit(
            a3, specs["sweep3d"].model, Environment.TEST, sim.now + 30.0
        )
        grid.run_for(1.0)
        assert a3.stats.registry_expired >= 1
        assert len(a3.registry) == 0

    def test_ttl_applies_with_ack_layer_disabled(self, sim, specs):
        grid = ResilientGrid(
            sim,
            resilience=ResilienceConfig(enabled=False, registry_ttl=5.0),
            pull_interval=1000.0,
        )
        grid.run_for(30.0)
        a3 = grid.agents["A3"]
        grid.portal.submit(
            a3, specs["sweep3d"].model, Environment.TEST, sim.now + 30.0
        )
        grid.run_for(1.0)
        assert a3.stats.registry_expired >= 1


class TestCrashAndRestart:
    def test_deactivate_is_idempotent(self, sim, rgrid):
        a2 = rgrid.agents["A2"]
        a2.deactivate()
        assert not a2.active
        assert not rgrid.transport.is_registered(a2.endpoint)
        a2.deactivate()  # no-op, no raise
        assert not a2.active

    def test_reactivate_is_inverse_and_idempotent(self, sim, rgrid):
        a2 = rgrid.agents["A2"]
        a2.deactivate()
        a2.reactivate()
        assert a2.active
        assert rgrid.transport.is_registered(a2.endpoint)
        a2.reactivate()  # no-op
        assert a2.active
        # The restarted pull strategy warms the registry again.
        rgrid.run_for(1.0)
        assert len(a2.registry) > 0

    def test_crash_cancels_pending_ack_timers(self, sim, rgrid, specs):
        rgrid.install_faults(
            FaultPlanSpec(link_faults=(LinkFault("A3", "A1", 1.0),))
        )
        rgrid.run_for(1.0)
        a3 = rgrid.agents["A3"]
        rgrid.portal.submit(
            a3, specs["sweep3d"].model, Environment.TEST, sim.now + 30.0
        )
        rgrid.run_for(0.5)  # REQUEST forwarded, ACK timer armed
        if a3.pending_ack_count == 0:
            pytest.skip("forward did not arm a timer under this workload")
        a3.deactivate()
        assert a3.pending_ack_count == 0
        rgrid.run_for(60.0)  # well past every backoff timeout
        assert a3.stats.retries == 0  # cancelled timer never fired

    def test_stop_before_start_is_noop(self, sim, evaluator):
        scheduler = LocalScheduler(
            sim,
            ResourceModel.homogeneous("X", SGI_ORIGIN_2000, 2),
            evaluator,
            policy=SchedulingPolicy.FIFO,
        )
        transport = Transport(sim)
        agent = Agent(
            "X",
            Endpoint("x.grid", 1500),
            scheduler,
            transport,
            advertisement=PeriodicPullStrategy(10.0),
        )
        agent.stop()  # never started: no-op
        agent.deactivate()
        agent.deactivate()

    def test_restart_forgets_seen_forwards(self, sim, rgrid, specs):
        """A restarted agent must process a retransmitted REQUEST.

        Regression: ``_seen_forwards`` used to survive deactivate(), so a
        sender retrying a forward across the target's crash window got an
        ACK (the retransmission was "known") while the request itself was
        silently discarded as a duplicate — acknowledged but never run.  A
        restart is a new process with no memory of pre-crash traffic.
        """
        a1 = rgrid.agents["A1"]
        sender = Endpoint("tester", 9999)
        acks = []
        rgrid.transport.register(sender, acks.append)
        envelope = RequestEnvelope(
            request_id=777,
            request=TaskRequest(
                application=specs["sweep3d"].model,
                environment=Environment.TEST,
                deadline=sim.now + 500,
                submit_time=sim.now,
            ),
            reply_to=sender,
        )

        def retransmit():
            rgrid.transport.send(
                Message(MessageKind.REQUEST, sender, a1.endpoint, payload=envelope)
            )

        retransmit()
        rgrid.run_for(1.0)
        assert a1.stats.requests_seen == 1

        a1.deactivate()
        a1.reactivate()
        retransmit()  # same (sender, request_id, hops) dedup key
        rgrid.run_for(1.0)
        assert a1.stats.requests_seen == 2  # processed, not swallowed
        assert a1.stats.duplicates_ignored == 0
        assert sum(1 for m in acks if m.kind is MessageKind.ACK) == 2

    def test_event_push_restart_does_not_double_subscribe(self, sim, evaluator):
        scheduler = LocalScheduler(
            sim,
            ResourceModel.homogeneous("X", SGI_ORIGIN_2000, 2),
            evaluator,
            policy=SchedulingPolicy.FIFO,
        )
        transport = Transport(sim)
        agent = Agent(
            "X",
            Endpoint("x.grid", 1500),
            scheduler,
            transport,
            advertisement=EventPushStrategy(min_interval=0.0),
        )
        agent.start()
        before = len(scheduler._service_listeners)
        agent.deactivate()
        agent.reactivate()
        assert len(scheduler._service_listeners) == before


class TestPortalResilience:
    def test_submit_to_crashed_agent_retries_after_restart(self, sim, rgrid, specs):
        a2 = rgrid.agents["A2"]
        a2.deactivate()
        rid = rgrid.portal.submit(
            a2, specs["sweep3d"].model, Environment.TEST, sim.now + 500.0
        )
        assert rgrid.portal.stats.submit_failures >= 1
        sim.schedule_in(4.0, a2.reactivate)
        rgrid.run_for(300.0)
        result = rgrid.portal.result(rid)
        assert result is not None and result.success
        assert rgrid.portal.stats.retries >= 1

    def test_submit_to_dead_agent_gives_up_with_failure(self, sim, rgrid, specs):
        a2 = rgrid.agents["A2"]
        a2.deactivate()
        rid = rgrid.portal.submit(
            a2, specs["sweep3d"].model, Environment.TEST, sim.now + 500.0
        )
        rgrid.run_for(600.0)  # past every backoff
        result = rgrid.portal.result(rid)
        assert result is not None and not result.success
        assert rgrid.portal.stats.gave_up == 1
        assert rgrid.portal.pending_count == 0

    def test_disabled_portal_raises_on_dead_target(self, sim, specs):
        grid = ResilientGrid(sim, resilience=ResilienceConfig())
        grid.agents["A2"].deactivate()
        from repro.errors import TransportError

        with pytest.raises(TransportError):
            grid.portal.submit(
                grid.agents["A2"], specs["sweep3d"].model, Environment.TEST, 500.0
            )


class TestForwardDedupBounds:
    """The dedup map must stay bounded over long uptimes (cap + TTL)."""

    def make_agent(self, sim, **kwargs):
        grid = ResilientGrid(
            sim, resilience=ResilienceConfig(enabled=True, **kwargs)
        )
        return grid.agents["A2"]

    @staticmethod
    def key(i: int):
        return (Endpoint(f"peer{i % 97}.grid", 2000 + i % 97), i, 0)

    def test_10k_soak_stays_at_the_cap(self, sim):
        """Regression: 10k distinct forwards must not grow the map unboundedly."""
        agent = self.make_agent(sim, dedup_cap=512)
        for i in range(10_000):
            assert not agent._remember_forward(self.key(i))  # noqa: SLF001
        seen = agent._seen_forwards  # noqa: SLF001 - bound under test
        assert len(seen) == 512
        # Least-recently-seen keys were the ones evicted.
        assert set(seen) == {self.key(i) for i in range(9_488, 10_000)}
        # A key past the cap horizon is treated as brand-new work...
        assert not agent._remember_forward(self.key(0))  # noqa: SLF001
        # ...while a recent key is still recognised as a duplicate.
        assert agent._remember_forward(self.key(9_999))  # noqa: SLF001

    def test_duplicate_refreshes_recency(self, sim):
        agent = self.make_agent(sim, dedup_cap=8)
        for i in range(8):
            agent._remember_forward(self.key(i))  # noqa: SLF001
        assert agent._remember_forward(self.key(0))  # noqa: SLF001 - refresh
        agent._remember_forward(self.key(100))  # noqa: SLF001 - evicts key(1)
        assert agent._remember_forward(self.key(0))  # noqa: SLF001 - survived
        assert not agent._remember_forward(self.key(1))  # noqa: SLF001

    def test_ttl_expires_old_keys(self, sim):
        agent = self.make_agent(sim, dedup_ttl=5.0)
        agent._remember_forward(self.key(1))  # noqa: SLF001
        sim.schedule_in(6.0, lambda: None)
        sim.run_until(6.0)
        # Past the window: the retransmission counts as new work again.
        assert not agent._remember_forward(self.key(1))  # noqa: SLF001
        assert len(agent._seen_forwards) == 1  # noqa: SLF001

    def test_unbounded_default_still_dedups(self, sim):
        agent = self.make_agent(sim)
        assert not agent._remember_forward(self.key(3))  # noqa: SLF001
        assert agent._remember_forward(self.key(3))  # noqa: SLF001
