"""Wiring the grid and running it: one :class:`Run` drives every experiment.

:func:`build_grid` assembles the full system for a configuration — one
shared discrete-event engine and transport, one PACE evaluation engine (one
shared cache, as §2.2 describes), a scheduler + executor + monitor + agent
per resource, the Fig. 7 hierarchy, and a user portal.  :class:`Run` arms
a seeded workload and the config's churn timers on it, runs the engine
until its stop predicate holds, and reduces the outcome to the §3.3
metrics.  Its ``mode`` fixes the two behaviours that change outputs:

* ``strict`` — stop when every request has a result, raise if the event
  queue drains first; the metrics horizon is the latest completion.
* ``horizon`` — requests may end unresolved.  Phase 1 runs until every
  request resolves or the clock would pass the last deadline; then churn
  is cancelled, periodic processes stop, and a drain phase settles
  in-flight work.  The metrics horizon is the final clock.
* ``soak`` — a strict run that also closes fixed-width windows of
  simulated time as it goes (:class:`SoakWindow`).

Hooks fire only at their boundaries (every N events, a window end), and a
snapshot carries their state, so :func:`resume` continues any run
byte-identically to the uninterrupted one.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.agents.advertisement import (
    AdvertisementStrategy,
    EventPushStrategy,
    NoAdvertisement,
    PeriodicPullStrategy,
)
from repro.agents.agent import Agent, AgentStats
from repro.agents.hierarchy import Hierarchy, wire_hierarchy
from repro.agents.portal import UserPortal
from repro.errors import CheckpointError, ExperimentError, TransportError
from repro.experiments.casestudy import GridTopology, case_study_topology
from repro.experiments.config import ExperimentConfig
from repro.experiments.workload import WorkloadItem, generate_workload
from repro.metrics.balancing import GridMetrics, compute_metrics
from repro.metrics.records import (
    CompletionRecord,
    ResilienceCounters,
    records_from_tasks,
)
from repro.net.faults import PORTAL_NAME, ChurnSchedule, FaultPlan
from repro.net.message import Endpoint
from repro.net.transport import Transport
from repro.obs.trace import Tracer
from repro.pace.cache import CacheStats
from repro.pace.evaluation import EvaluationEngine
from repro.pace.resource import ResourceModel
from repro.pace.workloads import ApplicationSpec, paper_application_specs
from repro.scheduling.scheduler import LocalScheduler
from repro.sim.engine import Engine
from repro.sim.events import Priority
from repro.tasks.execution import ExecutionMode
from repro.tasks.task import Environment
from repro.tasks.workflow import WorkflowCoordinator
from repro.utils.rng import RngRegistry

__all__ = [
    "MODES",
    "GridSystem",
    "MembershipSummary",
    "SoakWindow",
    "ExperimentResult",
    "DegradedRun",
    "Run",
    "build_grid",
    "write_checkpoint",
    "resume",
    "run_experiment",
    "run_degraded",
    "checkpoint_degraded",
    "resume_degraded",
]

#: The run modes (see the module docstring).
MODES = ("strict", "horizon", "soak")

#: Hard ceiling on simulation events per experiment — a liveness backstop,
#: far above any legitimate run (the full case study fires ~10^5 events).
MAX_EVENTS = 20_000_000

@dataclass
class GridSystem:
    """A fully wired grid ready to receive requests."""

    config: ExperimentConfig
    topology: GridTopology
    sim: Engine
    transport: Transport
    evaluator: EvaluationEngine
    schedulers: Dict[str, LocalScheduler]
    agents: Dict[str, Agent]
    hierarchy: Hierarchy
    portal: UserPortal
    specs: Mapping[str, ApplicationSpec]
    rngs: Optional[RngRegistry] = None
    tracer: Optional[Tracer] = None

    def start(self) -> None:
        """Activate advertisement strategies and resource monitors."""
        self.hierarchy.start_all()
        for scheduler in self.schedulers.values():
            scheduler.monitor.start()

    def stop(self) -> None:
        """Deactivate periodic processes so the event queue can drain."""
        self.hierarchy.stop_all()
        for scheduler in self.schedulers.values():
            scheduler.monitor.stop()


@dataclass(frozen=True)
class MembershipSummary:
    """Grid-wide failure-detection and self-healing totals for one run."""

    suspects: int = 0
    recoveries: int = 0
    confirms: int = 0
    heartbeats_sent: int = 0
    orphaned: int = 0
    adoptions_completed: int = 0
    promotions: int = 0
    rejoins: int = 0
    give_ups: int = 0
    repair_count: int = 0
    mean_repair_seconds: float = 0.0

    @classmethod
    def from_system(cls, system: GridSystem) -> "MembershipSummary":
        """Aggregate every agent's detector and healer stats (disjoint names)."""
        parts = [
            part
            for agent in system.agents.values()
            for part in (agent.detector, agent.healer)
            if part is not None
        ]
        durations = [d for part in parts for d in getattr(part, "repair_durations", ())]
        counts = {
            f.name: sum(getattr(part.stats, f.name, 0) for part in parts)
            for f in fields(cls)
            if f.name not in ("repair_count", "mean_repair_seconds")
        }
        mean = sum(durations) / len(durations) if durations else 0.0
        return cls(repair_count=len(durations), mean_repair_seconds=mean, **counts)


@dataclass(frozen=True)
class SoakWindow:
    """Summary of one ``[start, end)`` slice of simulated time."""

    index: int
    start: float
    end: float
    completed: int
    failed: int
    deadline_met: int
    #: Mean ``completion − submit`` over the window's completions (0 when empty).
    mean_response: float
    #: Completions per unit of simulated time.
    throughput: float


@dataclass
class ExperimentResult:
    """Everything one run produced."""

    config: ExperimentConfig
    metrics: GridMetrics
    records: List[CompletionRecord]
    workload: List[WorkloadItem]
    agent_stats: Dict[str, AgentStats]
    cache_stats: CacheStats
    messages_sent: int
    rejected_count: int
    wall_seconds: float
    messages_delivered: int = 0
    #: sha256 over every named RNG stream's final state (see
    #: :meth:`repro.utils.rng.RngRegistry.state_digest`) — the witness the
    #: tracing-changes-nothing property tests compare.
    rng_digest: str = ""
    #: Requests the portal sent, and how each ended (unresolved: no result).
    submitted: int = 0
    succeeded: int = 0
    failed: int = 0
    unresolved: int = 0
    deadline_met: int = 0
    counters: ResilienceCounters = field(default_factory=ResilienceCounters)
    crashes: int = 0
    restarts: int = 0
    fault_dropped: int = 0
    #: ``None`` when the membership layer was disabled for the run.
    membership: Optional[MembershipSummary] = None
    #: Engine events fired, and the clock when the run stopped.
    steps: int = 0
    end_time: float = 0.0
    #: The soak windows, oldest first (empty unless ``mode="soak"``).
    windows: List[SoakWindow] = field(default_factory=list)

    @property
    def horizon(self) -> float:
        """The metrics observation period ``t``."""
        return self.metrics.horizon

    @property
    def result(self) -> "ExperimentResult":
        """The result itself, for callers of the former two-level degraded run."""
        return self

    @property
    def completion_rate(self) -> float:
        """Requests that produced a successful result / requests submitted."""
        return self.succeeded / self.submitted if self.submitted else 0.0

    @property
    def deadline_met_rate(self) -> float:
        """Requests completed by their deadline / requests submitted."""
        return self.deadline_met / self.submitted if self.submitted else 0.0


#: The degraded-run result is the one result type.
DegradedRun = ExperimentResult


def build_grid(
    config: ExperimentConfig,
    topology: Optional[GridTopology] = None,
    *,
    tracer: Optional[Tracer] = None,
) -> GridSystem:
    """Assemble the full system for *config* (default: the Fig. 7 grid).

    Passing a :class:`~repro.obs.trace.Tracer` threads it through every
    layer — engine, transport, schedulers, GA kernels, agents, and the
    portal.  ``tracer=None`` (the default) leaves every emission site a
    single pointer comparison; a traced run's outputs are byte-identical
    either way (property-tested).
    """
    topo = topology if topology is not None else case_study_topology()
    rngs = RngRegistry(config.master_seed)
    sim = Engine(tracer=tracer)
    transport = Transport(sim, tracer=tracer)
    evaluator = EvaluationEngine(
        noise_factor=config.prediction_noise,
        rng=rngs.stream("prediction-noise") if config.prediction_noise > 0 else None,
    )
    specs = paper_application_specs()
    schedulers: Dict[str, LocalScheduler] = {}
    agents: Dict[str, Agent] = {}
    # The jitter stream exists only when the knob is on: stream creation
    # alone perturbs the registry digest, and jitter-off must stay
    # byte-identical to the seed.
    jitter_rng = (
        rngs.stream("backoff-jitter") if config.resilience.backoff_jitter > 0 else None
    )
    for i, name in enumerate(topo.agent_names):
        resource = ResourceModel.homogeneous(
            name, topo.platform(name), topo.nproc[name]
        )
        # A straggler node's tasks run slower than their PACE predictions
        # (grey failure): the fault spec's service factor becomes a
        # constant background load on the execution engine.
        service_factor = (
            config.faults.service_factor_for(name) if config.faults is not None else 1.0
        )
        # Each cluster's scheduler (and its executor, monitor, and agent
        # timers downstream) schedules through its own event lane; only
        # cross-cluster traffic shares the default lane.
        scheduler = LocalScheduler(
            sim.lane_view(name),
            resource,
            evaluator,
            policy=config.policy,
            rng=rngs.stream(f"ga-{name}"),
            ga_config=config.ga_config,
            generations_per_event=config.generations_per_event,
            execution_mode=(
                ExecutionMode.SIMULATED
                if config.runtime_noise > 0
                else ExecutionMode.TEST
            ),
            runtime_noise=config.runtime_noise,
            execution_rng=(
                rngs.stream(f"exec-{name}") if config.runtime_noise > 0 else None
            ),
            monitor_poll_interval=config.monitor_poll_interval,
            freetime_mode=config.freetime_mode,
            tracer=tracer,
            load_profile=(
                (lambda t, _load=service_factor - 1.0: _load)
                if service_factor > 1.0
                else None
            ),
        )
        schedulers[name] = scheduler
        agents[name] = Agent(
            name,
            Endpoint(f"{name.lower()}.grid.example", 1000 + i),
            scheduler,
            transport,
            catalogue=topo.catalogue,
            discovery_config=config.discovery,
            advertisement=_advertisement(config),
            resilience=config.resilience,
            membership=config.membership,
            global_policy=config.global_policy,
            jitter_rng=jitter_rng,
            tracer=tracer,
        )
        transport.assign_lane(agents[name].endpoint, name)
    hierarchy = wire_hierarchy(agents, dict(topo.parent_of))
    portal = UserPortal(
        transport,
        sim.lane_view(PORTAL_NAME),
        resilience=config.resilience,
        jitter_rng=jitter_rng,
        tracer=tracer,
    )
    transport.assign_lane(portal.endpoint, PORTAL_NAME)
    if config.faults is not None:
        endpoints = {name: agent.endpoint for name, agent in agents.items()}
        endpoints[PORTAL_NAME] = portal.endpoint
        # The plan's stream exists even for a zero plan (creating it never
        # touches the other streams); draws happen only when they matter.
        transport.set_fault_plan(
            FaultPlan(
                config.faults,
                rng=rngs.stream("fault-injection"),
                endpoints=endpoints,
            )
        )
    return GridSystem(
        config=config,
        topology=topo,
        sim=sim,
        transport=transport,
        evaluator=evaluator,
        schedulers=schedulers,
        agents=agents,
        hierarchy=hierarchy,
        portal=portal,
        specs=specs,
        rngs=rngs,
        tracer=tracer,
    )


def _advertisement(config: ExperimentConfig) -> AdvertisementStrategy:
    if not config.agents_enabled or config.advertisement == "none":
        return NoAdvertisement()
    if config.advertisement == "push":
        return EventPushStrategy()
    return PeriodicPullStrategy(config.pull_interval)


@dataclass
class _SoakProgress:
    """The soak hook's state: window cursors and the closed summaries."""

    window_seconds: float
    next_boundary: float
    windows: List[SoakWindow] = field(default_factory=list)
    #: Per-scheduler index of the first completed task not yet summarised.
    task_cursors: Dict[str, int] = field(default_factory=dict)
    #: Index of the first portal failure not yet summarised.
    failure_cursor: int = 0

    @classmethod
    def decode(cls, data: Dict[str, Any]) -> "_SoakProgress":
        """Inverse of :func:`dataclasses.asdict` through the JSON snapshot."""
        return cls(**{**data, "windows": [SoakWindow(**w) for w in data["windows"]]})

    def close(self, system: GridSystem, end: float, *, final: bool = False) -> None:
        """Summarise everything completed since the cursors into one window.

        The *final* (partial) window is only kept if something landed in it.
        """
        batch = []
        for name, scheduler in sorted(system.schedulers.items()):
            completed = scheduler.executor.completed_tasks
            batch.extend(completed[self.task_cursors.get(name, 0):])
            self.task_cursors[name] = len(completed)
        failures = len(system.portal.failures())
        failed, self.failure_cursor = failures - self.failure_cursor, failures
        if final and not batch and not failed:
            return
        records = records_from_tasks(batch)
        responses = [r.completion - r.submit_time for r in records]
        self.windows.append(
            SoakWindow(
                index=len(self.windows),
                start=end - self.window_seconds,
                end=end,
                completed=len(records),
                failed=failed,
                deadline_met=sum(1 for r in records if r.met_deadline),
                mean_response=(sum(responses) / len(responses)) if responses else 0.0,
                throughput=len(records) / self.window_seconds,
            )
        )


class _Snapshotted(Exception):
    """Unwinds the run loop once an at-step snapshot is on disk."""

    def __init__(self, digest: str) -> None:
        super().__init__(digest)
        self.digest = digest


class Run:
    """One seeded run of the grid, run until its stop predicate holds.

    The run replays ``workload`` (default: the config's seeded §4.1
    workload) or ``workflows``: task-graph instances started through a
    :class:`~repro.tasks.workflow.WorkflowCoordinator` in ``release_mode``,
    with node estimates from ``durations(system, graph, entry_agent)``.
    Arrivals go on their entry agent's lane.  ``checkpoint_every=N``
    rewrites the snapshot at ``checkpoint_path`` every N events of phase 1
    (a soak also rewrites it at each window end); ``snapshot`` (see
    :func:`resume`) rewinds the freshly built grid instead of arming it.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        topology: Optional[GridTopology] = None,
        *,
        mode: str = "strict",
        workload: Optional[Sequence[WorkloadItem]] = None,
        workflows: Optional[Sequence[Any]] = None,
        release_mode: str = "staged",
        durations: Optional[Callable[..., Dict[str, float]]] = None,
        window_seconds: float = 500.0,
        tracer: Optional[Tracer] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
        snapshot: Optional[Dict[str, Any]] = None,
    ) -> None:
        if mode not in MODES:
            raise ExperimentError(f"unknown run mode {mode!r}; expected one of {MODES}")
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ExperimentError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
        if checkpoint_every is not None and checkpoint_path is None:
            raise ExperimentError("checkpoint_every requires checkpoint_path")
        if mode == "soak" and window_seconds <= 0:
            raise ExperimentError(f"window_seconds must be > 0, got {window_seconds}")
        if workflows is not None and (workload is not None or checkpoint_path):
            raise ExperimentError(
                "a workflow run takes no request workload and cannot be checkpointed"
            )
        self.t_wall = time.perf_counter()
        self.mode = mode
        self.checkpoint_every, self.checkpoint_path = checkpoint_every, checkpoint_path
        self.system = system = build_grid(config, topology, tracer=tracer)
        self.workflows = list(workflows or ())
        self.release_mode, self.durations = release_mode, durations
        #: ``(item, workflow_id)`` of every workflow started so far.
        self.started: List[Tuple[Any, int]] = []
        self.coordinator = (
            None
            if workflows is None
            else WorkflowCoordinator(
                system.portal,
                {name: spec.model for name, spec in system.specs.items()},
                tracer=tracer,
            )
        )
        if workflows is not None:
            workload = ()
        elif workload is None:
            workload = generate_workload(
                system.topology.agent_names,
                system.specs,
                count=config.request_count,
                interval=config.request_interval,
                master_seed=config.master_seed,
            )
        self.items: List[WorkloadItem] = list(workload)
        self.steps = self.crashes = self.restarts = 0
        self.arrivals: Dict[int, Any] = {}
        #: ``(agent, "crash" | "restart", event handle)`` per churn timer.
        self.churn: List[Tuple[str, str, Any]] = []
        self.soak = _SoakProgress(window_seconds, window_seconds) if mode == "soak" else None
        self._stop_at: Optional[Tuple[int, str]] = None
        if snapshot is None:
            self._arm()
        else:
            self._restore(snapshot)
        # Phase 1 of a horizon run ends once the clock would pass the last
        # deadline; strict and soak runs have a single phase.
        self._limit = (
            max(item.deadline for item in self.items or self.workflows)
            if mode == "horizon"
            else None
        )
        self._done = self._stop_predicate()
        system.portal.add_result_listener(self._halt_if_done)

    @classmethod
    def from_snapshot(
        cls,
        path: str,
        *,
        mode: Optional[str] = None,
        tracer: Optional[Tracer] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_path: Optional[str] = None,
    ) -> "Run":
        """The run a snapshot froze, rewound and ready to :meth:`execute`.

        The grid is rebuilt from the snapshot's own config and topology,
        every component is rewound, and pending arrival and churn timers
        are re-created with their original identities.  Given *mode*, a
        snapshot of another mode is refused.
        """
        from repro.checkpoint.format import read_snapshot
        from repro.checkpoint.snapshot import (
            decode_config,
            decode_topology,
            decode_workload_item,
        )

        payload = read_snapshot(path)
        found = payload.get("mode")
        if payload.get("kind") != "run" or found not in MODES:
            raise CheckpointError(f"snapshot {path!r} is not a run checkpoint")
        if mode is not None and found != mode:
            raise CheckpointError(f"snapshot is a {found!r} run checkpoint, not {mode!r}")
        return cls(
            decode_config(payload["config"]),
            decode_topology(payload["topology"]),
            mode=found,
            workload=[decode_workload_item(raw) for raw in payload["workload"]],
            tracer=tracer,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            snapshot=payload,
        )

    def _arm(self) -> None:
        system = self.system
        system.start()
        schedule = system.sim.schedule
        for index, item in enumerate(self.items):
            self.arrivals[index] = schedule(
                item.submit_time,
                self._submitter(item),
                priority=Priority.ARRIVAL,
                label=f"arrival-{item.application}",
                lane=item.agent_name,
            )
        for item in self.workflows:
            schedule(
                item.submit_time,
                self._starter(item),
                priority=Priority.ARRIVAL,
                label=f"workflow-{item.shape}",
                lane=item.agent_name,
            )
        config, churn = system.config, system.config.churn
        if churn is None or churn.rate == 0:
            return
        plan = ChurnSchedule.generate(
            system.topology.agent_names,
            churn,
            config.request_phase_seconds,
            RngRegistry(config.master_seed).stream("churn"),
            head=system.hierarchy.head.name,
            # A coordinator-targeting spec resolves against the built
            # hierarchy: agents that currently have children.
            coordinators=(
                None
                if churn.target == "any"
                else [name for name, agent in system.agents.items() if agent.children]
            ),
        )
        for event in plan:
            handle = schedule(
                event.time,
                self._churn_action(event.agent, event.action),
                priority=Priority.MONITORING,
                label=f"churn-{event.action}-{event.agent}",
            )
            self.churn.append((event.agent, event.action, handle))
        self.crashes, self.restarts = plan.crash_count, plan.restart_count

    def _restore(self, payload: Dict[str, Any]) -> None:
        from repro.checkpoint.snapshot import restore_system

        restore_system(self.system, payload["system"])
        restore = self.system.sim.restore_event
        for entry in payload["arrivals"]:
            index = int(entry["index"])
            self.arrivals[index] = restore(
                entry["event"], self._submitter(self.items[index])
            )
        for entry in payload["churn"]:
            agent, action = str(entry["agent"]), str(entry["action"])
            handle = restore(entry["event"], self._churn_action(agent, action))
            self.churn.append((agent, action, handle))
        self.steps = int(payload["steps"])
        self.crashes, self.restarts = int(payload["crashes"]), int(payload["restarts"])
        if payload["soak"] is not None:
            self.soak = _SoakProgress.decode(payload["soak"])

    def _submitter(self, item: WorkloadItem) -> Callable[[], None]:
        system = self.system
        # Only a strict run fails on a crashed entry agent; elsewhere the
        # request registers, the send is lost, and it counts as unresolved
        # unless the portal's retry machinery recovers it.
        strict = self.mode == "strict"

        def submit() -> None:
            try:
                system.portal.submit(
                    system.agents[item.agent_name],
                    system.specs[item.application].model,
                    Environment.TEST,
                    item.deadline,
                )
            except TransportError:
                if strict:
                    raise

        return submit

    def _starter(self, item: Any) -> Callable[[], None]:
        def start() -> None:
            graph = item.graph()
            durations = self.durations and self.durations(
                self.system, graph, item.agent_name
            )
            workflow_id = self.coordinator.start_workflow(
                graph,
                self.system.agents[item.agent_name],
                item.deadline,
                mode=self.release_mode,
                durations=durations,
            )
            self.started.append((item, workflow_id))

        return start

    def _churn_action(self, name: str, action: str) -> Callable[[], None]:
        agent = self.system.agents[name]
        return agent.deactivate if action == "crash" else agent.reactivate

    def _stop_predicate(self) -> Callable[[], bool]:
        portal = self.system.portal
        if self.coordinator is None:
            count = len(self.items)
            return lambda: portal.pending_count == 0 and portal.submitted_count >= count
        coordinator, started, count = self.coordinator, self.started, len(self.workflows)
        return lambda: (
            portal.pending_count == 0 and len(started) >= count and coordinator.all_resolved
        )

    def _halt_if_done(self, _result: Any) -> None:
        """Portal result listener: halt the engine once the run is done.

        Only a result can make the stop predicate true (every submission,
        workflow starts included, adds a pending request), so a fused
        engine chunk ends on exactly the event a per-event loop stops at.
        """
        if self._done():
            self.system.sim.halt()

    def execute(self) -> ExperimentResult:
        """Drive the run to its end and reduce it to one result."""
        self._schedule_boundaries()
        if not self._advance(self._limit) and self._limit is None:
            raise ExperimentError(
                f"event queue drained with {self.system.portal.pending_count} "
                "requests still pending"
            )
        for _, _, handle in self.churn:
            handle.cancel()
        self.system.stop()
        if self.mode == "horizon":
            # Final drain: with periodics and churn off, only completions,
            # retry timers, and in-flight messages remain — a finite queue.
            self._next_step, self._next_time = MAX_EVENTS + 1, math.inf
            self._advance(None)
        elif self.soak is not None:
            # The final partial window catches the tail of the stream.
            self.soak.close(self.system, self.soak.next_boundary, final=True)
        return self._result()

    def snapshot_at(self, at_step: int, path: str) -> str:
        """Drive phase 1 to exactly *at_step* events, snapshot, abandon the run.

        Returns the snapshot digest; :func:`resume` on *path* continues it.
        A strict run stops nothing before its end, so its snapshot may land
        past the resolution step (resuming it then ends at once, unchanged).
        Raises :class:`ExperimentError` if phase 1 (for a strict run: the
        event queue) ends first.
        """
        if at_step <= self.steps:
            raise ExperimentError(f"at_step must be >= {self.steps + 1}, got {at_step}")
        self._stop_at = (at_step, path)
        if self.mode == "strict":
            self._done = lambda: False
        self._schedule_boundaries()
        try:
            self._advance(self._limit)
        except _Snapshotted as stop:
            return stop.digest
        raise ExperimentError(
            f"phase 1 ended after {self.steps} events, before at_step={at_step}"
        )

    def _advance(self, limit: Optional[float]) -> bool:
        """Run until the stop predicate holds (True) or the phase ends (False).

        With a *limit* the phase ends before the first event past it;
        without one, when the queue drains.  The engine runs in fused
        chunks, each ending at the next hook boundary — the next due
        event count, or the first event at or past a soak window's end —
        or on the event that makes the stop predicate true (the engine is
        halted by :meth:`_halt_if_done`).
        """
        sim = self.system.sim
        done = self._done
        while not done():
            fired = sim.run(
                self._next_step - self.steps, until=limit, halt_at=self._next_time
            )
            self.steps += fired
            if self.steps >= self._next_step or sim.now >= self._next_time:
                self._boundary()
                continue
            when = sim.next_event_time()
            if when is None or (limit is not None and when > limit):
                break
        return done()

    def _schedule_boundaries(self) -> None:
        due = [MAX_EVENTS + 1]
        if self.checkpoint_every is not None:
            due.append((self.steps // self.checkpoint_every + 1) * self.checkpoint_every)
        if self._stop_at is not None:
            due.append(self._stop_at[0])
        self._next_step = min(due)
        self._next_time = self.soak.next_boundary if self.soak is not None else math.inf

    def _boundary(self) -> None:
        """Fire the hooks due now: the event ceiling, soak windows, snapshots."""
        steps, soak = self.steps, self.soak
        if steps > MAX_EVENTS:
            raise ExperimentError(f"run exceeded {MAX_EVENTS} events")
        write = self.checkpoint_every is not None and steps % self.checkpoint_every == 0
        while soak is not None and self.system.sim.now >= soak.next_boundary:
            soak.close(self.system, soak.next_boundary)
            soak.next_boundary += soak.window_seconds
            write = write or self.checkpoint_path is not None
        if write:
            write_checkpoint(self.checkpoint_path, self)
        if self._stop_at is not None and steps == self._stop_at[0]:
            raise _Snapshotted(write_checkpoint(self._stop_at[1], self))
        self._schedule_boundaries()

    def _result(self) -> ExperimentResult:
        system, portal = self.system, self.system.portal
        records: List[CompletionRecord] = []
        busy = {}
        nodes = {}
        for name, scheduler in system.schedulers.items():
            records.extend(records_from_tasks(scheduler.executor.completed_tasks))
            busy[name] = scheduler.executor.busy_intervals
            nodes[name] = scheduler.resource.size
        horizon = max(system.sim.now, 1e-9) if self.mode == "horizon" else None
        successes, failures = portal.successes(), portal.failures()
        plan = system.transport.fault_plan
        return ExperimentResult(
            config=system.config,
            metrics=compute_metrics(records, busy, nodes, horizon=horizon),
            records=records,
            workload=self.items,
            agent_stats={name: agent.stats for name, agent in system.agents.items()},
            cache_stats=system.evaluator.cache.stats,
            messages_sent=system.transport.sent,
            rejected_count=len(failures),
            wall_seconds=time.perf_counter() - self.t_wall,
            messages_delivered=system.transport.delivered,
            rng_digest=system.rngs.state_digest() if system.rngs is not None else "",
            submitted=portal.submitted_count,
            succeeded=len(successes),
            failed=len(failures),
            unresolved=portal.pending_count,
            deadline_met=sum(
                1
                for r in successes
                if r.completion_time is not None and r.completion_time <= r.deadline
            ),
            counters=ResilienceCounters.from_stats(
                [agent.stats for agent in system.agents.values()] + [portal.stats]
            ),
            crashes=self.crashes,
            restarts=self.restarts,
            fault_dropped=plan.dropped_count if plan is not None else 0,
            membership=(
                MembershipSummary.from_system(system)
                if system.config.membership.enabled
                else None
            ),
            steps=self.steps,
            end_time=system.sim.now,
            windows=self.soak.windows if self.soak is not None else [],
        )


def write_checkpoint(path: str, run: Run) -> str:
    """Snapshot *run* at its current step to *path*; returns the digest.

    The payload holds the run's inputs (config, topology, workload), every
    component's state, and the hook state: pending arrival and churn
    timers, the step count, and the soak progress.
    """
    from repro.checkpoint.format import write_snapshot
    from repro.checkpoint.snapshot import (
        encode_config,
        encode_topology,
        encode_workload_item,
        snapshot_system,
    )

    if run.coordinator is not None:
        raise CheckpointError("workflow runs cannot be checkpointed")
    system = run.system
    return write_snapshot(
        path,
        {
            "kind": "run",
            "mode": run.mode,
            "config": encode_config(system.config),
            "topology": encode_topology(system.topology),
            "workload": [encode_workload_item(item) for item in run.items],
            "steps": run.steps,
            "arrivals": [
                {"index": index, "event": handle.descriptor()}
                for index, handle in sorted(run.arrivals.items())
                if handle.pending
            ],
            "churn": [
                {"agent": agent, "action": action, "event": handle.descriptor()}
                for agent, action, handle in run.churn
                if handle.pending
            ],
            "crashes": run.crashes,
            "restarts": run.restarts,
            "soak": None if run.soak is None else asdict(run.soak),
            "system": snapshot_system(system),
        },
    )


def resume(
    path: str,
    *,
    mode: Optional[str] = None,
    tracer: Optional[Tracer] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
) -> ExperimentResult:
    """Continue the run a snapshot froze, to completion.

    Everything after the snapshot instant — records, metrics, trace, soak
    windows, the final RNG digest — is byte-identical to the uninterrupted
    run (see :meth:`Run.from_snapshot`).
    """
    return Run.from_snapshot(
        path,
        mode=mode,
        tracer=tracer,
        checkpoint_every=checkpoint_every,
        checkpoint_path=checkpoint_path,
    ).execute()


def run_experiment(
    config: ExperimentConfig,
    topology: Optional[GridTopology] = None,
    *,
    workload: Optional[List[WorkloadItem]] = None,
    tracer: Optional[Tracer] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
) -> ExperimentResult:
    """Run one strict experiment to completion and compute the §3.3 metrics."""
    return Run(config, topology, workload=workload, tracer=tracer,
               checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
               ).execute()


def run_degraded(
    config: ExperimentConfig,
    topology: Optional[GridTopology] = None,
    *,
    workload: Optional[List[WorkloadItem]] = None,
    tracer: Optional[Tracer] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
) -> ExperimentResult:
    """Run *config* under its faults and churn; unresolved requests are counted."""
    return Run(config, topology, mode="horizon", workload=workload, tracer=tracer,
               checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path,
               ).execute()


def checkpoint_degraded(
    config: ExperimentConfig,
    topology: Optional[GridTopology] = None,
    *,
    workload: Optional[List[WorkloadItem]] = None,
    tracer: Optional[Tracer] = None,
    at_step: int,
    path: str,
) -> str:
    """:meth:`Run.snapshot_at` of a horizon-mode run; returns the digest."""
    run = Run(config, topology, mode="horizon", workload=workload, tracer=tracer)
    return run.snapshot_at(at_step, path)


def resume_degraded(
    path: str,
    *,
    tracer: Optional[Tracer] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
) -> ExperimentResult:
    """:func:`resume` of a horizon-mode snapshot."""
    return resume(path, mode="horizon", tracer=tracer,
                  checkpoint_every=checkpoint_every, checkpoint_path=checkpoint_path)
