"""The performance-driven local grid scheduler (Fig. 3, §2.2).

One :class:`LocalScheduler` manages one local grid resource.  It wires
together the six functional modules of Fig. 3:

* **communication** — :meth:`submit` (requests in), result listeners and
  service-information listeners (results / advertisements out);
* **task management** — a :class:`~repro.tasks.queue.TaskQueue` holding the
  optimisation set T;
* **GA scheduling** — a :class:`~repro.scheduling.ga.GAScheduler` (or the
  FIFO baseline) searching for schedules over T;
* **resource monitoring** — a :class:`~repro.scheduling.monitor.ResourceMonitor`
  tracking node availability;
* **task execution** — an :class:`~repro.tasks.execution.ExecutionEngine`
  booking virtual-time executions;
* **PACE evaluation engine** — the shared
  :class:`~repro.pace.evaluation.EvaluationEngine` behind its cache.

Dispatch model: the paper's scheduler "interrogates the GA when there are
free resources available in order to submit tasks for execution" and
removes launched tasks from T.  Here, every task arrival and every task
completion triggers ``evolve`` + ``dispatch``: the incumbent schedule is
rebuilt against actual node availability and every entry whose start time
is *now* is launched.  Under FIFO, placements are fixed at arrival and a
launch event is booked for each placement's start time.
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.errors import TaskError, ValidationError
from repro.obs.records import (
    CostComponents,
    DagReady,
    TaskCompleted,
    TaskDispatched,
    TaskQueued,
)
from repro.obs.trace import Tracer
from repro.pace.evaluation import EvaluationEngine
from repro.pace.resource import ResourceModel
from repro.scheduling.baselines import (
    RandomScheduler,
    RoundRobinScheduler,
    StaticPlacement,
)
from repro.scheduling.cost import IDLE_WEIGHTERS, schedule_cost
from repro.scheduling.fifo import FIFOScheduler
from repro.scheduling.ga import GAConfig, GAScheduler
from repro.scheduling.monitor import ResourceMonitor
from repro.scheduling.schedule import build_schedule
from repro.sim.engine import Engine
from repro.sim.events import EventHandle, Priority
from repro.tasks.execution import ExecutionEngine, ExecutionMode
from repro.tasks.queue import TaskQueue
from repro.tasks.task import Environment, Task, TaskRequest, TaskState

__all__ = ["SchedulingPolicy", "LocalScheduler"]

#: How far into the future an unavailable node's free time is pushed.
#: Finite (unlike inf) so cost arithmetic stays valid; far beyond any
#: experiment horizon so down nodes are never selected for launchable work.
UNAVAILABLE_HORIZON = 1.0e7

_EPS = 1e-9


class SchedulingPolicy(str, enum.Enum):
    """Local scheduling algorithms available.

    FIFO and GA are Table 2's rows; RANDOM and ROUND_ROBIN are the extra
    literature baselines of :mod:`repro.scheduling.baselines` (fixed
    placements like FIFO, weaker allocation choices).
    """

    FIFO = "fifo"
    GA = "ga"
    RANDOM = "random"
    ROUND_ROBIN = "round-robin"

    @property
    def is_static(self) -> bool:
        """Whether placements are fixed at arrival (everything but GA)."""
        return self is not SchedulingPolicy.GA


class LocalScheduler:
    """A performance-driven scheduler for one local grid resource.

    Parameters
    ----------
    sim:
        Discrete-event engine (shared across the grid).
    resource:
        The local resource (homogeneous in the case study).
    evaluator:
        PACE evaluation engine (typically shared, for a shared cache).
    policy:
        FIFO or GA.
    rng:
        Random generator for the GA's stochastic choices.
    ga_config:
        GA tunables; ignored under FIFO.
    generations_per_event:
        GA generations evolved on each arrival/completion event.
    environments:
        Execution environments this resource supports (Fig. 5 advertises
        mpi, pvm and test).
    execution_mode / runtime_noise / execution_rng:
        Passed to the :class:`ExecutionEngine`.
    """

    def __init__(
        self,
        sim: Engine,
        resource: ResourceModel,
        evaluator: EvaluationEngine,
        *,
        policy: SchedulingPolicy = SchedulingPolicy.GA,
        rng: Optional[np.random.Generator] = None,
        ga_config: GAConfig = GAConfig(),
        generations_per_event: int = 10,
        environments: Tuple[Environment, ...] = (
            Environment.MPI,
            Environment.PVM,
            Environment.TEST,
        ),
        execution_mode: str = ExecutionMode.TEST,
        runtime_noise: float = 0.0,
        execution_rng: Optional[np.random.Generator] = None,
        monitor_poll_interval: float = 300.0,
        freetime_mode: str = "makespan",
        load_profile: Optional[Callable[[float], float]] = None,
        duration_correction: Optional[Callable[[], float]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if generations_per_event < 0:
            raise ValidationError("generations_per_event must be >= 0")
        if freetime_mode not in ("makespan", "mean", "min"):
            raise ValidationError(f"unknown freetime_mode {freetime_mode!r}")
        if policy is SchedulingPolicy.GA and rng is None:
            raise ValidationError("GA policy requires an rng")
        self._sim = sim
        self._resource = resource
        self._evaluator = evaluator
        self._policy = policy
        self._tracer = tracer
        self._freetime_mode = freetime_mode
        self._generations_per_event = int(generations_per_event)
        self._environments = tuple(environments)
        self._queue = TaskQueue()
        self._executor = ExecutionEngine(
            sim,
            resource,
            evaluator,
            mode=execution_mode,
            runtime_noise=runtime_noise,
            rng=execution_rng,
            load_profile=load_profile,
        )
        # Optional multiplier applied to every duration *estimate* (not the
        # actual runtime) — the hook the NWS forecasting extension uses to
        # correct static PACE predictions for background load.
        self._duration_correction = duration_correction
        self._executor.on_completion(self._handle_completion)
        self._monitor = ResourceMonitor(
            sim, resource.size, poll_interval=monitor_poll_interval
        )
        self._monitor.subscribe(self._notify_service_change)
        self._platform = resource.slowest_platform()
        self._ga: Optional[GAScheduler] = None
        self._static: Optional[StaticPlacement] = None
        if policy is SchedulingPolicy.GA:
            assert rng is not None
            self._ga = GAScheduler(
                resource.size,
                self._task_duration,
                rng,
                ga_config,
                duration_row=self._task_duration_row,
                tracer=tracer,
                trace_name=resource.name,
            )
        elif policy is SchedulingPolicy.FIFO:
            self._static = FIFOScheduler(resource.size)
        elif policy is SchedulingPolicy.RANDOM:
            if rng is None:
                raise ValidationError("RANDOM policy requires an rng")
            self._static = RandomScheduler(resource.size, rng)
        else:
            self._static = RoundRobinScheduler(resource.size)
        self._result_listeners: List[Callable[[Task], None]] = []
        self._service_listeners: List[Callable[[], None]] = []
        self._all_tasks: List[Task] = []
        self._task_by_id: dict[int, Task] = {}
        # Incumbent-schedule per-node free times, refreshed at each
        # scheduling event; None = recompute on the next freetime() query.
        self._cached_node_free: Optional[np.ndarray] = None
        # The advertised per-node free vector (before the max(·, now) clamp)
        # and its makespan/min aggregate, cached under the pair (this
        # scheduler's version, the executor's version).  The version is
        # bumped wherever the vector's inputs change — static placement,
        # GA re-evolution, cancellation, restore — so a PULL answered
        # between scheduling events costs one comparison, not a rebuild.
        self._version = 0
        self._free_key: Optional[Tuple[int, int]] = None
        self._free_vector = np.zeros(0)
        self._free_bound = 0.0
        # task id -> pending static-launch event (checkpoint support).
        self._static_launch_handles: dict[int, "EventHandle"] = {}
        # Workflow gating state — all empty for independent-task runs, in
        # which case every path below is byte-identical to the seed:
        # * _gate: task id -> parent node names whose inputs have not yet
        #   arrived at this cluster (remote transfers in flight, or a
        #   co-located parent still queued/running).  Gated tasks are never
        #   dispatched; `dag.ready` is emitted the instant a gate clears.
        # * _floors: task id -> absolute earliest start (staging estimate
        #   or a dispatched parent's booked completion), mirrored into the
        #   GA and into dispatch-side schedule building.
        # * _constraints: child task id -> co-queued parent task ids that
        #   must precede it; _dependants is the reverse index used to
        #   collapse a constraint into a floor when the parent launches.
        # * _completion_watch: parent task id -> (child, parent node) gate
        #   keys cleared when the parent completes locally.
        # * _wf_node_task: (workflow id, node) -> local task id.
        self._gate: dict[int, set] = {}
        self._floors: dict[int, float] = {}
        self._constraints: dict[int, Tuple[int, ...]] = {}
        self._dependants: dict[int, set] = {}
        self._completion_watch: dict[int, List[Tuple[int, str]]] = {}
        self._wf_node_task: dict[Tuple[int, str], int] = {}

    # ------------------------------------------------------------------ state

    @property
    def sim(self) -> Engine:
        """The discrete-event engine."""
        return self._sim

    @property
    def evaluator(self) -> EvaluationEngine:
        """The PACE evaluation engine behind this scheduler."""
        return self._evaluator

    @property
    def resource(self) -> ResourceModel:
        """The managed resource."""
        return self._resource

    @property
    def policy(self) -> SchedulingPolicy:
        """The active scheduling policy."""
        return self._policy

    @property
    def queue(self) -> TaskQueue:
        """The task-management queue (the optimisation set T)."""
        return self._queue

    @property
    def executor(self) -> ExecutionEngine:
        """The task-execution engine."""
        return self._executor

    @property
    def monitor(self) -> ResourceMonitor:
        """The resource monitor."""
        return self._monitor

    @property
    def platform(self):
        """The platform every estimate is charged at: the slowest node's."""
        return self._platform

    @property
    def environments(self) -> Tuple[Environment, ...]:
        """Execution environments this resource supports."""
        return self._environments

    @property
    def ga(self) -> Optional[GAScheduler]:
        """The GA kernel (None under FIFO)."""
        return self._ga

    @property
    def all_tasks(self) -> List[Task]:
        """Every task ever submitted here, in submission order."""
        return list(self._all_tasks)

    def task(self, task_id: int) -> Optional[Task]:
        """The task submitted here under *task_id*, or ``None``."""
        return self._task_by_id.get(task_id)

    def supports(self, environment: Environment) -> bool:
        """Whether this resource provides *environment* (matchmaking gate)."""
        return environment in self._environments

    # ------------------------------------------------------------ estimation

    def _task_duration(self, task_id: int, count: int) -> float:
        task = self._task_by_id[task_id]
        base = self._evaluator.evaluate_count(task.application, count, self._platform)
        return base * self._correction_factor()

    def _task_duration_row(self, task_id: int) -> np.ndarray:
        """The whole ``t(1..n)`` estimate row — one bulk cache traversal."""
        task = self._task_by_id[task_id]
        row = self._evaluator.evaluate_counts(
            task.application, self._platform, self._resource.size
        )
        return row * self._correction_factor()

    def effective_free_times(self) -> np.ndarray:
        """Per-node availability: executor bookings, down nodes pushed out."""
        free = np.array(
            [self._executor.node_free_at(n.node_id) for n in self._resource.nodes]
        )
        now = self._sim.now
        for nid in self._monitor.unavailable_ids():
            free[nid] = max(free[nid], now + UNAVAILABLE_HORIZON)
        return np.maximum(free, now)

    def freetime(self) -> float:
        """ω — the earliest (approximate) time processors free up (§3.2).

        The paper advertises the GA's latest scheduling makespan, arguing
        "it is reasonable to assume that all of processors within a grid
        have approximately the same freetime" thanks to GA balancing.
        ``freetime_mode`` makes the aggregation pluggable for the
        estimator ablation:

        * ``"makespan"`` (paper, default) — latest per-node free time;
        * ``"mean"`` — average per-node free time (optimistic);
        * ``"min"`` — earliest per-node free time (most optimistic).

        The per-node vector is cached under a version (see
        :meth:`_node_free_vector`); the clamp to *now* is applied here, on
        every read, so the cache never goes stale as the clock advances.
        """
        free = self._node_free_vector()
        now = self._sim.now
        if self._freetime_mode == "mean":
            return float(np.maximum(free, now).mean())
        return max(self._free_bound, now)

    def _node_free_vector(self) -> np.ndarray:
        """The cached :meth:`_freetime_per_node`, rebuilt on a version change."""
        key = (self._version, self._executor.version)
        if key != self._free_key:
            free = self._freetime_per_node()
            self._free_vector = free
            self._free_bound = float(
                free.min() if self._freetime_mode == "min" else free.max()
            )
            self._free_key = key
        return self._free_vector

    def _freetime_per_node(self) -> np.ndarray:
        """Per-node booked-or-scheduled free times for the estimator."""
        base = np.array(
            [self._executor.node_free_at(n.node_id) for n in self._resource.nodes]
        )
        if self._policy.is_static:
            assert self._static is not None
            return np.maximum(self._static.booked_free_times, base)
        if self._queue.is_empty:
            return base
        if self._cached_node_free is not None:
            return np.maximum(self._cached_node_free, base)
        assert self._ga is not None
        now = self._sim.now
        free = self.effective_free_times()
        best = self._ga.best_solution(free, now)
        schedule = build_schedule(
            best,
            free,
            self._task_duration,
            ref_time=now,
            floors=self._floors or None,
            predecessors=self._constraints or None,
        )
        self._cached_node_free = np.array(
            [schedule.node_free_after(n.node_id) for n in self._resource.nodes]
        )
        return self._cached_node_free

    def expected_completion(self, request: TaskRequest) -> Tuple[float, int]:
        """Eq. (10): ``η_r = ω + min_k t_x(k)`` and the minimising k.

        The agent-level estimate used by matchmaking; the local scheduler
        "may change the task order and advance or postpone a specific task
        execution", so this is approximate by design.
        """
        best_k, best_t = self._evaluator.best_count(
            request.application, self._platform, self._resource.size
        )
        best_t *= self._correction_factor()
        return self.freetime() + best_t, best_k

    def _correction_factor(self) -> float:
        if self._duration_correction is None:
            return 1.0
        factor = float(self._duration_correction())
        if factor <= 0.0:
            raise ValidationError(f"duration correction must be > 0, got {factor}")
        return factor

    # ------------------------------------------------------------ submission

    def submit(self, request: TaskRequest) -> Task:
        """Accept a request: queue, schedule, and dispatch what can start now."""
        if not self.supports(request.environment):
            raise TaskError(
                f"resource {self._resource.name!r} does not support "
                f"{request.environment.value!r}"
            )
        if request.workflow is not None and self._policy.is_static:
            raise TaskError(
                f"resource {self._resource.name!r} runs the static "
                f"{self._policy.value!r} policy, which cannot honour "
                f"workflow precedence — workflow tasks need the GA"
            )
        task = self._queue.submit(request)
        self._all_tasks.append(task)
        self._task_by_id[task.task_id] = task
        if self._tracer is not None:
            self._tracer.emit(
                TaskQueued(
                    t=self._sim.now,
                    resource=self._resource.name,
                    task_id=task.task_id,
                )
            )
        if self._policy.is_static:
            self._place_static(task)
        else:
            assert self._ga is not None
            if request.workflow is None:
                self._ga.add_task(task.task_id, task.deadline)
            else:
                floor, preds = self._register_workflow(task)
                self._ga.add_task(
                    task.task_id,
                    task.deadline,
                    priority=request.workflow.priority,
                    floor=floor,
                    predecessors=preds,
                )
            self._evolve_and_dispatch()
        self._notify_service_change()
        return task

    def _register_workflow(self, task: Task) -> Tuple[Optional[float], Tuple[int, ...]]:
        """Record a workflow task's gates/constraints; ``(floor, preds)``.

        Called before the task enters the GA so the very first dispatch
        pass already sees it gated.  Each binding input resolves to one of:
        already local (parent ran here and completed, or the output staged
        in earlier) — no gate; co-located and still queued — an ordering
        constraint plus a completion gate; co-located and running — a
        floor at the parent's booked completion plus a completion gate;
        remote — a transfer gate the agent clears via
        :meth:`notify_input_arrived`.
        """
        binding = task.request.workflow
        assert binding is not None
        tid = task.task_id
        self._wf_node_task[(binding.workflow_id, binding.node)] = tid
        gate: set = set()
        floor: Optional[float] = None
        preds: List[int] = []
        own = self._resource.name
        for parent_node, source, _size in binding.inputs:
            if source == own:
                continue  # the parent ran here; its output is already local
            if source == "":
                ptid = self._wf_node_task.get((binding.workflow_id, parent_node))
                if ptid is None:
                    raise TaskError(
                        f"workflow {binding.workflow_id} node {binding.node!r} "
                        f"depends on {parent_node!r}, which was never "
                        f"submitted to {own!r}"
                    )
                parent = self._task_by_id[ptid]
                if parent.state is TaskState.QUEUED:
                    preds.append(ptid)
                    self._dependants.setdefault(ptid, set()).add(tid)
                elif parent.state is TaskState.RUNNING:
                    nodes = parent.allocated_nodes or ()
                    booked = max(
                        (self._executor.node_free_at(nid) for nid in nodes),
                        default=self._sim.now,
                    )
                    floor = booked if floor is None else max(floor, booked)
                else:
                    continue  # completed: output present
                gate.add(parent_node)
                self._completion_watch.setdefault(ptid, []).append(
                    (tid, parent_node)
                )
            else:
                gate.add(parent_node)  # remote input: wait for the transfer
        if preds:
            self._constraints[tid] = tuple(preds)
        if floor is not None:
            self._floors[tid] = floor
        if gate:
            self._gate[tid] = gate
        else:
            self._emit_ready(task)
        return floor, tuple(preds)

    def _emit_ready(self, task: Task) -> None:
        """Trace ``dag.ready``: every input of a workflow task is local."""
        if self._tracer is None:
            return
        binding = task.request.workflow
        assert binding is not None
        self._tracer.emit(
            DagReady(
                t=self._sim.now,
                resource=self._resource.name,
                task_id=task.task_id,
                workflow=binding.workflow_id,
                node=binding.node,
            )
        )

    def notify_input_arrived(self, task_id: int, parent_node: str) -> None:
        """A staged-in input for *task_id* landed on this cluster.

        Clears the matching gate key; when the last key clears the task
        becomes dispatchable (``dag.ready``) and a scheduling pass runs.
        """
        gate = self._gate.get(task_id)
        if gate is None or parent_node not in gate:
            return
        gate.discard(parent_node)
        if not gate:
            del self._gate[task_id]
            self._emit_ready(self._task_by_id[task_id])
            if self._policy is SchedulingPolicy.GA:
                self._evolve_and_dispatch()

    def set_start_floor(self, task_id: int, floor: float) -> None:
        """Raise a queued task's earliest-start floor (transfer ETA)."""
        current = self._floors.get(task_id)
        if current is None or floor > current:
            self._floors[task_id] = float(floor)
        if self._ga is not None and task_id in self._queue:
            self._ga.set_floor(task_id, floor)

    # ----------------------------------------------------- static placement

    def _place_static(self, task: Task) -> None:
        """Book a fixed allocation (FIFO/random/round-robin) and arm launch."""
        assert self._static is not None
        self._static.sync_availability(self.effective_free_times())
        allocation = self._static.place(
            task.task_id,
            lambda k: self._task_duration(task.task_id, k),
            self._sim.now,
        )
        self._version += 1
        self._static_launch_handles[task.task_id] = self._sim.schedule(
            allocation.start,
            lambda: self._launch_static(task),
            priority=Priority.SCHEDULING,
            label=f"static-launch-{task.task_id}",
        )

    def _launch_static(self, task: Task) -> None:
        assert self._static is not None
        allocation = self._static.placement(task.task_id)
        ready = self._executor.earliest_all_free(allocation.node_ids)
        if ready > self._sim.now + _EPS:
            # Actual availability drifted later than the booking (runtime
            # noise or a node failure); re-arm at the observed time.
            self._static_launch_handles[task.task_id] = self._sim.schedule(
                ready,
                lambda: self._launch_static(task),
                priority=Priority.SCHEDULING,
                label=f"static-launch-{task.task_id}",
            )
            return
        self._static_launch_handles.pop(task.task_id, None)
        self._queue.remove(task.task_id)
        completion = self._executor.launch(task, allocation.node_ids)
        if self._tracer is not None:
            self._tracer.emit(
                TaskDispatched(
                    t=self._sim.now,
                    resource=self._resource.name,
                    task_id=task.task_id,
                    node_ids=tuple(int(n) for n in allocation.node_ids),
                    start=self._sim.now,
                    completion=completion,
                )
            )

    # -------------------------------------------------------------------- GA

    def _evolve_and_dispatch(self) -> None:
        assert self._ga is not None
        if self._queue.is_empty:
            self._cached_node_free = None
        else:
            now = self._sim.now
            free = self.effective_free_times()
            self._ga.evolve(self._generations_per_event, free, now)
            # Hand the same availability vector to dispatch: the GA retained
            # its final cost vector for exactly this (free, now) key, so the
            # dispatch-side best_solution reuses it instead of paying one
            # more full eq.-(8) evaluation per scheduling event.
            self._dispatch(free)
        self._version += 1

    def _dispatch(self, free: Optional[np.ndarray] = None) -> None:
        """Launch every incumbent-schedule entry whose start time is now.

        A single pass suffices: the built schedule is conflict-free, so all
        entries starting at the current instant are concurrently
        launchable, and every other entry starts strictly later by
        construction.  Remaining tasks are reconsidered at the next
        arrival/completion event.
        """
        assert self._ga is not None
        now = self._sim.now
        if free is None:
            free = self.effective_free_times()
        best = self._ga.best_solution(free, now)
        schedule = build_schedule(
            best,
            free,
            self._task_duration,
            ref_time=now,
            floors=self._floors or None,
            predecessors=self._constraints or None,
        )
        self._cached_node_free = np.array(
            [schedule.node_free_after(n.node_id) for n in self._resource.nodes]
        )
        if self._tracer is not None:
            # eq. (8) breakdown of the incumbent — pure recomputation (no
            # RNG, no state), so tracing cannot perturb the run.
            breakdown = schedule_cost(
                schedule,
                {tid: self._ga.deadline(tid) for tid in self._ga.task_ids},
                self._ga.config.weights,
                idle_weighter=IDLE_WEIGHTERS[self._ga.config.idle_weighting],
            )
            self._tracer.emit(
                CostComponents(
                    t=now,
                    resource=self._resource.name,
                    omega=breakdown.makespan,
                    phi=breakdown.weighted_idle,
                    theta=breakdown.deadline_penalty,
                    combined=breakdown.combined,
                )
            )
        for entry in schedule.entries:
            if entry.task_id in self._gate:
                continue  # inputs still staging in (or a parent unfinished)
            if entry.start <= now + _EPS:
                task = self._queue.remove(entry.task_id)
                self._ga.remove_task(entry.task_id)
                completion = self._executor.launch(task, entry.node_ids)
                self._floors.pop(entry.task_id, None)
                if self._dependants:
                    self._release_dependants(entry.task_id, completion)
                if self._tracer is not None:
                    self._tracer.emit(
                        TaskDispatched(
                            t=now,
                            resource=self._resource.name,
                            task_id=entry.task_id,
                            node_ids=tuple(int(n) for n in entry.node_ids),
                            start=entry.start,
                            completion=completion,
                        )
                    )

    def _release_dependants(self, parent_id: int, completion: float) -> None:
        """Collapse ordering constraints on a just-launched parent to floors.

        The parent left the optimisation set, so "after the parent" becomes
        "not before the parent's booked completion" for every waiting
        child (the completion gate still protects against runtime noise).
        """
        assert self._ga is not None
        for child in sorted(self._dependants.pop(parent_id, ())):
            remaining = tuple(
                p for p in self._constraints.get(child, ()) if p != parent_id
            )
            if remaining:
                self._constraints[child] = remaining
            else:
                self._constraints.pop(child, None)
            current = self._floors.get(child)
            if current is None or completion > current:
                self._floors[child] = completion
            if child in self._queue:
                self._ga.set_floor(child, completion)

    def workflow_task_id(self, workflow_id: int, node: str) -> Optional[int]:
        """The local task id realising *(workflow, node)*, or ``None``.

        The binding outlives the task (completed parents must stay
        resolvable), so callers should check the task's state before
        acting on the id.
        """
        return self._wf_node_task.get((workflow_id, node))

    # ----------------------------------------------------------- cancellation

    def cancel_task(self, task_id: int) -> Task:
        """Cancel a task whether it is still queued or already running.

        Queued tasks leave the optimisation set (and the GA population /
        static booking); running tasks are killed via
        :meth:`ExecutionEngine.cancel`, freeing their nodes immediately.
        Either way the follow-up scheduling pass runs so freed capacity
        is reused at once.
        """
        self._forget_workflow_state(task_id)
        self._version += 1
        if task_id in self._queue:
            task = self._queue.cancel(task_id)
            if self._policy.is_static:
                handle = self._static_launch_handles.pop(task_id, None)
                if handle is not None:
                    handle.cancel()
                assert self._static is not None
                self._static.forget(task_id)
            else:
                assert self._ga is not None
                self._ga.remove_task(task_id)
                self._evolve_and_dispatch()
            self._notify_service_change()
            return task
        task = self._executor.cancel(task_id)
        if self._policy is SchedulingPolicy.GA:
            self._evolve_and_dispatch()
        self._notify_service_change()
        return task

    def _forget_workflow_state(self, task_id: int) -> None:
        """Drop gating/constraint bookkeeping for a cancelled task.

        Children left waiting on the cancelled task keep their gates —
        failure propagation (the workflow coordinator cancelling the rest
        of the graph) is the layer that resolves them.
        """
        if not (self._gate or self._floors or self._constraints
                or self._completion_watch or self._dependants):
            return
        self._gate.pop(task_id, None)
        self._floors.pop(task_id, None)
        for parent in self._constraints.pop(task_id, ()):
            deps = self._dependants.get(parent)
            if deps is not None:
                deps.discard(task_id)
                if not deps:
                    del self._dependants[parent]
        self._dependants.pop(task_id, None)
        self._completion_watch.pop(task_id, None)
        for watchers in self._completion_watch.values():
            watchers[:] = [w for w in watchers if w[0] != task_id]

    # ------------------------------------------------------------ completions

    def _handle_completion(self, task: Task) -> None:
        if self._tracer is not None:
            self._tracer.emit(
                TaskCompleted(
                    t=self._sim.now,
                    resource=self._resource.name,
                    task_id=task.task_id,
                    completion=self._sim.now,
                )
            )
        # Clear co-located completion gates before the scheduling pass so
        # children of the finished parent are dispatchable this very event.
        for child, parent_node in self._completion_watch.pop(task.task_id, ()):
            gate = self._gate.get(child)
            if gate is None:
                continue
            gate.discard(parent_node)
            if not gate:
                del self._gate[child]
                self._emit_ready(self._task_by_id[child])
        for listener in self._result_listeners:
            listener(task)
        if self._policy is SchedulingPolicy.GA:
            self._evolve_and_dispatch()
        self._notify_service_change()

    # ---------------------------------------------------------- notifications

    def on_result(self, listener: Callable[[Task], None]) -> None:
        """Register a callback fired when a task completes (results output)."""
        self._result_listeners.append(listener)

    def on_service_change(self, listener: Callable[[], None]) -> None:
        """Register a callback fired when advertised state may have changed."""
        self._service_listeners.append(listener)

    def off_service_change(self, listener: Callable[[], None]) -> None:
        """Unregister a service-change callback; unknown listeners are a no-op.

        Counterpart of :meth:`on_service_change` so push-advertisement
        strategies can detach on ``stop()`` instead of leaking a stale
        closure per crash/restart cycle.
        """
        try:
            self._service_listeners.remove(listener)
        except ValueError:
            pass

    def _notify_service_change(self) -> None:
        for listener in self._service_listeners:
            listener()

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Full scheduler state: task table, queue, bookings, kernel, monitor.

        Task objects are serialised exactly once (from the submission-order
        ``_all_tasks`` list); every other structure references them by id so
        restore preserves the identity sharing between the queue, the
        executor's running/completed sets, and the agent's reply map.
        """
        from repro.checkpoint.codec import encode_task

        state = {
            "tasks": [encode_task(t) for t in self._all_tasks],
            "queue": self._queue.snapshot_state(),
            "executor": self._executor.snapshot_state(),
            "monitor": self._monitor.snapshot_state(),
            "cached_node_free": (
                None
                if self._cached_node_free is None
                else [float(x) for x in self._cached_node_free]
            ),
            "static_launch_events": {
                str(tid): handle.descriptor()
                for tid, handle in sorted(self._static_launch_handles.items())
                if not handle.cancelled
            },
        }
        if self._ga is not None:
            state["ga"] = self._ga.snapshot_state()
        if self._static is not None:
            state["static"] = self._static.snapshot_state()
        # Workflow gating state rides along only when any is live, so
        # independent-task snapshots stay byte-identical to the seed's.
        workflow: dict = {}
        if self._gate:
            workflow["gate"] = [
                [tid, sorted(keys)] for tid, keys in sorted(self._gate.items())
            ]
        if self._floors:
            workflow["floors"] = [
                [tid, f] for tid, f in sorted(self._floors.items())
            ]
        if self._constraints:
            workflow["constraints"] = [
                [tid, list(parents)]
                for tid, parents in sorted(self._constraints.items())
            ]
        if self._completion_watch:
            workflow["watch"] = [
                [tid, [[c, n] for c, n in watchers]]
                for tid, watchers in sorted(self._completion_watch.items())
            ]
        if self._wf_node_task:
            workflow["node_tasks"] = [
                [wf, node, tid]
                for (wf, node), tid in sorted(self._wf_node_task.items())
            ]
        if workflow:
            state["workflow"] = workflow
        return state

    def restore_state(self, state: dict, *, applications) -> None:
        """Rebuild from a snapshot; *applications* maps name → model.

        Must be called on a freshly built scheduler (same resource, policy,
        and configuration as the snapshot source).  Pending static-launch
        events are re-created with their original identities; listeners are
        whatever the rebuilt wiring registered — callbacks are code, not
        state.
        """
        from repro.checkpoint.codec import decode_task

        self._version += 1
        self._all_tasks = [
            decode_task(raw, applications) for raw in state["tasks"]
        ]
        self._task_by_id = {t.task_id: t for t in self._all_tasks}
        self._queue.restore_state(state["queue"], self._task_by_id)
        self._executor.restore_state(state["executor"], self._task_by_id)
        self._monitor.restore_state(state["monitor"])
        cached = state["cached_node_free"]
        self._cached_node_free = None if cached is None else np.array(cached)
        if self._ga is not None:
            self._ga.restore_state(state["ga"])
        if self._static is not None:
            self._static.restore_state(state["static"])
        for handle in self._static_launch_handles.values():
            handle.cancel()
        self._static_launch_handles = {}
        for tid, descriptor in state["static_launch_events"].items():
            task = self._task_by_id[int(tid)]
            self._static_launch_handles[int(tid)] = self._sim.restore_event(
                descriptor, lambda t=task: self._launch_static(t)
            )
        workflow = state.get("workflow", {})
        self._gate = {
            int(tid): set(keys) for tid, keys in workflow.get("gate", [])
        }
        self._floors = {
            int(tid): float(f) for tid, f in workflow.get("floors", [])
        }
        self._constraints = {
            int(tid): tuple(int(p) for p in parents)
            for tid, parents in workflow.get("constraints", [])
        }
        self._dependants = {}
        for child, parents in self._constraints.items():
            for parent in parents:
                self._dependants.setdefault(parent, set()).add(child)
        self._completion_watch = {
            int(tid): [(int(c), str(n)) for c, n in watchers]
            for tid, watchers in workflow.get("watch", [])
        }
        self._wf_node_task = {
            (int(wf), str(node)): int(tid)
            for wf, node, tid in workflow.get("node_tasks", [])
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalScheduler({self._resource.name!r}, policy={self._policy.value}, "
            f"queued={len(self._queue)}, running={len(self._executor.running_tasks)})"
        )
