"""Performance-driven task scheduling for local grid load balancing (§2)."""

from repro.scheduling.baselines import (
    RandomScheduler,
    RoundRobinScheduler,
    StaticPlacement,
)
from repro.scheduling.coding import SolutionString, random_solution
from repro.scheduling.endpoint import SchedulerServer
from repro.scheduling.cost import (
    IDLE_WEIGHTERS,
    CostBreakdown,
    CostWeights,
    deadline_penalty,
    exponential_idle_weight,
    linear_idle_weight,
    schedule_cost,
    uniform_idle_weight,
    weighted_idle_time,
)
from repro.scheduling.fifo import (
    Allocation,
    FIFOScheduler,
    earliest_free_allocation,
)
from repro.scheduling.fitness import scale_fitness
from repro.scheduling.ga import GAConfig, GAScheduler
from repro.scheduling.monitor import DEFAULT_POLL_INTERVAL, ResourceMonitor
from repro.scheduling.operators import (
    crossover,
    mutate,
    order_splice,
    stochastic_remainder_selection,
)
from repro.scheduling.schedule import (
    IdlePocket,
    Schedule,
    ScheduledTask,
    build_schedule,
    render_gantt,
)
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy

__all__ = [
    "RandomScheduler",
    "RoundRobinScheduler",
    "StaticPlacement",
    "SchedulerServer",
    "SolutionString",
    "random_solution",
    "IDLE_WEIGHTERS",
    "CostBreakdown",
    "CostWeights",
    "deadline_penalty",
    "exponential_idle_weight",
    "linear_idle_weight",
    "schedule_cost",
    "uniform_idle_weight",
    "weighted_idle_time",
    "Allocation",
    "FIFOScheduler",
    "earliest_free_allocation",
    "scale_fitness",
    "GAConfig",
    "GAScheduler",
    "DEFAULT_POLL_INTERVAL",
    "ResourceMonitor",
    "crossover",
    "mutate",
    "order_splice",
    "stochastic_remainder_selection",
    "IdlePocket",
    "Schedule",
    "ScheduledTask",
    "build_schedule",
    "render_gantt",
    "LocalScheduler",
    "SchedulingPolicy",
]
