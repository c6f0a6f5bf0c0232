"""Stateful property tests: random operation sequences on core structures.

Hypothesis drives arbitrary interleavings of the operations the live
system performs — task arrivals, removals, evolution steps, queue churn —
and asserts the structural invariants hold after every step.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.pace.workloads import paper_application_specs
from repro.scheduling.ga import GAConfig, GAScheduler
from repro.tasks.queue import TaskQueue
from repro.tasks.task import Environment, TaskRequest, TaskState
from tests.oracles.ga_reference import reference_cost


class GASchedulerMachine(RuleBasedStateMachine):
    """Random add/remove/evolve sequences keep the GA population legitimate."""

    def __init__(self):
        super().__init__()
        self.next_id = 0
        self.live = set()

    @initialize()
    def setup(self):
        self.ga = GAScheduler(
            4,
            lambda tid, k: 10.0 / k + 0.3 * k,
            np.random.default_rng(1234),
            GAConfig(population_size=8, elite_count=1),
        )

    @rule(deadline=st.floats(1.0, 500.0))
    def add_task(self, deadline):
        self.ga.add_task(self.next_id, deadline)
        self.live.add(self.next_id)
        self.next_id += 1

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove_task(self, data):
        tid = data.draw(st.sampled_from(sorted(self.live)), label="victim")
        self.ga.remove_task(tid)
        self.live.discard(tid)

    @precondition(lambda self: self.live)
    @rule(generations=st.integers(0, 3), ref=st.floats(0.0, 10.0))
    def evolve(self, generations, ref):
        cost = self.ga.evolve(generations, [ref] * 4, ref)
        assert cost >= 0.0

    @invariant()
    def population_is_legitimate(self):
        if not hasattr(self, "ga"):
            return
        assert set(self.ga.task_ids) == self.live
        if not self.live:
            assert self.ga.population == []
            return
        for solution in self.ga.population:
            assert sorted(solution.ordering) == sorted(self.live)
            for tid in self.live:
                assert solution.count(tid) >= 1

    @invariant()
    def best_solution_costs_consistently(self):
        if not hasattr(self, "ga") or not self.live:
            return
        free = [0.0] * 4
        best = self.ga.best_solution(free, 0.0)
        fast = self.ga.cost_of(best, free, 0.0)
        slow = reference_cost(self.ga, best, free, 0.0)
        assert abs(fast - slow) <= 1e-9 * max(1.0, abs(slow))


class TaskQueueMachine(RuleBasedStateMachine):
    """Random submit/insert/remove/cancel sequences keep the queue coherent."""

    def __init__(self):
        super().__init__()
        self.queue = TaskQueue()
        self.expected: list[int] = []
        self.spec = paper_application_specs()["fft"]

    def _request(self) -> TaskRequest:
        return TaskRequest(
            application=self.spec.model,
            environment=Environment.TEST,
            deadline=100.0,
        )

    @rule()
    def submit(self):
        task = self.queue.submit(self._request())
        self.expected.append(task.task_id)

    @rule(data=st.data())
    def insert(self, data):
        position = data.draw(
            st.integers(0, len(self.expected)), label="position"
        )
        task = self.queue.insert(self._request(), position)
        self.expected.insert(position, task.task_id)

    @precondition(lambda self: self.expected)
    @rule(data=st.data())
    def remove(self, data):
        tid = data.draw(st.sampled_from(self.expected), label="remove")
        task = self.queue.remove(tid)
        assert task.state is TaskState.QUEUED
        self.expected.remove(tid)

    @precondition(lambda self: self.expected)
    @rule(data=st.data())
    def cancel(self, data):
        tid = data.draw(st.sampled_from(self.expected), label="cancel")
        task = self.queue.cancel(tid)
        assert task.state is TaskState.CANCELLED
        self.expected.remove(tid)

    @invariant()
    def order_matches_model(self):
        assert self.queue.peek_ids() == self.expected
        assert len(self.queue) == len(self.expected)


TestGASchedulerStateful = GASchedulerMachine.TestCase
TestGASchedulerStateful.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None
)

TestTaskQueueStateful = TaskQueueMachine.TestCase
TestTaskQueueStateful.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None
)
