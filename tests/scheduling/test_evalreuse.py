"""Unit tests for the evaluation-reuse layer's caches and counters.

The property tests establish that reuse is bit-identical; these tests
pin down *that the reuse actually happens*: the event-level cost cache
answers ``best_solution`` after ``evolve`` without another eq.-(8)
evaluation, availability or population changes force a recompute, and a
GA-policy scheduling event pays fewer evaluator calls per generation than
the reference GA, which re-costs everything (``tests/oracles``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.pace.evaluation import EvaluationEngine
from repro.scheduling.ga import GAConfig, GAScheduler
from repro.scheduling.scheduler import LocalScheduler, SchedulingPolicy
from repro.sim.engine import Engine
from repro.tasks.task import Environment, TaskRequest, TaskState
from tests.oracles.ga_reference import ReferenceGA

FREE = [0.0, 0.0, 0.0, 0.0]


def _duration(task_id: int, count: int) -> float:
    return 10.0 / count + task_id % 3


def _make_ga(n_tasks: int = 3, **config) -> GAScheduler:
    ga = GAScheduler(
        4,
        _duration,
        np.random.default_rng(7),
        GAConfig(population_size=12, **config),
    )
    for tid in range(n_tasks):
        ga.add_task(tid, deadline=60.0 + 10.0 * tid)
    return ga


class TestEventCostCache:
    def test_best_solution_after_evolve_reuses_cached_costs(self):
        ga = _make_ga()
        ga.evolve(4, FREE, 0.0)
        assert ga.last_costs is not None
        evaluations = ga.stats.evaluate_calls
        ga.best_solution(FREE, 0.0)
        assert ga.stats.evaluate_calls == evaluations  # zero extra evaluation
        assert ga.stats.event_cache_hits == 1
        assert ga.stats.event_cache_misses == 0

    def test_changed_free_times_recompute(self):
        ga = _make_ga()
        ga.evolve(4, FREE, 0.0)
        evaluations = ga.stats.evaluate_calls
        ga.best_solution([5.0, 0.0, 0.0, 0.0], 0.0)
        assert ga.stats.evaluate_calls > evaluations
        assert ga.stats.event_cache_misses == 1

    def test_changed_ref_time_recomputes(self):
        ga = _make_ga()
        ga.evolve(4, FREE, 0.0)
        evaluations = ga.stats.evaluate_calls
        ga.best_solution(FREE, 1.0)
        assert ga.stats.evaluate_calls > evaluations
        assert ga.stats.event_cache_misses == 1

    def test_clamp_equivalent_free_times_hit(self):
        """eq. (8) only sees max(free, ref): sub-ref differences are moot."""
        ga = _make_ga()
        ga.evolve(4, FREE, 5.0)
        evaluations = ga.stats.evaluate_calls
        ga.best_solution([3.0, 1.0, 0.0, 4.5], 5.0)  # all clamp to 5.0
        assert ga.stats.evaluate_calls == evaluations
        assert ga.stats.event_cache_hits == 1

    def test_best_solution_miss_primes_the_cache(self):
        ga = _make_ga()
        ga.evolve(4, FREE, 0.0)
        ga.best_solution([5.0, 0.0, 0.0, 0.0], 0.0)  # miss, recompute, store
        evaluations = ga.stats.evaluate_calls
        ga.best_solution([5.0, 0.0, 0.0, 0.0], 0.0)
        assert ga.stats.evaluate_calls == evaluations
        assert ga.stats.event_cache_hits == 1

    def test_add_task_invalidates(self):
        ga = _make_ga()
        ga.evolve(4, FREE, 0.0)
        ga.add_task(99, deadline=80.0)
        assert ga.last_costs is None
        ga.best_solution(FREE, 0.0)
        assert ga.stats.event_cache_misses == 1

    def test_remove_task_invalidates(self):
        ga = _make_ga()
        ga.evolve(4, FREE, 0.0)
        ga.remove_task(1)
        assert ga.last_costs is None
        ga.best_solution(FREE, 0.0)
        assert ga.stats.event_cache_misses == 1

    def test_cached_vector_matches_naive_evaluation(self):
        """The cached vector is what a fresh costing would produce."""
        ga = _make_ga()
        ga.evolve(4, FREE, 0.0)
        cached = ga.last_costs
        recomputed = ga._vector_costs(ga._order, ga._masks, FREE, 0.0)
        assert np.array_equal(cached, recomputed)

    def test_last_costs_returns_a_copy(self):
        ga = _make_ga()
        ga.evolve(2, FREE, 0.0)
        ga.last_costs[0] = -1.0
        assert ga.last_costs[0] != -1.0


class TestEarlyStopConfig:
    @pytest.mark.parametrize("bad", [0, -1])
    def test_non_positive_patience_rejected(self, bad):
        with pytest.raises(ValidationError):
            GAConfig(early_stop_after=bad)

    def test_converged_run_stops_early(self):
        ga = _make_ga(n_tasks=1, early_stop_after=2)
        ga.evolve(60, FREE, 0.0)
        assert ga.stats.early_stops == 1
        assert len(ga.history) < 60


def _run_workload(monkeypatch=None):
    """Six staggered submissions through a GA LocalScheduler; run to empty.

    With *monkeypatch*, the scheduler builds the reference GA instead.
    """
    from repro.pace.hardware import SGI_ORIGIN_2000
    from repro.pace.resource import ResourceModel
    from repro.pace.workloads import paper_application_specs

    if monkeypatch is not None:
        monkeypatch.setattr("repro.scheduling.scheduler.GAScheduler", ReferenceGA)
    sim = Engine()
    specs = paper_application_specs()
    scheduler = LocalScheduler(
        sim,
        ResourceModel.homogeneous("small", SGI_ORIGIN_2000, 4),
        EvaluationEngine(),
        policy=SchedulingPolicy.GA,
        rng=np.random.default_rng(2003),
        generations_per_event=5,
    )
    tasks = []
    for i in range(6):
        tasks.append(
            scheduler.submit(
                TaskRequest(
                    application=specs["sweep3d" if i % 2 else "improc"].model,
                    environment=Environment.TEST,
                    deadline=sim.now + 400.0,
                    submit_time=sim.now,
                )
            )
        )
        sim.run_until(sim.now + 2.0)
    sim.run()
    return scheduler, tasks


class TestSchedulingEventReuse:
    def test_evaluate_calls_per_event_drop(self, monkeypatch):
        """Fewer eq.-(8) evaluator calls per generation than re-costing all.

        The reference GA costs the whole population and its memetic
        candidate every generation and re-costs at every dispatch.  The
        production kernel costs only the children, re-maps the incumbent
        only when its ordering changed, and dispatch's ``best_solution``
        rides the evolve-stored cost vector.  The two runs draw different
        random streams, so the comparison is per generation.
        """
        production, tasks = _run_workload()
        reference, tasks_ref = _run_workload(monkeypatch)
        assert isinstance(reference.ga, ReferenceGA)
        assert all(t.state is TaskState.COMPLETED for t in tasks)
        assert all(t.state is TaskState.COMPLETED for t in tasks_ref)

        def per_generation(scheduler):
            return scheduler.ga.stats.evaluate_calls / scheduler.ga.generations

        assert per_generation(production) < per_generation(reference)

    def test_dispatch_rides_the_event_cache(self):
        """Every evolve → dispatch sequence answers from the cost cache."""
        scheduler, _ = _run_workload()
        stats = scheduler.ga.stats
        assert stats.event_cache_hits > 0
        # Dispatch passes evolve's own availability vector, so its
        # best_solution never misses.
        assert stats.event_cache_misses == 0
