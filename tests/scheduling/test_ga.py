"""Tests for the GA scheduling kernel."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ScheduleError, ValidationError
from repro.scheduling.cost import CostWeights
from repro.scheduling.ga import GAConfig, GAScheduler
from tests.oracles.ga_reference import reference_cost


def table_duration(rows: dict):
    """duration(task_id, count) from a {task_id: [t1..tn]} table."""
    return lambda tid, k: rows[tid][k - 1]


@pytest.fixture
def durations():
    return {
        0: [10.0, 6.0, 4.0, 3.0],
        1: [8.0, 5.0, 4.0, 4.0],
        2: [12.0, 7.0, 5.0, 4.0],
    }


@pytest.fixture
def ga(durations, rng):
    ga = GAScheduler(4, table_duration(durations), rng, GAConfig(population_size=20))
    return ga


class TestConfig:
    def test_defaults_match_paper(self):
        assert GAConfig().population_size == 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"population_size": 1},
            {"crossover_probability": 1.5},
            {"swap_probability": -0.1},
            {"bitflip_probability": 2.0},
            {"elite_count": 50},
            {"idle_weighting": "bogus"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            GAConfig(**kwargs)


class TestTaskChurn:
    def test_add_creates_population(self, ga):
        ga.add_task(0, deadline=50.0)
        assert ga.n_tasks == 1
        assert len(ga.population) == 20
        for sol in ga.population:
            assert sol.ordering == (0,)
            assert sol.count(0) >= 1

    def test_add_splices_existing(self, ga):
        ga.add_task(0, 50.0)
        ga.add_task(1, 60.0)
        for sol in ga.population:
            assert sorted(sol.ordering) == [0, 1]

    def test_duplicate_add_rejected(self, ga):
        ga.add_task(0, 50.0)
        with pytest.raises(ScheduleError):
            ga.add_task(0, 50.0)

    def test_remove_excises(self, ga):
        ga.add_task(0, 50.0)
        ga.add_task(1, 60.0)
        ga.remove_task(0)
        assert ga.task_ids == (1,)
        for sol in ga.population:
            assert sol.ordering == (1,)

    def test_remove_last_empties(self, ga):
        ga.add_task(0, 50.0)
        ga.remove_task(0)
        assert ga.n_tasks == 0
        assert ga.population == []

    def test_remove_unknown_rejected(self, ga):
        with pytest.raises(ScheduleError):
            ga.remove_task(9)

    def test_deadline_lookup(self, ga):
        ga.add_task(2, 33.0)
        assert ga.deadline(2) == 33.0
        with pytest.raises(ScheduleError):
            ga.deadline(0)

    def test_churn_keeps_population_legitimate(self, ga, rng):
        ga.add_task(0, 50.0)
        ga.add_task(1, 60.0)
        ga.evolve(3, [0.0] * 4, 0.0)
        ga.add_task(2, 70.0)
        ga.evolve(3, [0.0] * 4, 0.0)
        ga.remove_task(1)
        ga.evolve(3, [0.0] * 4, 0.0)
        for sol in ga.population:
            assert sorted(sol.ordering) == [0, 2]
            for tid in (0, 2):
                assert sol.count(tid) >= 1


class TestEvolution:
    def test_cost_never_worsens_with_elitism(self, ga):
        for tid, dl in ((0, 20.0), (1, 25.0), (2, 30.0)):
            ga.add_task(tid, dl)
        free = [0.0] * 4
        costs = [ga.evolve(1, free, 0.0) for _ in range(10)]
        for earlier, later in zip(costs, costs[1:]):
            assert later <= earlier + 1e-9

    def test_generations_counted(self, ga):
        ga.add_task(0, 50.0)
        ga.evolve(5, [0.0] * 4, 0.0)
        assert ga.generations == 5

    def test_history_tracks_best_cost(self, ga):
        for tid, dl in ((0, 20.0), (1, 25.0), (2, 30.0)):
            ga.add_task(tid, dl)
        final = ga.evolve(6, [0.0] * 4, 0.0)
        history = ga.history
        assert [g for g, _ in history] == [1, 2, 3, 4, 5, 6]
        costs = [c for _, c in history]
        assert costs == sorted(costs, reverse=True)  # monotone with elitism
        assert costs[-1] == pytest.approx(final)

    def test_evolve_empty_is_noop(self, ga):
        assert ga.evolve(5, [0.0] * 4, 0.0) == 0.0
        assert ga.generations == 0

    def test_negative_generations_rejected(self, ga):
        ga.add_task(0, 50.0)
        with pytest.raises(ValidationError):
            ga.evolve(-1, [0.0] * 4, 0.0)

    def test_wrong_free_length_rejected(self, ga):
        ga.add_task(0, 50.0)
        with pytest.raises(ScheduleError):
            ga.evolve(1, [0.0] * 3, 0.0)

    def test_deterministic_given_seed(self, durations):
        def run(seed):
            ga = GAScheduler(
                4,
                table_duration(durations),
                np.random.default_rng(seed),
                GAConfig(population_size=16),
            )
            for tid, dl in ((0, 20.0), (1, 25.0), (2, 30.0)):
                ga.add_task(tid, dl)
            return ga.evolve(8, [0.0] * 4, 0.0)

        assert run(7) == run(7)

    def test_best_solution_requires_tasks(self, ga):
        with pytest.raises(ScheduleError):
            ga.best_solution([0.0] * 4, 0.0)

    def test_best_solution_is_lowest_cost(self, ga):
        for tid, dl in ((0, 20.0), (1, 25.0), (2, 30.0)):
            ga.add_task(tid, dl)
        free = [0.0] * 4
        ga.evolve(5, free, 0.0)
        best = ga.best_solution(free, 0.0)
        best_cost = ga.cost_of(best, free, 0.0)
        for sol in ga.population:
            assert best_cost <= ga.cost_of(sol, free, 0.0) + 1e-9


class TestVectorisedAgainstReference:
    def test_cost_of_matches_reference(self, ga):
        for tid, dl in ((0, 20.0), (1, 25.0), (2, 30.0)):
            ga.add_task(tid, dl)
        free = [2.0, 0.0, 5.0, 0.0]
        for sol in ga.population[:10]:
            fast = ga.cost_of(sol, free, 1.0)
            slow = reference_cost(ga, sol, free, 1.0)
            assert fast == pytest.approx(slow, rel=1e-9)

    @pytest.mark.parametrize("weighting", ["linear", "uniform", "exponential"])
    def test_all_weightings_match_reference(self, durations, weighting):
        ga = GAScheduler(
            4,
            table_duration(durations),
            np.random.default_rng(3),
            GAConfig(population_size=12, idle_weighting=weighting),
        )
        for tid, dl in ((0, 10.0), (1, 12.0), (2, 14.0)):
            ga.add_task(tid, dl)
        free = [0.0, 3.0, 1.0, 0.0]
        for sol in ga.population:
            fast = ga.cost_of(sol, free, 0.0)
            slow = reference_cost(ga, sol, free, 0.0)
            assert fast == pytest.approx(slow, rel=1e-9)


class TestMemetic:
    def test_greedy_mapping_is_conflict_free(self, ga, durations):
        for tid, dl in ((0, 20.0), (1, 25.0), (2, 30.0)):
            ga.add_task(tid, dl)
        order = np.array([0, 1, 2])
        masks = ga.greedy_mapping(order, [0.0] * 4, 0.0)
        assert masks.shape == (3, 4)
        assert all(masks[r].any() for r in range(3))

    def test_memetic_beats_pure_ga_quickly(self, durations):
        def best_cost(memetic: bool) -> float:
            ga = GAScheduler(
                4,
                table_duration(durations),
                np.random.default_rng(11),
                GAConfig(population_size=16, memetic=memetic),
            )
            for tid, dl in ((0, 5.0), (1, 6.0), (2, 7.0)):
                ga.add_task(tid, dl)
            return ga.evolve(3, [0.0] * 4, 0.0)

        assert best_cost(True) <= best_cost(False) + 1e-9
