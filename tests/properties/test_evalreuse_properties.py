"""Property tests: the evaluation-reuse layer changes nothing but speed.

Three claims are asserted across random seeds, population sizes and task
counts:

* the cost vector ``evolve`` retains — elite costs carried forward,
  children and memetic candidates costed in their own batches — is **bit
  identical** to a fresh costing of the whole population, so the
  incumbent ``best_solution`` picks is the same whether or not the cost
  cache answered, including through task churn and availability changes;
* the reuse counters partition every requested cost into evaluated and
  carried rows;
* ``GAConfig(early_stop_after=K)`` only ever *truncates* the generation
  sequence, never halts before K consecutive non-improving generations,
  and never fires when improvement keeps arriving.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.ga import GAConfig, GAScheduler


def _duration(task_id: int, count: int) -> float:
    return 10.0 / count + task_id % 3


def _make_ga(seed: int, n_tasks: int, *, population_size: int = 12,
             **config) -> GAScheduler:
    ga = GAScheduler(
        4,
        _duration,
        np.random.default_rng(seed),
        GAConfig(population_size=population_size, **config),
    )
    for tid in range(n_tasks):
        ga.add_task(tid, deadline=50.0 + 10.0 * tid)
    return ga


def _state(ga: GAScheduler):
    """Everything reuse must not perturb: population, history, RNG."""
    return (
        ga._order.copy(),
        ga._masks.copy(),
        ga.history,
        ga._rng.bit_generator.state,
    )


def _same_solution(a, b) -> bool:
    return a.ordering == b.ordering and all(
        np.array_equal(a.mask(tid), b.mask(tid)) for tid in a.ordering
    )


class TestEvalReuseEquivalence:
    @given(
        seed=st.integers(0, 2**31),
        n_tasks=st.integers(1, 6),
        population_size=st.integers(8, 16),
    )
    @settings(max_examples=15, deadline=None)
    def test_evolve_reuse_equals_naive(self, seed, n_tasks, population_size):
        """Carried costs equal a naive full recosting, bit for bit."""
        free = [0.0] * 4
        ga = _make_ga(seed, n_tasks, population_size=population_size)
        ga.evolve(5, free, 0.0)
        naive = ga._vector_costs(ga._order, ga._masks, free, 0.0)
        assert np.array_equal(ga.last_costs, naive)

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_equality_survives_churn_and_availability_change(self, seed):
        """A twin whose cost cache is cleared before every lookup agrees."""
        states = {}
        for clear_cache in (False, True):
            ga = _make_ga(seed, 5)

            def best(free, ref_time):
                if clear_cache:
                    ga._invalidate_cost_cache()
                return ga.best_solution(free, ref_time)

            ga.evolve(3, [0.0] * 4, 0.0)
            best([0.0] * 4, 0.0)  # event cache hit vs recompute
            ga.remove_task(1)
            ga.remove_task(4)
            ga.add_task(7, deadline=90.0)
            ga.evolve(3, [2.0, 0.0, 5.0, 1.0], 1.5)
            states[clear_cache] = (*_state(ga), best([2.0, 0.0, 5.0, 1.0], 1.5))
        order_a, masks_a, history_a, rng_a, best_a = states[False]
        order_b, masks_b, history_b, rng_b, best_b = states[True]
        assert np.array_equal(order_a, order_b)
        assert np.array_equal(masks_a, masks_b)
        assert history_a == history_b
        assert rng_a == rng_b
        assert _same_solution(best_a, best_b)

    @given(
        seed=st.integers(0, 2**31),
        n_tasks=st.integers(1, 6),
        generations=st.integers(0, 8),
        free=st.lists(st.floats(0.0, 20.0), min_size=4, max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_best_solution_is_argmin_of_last_costs(
        self, seed, n_tasks, generations, free
    ):
        """A recomputed incumbent is the one ``evolve``'s costs name."""
        ga = _make_ga(seed, n_tasks)
        ga.evolve(generations, free, 1.0)
        costs = ga.last_costs
        ga._invalidate_cost_cache()
        best = ga.best_solution(free, 1.0)
        assert ga.stats.event_cache_misses == 1
        assert _same_solution(best, ga._solution_at(int(np.argmin(costs))))
        assert ga.cost_of(best, free, 1.0) == costs.min()

    @given(seed=st.integers(0, 2**31), n_tasks=st.integers(1, 5))
    @settings(max_examples=10, deadline=None)
    def test_counters_partition_rows_costed(self, seed, n_tasks):
        """Every requested cost is either evaluated or carried — exactly."""
        ga = _make_ga(seed, n_tasks)
        ga.evolve(5, [0.0] * 4, 0.0)
        ga.best_solution([1.0] * 4, 0.0)  # a miss recosts the population
        stats = ga.stats
        assert stats.rows_costed == stats.rows_evaluated + stats.carry_hits
        assert 0.0 <= stats.hit_rate <= 1.0


class TestEarlyStop:
    @given(
        seed=st.integers(0, 2**31),
        n_tasks=st.integers(1, 4),
        patience=st.integers(1, 3),
    )
    @settings(max_examples=15, deadline=None)
    def test_stops_only_after_patience_flat_generations(
        self, seed, n_tasks, patience
    ):
        free = [0.0] * 4
        generations = 12
        reference = _make_ga(seed, n_tasks)
        reference.evolve(generations, free, 0.0)
        ref_history = reference.history

        ga = _make_ga(seed, n_tasks, early_stop_after=patience)
        ga.evolve(generations, free, 0.0)
        history = ga.history
        ran = len(history)

        # Early stop only truncates the uninterrupted generation sequence.
        assert history == ref_history[:ran]

        if ran < generations:
            assert ga.stats.early_stops == 1
            assert ran >= patience  # never halts before K generations elapsed
            # The best cost *before* the generation loop (after the initial
            # costing + warm-start injection) seeds the stall counter; evolve(0)
            # on an identical twin reproduces it without RNG divergence.
            twin = _make_ga(seed, n_tasks, early_stop_after=patience)
            initial_best = twin.evolve(0, free, 0.0)
            bests = [initial_best] + [cost for _, cost in history]
            # Each of the final `patience` generations failed to improve
            # on the running best — that, and only that, permits the halt.
            for i in range(ran - patience, ran):
                running_best = min(bests[: i + 1])
                assert bests[i + 1] >= running_best
        else:
            assert ga.stats.early_stops == 0

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_disabled_by_default(self, seed):
        """``early_stop_after=None`` always runs every requested generation."""
        ga = _make_ga(seed, 2)
        ga.evolve(10, [0.0] * 4, 0.0)
        assert len(ga.history) == 10
        assert ga.stats.early_stops == 0
