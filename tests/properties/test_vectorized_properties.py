"""Property tests for the GA kernel and its warm start.

The kernel draws its randomness in whole-population arrays, so its
correctness is gated on *properties* rather than on a particular random
stream:

* every individual it ever holds is a legitimate solution — row
  permutations and at-least-one-node masks — across seeds and population
  sizes;
* its lean evaluator agrees with the long-validated row-major evaluator
  and with the scalar eq.-(8) reference (``tests/oracles``) to
  floating-point noise, under every idle weighting and under shifted
  node availability;
* its schedule quality is no worse than the per-pair reference GA's
  (``tests/oracles``) on a fixed seed panel at an equal generation budget
  (per-seed outcomes differ by RNG-stream noise, so the gate is the panel
  mean — see docs/performance.md);
* the warm start is deterministic, including through a checkpoint /
  restore round-trip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ScheduleError, ValidationError
from repro.scheduling.ga import GAConfig, GAScheduler
from repro.scheduling.vectorized import (
    bernoulli_indices,
    vectorized_children,
    vectorized_costs,
    vectorized_selection,
)
from repro.scheduling.warmstart import (
    greedy_allocation_masks,
    greedy_allocation_masks_batch,
    warmstart_orders,
    warmstart_population,
)
from tests.oracles.ga_reference import ReferenceGA, reference_cost

N_NODES = 6


def make_ga(seed: int, *, population_size=20, n_tasks=8,
            **config_kwargs) -> GAScheduler:
    """A small GA over a synthetic sublinear-speedup duration table."""
    def row(tid):
        return [60.0 * (1.0 + 0.37 * (tid % 16)) / (k**0.8)
                for k in range(1, N_NODES + 1)]

    rows = {tid: row(tid) for tid in range(n_tasks)}
    ga = GAScheduler(
        N_NODES,
        lambda tid, k: rows.setdefault(tid, row(tid))[k - 1],
        np.random.default_rng(seed),
        GAConfig(population_size=population_size, **config_kwargs),
        duration_row=lambda tid: rows.setdefault(tid, row(tid)),
    )
    for tid in range(n_tasks):
        ga.add_task(tid, deadline=120.0 + 25.0 * tid)
    return ga


def assert_population_legitimate(ga: GAScheduler) -> None:
    order, masks = ga._order, ga._masks
    m = order.shape[1]
    assert np.array_equal(np.sort(order, axis=1),
                          np.broadcast_to(np.arange(m), order.shape))
    assert masks.dtype == bool
    assert masks.any(axis=2).all(), "every task must map to >= 1 node"


class TestBernoulliIndices:
    def test_degenerate_probabilities(self, rng):
        assert bernoulli_indices(rng, 100, 0.0).size == 0
        assert bernoulli_indices(rng, 0, 0.5).size == 0
        assert np.array_equal(bernoulli_indices(rng, 7, 1.0), np.arange(7))

    @pytest.mark.parametrize("seed", range(5))
    def test_indices_strictly_increasing_and_in_range(self, seed):
        rng = np.random.default_rng(seed)
        idx = bernoulli_indices(rng, 5000, 0.03)
        assert idx.dtype == np.int64
        assert (np.diff(idx) > 0).all()
        if idx.size:
            assert 0 <= idx[0] and idx[-1] < 5000

    def test_success_count_matches_binomial(self):
        # mean 1000, sigma ~31: a ±6-sigma band is astronomically safe
        # for a correct sampler and catches off-by-anything scaling bugs.
        rng = np.random.default_rng(42)
        total, p = 20_000, 0.05
        count = bernoulli_indices(rng, total, p).size
        assert abs(count - total * p) < 200

    def test_positions_cover_the_range_uniformly(self):
        # Split [0, total) in half: a geometric-gap walk that under- or
        # over-extends would skew the halves.
        rng = np.random.default_rng(7)
        idx = bernoulli_indices(rng, 40_000, 0.02)
        first = int((idx < 20_000).sum())
        assert abs(first - idx.size / 2) < 150


class TestSelectionProperties:
    def test_guaranteed_copies_and_exact_count(self, rng):
        fitness = np.array([1.0, 4.0, 2.0, 3.0])
        picks = vectorized_selection(fitness, 40, rng)
        assert picks.size == 40
        expected = fitness * (40 / fitness.sum())
        counts = np.bincount(picks, minlength=4)
        assert (counts >= np.floor(expected).astype(int)).all()

    def test_zero_fitness_falls_back_to_uniform(self, rng):
        picks = vectorized_selection(np.zeros(5), 30, rng)
        assert picks.size == 30
        assert picks.min() >= 0 and picks.max() < 5

    def test_overfull_guarantees_trimmed(self, rng):
        # floor(expected) sums above count when expectations are integral
        # and count is smaller than the guarantee total.
        picks = vectorized_selection(np.array([1.0, 1.0, 1.0, 1.0]), 3, rng)
        assert picks.size == 3


class TestChildrenProperties:
    @pytest.mark.parametrize("seed", range(4))
    def test_children_are_legitimate_permutations(self, seed):
        rng = np.random.default_rng(seed)
        pop, m, n = 12, 7, 4
        order = np.array([rng.permutation(m) for _ in range(pop)])
        masks = rng.random((pop, m, n)) < 0.5
        parents = rng.integers(0, pop, size=9)  # odd: leftover path too
        pairs = parents.size // 2
        child_order, child_masks = vectorized_children(
            order, masks, parents,
            rng.random(pairs) < 0.6,
            rng.integers(0, m + 1, size=pairs),
            rng.integers(0, m * n + 1, size=pairs),
        )
        assert child_order.shape == (parents.size, m)
        assert child_masks.shape == (parents.size, m, n)
        assert np.array_equal(np.sort(child_order, axis=1),
                              np.broadcast_to(np.arange(m), child_order.shape))
        # The leftover odd parent is copied verbatim.
        assert np.array_equal(child_order[-1], order[parents[-1]])
        assert np.array_equal(child_masks[-1], masks[parents[-1]])

    def test_non_crossing_pairs_copy_parents(self):
        rng = np.random.default_rng(0)
        pop, m, n = 6, 5, 3
        order = np.array([rng.permutation(m) for _ in range(pop)])
        masks = rng.random((pop, m, n)) < 0.5
        parents = np.array([0, 1, 2, 3])
        child_order, child_masks = vectorized_children(
            order, masks, parents,
            np.array([False, False]),
            np.array([2, 3]), np.array([7, 4]),
        )
        # a-head children are parents 0 and 2; b-head children 1 and 3.
        for slot, parent in ((0, 0), (1, 2), (2, 1), (3, 3)):
            assert np.array_equal(child_order[slot], order[parent])
            assert np.array_equal(child_masks[slot], masks[parent])


class TestEvaluatorParity:
    """The lean evaluator vs the long-validated population evaluator."""

    @pytest.mark.parametrize("idle_weighting", ["linear", "uniform", "exponential"])
    @pytest.mark.parametrize("seed", range(3))
    def test_costs_match_reference_evaluator(self, seed, idle_weighting):
        ga = make_ga(seed, idle_weighting=idle_weighting)
        rng = np.random.default_rng(100 + seed)
        pop, m = ga._order.shape
        order = np.array([rng.permutation(m) for _ in range(pop)])
        masks = rng.random((pop, m, N_NODES)) < 0.4
        masks |= ~masks.any(axis=2, keepdims=True)  # legitimacy repair
        free = list(10.0 * rng.random(N_NODES))
        for ref_time in (0.0, 5.0):
            expected = ga._evaluate(order, masks, free, ref_time)
            got = vectorized_costs(
                order, masks, ga._dtable, ga._deadline_arr,
                free, ref_time, ga.config.weights, idle_weighting,
            )
            np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_evolved_costs_match_scalar_reference(self, seed):
        """Every cost ``evolve`` retains is the scalar eq.-(8) cost."""
        ga = make_ga(seed)
        free = [3.0, 0.0, 1.0, 0.0, 7.0, 2.0]
        ga.evolve(6, free, 1.0)
        for p, cost in enumerate(ga.last_costs):
            expected = reference_cost(ga, ga._solution_at(p), free, 1.0)
            assert cost == pytest.approx(expected, rel=1e-9)

    def test_wrong_node_count_rejected(self):
        ga = make_ga(0)
        with pytest.raises(ScheduleError):
            ga._vector_costs(ga._order, ga._masks, [0.0] * (N_NODES + 1), 0.0)


class TestPopulationLegitimacy:
    @pytest.mark.parametrize("population_size", [10, 20, 50])
    @pytest.mark.parametrize("seed", range(3))
    def test_evolved_population_is_legitimate(self, seed, population_size):
        ga = make_ga(seed, population_size=population_size)
        ga.evolve(10, [0.0] * N_NODES, 0.0)
        assert_population_legitimate(ga)
        # best_solution round-trips through the packed coding
        best = ga.best_solution([0.0] * N_NODES, 0.0)
        assert sorted(best.ordering) == list(range(ga.n_tasks))

    def test_task_churn_keeps_legitimacy(self):
        ga = make_ga(3)
        free = [0.0] * N_NODES
        ga.evolve(5, free, 0.0)
        ga.remove_task(2)
        ga.evolve(5, free, 0.0)
        ga.add_task(99, deadline=500.0)
        ga.evolve(5, free, 0.0)
        assert_population_legitimate(ga)


def case_study_ga(cls, seed: int) -> GAScheduler:
    """12 paper applications on a 16-node SGI resource, population 50."""
    from repro.pace.evaluation import EvaluationEngine
    from repro.pace.hardware import SGI_ORIGIN_2000
    from repro.pace.workloads import paper_applications

    engine = EvaluationEngine()
    rows = [
        engine.evaluate_counts(model, SGI_ORIGIN_2000, 16)
        for model in paper_applications().values()
    ]
    ga = cls(
        16,
        lambda tid, k: float(rows[tid % len(rows)][k - 1]),
        np.random.default_rng(2003),
        GAConfig(),
        duration_row=lambda tid: rows[tid % len(rows)],
    )
    for tid in range(12):
        ga.add_task(tid, deadline=600.0 + 40.0 * tid)
    ga._rng = np.random.default_rng(seed)
    return ga


class TestQualityParity:
    def test_panel_mean_no_worse_than_reference(self):
        """Best-cost panel mean ≤ the reference GA's at equal budget.

        Per-seed outcomes legitimately differ (the kernels consume
        different RNG streams); the acceptance gate is the mean over a
        fixed 10-seed panel, where the production kernel's warm start
        and identical-distribution operators must not lose ground to the
        per-pair reference loop.
        """
        free = [0.0] * 16
        bests = {GAScheduler: [], ReferenceGA: []}
        for cls, panel in bests.items():
            for seed in range(10):
                panel.append(case_study_ga(cls, seed).evolve(50, free, 0.0))
        prod = float(np.mean(bests[GAScheduler]))
        ref = float(np.mean(bests[ReferenceGA]))
        assert prod <= ref + 1e-9, f"kernel {prod:.4f} > reference {ref:.4f}"


class TestWarmstartProperties:
    def make_inputs(self, seed, m=9, n=5):
        rng = np.random.default_rng(seed)
        dtable = np.sort(60.0 * rng.random((m, n)) + 1.0, axis=1)[:, ::-1].copy()
        deadlines = 100.0 + 200.0 * rng.random(m)
        free = 10.0 * rng.random(n)
        return dtable, deadlines, free

    @pytest.mark.parametrize("seed", range(4))
    def test_population_deterministic_and_legitimate(self, seed):
        dtable, deadlines, free = self.make_inputs(seed)
        m = dtable.shape[0]
        out = [
            warmstart_population(dtable, deadlines, free, 2.0, 7,
                                 np.random.default_rng(99))
            for _ in range(2)
        ]
        assert np.array_equal(out[0][0], out[1][0])
        assert np.array_equal(out[0][1], out[1][1])
        orders, masks = out[0]
        assert np.array_equal(np.sort(orders, axis=1),
                              np.broadcast_to(np.arange(m), orders.shape))
        assert masks.any(axis=2).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_greedy_matches_single(self, seed):
        dtable, deadlines, free = self.make_inputs(seed)
        orders = warmstart_orders(dtable, deadlines, 5, np.random.default_rng(seed))
        batch = greedy_allocation_masks_batch(orders, dtable, free, 1.5)
        for i, order in enumerate(orders):
            single = greedy_allocation_masks(order, dtable, free, 1.5)
            assert np.array_equal(batch[i], single)

    def test_count_below_one_rejected(self, rng):
        dtable, deadlines, _ = self.make_inputs(0)
        with pytest.raises(ValidationError):
            warmstart_orders(dtable, deadlines, 0, rng)

    def test_same_seed_runs_identical(self):
        free = [0.0] * N_NODES
        costs = []
        finals = []
        for _ in range(2):
            ga = make_ga(11)
            costs.append(ga.evolve(8, free, 0.0))
            finals.append((ga._order.copy(), ga._masks.copy()))
        assert costs[0] == costs[1]
        assert np.array_equal(finals[0][0], finals[1][0])
        assert np.array_equal(finals[0][1], finals[1][1])


class TestCheckpointRoundTrip:
    def test_restore_resumes_identically(self):
        free = [0.0] * N_NODES
        ga1 = make_ga(21)
        ga1.evolve(6, free, 0.0)
        snap = ga1.snapshot_state()
        rng_state = ga1._rng.bit_generator.state
        cost_direct = ga1.evolve(6, free, 0.0)

        ga2 = make_ga(21)
        ga2.restore_state(snap)
        ga2._rng.bit_generator.state = rng_state
        cost_resumed = ga2.evolve(6, free, 0.0)
        assert cost_resumed == cost_direct
        assert np.array_equal(ga1._order, ga2._order)
        assert np.array_equal(ga1._masks, ga2._masks)
