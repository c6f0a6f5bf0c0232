"""Property tests: the GA's array operators agree with the references.

Three layers of agreement are asserted:

* each pure array operator (:mod:`repro.scheduling.vectorized`) equals the
  corresponding reference built from :mod:`repro.scheduling.operators` /
  ``np.insert``, row for row, given the same random choices;
* a full evolve of the per-pair reference GA (``tests/oracles``) is
  byte-identical whether its crossover runs pair by pair or through the
  production array operators — including through task churn — because
  both settings consume one identical RNG stream;
* swap-remove (``remove_task``) preserves the population abstractly: every
  ordering remains a permutation of the surviving rows and every task
  keeps the mask it had before removal.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduling.ga import GAConfig, GAScheduler
from repro.scheduling.operators import order_splice
from repro.scheduling.vectorized import (
    vectorized_insert,
    vectorized_mask_crossover,
    vectorized_order_splice,
)
from tests.oracles.ga_reference import ReferenceGA


@st.composite
def splice_batches(draw):
    """A batch of ordering pairs with per-pair cuts."""
    batch = draw(st.integers(1, 5))
    m = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    orders_a = np.stack([rng.permutation(m) for _ in range(batch)])
    orders_b = np.stack([rng.permutation(m) for _ in range(batch)])
    cuts = rng.integers(0, m + 1, size=batch)
    return orders_a, orders_b, cuts


@st.composite
def crossover_batches(draw):
    """Splice batches plus row-keyed masks and per-pair crossover points."""
    orders_a, orders_b, cuts = draw(splice_batches())
    batch, m = orders_a.shape
    n = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    masks_a = rng.random((batch, m, n)) < 0.5
    masks_b = rng.random((batch, m, n)) < 0.5
    points = rng.integers(0, m * n + 1, size=batch)
    return orders_a, orders_b, cuts, masks_a, masks_b, points


class TestBatchedOrderSplice:
    @given(data=splice_batches())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_rowwise(self, data):
        orders_a, orders_b, cuts = data
        children = vectorized_order_splice(orders_a, orders_b, cuts)
        for i in range(orders_a.shape[0]):
            expected = order_splice(
                tuple(orders_a[i]), tuple(orders_b[i]), int(cuts[i])
            )
            assert tuple(children[i]) == expected

    @given(data=splice_batches())
    @settings(max_examples=100, deadline=None)
    def test_children_are_permutations(self, data):
        orders_a, orders_b, cuts = data
        m = orders_a.shape[1]
        children = vectorized_order_splice(orders_a, orders_b, cuts)
        for row in children:
            assert sorted(row) == list(range(m))


class TestBatchedMaskCrossover:
    @staticmethod
    def reference_cross_maps(child_order, first, second, point):
        """The per-pair gather/cross/scatter the array operator replaces."""
        m, n = first.shape
        flat_first = first[child_order].reshape(-1)
        flat_second = second[child_order].reshape(-1)
        child_flat = np.concatenate([flat_first[:point], flat_second[point:]])
        child_masks = np.empty_like(first)
        child_masks[child_order] = child_flat.reshape(m, n)
        return child_masks

    @given(data=crossover_batches())
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_rowwise(self, data):
        orders_a, orders_b, cuts, masks_a, masks_b, points = data
        child_orders = vectorized_order_splice(orders_a, orders_b, cuts)
        children = vectorized_mask_crossover(child_orders, masks_a, masks_b, points)
        for i in range(orders_a.shape[0]):
            expected = self.reference_cross_maps(
                child_orders[i], masks_a[i], masks_b[i], int(points[i])
            )
            assert np.array_equal(children[i], expected)

    @given(data=crossover_batches())
    @settings(max_examples=100, deadline=None)
    def test_extreme_points_copy_one_parent(self, data):
        orders_a, orders_b, cuts, masks_a, masks_b, _ = data
        batch, m = orders_a.shape
        n = masks_a.shape[2]
        child_orders = vectorized_order_splice(orders_a, orders_b, cuts)
        all_first = vectorized_mask_crossover(
            child_orders, masks_a, masks_b, np.full(batch, m * n)
        )
        all_second = vectorized_mask_crossover(
            child_orders, masks_a, masks_b, np.zeros(batch, dtype=int)
        )
        assert np.array_equal(all_first, masks_a)
        assert np.array_equal(all_second, masks_b)


class TestBatchedInsert:
    @given(
        batch=st.integers(1, 6),
        m=st.integers(0, 8),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_np_insert_rowwise(self, batch, m, seed):
        rng = np.random.default_rng(seed)
        orders = np.stack([rng.permutation(m) for _ in range(batch)])
        positions = rng.integers(0, m + 1, size=batch)
        children = vectorized_insert(orders, positions, m)
        for i in range(batch):
            expected = np.insert(orders[i], int(positions[i]), m)
            assert np.array_equal(children[i], expected)


def _duration(task_id: int, count: int) -> float:
    return 10.0 / count + task_id % 3


def _reference_ga(seed: int, crossover: str, n_tasks: int) -> ReferenceGA:
    ga = ReferenceGA(
        4,
        _duration,
        np.random.default_rng(seed),
        GAConfig(population_size=12),
        crossover=crossover,
    )
    for tid in range(n_tasks):
        ga.add_task(tid, deadline=50.0 + 10.0 * tid)
    return ga


class TestKernelEquivalence:
    @given(seed=st.integers(0, 2**31), n_tasks=st.integers(1, 6))
    @settings(max_examples=15, deadline=None)
    def test_evolve_batched_equals_reference(self, seed, n_tasks):
        """Array crossover inside the reference loop changes nothing."""
        free = [0.0] * 4
        populations = {}
        for crossover in ("array", "per-pair"):
            ga = _reference_ga(seed, crossover, n_tasks)
            ga.evolve(5, free, 0.0)
            populations[crossover] = (ga._order.copy(), ga._masks.copy(), ga.history)
        assert np.array_equal(populations["array"][0], populations["per-pair"][0])
        assert np.array_equal(populations["array"][1], populations["per-pair"][1])
        assert populations["array"][2] == populations["per-pair"][2]

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_evolve_equality_survives_churn(self, seed):
        free = [0.0] * 4
        populations = {}
        for crossover in ("array", "per-pair"):
            ga = _reference_ga(seed, crossover, 5)
            ga.evolve(3, free, 0.0)
            ga.remove_task(1)
            ga.remove_task(4)
            ga.add_task(7, deadline=90.0)
            ga.evolve(3, free, 5.0)
            populations[crossover] = (ga._order.copy(), ga._masks.copy())
        assert np.array_equal(populations["array"][0], populations["per-pair"][0])
        assert np.array_equal(populations["array"][1], populations["per-pair"][1])


class TestSwapRemoveInvariants:
    @given(
        seed=st.integers(0, 2**31),
        remove_at=st.integers(0, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_population_survives_removal_abstractly(self, seed, remove_at):
        ga = GAScheduler(
            4,
            _duration,
            np.random.default_rng(seed),
            GAConfig(population_size=10),
        )
        for tid in range(5):
            ga.add_task(tid, deadline=50.0 + 10.0 * tid)
        # Abstract view before removal: per-individual task sequences and
        # per-task masks, keyed by task id (row numbering is internal).
        before_orders = [
            [ga.task_ids[row] for row in individual] for individual in ga._order
        ]
        before_masks = [
            {tid: ga._masks[p, ga._row_of[tid]].copy() for tid in ga.task_ids}
            for p in range(10)
        ]
        ga.remove_task(remove_at)
        survivors = set(range(5)) - {remove_at}
        assert set(ga.task_ids) == survivors
        for p in range(10):
            sequence = [ga.task_ids[row] for row in ga._order[p]]
            assert sequence == [t for t in before_orders[p] if t != remove_at]
            for tid in survivors:
                assert np.array_equal(
                    ga._masks[p, ga._row_of[tid]], before_masks[p][tid]
                )
        # Internal packing: rows are dense 0..m-1 and consistently keyed.
        assert sorted(ga._row_of.values()) == list(range(4))
        for tid, row in ga._row_of.items():
            assert ga.task_ids[row] == tid
