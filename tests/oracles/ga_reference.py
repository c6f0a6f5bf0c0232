"""The per-pair reference GA kernel and the scalar eq.-(8) cost.

:class:`ReferenceGA` is the GA loop written the way §2.1 reads: every
random choice drawn scalar, pair by pair, crossover applied to one parent
pair at a time, every individual mutated on its own, the whole population
re-costed every generation, and the memetic greedy re-map run on every
generation.  It shares task churn, precedence repair, the greedy mapper
and the row-major evaluator with :class:`~repro.scheduling.ga.GAScheduler`
(it is a subclass), so a comparison isolates the generation loop.

It is the oracle for:

* schedule-cost parity — the production kernel's best cost must not lose
  to this loop's at an equal generation budget;
* invariants — every individual either kernel holds is a legitimate,
  precedence-respecting solution;
* the array crossover operators — run with ``crossover="array"``, this
  loop swaps its per-pair crossover for the production
  :func:`~repro.scheduling.vectorized.vectorized_order_splice` /
  :func:`~repro.scheduling.vectorized.vectorized_mask_crossover` with the
  identical pre-drawn choices, and must produce byte-identical
  populations.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.scheduling.coding import SolutionString
from repro.scheduling.cost import IDLE_WEIGHTERS, schedule_cost
from repro.scheduling.fitness import scale_fitness
from repro.scheduling.ga import GAScheduler
from repro.scheduling.operators import stochastic_remainder_selection
from repro.scheduling.schedule import build_schedule
from repro.scheduling.vectorized import (
    vectorized_mask_crossover,
    vectorized_order_splice,
)

__all__ = ["ReferenceGA", "reference_cost"]


def reference_cost(
    ga: GAScheduler,
    solution: SolutionString,
    node_free_times: Sequence[float],
    ref_time: float,
) -> float:
    """Scalar eq.-(8) cost of *solution* over *ga*'s tasks.

    Built from the schedule builder and the object-level cost function,
    with no array evaluator involved.
    """
    schedule = build_schedule(
        solution,
        node_free_times,
        lambda tid, k: float(ga._dtable[ga._require_row(tid)][k - 1]),
        ref_time=ref_time,
    )
    deadlines = {tid: float(ga._deadline_arr[r]) for tid, r in ga._row_of.items()}
    breakdown = schedule_cost(
        schedule,
        deadlines,
        ga.config.weights,
        idle_weighter=IDLE_WEIGHTERS[ga.config.idle_weighting],
    )
    return breakdown.combined


class ReferenceGA(GAScheduler):
    """The per-pair reference kernel (see the module notes).

    ``crossover`` is ``"per-pair"`` (the reference crossover) or
    ``"array"`` (the production array operators fed the same draws).
    """

    def __init__(self, *args, crossover: str = "per-pair", **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if crossover not in ("per-pair", "array"):
            raise ValueError(f"unknown crossover {crossover!r}")
        self._crossover = crossover

    # ------------------------------------------------------------- costing

    def _full_costs(self, node_free_times, ref_time) -> np.ndarray:
        """Every individual through the row-major evaluator, no reuse."""
        return self._evaluate(self._order, self._masks, node_free_times, ref_time)

    def best_solution(self, node_free_times, ref_time) -> SolutionString:
        if self._order is None:
            return super().best_solution(node_free_times, ref_time)
        costs = self._full_costs(node_free_times, ref_time)
        return self._solution_at(int(np.argmin(costs)))

    # ------------------------------------------------------------ operators

    def _crossover_pair(
        self, pa: int, pb: int, cut: int, point: int
    ) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
        """Two-part crossover of individuals *pa*, *pb*.

        Ordering: splice at *cut* (both directions).  Mapping: flatten
        each parent's masks *in the child's task order*, single-point
        binary crossover at the shared *point*, un-flatten keyed by row.
        """
        order, masks = self._order, self._masks
        m, n = masks.shape[1], masks.shape[2]
        oa, ob = order[pa], order[pb]

        def splice(head_src: np.ndarray, tail_src: np.ndarray) -> np.ndarray:
            head = head_src[:cut]
            in_head = np.zeros(m, dtype=bool)
            in_head[head] = True
            return np.concatenate([head, tail_src[~in_head[tail_src]]])

        def cross_maps(child_order, first, second) -> np.ndarray:
            flat_first = first[child_order].reshape(-1)
            flat_second = second[child_order].reshape(-1)
            child_flat = np.concatenate([flat_first[:point], flat_second[point:]])
            child_masks = np.empty_like(first)
            child_masks[child_order] = child_flat.reshape(m, n)
            return child_masks

        c1_order = splice(oa, ob)
        c2_order = splice(ob, oa)
        return (
            (c1_order, cross_maps(c1_order, masks[pa], masks[pb])),
            (c2_order, cross_maps(c2_order, masks[pb], masks[pa])),
        )

    def _make_children(
        self, parents: Sequence[int], n_children: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pair consecutive parents; each pair crosses or copies through.

        All random choices are drawn up front, scalar, per pair (pair
        decision, then cut, then point), so both crossover settings
        consume one identical RNG stream.
        """
        cfg = self._config
        m, n = len(self._id_order), self._n
        pair_count = len(parents) // 2
        do_cross = np.zeros(pair_count, dtype=bool)
        cuts = np.zeros(pair_count, dtype=np.int64)
        points = np.zeros(pair_count, dtype=np.int64)
        for i in range(pair_count):
            if self._rng.random() < cfg.crossover_probability:
                do_cross[i] = True
                cuts[i] = self._rng.integers(0, m + 1)
                points[i] = self._rng.integers(0, m * n + 1)
        total = 2 * pair_count + (len(parents) % 2)
        child_order = np.empty((total, m), dtype=self._order.dtype)
        child_masks = np.empty((total, m, n), dtype=bool)
        pa = np.asarray(parents[: 2 * pair_count : 2], dtype=np.int64)
        pb = np.asarray(parents[1 : 2 * pair_count : 2], dtype=np.int64)
        for i in range(pair_count):
            a, b = int(pa[i]), int(pb[i])
            if not do_cross[i]:
                pairs = ((self._order[a], self._masks[a]),
                         (self._order[b], self._masks[b]))
            elif self._crossover == "per-pair":
                pairs = self._crossover_pair(a, b, int(cuts[i]), int(points[i]))
            else:
                pairs = self._array_crossover(a, b, int(cuts[i]), int(points[i]))
            (child_order[2 * i], child_masks[2 * i]), (
                child_order[2 * i + 1], child_masks[2 * i + 1]
            ) = pairs
        if len(parents) % 2 == 1:
            child_order[-1] = self._order[parents[-1]]
            child_masks[-1] = self._masks[parents[-1]]
        return child_order[:n_children], child_masks[:n_children]

    def _array_crossover(self, a: int, b: int, cut: int, point: int):
        """One pair through the production array operators."""
        heads = np.array([a, b])
        tails = np.array([b, a])
        orders = vectorized_order_splice(
            self._order[heads], self._order[tails], np.array([cut, cut])
        )
        masks = vectorized_mask_crossover(
            orders, self._masks[heads], self._masks[tails],
            np.array([point, point]),
        )
        return (orders[0], masks[0]), (orders[1], masks[1])

    def _mutate_population(self, order: np.ndarray, masks: np.ndarray) -> None:
        """In-place two-part mutation: order swaps + mapping bit flips."""
        cfg = self._config
        pop, m = order.shape
        n = masks.shape[2]
        if m >= 2 and cfg.swap_probability > 0:
            swap = self._rng.random(pop) < cfg.swap_probability
            for p in np.flatnonzero(swap):
                i, j = self._rng.choice(m, size=2, replace=False)
                order[p, i], order[p, j] = order[p, j], order[p, i]
        if cfg.bitflip_probability > 0:
            masks ^= self._rng.random(masks.shape) < cfg.bitflip_probability
        flat = masks.reshape(-1, n)
        empty = ~flat.any(axis=1)
        if empty.any():
            picks = self._rng.integers(n, size=int(empty.sum()))
            flat[np.flatnonzero(empty), picks] = True

    def _memetic_step(self, costs, node_free_times, ref_time) -> np.ndarray:
        """Replace the worst individual with the greedy re-map of the best."""
        best = int(np.argmin(costs))
        worst = int(np.argmax(costs))
        if best == worst:
            return costs
        candidate = self.greedy_mapping(self._order[best], node_free_times, ref_time)
        cand_cost = self._evaluate(
            self._order[best : best + 1], candidate[None], node_free_times, ref_time
        )[0]
        if cand_cost < costs[worst]:
            self._order[worst] = self._order[best]
            self._masks[worst] = candidate
            costs = costs.copy()
            costs[worst] = cand_cost
        return costs

    # ------------------------------------------------------------ evolution

    def evolve(self, generations, node_free_times, ref_time) -> float:
        """cost → fitness → elites → selection → crossover → mutation."""
        if generations < 0:
            raise ValidationError(f"generations must be >= 0, got {generations}")
        if self._order is None:
            return 0.0
        cfg = self._config
        self._invalidate_cost_cache()
        costs = self._full_costs(node_free_times, ref_time)
        if cfg.memetic:
            costs = self._memetic_step(costs, node_free_times, ref_time)
        best_seen = float(costs.min())
        stalled = 0
        for _ in range(generations):
            fitness = scale_fitness(costs)
            elite_idx = np.argsort(costs, kind="stable")[: cfg.elite_count]
            n_children = cfg.population_size - elite_idx.size
            parents = stochastic_remainder_selection(fitness, n_children, self._rng)
            new_order, new_masks = self._make_children(parents, n_children)
            self._mutate_population(new_order, new_masks)
            self._repair_orders(new_order)
            self._order = np.concatenate([self._order[elite_idx], new_order])
            self._masks = np.concatenate([self._masks[elite_idx], new_masks])
            self._generations += 1
            costs = self._full_costs(node_free_times, ref_time)
            if cfg.memetic:
                costs = self._memetic_step(costs, node_free_times, ref_time)
            new_best = float(costs.min())
            self._history.append((self._generations, new_best))
            if cfg.early_stop_after is not None:
                if new_best < best_seen:
                    best_seen, stalled = new_best, 0
                else:
                    stalled += 1
                    if stalled >= cfg.early_stop_after:
                        self._stats.early_stops += 1
                        break
        return float(costs.min())
