"""The genetic-algorithm scheduling kernel (§2.1).

"The genetic algorithm utilises a fixed population size and stochastic
remainder selection" with the two-part coding scheme, specialised
crossover/mutation, the combined cost function of eq. (8) and the dynamic
fitness scaling of eq. (9).  "The algorithm is based on an evolutionary
process and is therefore able to absorb system changes such as the addition
or deletion of tasks" — :meth:`GAScheduler.add_task` and
:meth:`GAScheduler.remove_task` repair the live population instead of
restarting it.

The object-level operators in :mod:`repro.scheduling.operators` and the
scalar schedule builder state the paper's semantics.  Profiling the case
study showed that per-individual work dominated the run time, so the
kernel keeps its population packed in NumPy arrays and runs every
generation as whole-population array programs
(:mod:`repro.scheduling.vectorized`):

* ``order``   — ``(P, m)`` task-row indices in execution order;
* ``masks``   — ``(P, m, n)`` node allocations **keyed by task row**, not by
  position, which is what preserves "the node mapping associated with a
  particular task from one generation to the next" across crossover and
  task churn.

Property tests check the packed evaluator and operators against the
object-level references, and the kernel's schedule quality against a
per-pair reference GA kept with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CheckpointError, ScheduleError, ValidationError
from repro.obs.records import EvolveStep
from repro.obs.trace import Tracer
from repro.scheduling.coding import SolutionString
from repro.scheduling.cost import CostWeights
from repro.scheduling.evalreuse import EvalReuseStats, availability_key
from repro.scheduling.fitness import scale_fitness
from repro.scheduling.vectorized import (
    bernoulli_indices,
    vectorized_children,
    vectorized_costs,
    vectorized_insert,
    vectorized_mutation,
    vectorized_selection,
)
from repro.scheduling.warmstart import (
    greedy_allocation_masks,
    greedy_allocation_masks_batch,
    warmstart_orders,
)

__all__ = ["GAConfig", "GAScheduler"]

#: duration(task_id, n_allocated) -> predicted seconds on that many nodes.
DurationFn = Callable[[int, int], float]


@dataclass(frozen=True)
class GAConfig:
    """Tunables of the GA kernel.

    Defaults follow §2.2's description (population of 50); operator rates
    are conventional values the paper does not publish.
    """

    population_size: int = 50
    crossover_probability: float = 0.8
    swap_probability: float = 0.2
    bitflip_probability: float = 0.005
    elite_count: int = 2
    weights: CostWeights = field(default_factory=CostWeights)
    idle_weighting: str = "linear"  # "linear" | "uniform" | "exponential"
    #: Memetic refinement: each generation, the best individual's *ordering*
    #: is re-mapped greedily (per-task earliest-free, completion-optimal
    #: allocation; recomputed only when that ordering changed) and the
    #: result replaces the worst individual if it wins.
    #: Compensates for the generation budget an event-driven run has
    #: compared to the paper's continuously evolving GA; ablatable.
    memetic: bool = True
    #: Convergence early-stop: halt a generation loop after this many
    #: consecutive generations without best-cost improvement.  ``None``
    #: (default) never stops early — the opt-in changes how many
    #: generations (and RNG draws) a call consumes.
    early_stop_after: Optional[int] = None
    #: Number of list-scheduling warm-start seeds
    #: (:mod:`repro.scheduling.warmstart`) injected over the worst
    #: individuals once per ``evolve`` call (``0`` disables injection;
    #: the memetic greedy re-map of the incumbent best rides along as one
    #: extra candidate while ``memetic`` is on).  Injection replaces at
    #: most ``population_size - 1`` individuals, so a count at or above
    #: the population size is valid and simply clamps.
    warmstart_count: int = 8

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValidationError("population_size must be >= 2")
        if not (0 <= self.crossover_probability <= 1):
            raise ValidationError("crossover_probability must be in [0, 1]")
        if not (0 <= self.swap_probability <= 1):
            raise ValidationError("swap_probability must be in [0, 1]")
        if not (0 <= self.bitflip_probability <= 1):
            raise ValidationError("bitflip_probability must be in [0, 1]")
        if not (0 <= self.elite_count < self.population_size):
            raise ValidationError("elite_count must be in [0, population_size)")
        if self.idle_weighting not in ("linear", "uniform", "exponential"):
            raise ValidationError(f"unknown idle weighting {self.idle_weighting!r}")
        if self.early_stop_after is not None and self.early_stop_after < 1:
            raise ValidationError("early_stop_after must be >= 1 (or None)")
        if self.warmstart_count < 0:
            raise ValidationError("warmstart_count must be >= 0")


class GAScheduler:
    """An evolving population of schedules over a dynamic task set.

    Parameters
    ----------
    n_nodes:
        Number of processing nodes in the local resource.
    duration:
        PACE prediction callback ``duration(task_id, count)``.
    rng:
        Random generator driving all stochastic choices.
    config:
        Kernel tunables.
    duration_row:
        Optional whole-row prediction callback ``duration_row(task_id)``
        returning the whole ``[t(1) .. t(n)]`` row at once (e.g. through
        :meth:`repro.pace.evaluation.EvaluationEngine.evaluate_counts`).
        Falls back to *n* scalar ``duration`` calls when omitted.

    Usage
    -----
    ``add_task`` / ``remove_task`` maintain the optimisation set T;
    ``evolve(generations, node_free_times, ref_time)`` advances the
    population; ``best_solution()`` returns the incumbent.
    """

    def __init__(
        self,
        n_nodes: int,
        duration: DurationFn,
        rng: np.random.Generator,
        config: GAConfig = GAConfig(),
        *,
        duration_row: Optional[Callable[[int], np.ndarray]] = None,
        tracer: Optional[Tracer] = None,
        trace_name: str = "",
    ) -> None:
        if n_nodes < 1:
            raise ValidationError(f"n_nodes must be >= 1, got {n_nodes}")
        self._n = int(n_nodes)
        self._tracer = tracer
        self._trace_name = trace_name
        self._duration = duration
        self._duration_row_fn = duration_row
        self._rng = rng
        self._config = config
        self._id_order: List[int] = []  # task row -> task id
        self._row_of: Dict[int, int] = {}
        self._dtable = np.empty((0, self._n), dtype=float)
        self._deadline_arr = np.empty(0, dtype=float)
        # Workflow extensions, all inert at their defaults: b-level
        # priorities (0.0 everywhere = no effect), start-time floors
        # (absent = unconstrained), and precedence predecessors (absent =
        # independent tasks).  ``_constraint_cache`` holds the row-keyed
        # (pred matrix, floor vector) pair derived lazily from these.
        self._priority_arr = np.empty(0, dtype=float)
        self._floor: Dict[int, float] = {}
        self._preds: Dict[int, Tuple[int, ...]] = {}
        self._constraint_cache: Optional[
            Tuple[Optional[np.ndarray], Optional[np.ndarray]]
        ] = None
        # Packed population; allocated lazily when the first task arrives.
        self._order: Optional[np.ndarray] = None  # (P, m) int rows
        self._masks: Optional[np.ndarray] = None  # (P, m, n) bool by row
        self._generations = 0
        # (generation index, best cost) samples, one per evolved generation.
        self._history: List[Tuple[int, float]] = []
        # Evaluation-reuse observability + the event-level cost cache: the
        # final cost vector of the last full costing, keyed by the
        # availability it was computed under.  Invalidated whenever the
        # population changes outside a costing (task churn, mid-evolve).
        self._stats = EvalReuseStats()
        self._cached_costs: Optional[np.ndarray] = None
        self._cost_cache_key: Optional[Tuple[bytes, float]] = None

    # ------------------------------------------------------------------ state

    @property
    def config(self) -> GAConfig:
        """The kernel configuration."""
        return self._config

    @property
    def n_nodes(self) -> int:
        """Node count of the managed resource."""
        return self._n

    @property
    def task_ids(self) -> Tuple[int, ...]:
        """The optimisation set T, in row order.

        Row order is insertion order until the first removal; swap-remove
        then moves the last row into the vacated slot, so treat this as an
        unordered set (each individual's *ordering string* — not the row
        numbering — carries execution order).
        """
        return tuple(self._id_order)

    @property
    def n_tasks(self) -> int:
        """Number of tasks currently optimised."""
        return len(self._id_order)

    @property
    def generations(self) -> int:
        """Total generations evolved so far."""
        return self._generations

    @property
    def stats(self) -> EvalReuseStats:
        """Evaluation-reuse counters (live object).

        Rows costed and evaluated, elite carries, event-cache
        hits/misses, warm-start seeds and early stops — the observability
        behind docs/performance.md's measured hit rates.
        """
        return self._stats

    @property
    def last_costs(self) -> Optional[np.ndarray]:
        """The cached final cost vector of the last costing (copy).

        Valid for the *current* population under the availability it was
        computed with (see :meth:`best_solution`); ``None`` after task
        churn or before any evaluation.
        """
        if self._cached_costs is None:
            return None
        return self._cached_costs.copy()

    @property
    def history(self) -> List[Tuple[int, float]]:
        """Per-generation ``(generation, best cost)`` samples (copy).

        Costs across scheduling events are not directly comparable — the
        task set and node availability change — but within one event the
        series shows the convergence the GA achieved.
        """
        return list(self._history)

    def deadline(self, task_id: int) -> float:
        """The absolute deadline δ of *task_id*."""
        row = self._require_row(task_id)
        return float(self._deadline_arr[row])

    def _require_row(self, task_id: int) -> int:
        try:
            return self._row_of[task_id]
        except KeyError:
            raise ScheduleError(f"GA does not hold task {task_id}") from None

    @property
    def population(self) -> List[SolutionString]:
        """The population materialised as solution strings (API/testing)."""
        if self._order is None:
            return []
        return [self._solution_at(p) for p in range(self._order.shape[0])]

    def _solution_at(self, p: int) -> SolutionString:
        assert self._order is not None and self._masks is not None
        ordering = [self._id_order[r] for r in self._order[p]]
        mapping = {
            self._id_order[r]: self._masks[p, r].copy()
            for r in range(len(self._id_order))
        }
        return SolutionString(ordering, mapping)

    # ----------------------------------------------------------- task churn

    def _duration_row(self, task_id: int) -> np.ndarray:
        if self._duration_row_fn is not None:
            row = np.asarray(self._duration_row_fn(task_id), dtype=float)
            if row.shape != (self._n,):
                raise ScheduleError(
                    f"duration_row for task {task_id} has shape {row.shape}, "
                    f"expected ({self._n},)"
                )
        else:
            row = np.array(
                [self._duration(task_id, k) for k in range(1, self._n + 1)],
                dtype=float,
            )
        if np.any(row <= 0) or not np.all(np.isfinite(row)):
            raise ScheduleError(f"durations for task {task_id} must be finite and > 0")
        return row

    def _seed_masks(self, durations: np.ndarray, pop: int) -> np.ndarray:
        """Per-individual initial masks for one new task — ``(pop, n)``.

        The paper's GA evolves continuously in real time, accumulating far
        more generations than an event-driven simulation can afford, so
        splicing every new task in at random would leave the population
        too raw to compete.  Instead half the individuals seed the task
        with a random subset of its *optimal* processor count
        ``k* = argmin_k t(k)`` (the eq.-10 minimiser) and half with a fully
        random mask for exploration; evolution refines from there.
        """
        k_star = int(np.argmin(durations)) + 1
        masks = np.zeros((pop, self._n), dtype=bool)
        for i in range(pop):
            if i % 2 == 0:
                cols = self._rng.choice(self._n, size=k_star, replace=False)
                masks[i, cols] = True
            else:
                row = self._rng.random(self._n) < 0.5
                if not row.any():
                    row[int(self._rng.integers(self._n))] = True
                masks[i] = row
        return masks

    def add_task(
        self,
        task_id: int,
        deadline: float,
        *,
        priority: float = 0.0,
        floor: Optional[float] = None,
        predecessors: Sequence[int] = (),
    ) -> None:
        """Add a task to the optimisation set, splicing it into the population.

        Existing individuals keep their orderings/mappings; the new task is
        spliced in (individual 0 appends in arrival order — a standing
        greedy candidate — the rest at random positions) with the seeded
        masks of :meth:`_seed_masks`, so the population "absorbs" the
        change rather than restarting.

        The keyword extensions carry workflow structure and are inert at
        their defaults: *priority* (a b-level) biases the warm-start
        orderings, *floor* is an absolute earliest start time (data still
        staging in, or a dispatched parent's booked completion), and
        *predecessors* lists co-queued task ids that must precede this one
        in every individual's ordering (enforced by stable topological
        repair and respected by the evaluator).
        """
        if task_id in self._row_of:
            raise ScheduleError(f"task {task_id} already in optimisation set")
        self._invalidate_cost_cache()
        new_row = len(self._id_order)
        self._id_order.append(task_id)
        self._row_of[task_id] = new_row
        durations = self._duration_row(task_id)
        self._dtable = np.vstack([self._dtable, durations])
        self._deadline_arr = np.append(self._deadline_arr, float(deadline))
        self._priority_arr = np.append(self._priority_arr, float(priority))
        if floor is not None:
            self._floor[task_id] = float(floor)
        if predecessors:
            self._preds[task_id] = tuple(int(p) for p in predecessors)
        self._constraint_cache = None
        pop = self._config.population_size
        if self._order is None:
            self._order = np.zeros((pop, 1), dtype=np.int64)
            self._masks = self._seed_masks(durations, pop)[:, None, :]
            return
        assert self._masks is not None
        p, m = self._order.shape
        positions = self._rng.integers(0, m + 1, size=p)
        positions[0] = m  # individual 0 keeps arrival order
        self._order = vectorized_insert(self._order, positions, new_row)
        self._masks = np.concatenate(
            [self._masks, self._seed_masks(durations, p)[:, None, :]], axis=1
        )
        self._repair_orders(self._order)

    def set_floor(self, task_id: int, floor: float) -> None:
        """Raise *task_id*'s earliest-start floor (monotonic: ``max`` wins).

        The scheduler calls this when a predecessor leaves the optimisation
        set for the executor — the precedence constraint collapses to "not
        before the parent's booked completion" — and when a staging input's
        arrival estimate moves.
        """
        self._require_row(task_id)
        current = self._floor.get(task_id)
        if current is not None and current >= floor:
            return
        self._floor[task_id] = float(floor)
        self._constraint_cache = None
        self._invalidate_cost_cache()

    def remove_task(self, task_id: int) -> None:
        """Remove a task (it started executing, finished, or was cancelled).

        Swap-remove: the *last* task row moves into the vacated slot, so
        the row-key bookkeeping is O(1) instead of renumbering every task
        above the removed row.  Row keys are arbitrary labels — every
        per-row structure (``_dtable``, ``_deadline_arr``, the mask axis)
        is re-keyed consistently and each individual's explicit ordering
        string is renamed, so the population is unchanged as a set of
        solutions (see DESIGN.md on the packed-array invariants).
        """
        row = self._require_row(task_id)
        self._invalidate_cost_cache()
        del self._row_of[task_id]
        self._floor.pop(task_id, None)
        self._preds.pop(task_id, None)
        self._constraint_cache = None
        last = len(self._id_order) - 1
        moved_id = self._id_order[last]
        self._id_order[row] = moved_id
        self._id_order.pop()
        assert self._order is not None and self._masks is not None
        if not self._id_order:
            self._order = None
            self._masks = None
            self._dtable = np.empty((0, self._n), dtype=float)
            self._deadline_arr = np.empty(0, dtype=float)
            self._priority_arr = np.empty(0, dtype=float)
            self._floor.clear()
            self._preds.clear()
            return
        if row != last:
            self._row_of[moved_id] = row
            self._dtable[row] = self._dtable[last]
            self._deadline_arr[row] = self._deadline_arr[last]
            self._priority_arr[row] = self._priority_arr[last]
            self._masks[:, row] = self._masks[:, last]
        self._dtable = self._dtable[:last]
        self._deadline_arr = self._deadline_arr[:last]
        self._priority_arr = self._priority_arr[:last]
        p, m = self._order.shape
        new_order = self._order[self._order != row].reshape(p, m - 1)
        if row != last:
            new_order[new_order == last] = row
        self._order = new_order
        self._masks = self._masks[:, :last]

    # ------------------------------------------------------------- evaluation

    def _invalidate_cost_cache(self) -> None:
        """Drop the event-level cost cache (population about to change)."""
        self._cached_costs = None
        self._cost_cache_key = None

    def _constraint_arrays(
        self,
    ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """Row-keyed ``(pred matrix, floor vector)``, or ``(None, None)``.

        The pred matrix is ``(m, maxP)`` of predecessor *rows* padded with
        the sentinel row ``m``; the floor vector is ``(m,)`` with ``-inf``
        where unconstrained.  A constraint is active only while **both**
        ends are still in the optimisation set — a dispatched parent's
        influence survives as the child's floor instead.  Both arrays are
        ``None`` whenever no constraint of that kind is active, which is
        what keeps the independent-task evaluation path untouched.
        """
        if self._constraint_cache is None:
            m = len(self._id_order)
            pred_rows: Dict[int, List[int]] = {}
            for child, parents in self._preds.items():
                crow = self._row_of.get(child)
                if crow is None:
                    continue
                rows = [self._row_of[p] for p in parents if p in self._row_of]
                if rows:
                    pred_rows[crow] = rows
            pred_mat = None
            if pred_rows:
                maxp = max(len(v) for v in pred_rows.values())
                pred_mat = np.full((m, maxp), m, dtype=np.int64)
                for crow, rows in pred_rows.items():
                    pred_mat[crow, : len(rows)] = rows
            floor_vec = None
            entries = [
                (self._row_of[t], f)
                for t, f in self._floor.items()
                if t in self._row_of
            ]
            if entries:
                floor_vec = np.full(m, -np.inf)
                for r, f in entries:
                    floor_vec[r] = f
            self._constraint_cache = (pred_mat, floor_vec)
        return self._constraint_cache

    def _repair_orders(self, order: np.ndarray) -> None:
        """Stable topological repair of every ordering string, in place.

        Individuals already respecting every active precedence constraint
        are untouched (the common case: crossover splices and most swap
        mutations preserve validity); violators are rebuilt by a stable
        Kahn pass — tasks keep their relative order except where a
        predecessor must be pulled ahead.  A no-op (and zero cost) when no
        constraints are active, preserving the independent-task paths
        byte for byte.
        """
        pred_mat, _ = self._constraint_arrays()
        if pred_mat is None:
            return
        m = len(self._id_order)
        pos = np.empty(m + 1, dtype=np.int64)
        for p in range(order.shape[0]):
            seq = order[p]
            pos[m] = -1  # the sentinel row never binds
            pos[seq] = np.arange(m)
            latest_pred = pos[pred_mat].max(axis=1)
            if np.all(pos[:m] > latest_pred):
                continue
            placed = np.zeros(m + 1, dtype=bool)
            placed[m] = True
            out: List[int] = []
            pending = [int(r) for r in seq]
            while pending:
                for i, r in enumerate(pending):
                    if placed[pred_mat[r]].all():
                        out.append(r)
                        placed[r] = True
                        del pending[i]
                        break
                else:  # pragma: no cover - graphs are validated acyclic
                    raise ScheduleError(
                        "precedence constraints contain a cycle"
                    )
            order[p] = out

    def _store_cost_cache(
        self, costs: np.ndarray, node_free_times: Sequence[float], ref_time: float
    ) -> None:
        self._cached_costs = costs
        self._cost_cache_key = availability_key(node_free_times, ref_time)

    def _cached_costs_for(
        self, node_free_times: Sequence[float], ref_time: float
    ) -> Optional[np.ndarray]:
        """The cached cost vector iff availability matches, else ``None``."""
        if self._cached_costs is None or self._cost_cache_key is None:
            return None
        if availability_key(node_free_times, ref_time) != self._cost_cache_key:
            return None
        return self._cached_costs

    def _evaluate(
        self,
        order: np.ndarray,
        masks: np.ndarray,
        node_free_times: Sequence[float],
        ref_time: float,
    ) -> np.ndarray:
        """Row-major eq.-(8) cost of every individual in (order, masks).

        The evaluator for workflow-constrained populations: it carries a
        per-row completion track, so precedence and start-time floors
        bind (:meth:`_vector_costs` routes constrained costings here).
        It also serves the property tests as the long-validated reference
        for :func:`~repro.scheduling.vectorized.vectorized_costs`.  Every
        reduction runs within one individual, so a row's cost does not
        depend on the batch it is costed in.

        Scratch buffers (``free``/``scratch``/``gap``/``has_gap``/
        ``pocket``) are allocated once per call and reused across all *m*
        task steps via ``out=``/`copyto` — the per-step ``np.where`` and
        ``np.tile`` temporaries were measurable churn at event frequency.
        Every rewritten expression computes the same values in the same
        order, so costs are bit-identical to the allocating version.
        """
        pop, m = order.shape
        n = masks.shape[2]
        free0 = np.maximum(np.asarray(node_free_times, dtype=float), ref_time)
        if free0.size != n:
            raise ScheduleError(
                f"node_free_times has {free0.size} entries, resource has {n}"
            )
        self._stats.evaluate_calls += 1
        free = np.empty((pop, n))
        free[:] = free0
        rows_idx = np.arange(pop)
        makespan = np.full(pop, ref_time)
        theta = np.zeros(pop)
        idle_len = np.zeros(pop)
        idle_sq = np.zeros(pop)  # Σ (b² − a²)/2 relative to ref, linear weight
        scratch = np.empty((pop, n))
        gap = np.empty((pop, n))
        pocket = np.empty((pop, n))
        has_gap = np.empty((pop, n), dtype=bool)
        exp_pockets: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        weighting = self._config.idle_weighting
        dtable = self._dtable
        deadlines = self._deadline_arr
        # Workflow constraints (None/None for independent tasks, keeping
        # this loop byte-identical to the unconstrained original): floors
        # lower-bound a task's start; the completion track carries each
        # row's finish time so successors start no earlier.  Row ``m`` is
        # the sentinel for padded predecessor slots (-inf, never binds).
        pred_mat, floor_vec = self._constraint_arrays()
        comp_track = (
            np.full((pop, m + 1), -np.inf) if pred_mat is not None else None
        )
        for j in range(m):
            rows = order[:, j]
            msk = masks[rows_idx, rows]  # (pop, n)
            scratch.fill(-np.inf)
            np.copyto(scratch, free, where=msk)
            start = scratch.max(axis=1)
            if floor_vec is not None:
                start = np.maximum(start, floor_vec[rows])
            if comp_track is not None:
                pm = pred_mat[rows]  # (pop, maxP) predecessor rows
                start = np.maximum(
                    start, comp_track[rows_idx[:, None], pm].max(axis=1)
                )
            counts = msk.sum(axis=1)
            dur = dtable[rows, counts - 1]
            comp = start + dur
            if comp_track is not None:
                comp_track[rows_idx, rows] = comp
            np.subtract(start[:, None], free, out=scratch)
            gap.fill(0.0)
            np.copyto(gap, scratch, where=msk)
            np.greater(gap, 0.0, out=has_gap)
            pocket.fill(0.0)
            np.copyto(pocket, gap, where=has_gap)
            idle_len += pocket.sum(axis=1)
            if weighting == "linear":
                b = start - ref_time
                np.subtract(free, ref_time, out=scratch)
                np.multiply(scratch, scratch, out=scratch)  # a²
                np.subtract((b * b)[:, None], scratch, out=scratch)  # b² − a²
                np.divide(scratch, 2.0, out=scratch)
                pocket.fill(0.0)
                np.copyto(pocket, scratch, where=has_gap)
                idle_sq += pocket.sum(axis=1)
            elif weighting == "exponential":
                a = free - ref_time
                b = np.broadcast_to(start[:, None], msk.shape) - ref_time
                exp_pockets.append((a, b, has_gap.copy()))
            theta += np.maximum(comp - deadlines[rows], 0.0)
            np.copyto(free, np.broadcast_to(comp[:, None], (pop, n)), where=msk)
            np.maximum(makespan, comp, out=makespan)
        omega = makespan - ref_time
        if weighting == "linear":
            with np.errstate(invalid="ignore", divide="ignore"):
                phi = np.where(omega > 0, idle_len - idle_sq / np.where(omega > 0, omega, 1.0), 0.0)
        elif weighting == "uniform":
            phi = idle_len
        else:  # exponential: ∫ exp(−3t/ω) dt over each pocket
            phi = np.zeros(pop)
            rate = np.where(omega > 0, 3.0 / np.where(omega > 0, omega, 1.0), 0.0)
            for a, b, has_gap in exp_pockets:
                r = rate[:, None]
                safe_r = np.where(r > 0, r, 1.0)
                contrib = np.where(
                    has_gap & (r > 0),
                    (np.exp(-safe_r * a) - np.exp(-safe_r * b)) / safe_r,
                    0.0,
                )
                phi += contrib.sum(axis=1)
        w = self._config.weights
        return (w.makespan * omega + w.idle * phi + w.deadline * theta) / w.total

    def greedy_mapping(
        self, order_row: np.ndarray, node_free_times: Sequence[float], ref_time: float
    ) -> np.ndarray:
        """Completion-optimal masks for a fixed task order — ``(m, n)`` bool.

        Walks the tasks in *order_row* (task rows); each is allocated the
        earliest-free node subset minimising its completion time (the same
        argument as :func:`repro.scheduling.fifo.earliest_free_allocation`:
        on a homogeneous resource only the k earliest-free nodes need
        considering for each size k).  Delegates to the shared allocator in
        :mod:`repro.scheduling.warmstart`, which also maps the warm-start
        seed orderings.
        """
        return greedy_allocation_masks(
            order_row, self._dtable, node_free_times, ref_time
        )

    # --------------------------------------------------------------- evolution

    def _vector_costs(
        self,
        order: np.ndarray,
        masks: np.ndarray,
        node_free_times: Sequence[float],
        ref_time: float,
    ) -> np.ndarray:
        """eq.-(8) costs through the lean whole-population evaluator.

        The one costing path of the kernel: ``evolve``, ``best_solution``
        and ``cost_of`` all go through it, so the incumbent is always
        chosen under the same rounding it was evolved under.  Workflow
        constraints route to :meth:`_evaluate` — the lean evaluator has no
        completion track.  Either way a row's cost is independent of the
        batch it is costed in.
        """
        pred_mat, floor_vec = self._constraint_arrays()
        if pred_mat is not None or floor_vec is not None:
            return self._evaluate(order, masks, node_free_times, ref_time)
        self._stats.evaluate_calls += 1
        return vectorized_costs(
            order,
            masks,
            self._dtable,
            self._deadline_arr,
            node_free_times,
            ref_time,
            self._config.weights,
            self._config.idle_weighting,
        )

    def _warmstart_inject(
        self,
        costs: np.ndarray,
        node_free_times: Sequence[float],
        ref_time: float,
    ) -> np.ndarray:
        """Replace the worst individuals with winning list-scheduling seeds.

        Once per ``evolve`` call: build ``warmstart_count`` seeds
        (:func:`repro.scheduling.warmstart.warmstart_population`) plus —
        while ``memetic`` is on — the greedy re-map of the incumbent best
        ordering, cost them all in one evaluator call, and replace the
        worst individuals pairwise (best seed against worst incumbent)
        wherever the seed wins.  With elitism this bounds the kernel's
        best cost by the best greedy schedule from generation 0 on.
        """
        assert self._order is not None and self._masks is not None
        cfg = self._config
        pop = self._order.shape[0]
        order_parts = []
        if cfg.warmstart_count > 0:
            # Priorities feed the seed rules only when some task carries a
            # nonzero b-level — the all-zero default keeps the call (and
            # its RNG draws) identical to the pre-workflow path.
            priorities = (
                self._priority_arr if np.any(self._priority_arr != 0.0) else None
            )
            order_parts.append(
                warmstart_orders(
                    self._dtable,
                    self._deadline_arr,
                    cfg.warmstart_count,
                    self._rng,
                    priorities=priorities,
                )
            )
        if cfg.memetic:
            order_parts.append(self._order[int(np.argmin(costs))][None, :])
        if not order_parts:
            return costs
        w_orders = np.concatenate(order_parts)
        self._repair_orders(w_orders)
        w_masks = greedy_allocation_masks_batch(
            w_orders, self._dtable, node_free_times, ref_time
        )
        seed_costs = self._vector_costs(w_orders, w_masks, node_free_times, ref_time)
        self._stats.rows_costed += seed_costs.size
        self._stats.rows_evaluated += seed_costs.size
        count = min(seed_costs.size, pop - 1)
        seed_rank = np.argsort(seed_costs, kind="stable")[:count]
        worst_rank = np.argsort(costs, kind="stable")[::-1][:count]
        take = seed_costs[seed_rank] < costs[worst_rank]
        if take.any():
            rows = worst_rank[take]
            seeds = seed_rank[take]
            self._order[rows] = w_orders[seeds]
            self._masks[rows] = w_masks[seeds]
            costs = costs.copy()
            costs[rows] = seed_costs[seeds]
            self._stats.warmstart_seeds += int(take.sum())
        return costs

    def _memetic_candidate(
        self,
        costs: np.ndarray,
        cached: Optional[Tuple[np.ndarray, np.ndarray, float]],
        node_free_times: Sequence[float],
        ref_time: float,
    ) -> Tuple[np.ndarray, Optional[Tuple[np.ndarray, np.ndarray, float]]]:
        """The memetic step with the candidate cached between generations.

        The greedy re-map of the incumbent best ordering is injected over
        the worst individual whenever it wins.  The re-map is a pure
        function of (ordering, availability) and availability is fixed
        within one ``evolve`` call, so this keeps the last ``(ordering, masks, cost)`` candidate
        and only recomputes when the incumbent's ordering changed — on a
        converged population almost never.  Re-*injection* over the worst
        individual still happens every generation the candidate wins
        (selection churn can drop a previously injected copy), which is a
        pair of array copies, not an evaluation.  Mutates *costs* in
        place (the caller owns the freshly concatenated vector).
        """
        assert self._order is not None and self._masks is not None
        best = int(np.argmin(costs))
        border = self._order[best]
        if cached is None or not np.array_equal(border, cached[0]):
            cand_masks = self.greedy_mapping(border, node_free_times, ref_time)
            cand_cost = float(
                self._vector_costs(
                    border[None, :], cand_masks[None, :, :],
                    node_free_times, ref_time,
                )[0]
            )
            self._stats.rows_costed += 1
            self._stats.rows_evaluated += 1
            cached = (border.copy(), cand_masks, cand_cost)
        cand_order, cand_masks, cand_cost = cached
        worst = int(np.argmax(costs))
        if worst != best and cand_cost < costs[worst]:
            self._order[worst] = cand_order
            self._masks[worst] = cand_masks
            costs[worst] = cand_cost
        return costs, cached

    def evolve(
        self,
        generations: int,
        node_free_times: Sequence[float],
        ref_time: float,
    ) -> float:
        """Advance the population *generations* steps; returns the best cost.

        A generation is: scale costs to fitness (eq. 9) → carry elites →
        stochastic-remainder selection → pairwise two-part crossover →
        two-part mutation → cost the children (eq. 8) → memetic step.
        Around that loop:

        * **children-only costing** — elites re-enter unchanged, so their
          costs are carried forward (counted as ``carry_hits``);
        * **array-drawn randomness** — positional choices are drawn in
          blocks of up to 32 generations, so RNG dispatch is O(1) per
          generation (see :mod:`repro.scheduling.vectorized`);
        * **warm-start injection once per call** — list-scheduling seeds
          and the greedy re-map of the incumbent replace losing
          individuals before the first generation;
        * the **memetic re-map** re-runs only when the incumbent's
          ordering changed — it is a pure function of (ordering,
          availability), so repeating it on an unchanged ordering cannot
          produce a new candidate.

        The final cost vector is retained so an immediately following
        :meth:`best_solution` under the same availability pays no extra
        evaluation.  With ``GAConfig(early_stop_after=K)`` (off by
        default) the loop halts after K consecutive generations without
        best-cost improvement.
        """
        if generations < 0:
            raise ValidationError(f"generations must be >= 0, got {generations}")
        if self._order is None:
            return 0.0
        assert self._order is not None and self._masks is not None
        cfg = self._config
        stats = self._stats
        rng = self._rng
        self._invalidate_cost_cache()
        generations_before = self._generations
        history_before = len(self._history)
        costs = self._vector_costs(
            self._order, self._masks, node_free_times, ref_time
        )
        stats.rows_costed += costs.size
        stats.rows_evaluated += costs.size
        costs = self._warmstart_inject(costs, node_free_times, ref_time)
        best_seen = float(costs.min())
        stalled = 0
        pop = cfg.population_size
        m = len(self._id_order)
        n = self._n
        elite = cfg.elite_count
        n_children = pop - elite
        pairs = n_children // 2
        p_cross = cfg.crossover_probability
        p_swap = cfg.swap_probability
        p_flip = cfg.bitflip_probability
        do_swaps = m >= 2 and p_swap > 0
        last_memetic: Optional[Tuple[np.ndarray, np.ndarray, float]] = None
        done = 0
        stop = False
        while done < generations and not stop:
            # Pre-draw a block of generations' positional randomness in a
            # handful of array RNG calls (a scalar `rng.integers` costs as
            # much as a whole-population array draw).
            block = min(32, generations - done)
            if pairs:
                cross_flags = rng.random((block, pairs)) < p_cross
                cuts_b = rng.integers(0, m + 1, size=(block, pairs))
                points_b = rng.integers(0, m * n + 1, size=(block, pairs))
            if do_swaps:
                swap_flags = rng.random((block, n_children)) < p_swap
                swap_i = rng.integers(0, m, size=(block, n_children))
                swap_j = rng.integers(0, m - 1, size=(block, n_children))
            for t in range(block):
                fitness = scale_fitness(costs)
                elite_idx = np.argsort(costs, kind="stable")[:elite]
                parents = vectorized_selection(fitness, n_children, rng)
                if pairs:
                    child_order, child_masks = vectorized_children(
                        self._order,
                        self._masks,
                        parents,
                        cross_flags[t],
                        cuts_b[t],
                        points_b[t],
                    )
                else:
                    child_order = self._order[parents].copy()
                    child_masks = self._masks[parents].copy()
                flip_idx = (
                    bernoulli_indices(rng, n_children * m * n, p_flip)
                    if p_flip > 0
                    else None
                )
                vectorized_mutation(
                    child_order,
                    child_masks,
                    swap_flags[t] if do_swaps else None,
                    swap_i[t] if do_swaps else None,
                    swap_j[t] if do_swaps else None,
                    flip_idx,
                    rng,
                )
                self._repair_orders(child_order)
                child_costs = self._vector_costs(
                    child_order, child_masks, node_free_times, ref_time
                )
                self._order = np.concatenate(
                    [self._order[elite_idx], child_order]
                )
                self._masks = np.concatenate(
                    [self._masks[elite_idx], child_masks]
                )
                costs = np.concatenate([costs[elite_idx], child_costs])
                stats.rows_costed += pop
                stats.rows_evaluated += n_children
                stats.carry_hits += elite_idx.size
                if cfg.memetic:
                    costs, last_memetic = self._memetic_candidate(
                        costs, last_memetic, node_free_times, ref_time
                    )
                self._generations += 1
                new_best = float(costs.min())
                self._history.append((self._generations, new_best))
                if cfg.early_stop_after is not None:
                    if new_best < best_seen:
                        best_seen = new_best
                        stalled = 0
                    else:
                        stalled += 1
                        if stalled >= cfg.early_stop_after:
                            stats.early_stops += 1
                            stop = True
                            break
            done += block
        self._store_cost_cache(costs, node_free_times, ref_time)
        best_cost = float(costs.min())
        if self._tracer is not None:
            self._tracer.emit(
                EvolveStep(
                    t=float(ref_time),
                    resource=self._trace_name,
                    n_tasks=self.n_tasks,
                    generations=self._generations - generations_before,
                    best_cost=best_cost,
                    history=tuple(
                        best for _, best in self._history[history_before:]
                    ),
                )
            )
        return best_cost

    def best_solution(
        self, node_free_times: Sequence[float], ref_time: float
    ) -> SolutionString:
        """The lowest-cost individual under the given availability.

        The cost vector retained by the last :meth:`evolve` (or
        ``best_solution``) call is reused when the population and the
        availability key are unchanged — a scheduling event's ``evolve`` →
        dispatch → ``best_solution`` sequence then pays no second full
        evaluation.  Any ``add_task`` / ``remove_task`` / availability
        change recomputes through :meth:`_vector_costs`, the evaluator
        ``evolve`` uses, so a recomputed vector is bit-identical to the
        one it replaces.
        """
        if self._order is None:
            raise ScheduleError("population is empty (no tasks)")
        assert self._masks is not None
        costs = self._cached_costs_for(node_free_times, ref_time)
        if costs is not None:
            self._stats.event_cache_hits += 1
        else:
            self._stats.event_cache_misses += 1
            costs = self._vector_costs(
                self._order, self._masks, node_free_times, ref_time
            )
            self._stats.rows_costed += costs.size
            self._stats.rows_evaluated += costs.size
            self._store_cost_cache(costs, node_free_times, ref_time)
        return self._solution_at(int(np.argmin(costs)))

    def cost_of(
        self,
        solution: SolutionString,
        node_free_times: Sequence[float],
        ref_time: float,
    ) -> float:
        """eq.-(8) cost of one externally supplied solution.

        Costed through :meth:`_vector_costs`, so a population member's
        cost here equals its entry in :attr:`last_costs` bit for bit.
        """
        order = np.array([[self._require_row(t) for t in solution.ordering]])
        masks = np.zeros((1, self.n_tasks, self._n), dtype=bool)
        for tid in solution.ordering:
            masks[0, self._row_of[tid]] = solution.mask(tid)
        return float(self._vector_costs(order, masks, node_free_times, ref_time)[0])

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """The full kernel state: population arrays, task rows, caches, stats.

        The RNG is *not* included — it belongs to the run's
        :class:`~repro.utils.rng.RngRegistry` and is snapshot there.  The
        event-level cost cache is serialised too (its presence changes
        whether the next ``best_solution`` call recomputes, which shows in
        the reuse counters the experiment result reports).
        """
        from repro.checkpoint.codec import encode_ndarray

        state = {
            "id_order": list(self._id_order),
            "dtable": encode_ndarray(self._dtable),
            "deadlines": [float(d) for d in self._deadline_arr],
            "order": None if self._order is None else encode_ndarray(self._order),
            "masks": None if self._masks is None else encode_ndarray(self._masks),
            "generations": self._generations,
            "history": [[int(g), float(c)] for g, c in self._history],
            "stats": self._stats.snapshot_counters(),
            "cached_costs": (
                None
                if self._cached_costs is None
                else encode_ndarray(self._cached_costs)
            ),
            "cost_cache_key": (
                None
                if self._cost_cache_key is None
                else [self._cost_cache_key[0].hex(), self._cost_cache_key[1]]
            ),
        }
        # Workflow keys appear only when carrying non-default state, so
        # independent-task snapshots stay byte-identical to the seed's.
        if np.any(self._priority_arr != 0.0):
            state["priorities"] = [float(v) for v in self._priority_arr]
        if self._floor:
            state["floors"] = [
                [int(t), float(f)] for t, f in sorted(self._floor.items())
            ]
        if self._preds:
            state["preds"] = [
                [int(t), [int(p) for p in parents]]
                for t, parents in sorted(self._preds.items())
            ]
        return state

    def restore_state(self, state: dict) -> None:
        """Rebuild the population exactly as snapshot (RNG restored elsewhere).

        Snapshots written while the kernel was selectable carry a
        ``kernel`` tag.  Each of those kernels consumed the RNG stream
        differently from this one, so a resumed run would silently diverge
        from its uninterrupted twin: such a snapshot is refused with a
        :class:`~repro.errors.CheckpointError` naming its kernel.
        """
        from repro.checkpoint.codec import decode_ndarray

        if "kernel" in state:
            raise CheckpointError(
                f"GA snapshot was taken under the retired {state['kernel']!r} "
                "kernel; this build has a single GA kernel and cannot resume it"
            )
        self._id_order = [int(t) for t in state["id_order"]]
        self._row_of = {tid: row for row, tid in enumerate(self._id_order)}
        self._dtable = decode_ndarray(state["dtable"])
        self._deadline_arr = np.asarray(state["deadlines"], dtype=float)
        priorities = state.get("priorities")
        self._priority_arr = (
            np.zeros(len(self._id_order), dtype=float)
            if priorities is None
            else np.asarray(priorities, dtype=float)
        )
        self._floor = {int(t): float(f) for t, f in state.get("floors", [])}
        self._preds = {
            int(t): tuple(int(p) for p in parents)
            for t, parents in state.get("preds", [])
        }
        self._constraint_cache = None
        self._order = (
            None if state["order"] is None else decode_ndarray(state["order"])
        )
        self._masks = (
            None if state["masks"] is None else decode_ndarray(state["masks"])
        )
        self._generations = int(state["generations"])
        self._history = [(int(g), float(c)) for g, c in state["history"]]
        self._stats.restore_counters(state["stats"])
        self._cached_costs = (
            None
            if state["cached_costs"] is None
            else decode_ndarray(state["cached_costs"])
        )
        key = state["cost_cache_key"]
        self._cost_cache_key = (
            None if key is None else (bytes.fromhex(key[0]), float(key[1]))
        )
