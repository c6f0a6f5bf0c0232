"""The GA kernel's operators and evaluator: whole-population array programs.

At case-study sizes (pop 50, m ≈ 12, n = 16) the cost of a generation is
almost entirely **python/numpy call overhead**, not array arithmetic, so
every piece of the generation loop in
:meth:`GAScheduler.evolve <repro.scheduling.ga.GAScheduler.evolve>` works
on the whole population at once:

* operators are **pure array programs over the whole population**: the
  random choices (pair decisions, cuts, points, swap positions, bit
  flips, insert positions) are *arguments*, drawn by the caller as
  arrays — the evolve loop draws them in multi-generation blocks, so RNG
  dispatch is O(1) per generation;
* :func:`vectorized_costs` is an eq.-(8) evaluator that keeps its
  per-node state **node-major** (``(n, P)``) so the per-step masked
  maximum reduces along axis 0 of a contiguous array — measured ~3×
  cheaper than the row-major reduction at case-study sizes — and defers
  all idle-pocket accounting to whole-cube operations after the walk;
* cost evaluation runs once per generation over the **children only** —
  elites carry their costs forward structurally.

The object-level operators in :mod:`repro.scheduling.operators` state the
paper's semantics; the property tests check these array forms against
them and check the kernel's schedule quality against a per-pair reference
GA kept with the tests (see docs/performance.md).

Shape conventions match the packed population of
:class:`~repro.scheduling.ga.GAScheduler`: orderings are ``(P, m)`` row
permutations, masks are ``(P, m, n)`` bool cubes keyed by task row (not
by position), preserving "the node mapping associated with a particular
task from one generation to the next".
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ScheduleError

__all__ = [
    "bernoulli_indices",
    "vectorized_order_splice",
    "vectorized_mask_crossover",
    "vectorized_insert",
    "vectorized_selection",
    "vectorized_children",
    "vectorized_mutation",
    "vectorized_costs",
]


def bernoulli_indices(
    rng: np.random.Generator, total: int, p: float
) -> np.ndarray:
    """Positions of the successes in *total* iid Bernoulli(*p*) trials.

    Distribution-exact: successes in an iid Bernoulli sequence sit at the
    cumulative sums of iid geometric gaps, so drawing ``~total·p`` gaps
    replaces a *total*-sized uniform draw + threshold — the dominant RNG
    cost of the mutation step (bit generation scales with the number of
    floats drawn, and ``total ≈ P·m·n`` while successes are ``~P``).
    Returned indices are strictly increasing (hence unique).
    """
    if p <= 0.0 or total <= 0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    mean = total * p
    chunk = int(mean + 6.0 * np.sqrt(mean)) + 8
    positions = np.cumsum(rng.geometric(p, size=chunk)) - 1
    while positions[-1] < total:  # undershoot: extend the walk (rare)
        more = np.cumsum(rng.geometric(p, size=chunk)) + positions[-1]
        positions = np.concatenate([positions, more])
    return positions[: np.searchsorted(positions, total)]


def vectorized_order_splice(
    orders_a: np.ndarray, orders_b: np.ndarray, cuts: np.ndarray
) -> np.ndarray:
    """Splice each pair of orderings at its cut — ``(B, m)``.

    For every batch row ``b`` the child is ``orders_a[b, :cuts[b]]``
    followed by the remaining rows in ``orders_b[b]``'s order, exactly as
    :func:`repro.scheduling.operators.order_splice` builds it.  Membership
    of the head is resolved through a scattered lookup table rather than a
    per-pair ``np.isin``, so the whole batch is O(B·m).  *cuts* is
    ``(B,)`` in ``0..m``.
    """
    batch, m = orders_a.shape
    positions = np.arange(m)
    rows = np.arange(batch)[:, None]
    head_mask = positions[None, :] < cuts[:, None]  # (B, m)
    # Row-indexed lookup table: in_head[b, r] == r appears in a's head.
    in_head = np.zeros((batch, m), dtype=bool)
    in_head[rows, orders_a] = head_mask
    keep = ~in_head[rows, orders_b]  # b's rows to keep
    # Kept elements of b land after the head, preserving b's order; they
    # fill every tail slot exactly (m − cut kept rows per pair), so the
    # scatter below covers everything the head copy leaves unset.
    dest = cuts[:, None] + np.cumsum(keep, axis=1) - 1
    children = np.empty_like(orders_a)
    np.copyto(children, orders_a, where=head_mask)
    b_idx, j_idx = np.nonzero(keep)
    children[b_idx, dest[b_idx, j_idx]] = orders_b[b_idx, j_idx]
    return children


def vectorized_mask_crossover(
    child_orders: np.ndarray,
    masks_first: np.ndarray,
    masks_second: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Single-point mask crossover for a batch of children, keyed by row.

    The paper's mapping crossover gathers each parent's row-keyed masks
    *in the child's task order* ("reordering ... necessary to preserve the
    node mapping associated with a particular task"), crosses the
    flattened strings at the shared point, and scatters back under row
    keys.  Row ``r``'s bit for node ``j`` therefore comes from
    *masks_first* exactly when ``pos(r) * n + j < point``, where
    ``pos(r)`` is ``r``'s position in the child ordering — so the whole
    gather/cross/scatter collapses to one inverse permutation and a masked
    copy over the row-keyed masks.  *points* is ``(B,)`` in ``0..m*n``.

    Empty-mask repair is *not* applied here; the mutation step owns the
    legitimacy repair.
    """
    batch, m, n = masks_first.shape
    rows = np.arange(batch)[:, None]
    inverse = np.empty((batch, m), dtype=np.int32)
    inverse[rows, child_orders] = np.arange(m, dtype=np.int32)[None, :]
    # Flat crossover-string index of (task row r, node j): pos(r)*n + j.
    # ``pos*n + j < point`` ⟺ ``pos < ceil((point − j) / n)``, so the cut
    # collapses to a per-(pair, node) position threshold — two small
    # ``(B, n)`` integer ops instead of materialising the flat index as an
    # ``(B, m, n)`` cube.  The suffix copy + masked prefix overwrite
    # replaces ``np.where``, which benchmarks ~4× slower on broadcast
    # operands at these sizes.
    thresholds = (points[:, None] - np.arange(n, dtype=np.int32) + n - 1) // n
    children = masks_second.copy()
    np.copyto(
        children,
        masks_first,
        where=inverse[:, :, None] < thresholds.astype(np.int32)[:, None, :],
    )
    return children


def vectorized_insert(
    orders: np.ndarray, positions: np.ndarray, value: int
) -> np.ndarray:
    """Insert *value* into every ordering at its per-row position.

    Row ``i`` of the result equals ``np.insert(orders[i], positions[i],
    value)``; *positions* is ``(B,)`` in ``0..m``.  This is how
    :meth:`GAScheduler.add_task` splices a new task's row into the live
    population.
    """
    batch, m = orders.shape
    if m == 0:
        return np.full((batch, 1), value, dtype=orders.dtype)
    out_pos = np.arange(m + 1)
    before = out_pos[None, :] < positions[:, None]
    # Source column: k for the prefix, k-1 for the suffix; the insert slot
    # itself is overwritten below, so its clipped gather value is irrelevant.
    src = np.where(before, out_pos[None, :], out_pos[None, :] - 1)
    src = np.clip(src, 0, m - 1)
    children = orders[np.arange(batch)[:, None], src]
    children[out_pos[None, :] == positions[:, None]] = value
    return children


def vectorized_selection(
    fitness: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Stochastic remainder selection drawn with O(1) RNG calls — ``(count,)``.

    Distribution-identical to
    :func:`repro.scheduling.operators.stochastic_remainder_selection`:
    each individual receives ``floor(expected)`` deterministic copies and
    the remaining slots are weighted draws on the fractional remainders;
    the result is returned in shuffled order so consecutive entries pair
    for crossover.  Only the *stream* differs — copies are materialised
    with ``np.repeat``, the weighted draws are inverse-CDF samples
    (``searchsorted`` over the remainder cumsum, far cheaper than
    ``rng.choice`` with explicit probabilities), and the shuffle is one
    ``rng.permutation`` instead of per-index scalar draws.
    """
    f = np.asarray(fitness, dtype=float)
    total_f = f.sum()
    if total_f == 0.0:
        return rng.integers(0, f.size, size=count)
    expected = f * (count / total_f)
    guaranteed = expected.astype(np.int64)  # truncation == floor: f >= 0
    base = np.repeat(np.arange(f.size, dtype=np.int64), guaranteed)
    slots = count - base.size
    if slots > 0:
        remainder = expected - guaranteed
        cdf = np.cumsum(remainder)
        if cdf[-1] <= 0:
            extra = rng.integers(0, f.size, size=slots)
        else:
            extra = np.searchsorted(
                cdf, rng.random(slots) * cdf[-1], side="right"
            )
        base = np.concatenate([base, extra.astype(np.int64)])
    elif slots < 0:
        return rng.permutation(base)[:count]
    return rng.permutation(base)


def vectorized_children(
    order: np.ndarray,
    masks: np.ndarray,
    parents: np.ndarray,
    do_cross: np.ndarray,
    cuts: np.ndarray,
    points: np.ndarray,
) -> tuple:
    """The next generation's non-elite individuals, built batch-at-once.

    Consecutive selected *parents* pair up, as in the paper's pairwise
    crossover; ``do_cross``/``cuts``/``points`` are the per-pair random
    choices, drawn by the caller as arrays (the evolve loop draws them in
    multi-generation blocks).  Both crossover directions go through a
    single fused order-splice / mask-crossover invocation — the a-head
    children occupy the first half of the batch, the b-head children the
    second; child order within a generation is immaterial to selection.
    Pairs that do not cross copy their parents through; an odd leftover
    parent is copied verbatim.

    Returns ``(child_order (C, m), child_masks (C, m, n))`` with
    ``C == parents.size``.
    """
    parents = np.asarray(parents, dtype=np.int64)
    pair_count = parents.size // 2
    m = order.shape[1]
    if pair_count == 0 or m == 0:
        return order[parents].copy(), masks[parents].copy()
    pa = parents[: 2 * pair_count : 2]
    pb = parents[1 : 2 * pair_count : 2]
    heads = np.concatenate([pa, pb])
    tails = np.concatenate([pb, pa])
    head_orders = order[heads]
    head_masks = masks[heads]
    cuts2 = np.concatenate([cuts, cuts])
    child_order = vectorized_order_splice(head_orders, order[tails], cuts2)
    child_masks = vectorized_mask_crossover(
        child_order, head_masks, masks[tails], np.concatenate([points, points])
    )
    plain = np.flatnonzero(~np.concatenate([do_cross, do_cross]))
    if plain.size:
        child_order[plain] = head_orders[plain]
        child_masks[plain] = head_masks[plain]
    if parents.size % 2:
        child_order = np.concatenate([child_order, order[parents[-1:]]])
        child_masks = np.concatenate([child_masks, masks[parents[-1:]]])
    return child_order, child_masks


def vectorized_mutation(
    order: np.ndarray,
    masks: np.ndarray,
    swap_sel: Optional[np.ndarray],
    swap_i: Optional[np.ndarray],
    swap_j: Optional[np.ndarray],
    flip_idx: Optional[np.ndarray],
    repair_picks_rng: np.random.Generator,
) -> None:
    """In-place two-part mutation from pre-drawn array choices.

    *swap_sel* (``(P,)`` bool) marks the individuals whose ordering
    mutates; each swaps positions ``i = swap_i`` and
    ``j = (i + 1 + swap_j) % m`` — with ``swap_j`` uniform on
    ``0..m-2`` this offset trick is uniform over ordered distinct pairs,
    the same distribution as the object-level
    :func:`~repro.scheduling.operators.mutate`'s
    ``rng.choice(m, 2, replace=False)``.  *flip_idx* holds the **flat**
    bit positions to toggle in ``masks`` (unique indices into the
    flattened ``(P·m·n,)`` view — :func:`bernoulli_indices` output, the
    sparse equivalent of XORing a Bernoulli bit field).  Any of the
    choices may be ``None`` to skip that part.  The empty-mask
    legitimacy repair always runs (crossover and flips can zero a row);
    its rare node picks come from *repair_picks_rng*.
    """
    pop, m = order.shape
    n = masks.shape[2]
    if swap_sel is not None and m >= 2:
        rows = np.flatnonzero(swap_sel)
        if rows.size:
            i = swap_i[rows]
            j = (i + 1 + swap_j[rows]) % m
            vi = order[rows, i]
            order[rows, i] = order[rows, j]
            order[rows, j] = vi
    if flip_idx is not None and flip_idx.size:
        if masks.flags["C_CONTIGUOUS"]:
            masks.reshape(-1)[flip_idx] ^= True
        else:  # a flat view would silently copy; scatter through coordinates
            masks[np.unravel_index(flip_idx, masks.shape)] ^= True
    flat = masks.reshape(-1, n)
    empty = ~flat.any(axis=1)
    if empty.any():
        picks = repair_picks_rng.integers(n, size=int(empty.sum()))
        flat[np.flatnonzero(empty), picks] = True


#: Reusable evaluator state, keyed by problem shape.  ``evolve`` calls the
#: evaluator once per generation with an identical shape, so the working
#: arrays (the ``(n, P)`` free times, the ``(m, P)`` start/completion
#: tables, and the ``(m, n, P)`` step cube) are allocated once and
#: rewritten in place.  Every entry is fully overwritten before use, so
#: the cache carries no state between calls — it only skips allocator
#: traffic.  Process-local by construction (``run_many`` parallelism is
#: process-based).
_SCRATCH: dict = {}


def _cost_scratch(m: int, n: int, pop: int):
    """The per-shape working arrays of :func:`vectorized_costs`."""
    key = (m, n, pop)
    entry = _SCRATCH.get(key)
    if entry is None:
        if len(_SCRATCH) > 32:  # unbounded shapes would pin memory
            _SCRATCH.clear()
        entry = (
            np.empty((n, pop)),
            np.empty((m, pop)),
            np.empty((m, pop)),
            np.empty((m, n, pop)),
            np.empty((m * n, pop)),
            np.arange(pop)[:, None],
        )
        _SCRATCH[key] = entry
    return entry


def vectorized_costs(
    order: np.ndarray,
    masks: np.ndarray,
    dtable: np.ndarray,
    deadlines: np.ndarray,
    node_free_times: Sequence[float],
    ref_time: float,
    weights,
    idle_weighting: str = "linear",
) -> np.ndarray:
    """eq.-(8) cost of every individual — the lean whole-population evaluator.

    Computes the same quantity as the row-major evaluator
    (:meth:`GAScheduler._evaluate <repro.scheduling.ga.GAScheduler._evaluate>`)
    with a fraction of the numpy calls per task step, which is what
    matters at case-study sizes where call overhead dominates arithmetic:

    * everything runs in **time relative to** ``ref_time`` and
      **node-major layout**: free times are a contiguous ``(n, P)``
      array, so the per-step masked maximum is an axis-0 reduction
      (~3× cheaper than the row-major axis-1 reduction here);
    * the inner walk over the ``m`` (inherently sequential) task steps
      does only four array operations — masked free gather, start
      maximum, completion, and the free-time update; the masked gathers
      are retained as an ``(m, n, P)`` cube;
    * all idle-pocket accounting happens **after** the walk as whole-cube
      arithmetic: the cube row for step ``j`` holds ``frel·mask``, so
      ``Σ_sel frel = cube[j].sum()`` and ``Σ_sel frel² = (cube[j]²).sum()``
      (masks are boolean, so squaring preserves the selection), giving
      the linear weighting's pocket integral
      ``Σ (b² − a²)/2 = (count·start² − Σ_sel frel²)/2`` per step with no
      per-step reductions.

    Caller contract: every mask row selects at least one node (the
    operators' legitimacy repair runs *before* costing) and durations are
    finite and positive.  Float arithmetic is reordered relative to the
    row-major evaluator, so agreement with it is to rounding (asserted
    with ``allclose`` by the property tests).  Each row's cost is,
    however, bit-identical whichever batch it is costed in: every
    reduction runs along the population axis of a contiguous array
    (summed sequentially per column), never through BLAS, so carried and
    cached costs equal a fresh costing exactly.
    """
    pop, m = order.shape
    n = masks.shape[2]
    free0 = np.maximum(np.asarray(node_free_times, dtype=float), ref_time)
    if free0.size != n:
        raise ScheduleError(
            f"node_free_times has {free0.size} entries, resource has {n}"
        )
    if m == 0:
        return np.zeros(pop)
    if pop == 1:
        # Reductions below run along axis 0 of (·, P) arrays, which numpy
        # sums sequentially per column for P >= 2 but pairwise once a
        # single column collapses to 1-D; costing a lone row as a pair
        # keeps every row's cost independent of its batch.
        return vectorized_costs(
            np.repeat(order, 2, axis=0), np.repeat(masks, 2, axis=0),
            dtable, deadlines, free0, ref_time, weights, idle_weighting,
        )[:1]
    frel, starts, comps, cube, sq, rows_idx = _cost_scratch(m, n, pop)
    # (m, n, pop): step-major, node-major per step, contiguous.
    smask = np.ascontiguousarray(masks[rows_idx, order].transpose(1, 2, 0))
    counts = smask.sum(axis=1)  # (m, pop)
    order_t = order.T
    durs = dtable[order_t, counts - 1]  # (m, pop)
    frel[:] = (free0 - ref_time)[:, None]  # (n, pop) — all >= 0 after clamp
    for j in range(m):
        cj = cube[j]
        np.multiply(frel, smask[j], out=cj)  # frel >= 0, so 0-fill is safe
        np.maximum.reduce(cj, axis=0, out=starts[j])
        np.add(starts[j], durs[j], out=comps[j])
        np.copyto(frel, comps[j][None, :], where=smask[j])
    omega = np.maximum.reduce(comps, axis=0)
    np.maximum(omega, 0.0, out=omega)
    theta = np.maximum(comps - (deadlines[order_t] - ref_time), 0.0).sum(axis=0)
    # Idle pockets [a, b] on selected nodes: a = frel before the step
    # (cube holds frel·mask), b = the step's start.
    if idle_weighting != "exponential":
        cube2d = cube.reshape(m * n, pop)
        cs = counts * starts
        # Σ count·start − Σ_sel frel.  Plain axis-0 sums, not BLAS: a
        # matvec's summation order depends on P, and a row's cost must
        # not depend on which batch it was costed in.
        idle_len = cs.sum(axis=0) - cube2d.sum(axis=0)
        if idle_weighting == "uniform":
            phi = idle_len
        else:  # linear
            cs *= starts
            np.multiply(cube2d, cube2d, out=sq)
            sel_sq = sq.sum(axis=0)
            idle_sq = (cs.sum(axis=0) - sel_sq) * 0.5
            safe = np.where(omega > 0, omega, 1.0)
            phi = np.where(omega > 0, idle_len - idle_sq / safe, 0.0)
    else:  # exponential: ∫ exp(−3t/ω) dt over each pocket, t relative
        rate = np.where(omega > 0, 3.0 / np.where(omega > 0, omega, 1.0), 0.0)
        r = rate[None, None, :]
        safe_r = np.where(r > 0, r, 1.0)
        has_gap = smask & (cube < starts[:, None, :])
        contrib = np.where(
            has_gap & (r > 0),
            (np.exp(-safe_r * cube) - np.exp(-safe_r * starts[:, None, :]))
            / safe_r,
            0.0,
        )
        phi = contrib.sum(axis=(0, 1))
    return (
        weights.makespan * omega + weights.idle * phi + weights.deadline * theta
    ) / weights.total
