"""Evaluation reuse for the GA hot loop: carried costs and the cost cache.

The GA costs its population with eq. (8) and the grid triggers ``evolve``
on *every* task arrival and completion, so redundant re-evaluation is the
first redundancy to eliminate (Savvas & Kechadi, *Dynamic Task Scheduling
in Computing Cluster Environments*, make the matching observation for
iterative cluster schedulers).  Three facts make reuse safe here:

* eq. (8) is a **pure function** of ``(order row, mask row,
  node_free_times, ref_time)`` — no RNG, no hidden state;
* the evaluators reduce only *within* an individual, so a row's cost is
  bit-identical whichever batch it is costed in;
* within one ``evolve`` call ``node_free_times``/``ref_time`` are fixed.

So elites carried between generations keep their costs, and a repeat
costing of an unchanged population under unchanged availability (the
``evolve`` → dispatch → ``best_solution`` sequence of one scheduling
event) reuses the retained cost vector — both bit-identical to a fresh
costing, as the property tests in
``tests/properties/test_evalreuse_properties.py`` assert.

This module holds the policy-free plumbing: the availability key and the
observability counters exposed as
:attr:`GAScheduler.stats <repro.scheduling.ga.GAScheduler.stats>`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = ["EvalReuseStats", "availability_key"]


@dataclass
class EvalReuseStats:
    """Counters that make the reuse layer's effect observable, not asserted.

    ``rows_costed`` splits exactly into ``rows_evaluated`` (ran through an
    eq.-(8) evaluator) and ``carry_hits`` (an elite's cost carried from
    the previous generation of the same ``evolve`` call).
    """

    #: Invocations of an eq.-(8) evaluator (any row count).
    evaluate_calls: int = 0
    #: Individuals whose cost was requested.
    rows_costed: int = 0
    #: Individuals actually (re-)evaluated.
    rows_evaluated: int = 0
    #: Elite costs carried forward from the previous generation.
    carry_hits: int = 0
    #: ``best_solution`` calls answered from the event-level cost cache.
    event_cache_hits: int = 0
    #: ``best_solution`` calls that had to recompute.
    event_cache_misses: int = 0
    #: Generation loops halted early by ``GAConfig(early_stop_after=K)``.
    early_stops: int = 0
    #: Individuals replaced by a winning warm-start list-scheduling seed
    #: (once per ``evolve``; see :mod:`repro.scheduling.warmstart`).
    warmstart_seeds: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of requested costs served without re-evaluation."""
        if self.rows_costed == 0:
            return 0.0
        return 1.0 - self.rows_evaluated / self.rows_costed

    def reset(self) -> None:
        """Zero every counter (reset symmetry with the other stats objects)."""
        for f in fields(self):
            setattr(self, f.name, f.default)

    def snapshot_counters(self) -> Dict[str, int]:
        """The raw counter fields alone (checkpoint support; no hit_rate)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def restore_counters(self, counters: Dict[str, int]) -> None:
        """Set every counter field from a :meth:`snapshot_counters` dict.

        Counters absent from *counters* reset to their defaults, so
        checkpoints written before a counter existed stay restorable.
        """
        for f in fields(self):
            setattr(self, f.name, int(counters.get(f.name, f.default)))


def availability_key(
    node_free_times: Sequence[float], ref_time: float
) -> Tuple[bytes, float]:
    """Hashable identity of an eq.-(8) availability context.

    eq. (8) only ever sees ``max(node_free_times, ref_time)`` (nothing can
    start in the past), so the key is the *clamped* free-time vector plus
    ``ref_time`` (which additionally shifts ω and the idle weighting).
    Two calls with equal keys are guaranteed bit-identical cost vectors
    for an unchanged population.
    """
    free0 = np.maximum(np.asarray(node_free_times, dtype=float), ref_time)
    return free0.tobytes(), float(ref_time)
