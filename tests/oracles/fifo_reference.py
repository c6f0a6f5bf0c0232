"""The paper's literal FIFO allocation search: every one of the 2^n − 1 subsets.

§4.1: "All of the possible resource allocations (a total of 2^16 − 1
possibilities) are tried."  :func:`exhaustive_allocation` does exactly
that and is the oracle for the production search,
:func:`~repro.scheduling.fifo.earliest_free_allocation`, which reaches the
same choice in O(n log n).  Exponential in the node count, so only small
node sets are fed to it.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Sequence

from repro.scheduling.fifo import (
    Allocation,
    SizeDurationFn,
    _best,
    _check_duration,
)
from repro.utils.validation import check_non_empty

__all__ = ["exhaustive_allocation"]


def exhaustive_allocation(
    free_times: Sequence[float], duration: SizeDurationFn
) -> Allocation:
    """Try every non-empty node subset; return the earliest-completion one."""
    check_non_empty(free_times, "free_times")
    n = len(free_times)
    candidates: List[Allocation] = []
    for k in range(1, n + 1):
        dur = float(duration(k))
        _check_duration(dur, k)
        for subset in combinations(range(n), k):
            start = max(free_times[i] for i in subset)
            candidates.append(Allocation(subset, start, start + dur))
    return _best(candidates)
