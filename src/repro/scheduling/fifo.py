"""The FIFO baseline scheduler (§4.1).

"The FIFO scheduling does not change the order of tasks.  Each task is
scheduled according to the time at which it arrives (also driven by the
PACE predictive data).  All of the possible resource allocations (a total
of 2^16 − 1 possibilities) are tried.  As soon as the current best solution
is found, it is fixed and will not change as new tasks enter the system."

:func:`earliest_free_allocation` makes the same choice as that literal
search in O(n log n): for each size k the optimal subset is the k
earliest-free nodes (on a homogeneous resource the duration depends only
on k, and replacing any chosen node by an earlier-free one can only lower
the start time), so only n candidates need comparing.  The literal
2^n − 1 subset enumeration is kept in the test suite as its oracle, and a
property test asserts the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ScheduleError
from repro.utils.validation import check_non_empty

__all__ = [
    "Allocation",
    "earliest_free_allocation",
    "FIFOScheduler",
]

#: duration(n_allocated) -> predicted seconds for the task being placed.
SizeDurationFn = Callable[[int], float]


@dataclass(frozen=True)
class Allocation:
    """A fixed placement decision: nodes, start, and completion time."""

    node_ids: Tuple[int, ...]
    start: float
    completion: float

    @property
    def duration(self) -> float:
        """Booked execution time."""
        return self.completion - self.start

    @property
    def size(self) -> int:
        """Number of allocated nodes."""
        return len(self.node_ids)


def _best(candidates: List[Allocation]) -> Allocation:
    """Earliest completion wins; ties prefer fewer nodes, then lower ids."""
    return min(
        candidates, key=lambda a: (a.completion, a.size, a.node_ids)
    )


def earliest_free_allocation(
    free_times: Sequence[float], duration: SizeDurationFn
) -> Allocation:
    """Equivalent optimal search in O(n log n) for homogeneous nodes.

    For each size k the k earliest-free nodes minimise the start time, and
    duration depends only on k, so only n candidates need comparing.  Node
    order within equal free times follows ascending id, matching the
    tie-break of a full subset search (:func:`_best`).
    """
    check_non_empty(free_times, "free_times")
    free = np.asarray(free_times, dtype=float)
    # stable sort keeps ascending node id among equal free times
    order = np.argsort(free, kind="stable")
    sorted_free = free[order]
    candidates: List[Allocation] = []
    for k in range(1, free.size + 1):
        dur = float(duration(k))
        _check_duration(dur, k)
        start = float(sorted_free[k - 1])
        node_ids = tuple(sorted(int(i) for i in order[:k]))
        candidates.append(Allocation(node_ids, start, start + dur))
    return _best(candidates)


def _check_duration(dur: float, k: int) -> None:
    if not (dur > 0 and np.isfinite(dur)):
        raise ScheduleError(f"duration for {k} nodes must be finite and > 0, got {dur}")


class FIFOScheduler:
    """Arrival-order scheduler with fixed, never-revised allocations.

    Parameters
    ----------
    n_nodes:
        Number of processing nodes.

    The scheduler maintains booked free times per node; ``place`` books the
    best allocation for an arriving task and returns it.
    """

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ScheduleError(f"n_nodes must be >= 1, got {n_nodes}")
        self._free = np.zeros(n_nodes, dtype=float)
        self._placements: Dict[int, Allocation] = {}

    @property
    def n_nodes(self) -> int:
        """Number of processing nodes."""
        return self._free.size

    @property
    def booked_free_times(self) -> np.ndarray:
        """Per-node booked-until times (copy)."""
        return self._free.copy()

    @property
    def makespan(self) -> float:
        """Latest booked completion — the resource's freetime estimate."""
        return float(self._free.max())

    def placement(self, task_id: int) -> Allocation:
        """The fixed allocation previously booked for *task_id*."""
        try:
            return self._placements[task_id]
        except KeyError:
            raise ScheduleError(f"no placement booked for task {task_id}") from None

    def forget(self, task_id: int) -> None:
        """Drop a placement whose task was cancelled before launching.

        The booked node times are deliberately left as they are — the
        conservative choice shared with the other static policies: a
        too-late booking only delays later placements, never breaks them,
        and FIFO bookings are monotonic (see :meth:`sync_availability`).
        """
        self._placements.pop(task_id, None)

    def sync_availability(self, node_free_times: Sequence[float]) -> None:
        """Raise bookings to at least the executor's actual availability.

        Bookings only ever move later: FIFO placements are fixed, so actual
        availability (e.g. a node marked down) can delay but never undo.
        """
        actual = np.asarray(node_free_times, dtype=float)
        if actual.size != self._free.size:
            raise ScheduleError(
                f"expected {self._free.size} node times, got {actual.size}"
            )
        self._free = np.maximum(self._free, actual)

    def snapshot_state(self) -> dict:
        """Booked free times and fixed placements (checkpoint support)."""
        return {
            "free": [float(x) for x in self._free],
            "placements": {
                str(tid): [list(a.node_ids), a.start, a.completion]
                for tid, a in sorted(self._placements.items())
            },
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild bookings from a :meth:`snapshot_state` dict."""
        self._free = np.asarray(state["free"], dtype=float)
        self._placements = {
            int(tid): Allocation(tuple(int(n) for n in nodes), float(s), float(c))
            for tid, (nodes, s, c) in state["placements"].items()
        }

    def place(
        self, task_id: int, duration: SizeDurationFn, now: float
    ) -> Allocation:
        """Book the best allocation for an arriving task; fixed thereafter."""
        if task_id in self._placements:
            raise ScheduleError(f"task {task_id} already placed")
        free = np.maximum(self._free, now)
        allocation = earliest_free_allocation(free, duration)
        for nid in allocation.node_ids:
            self._free[nid] = allocation.completion
        self._placements[task_id] = allocation
        return allocation
