"""Tests for the FIFO baseline scheduler."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.scheduling.fifo import FIFOScheduler, earliest_free_allocation
from tests.oracles.fifo_reference import exhaustive_allocation


def table(durations: dict):
    return lambda k: durations[k]


class TestExhaustiveAllocation:
    def test_picks_earliest_completion(self):
        # 3 nodes free at 0; duration 10/6/5 for 1/2/3 nodes.
        alloc = exhaustive_allocation([0.0, 0.0, 0.0], table({1: 10.0, 2: 6.0, 3: 5.0}))
        assert alloc.node_ids == (0, 1, 2)
        assert alloc.completion == 5.0

    def test_trades_start_against_duration(self):
        # Node 2 frees late: using 3 nodes starts at 10 (completes 15);
        # 2 nodes start now (completes 6).
        alloc = exhaustive_allocation(
            [0.0, 0.0, 10.0], table({1: 10.0, 2: 6.0, 3: 5.0})
        )
        assert alloc.node_ids == (0, 1)
        assert alloc.completion == 6.0

    def test_tie_prefers_fewer_nodes(self):
        alloc = exhaustive_allocation([0.0, 0.0], table({1: 5.0, 2: 5.0}))
        assert alloc.size == 1

    def test_tie_prefers_lower_ids(self):
        alloc = exhaustive_allocation([0.0, 0.0], table({1: 5.0, 2: 9.0}))
        assert alloc.node_ids == (0,)

    def test_invalid_duration_rejected(self):
        with pytest.raises(ScheduleError):
            exhaustive_allocation([0.0], lambda k: 0.0)


class TestEarliestFreeEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        free = [float(x) for x in rng.uniform(0, 20, n)]
        durations = {k: float(rng.uniform(1, 30)) for k in range(1, n + 1)}
        fast = earliest_free_allocation(free, table(durations))
        slow = exhaustive_allocation(free, table(durations))
        assert fast.completion == slow.completion
        assert fast.size == slow.size

    def test_matches_on_equal_free_times(self):
        free = [3.0] * 5
        durations = {1: 9.0, 2: 6.0, 3: 5.0, 4: 5.0, 5: 7.0}
        fast = earliest_free_allocation(free, table(durations))
        slow = exhaustive_allocation(free, table(durations))
        assert fast.node_ids == slow.node_ids


class TestFIFOScheduler:
    def test_fixed_placement(self):
        fifo = FIFOScheduler(3)
        alloc = fifo.place(0, table({1: 10.0, 2: 6.0, 3: 5.0}), now=0.0)
        assert alloc.completion == 5.0
        assert fifo.placement(0) == alloc
        assert fifo.makespan == 5.0

    def test_bookings_accumulate(self):
        fifo = FIFOScheduler(2)
        fifo.place(0, table({1: 10.0, 2: 6.0}), now=0.0)  # both nodes till 6
        second = fifo.place(1, table({1: 3.0, 2: 6.0}), now=1.0)
        assert second.start == 6.0
        assert second.node_ids == (0,)

    def test_now_floors_availability(self):
        fifo = FIFOScheduler(1)
        alloc = fifo.place(0, table({1: 2.0}), now=5.0)
        assert alloc.start == 5.0

    def test_duplicate_placement_rejected(self):
        fifo = FIFOScheduler(1)
        fifo.place(0, table({1: 1.0}), now=0.0)
        with pytest.raises(ScheduleError):
            fifo.place(0, table({1: 1.0}), now=0.0)

    def test_unknown_placement_rejected(self):
        with pytest.raises(ScheduleError):
            FIFOScheduler(1).placement(9)

    def test_sync_availability_only_moves_later(self):
        fifo = FIFOScheduler(2)
        fifo.place(0, table({1: 4.0, 2: 6.0}), now=0.0)
        booked = fifo.booked_free_times.copy()
        fifo.sync_availability([1.0, 100.0])
        after = fifo.booked_free_times
        assert after[0] == booked[0]  # earlier actual time ignored
        assert after[1] == 100.0

    def test_sync_availability_length_mismatch(self):
        with pytest.raises(ScheduleError):
            FIFOScheduler(2).sync_availability([0.0])

    def test_placements_match_exhaustive_oracle(self):
        # The oracle searches the same floored bookings the scheduler sees
        # and books its choice the same way.
        durations = {1: 9.0, 2: 5.0, 3: 4.0}
        free = np.zeros(3)
        b = FIFOScheduler(3)
        for tid in range(4):
            pa = exhaustive_allocation(
                np.maximum(free, float(tid)), table(durations)
            )
            free[list(pa.node_ids)] = pa.completion
            pb = b.place(tid, table(durations), now=float(tid))
            assert pa.completion == pb.completion

    def test_bookings_never_overlap_per_node(self):
        """Fixed placements occupy each node for disjoint intervals."""
        rng = np.random.default_rng(3)
        fifo = FIFOScheduler(4)
        placements = []
        for tid in range(10):
            durations = {k: float(rng.uniform(2, 20)) for k in range(1, 5)}
            placements.append(fifo.place(tid, table(durations), now=float(tid)))
        per_node: dict[int, list[tuple[float, float]]] = {}
        for alloc in placements:
            for nid in alloc.node_ids:
                per_node.setdefault(nid, []).append((alloc.start, alloc.completion))
        for intervals in per_node.values():
            intervals.sort()
            for (s1, e1), (s2, _e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-9
