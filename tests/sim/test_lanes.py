"""Lane partitioning, heap compaction, and hot-path object shape.

Covers the scale-refactor invariants of :class:`~repro.sim.engine.Engine`
that the ordering-equivalence property suite does not: lane routing and
accounting, the bounded-garbage compaction contract, the in-place
container stability that :class:`~repro.sim.engine.EngineLane` views rely
on across ``reset``/``restore_state``, and the ``__slots__`` guarantee on
the per-event hot-path objects.
"""

from __future__ import annotations

import pytest

from repro.net.message import Endpoint, Message, MessageKind
from repro.sim.engine import COMPACT_MIN, Engine, EngineLane
from repro.sim.events import DEFAULT_LANE, Event, EventHandle, Priority
from tests.oracles.engine_reference import SingleHeapEngine


class TestLaneRouting:
    def test_lane_recorded_on_events(self, sim):
        view = sim.lane_view("cluster-a")
        handle = view.schedule(1.0, lambda: None, label="probe")
        assert handle.lane == "cluster-a"
        assert sim.schedule(1.0, lambda: None).lane == DEFAULT_LANE

    def test_lane_view_is_cached(self, sim):
        assert sim.lane_view("x") is sim.lane_view("x")
        assert sim.lane_view("x") is not sim.lane_view("y")

    def test_lane_count_tracks_occupied_lanes(self, sim):
        sim.lane_view("a").schedule(1.0, lambda: None)
        sim.lane_view("b").schedule(1.0, lambda: None)
        handle = sim.lane_view("c").schedule(1.0, lambda: None)
        assert sim.lane_count == 3
        # Lazy delete: the cancelled entry still occupies its lane until
        # drained or compacted.
        handle.cancel()
        assert sim.lane_count == 3
        sim.run()
        assert sim.lane_count == 0

    def test_firing_order_is_lane_independent(self):
        # The same script routed through different lane layouts — and
        # through the single-heap oracle — fires identically.
        def script(engine, lanes):
            fired = []
            for i, lane in enumerate(lanes):
                view = engine.lane_view(lane)
                view.schedule(2.0, lambda i=i: fired.append(("late", i)))
                view.schedule(
                    1.0, lambda i=i: fired.append(("first", i)),
                    Priority.COMPLETION if i % 2 else Priority.ARRIVAL,
                    "first",
                )
            engine.run()
            return fired

        lanes_split = ["a", "b", "c", "d", "e", "f"]
        expected = script(SingleHeapEngine(), lanes_split)
        assert script(Engine(), lanes_split) == expected
        assert script(Engine(), [DEFAULT_LANE] * 6) == expected
        assert script(Engine(), ["a", "a", "b", "a", "b", "b"]) == expected

    def test_cross_lane_scheduling_from_callback(self, sim):
        fired = []
        other = sim.lane_view("other")

        def jump():
            # Same instant, other lane, lower priority band — must still
            # fire before anything at a later time.
            other.schedule(sim.now, lambda: fired.append("jumped"),
                           Priority.COMPLETION)

        sim.lane_view("home").schedule(1.0, jump)
        sim.lane_view("home").schedule(2.0, lambda: fired.append("later"))
        sim.run()
        assert fired == ["jumped", "later"]


class TestCompaction:
    def test_schedule_cancel_loop_keeps_heap_bounded(self, sim):
        # The lazy-delete regression: cancelled events must not pile up.
        # Without compaction this loop leaves ~10k garbage entries.
        live = sim.schedule(1000.0, lambda: None)
        for _ in range(100):
            handles = [sim.schedule(500.0, lambda: None) for _ in range(100)]
            for handle in handles:
                handle.cancel()
            assert sim.heap_size <= 2 * COMPACT_MIN + sim.pending
        assert sim.pending == 1
        assert not live.cancelled

    def test_compaction_preserves_order_and_events(self, sim):
        fired = []
        for t in (5.0, 3.0, 4.0, 1.0, 2.0):
            sim.lane_view(f"lane-{int(t) % 2}").schedule(
                t, lambda t=t: fired.append(t)
            )
        for _ in range(3 * COMPACT_MIN):
            sim.schedule(999.0, lambda: None).cancel()
        assert sim.heap_size < COMPACT_MIN + sim.pending
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_cancel_of_fired_event_is_not_garbage(self, sim):
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # no-op: already fired
        assert sim.pending == 0
        assert sim.heap_size == 0


class TestViewStabilityAcrossResets:
    """EngineLane caches its containers; reset/restore must keep them."""

    def test_view_usable_after_reset(self, sim):
        view = sim.lane_view("sticky")
        view.schedule(1.0, lambda: None)
        sim.reset()
        assert sim.pending == 0
        fired = []
        view.schedule(2.0, lambda: fired.append(sim.now))
        assert sim.run() == 1
        assert fired == [2.0]

    def test_view_usable_after_restore_state(self, sim):
        view = sim.lane_view("sticky")
        view.schedule(1.0, lambda: None)
        state = sim.snapshot_state()
        sim.run()
        sim.restore_state(state)
        fired = []
        restored = view.restore_event(
            {"time": 1.0, "priority": 50, "sequence": 0, "label": "re",
             "lane": "sticky"},
            lambda: fired.append("re"),
        )
        assert restored.lane == "sticky"
        sim.run()
        assert fired == ["re"]

    def test_reset_clears_every_lane_in_place(self, sim):
        views = [sim.lane_view(f"l{i}") for i in range(4)]
        for view in views:
            view.schedule(1.0, lambda: None)
        sim.reset()
        assert sim.heap_size == 0
        assert sim.lane_count == 0
        for view in views:
            view.schedule(1.0, lambda: None)
        assert sim.run() == 4


class TestSlots:
    @pytest.mark.parametrize("obj", [
        Event(1.0, 50, 0, lambda: None),
        EventHandle(1.0, 50, 1, lambda: None),
        Message(MessageKind.REQUEST, Endpoint("a", 1), Endpoint("b", 2), None),
        Endpoint("a", 1),
    ], ids=["Event", "EventHandle", "Message", "Endpoint"])
    def test_hot_path_objects_have_no_dict(self, obj):
        assert not hasattr(obj, "__dict__")
        # Frozen slotted dataclasses raise TypeError instead of
        # FrozenInstanceError on 3.11 (stale __class__ cell after the
        # slots=True class rebuild); either way the write must fail.
        with pytest.raises((AttributeError, TypeError)):
            obj.arbitrary_new_attribute = 1

    def test_engine_lane_has_no_dict(self, sim):
        assert not hasattr(sim.lane_view("a"), "__dict__")
        assert EngineLane.__slots__
