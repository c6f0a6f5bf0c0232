"""The lane-partitioned discrete-event simulation engine.

The paper's experiments ran a live system in *test mode*: tasks were never
executed; predicted times were booked against the clock as if real.  This
engine reproduces that mode in virtual time — requests arrive at virtual
seconds, schedulers book predicted execution intervals, agents pull service
information on periodic timers — and makes every run deterministic and far
faster than real time.

Design notes
------------
* Events are totally ordered by ``(time, priority, sequence)``; the
  monotonically increasing sequence number breaks ties by insertion order,
  so replays are exact.
* Instead of one global heap, events are partitioned into **lanes** — one
  sub-heap per cluster (agent), plus the default lane ``""`` which doubles
  as the cross-cluster lane for inter-agent message deliveries.  Each lane
  heap holds plain ``(time, priority, sequence, event)`` tuples, which
  compare in C; a small **lane-head index** heap of
  ``(time, priority, sequence, lane)`` entries merges the lane heads.  The
  index advances conservatively: an entry is only trusted after it is
  checked against its lane's live head, so the engine always fires the
  globally smallest key.  Firing order is therefore *identical* to a single
  global heap regardless of how events are assigned to lanes — lanes are a
  performance partitioning, never a semantic one (property-tested for
  byte-identity against the global-heap reference engine in
  ``tests/oracles/engine_reference.py``).
* The index tolerates stale entries (a lane's head moved since the entry
  was pushed).  Liveness invariant: whenever a lane's head key changes —
  on a head-lowering schedule, after a fire, or when a cancelled head is
  swept — the new head key is (re-)pushed.  Stale entries are discarded or
  replaced on pop; each consumes the pop that found it, so the index never
  grows beyond one entry per schedule/fire and stays a few live entries
  per non-empty lane in practice.
* Cancelled events are lazy-deleted but **compacted**: a live garbage
  counter (maintained by the ``Event.on_cancel`` hook and the pop-time
  sweeps) triggers an in-place rebuild of all lane heaps once cancelled
  entries both exceed :data:`COMPACT_MIN` and outnumber live pending
  events, so schedule/cancel loops cannot grow the heaps without bound.
* Scheduling an event in the past raises :class:`SimulationError` (a
  virtual clock can only move forward).
* ``run_until`` / ``run`` drain the lanes; callbacks may schedule further
  events, including at the current instant.
"""

from __future__ import annotations

import heapq
import math
from heapq import heappop, heappush, heapreplace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.records import EventFired
from repro.sim.events import DEFAULT_LANE, Event, Priority

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.obs.trace import Tracer

__all__ = ["Engine", "EngineLane", "COMPACT_MIN"]

#: Minimum number of cancelled-but-queued events before compaction is even
#: considered; below this the lazy-delete garbage is cheaper than a rebuild.
COMPACT_MIN = 64

# A lane heap entry: (time, priority, sequence, event).  Sequence is unique
# across the engine, so entry keys never tie and the event object is never
# compared.
_LaneEntry = Tuple[float, int, int, Event]

# Bare allocator for the lane-view fast paths, which fill Event slots inline
# instead of paying the ``Event.__init__`` call frame.
_new_event = object.__new__


class Engine:
    """A deterministic, lane-partitioned discrete-event simulation engine.

    The public API is lane-agnostic — ``schedule`` defaults to the
    cross-cluster lane and behaves exactly like a single global heap.
    Components that belong to one cluster schedule through a
    :meth:`lane_view`, which pre-binds their lane name.

    Examples
    --------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(5.0, lambda: fired.append(eng.now))
    >>> _ = eng.schedule(1.0, lambda: fired.append(eng.now))
    >>> eng.run()
    2
    >>> fired
    [1.0, 5.0]
    """

    def __init__(
        self, start_time: float = 0.0, *, tracer: Optional["Tracer"] = None
    ) -> None:
        self._start_time = float(start_time)
        self._now = float(start_time)
        # lane name -> heap of (time, priority, sequence, event) tuples.
        self._lanes: Dict[str, List[_LaneEntry]] = {}
        # Merge heap of (time, priority, sequence, lane) lane-head entries;
        # may contain stale entries, resolved lazily against the lane heads.
        self._index: List[Tuple[float, int, int, str]] = []
        self._views: Dict[str, "EngineLane"] = {}
        self._sequence = 0
        self._running = False
        self._fired = 0
        # Live count of non-cancelled queued events.  Maintained on
        # schedule/fire/cancel (the Event.on_cancel hook) so ``pending`` —
        # called inside hot run loops via ``__len__`` — is O(1) instead of
        # an O(n) heap scan.
        self._pending = 0
        # Cancelled events still sitting in lane heaps.  Incremented by the
        # cancel hook, decremented by the pop-time sweeps, zeroed by
        # compaction — drives the bounded-garbage guarantee.
        self._garbage = 0
        self._tracer = tracer
        # One bound method shared by every event instead of a fresh bound
        # method per ``schedule`` call (an allocation on the hottest path).
        self._cancel_hook = self._on_event_cancelled
        # Lane whose event callback is currently executing inside the fused
        # ``run`` loop, or ``None``.  While set, head-lowering pushes into
        # that lane skip the index publish: the run loop republishes the
        # lane's final head once, after the callback returns, which turns a
        # same-instant dispatch cascade's index churn (publish + stale
        # discard per fire) into a single root refresh.
        self._firing_lane: Optional[str] = None
        # Set by ``halt`` from inside a callback: the fused ``run`` loop
        # returns once that callback does.
        self._halted = False

    # ------------------------------------------------------------------ state

    @property
    def now(self) -> float:
        """The current virtual time in seconds."""
        return self._now

    @property
    def tracer(self) -> Optional["Tracer"]:
        """The tracer event dispatch is reported to, if any."""
        return self._tracer

    @property
    def pending(self) -> int:
        """Number of events still queued, excluding cancelled ones — O(1)."""
        return self._pending

    @property
    def fired_count(self) -> int:
        """Total number of events that have fired."""
        return self._fired

    @property
    def heap_size(self) -> int:
        """Total entries across all lane heaps, *including* cancelled garbage.

        The compaction regression test asserts this stays bounded under
        schedule/cancel loops; ``heap_size - pending`` is the current
        lazy-delete garbage.
        """
        return sum(len(heap) for heap in self._lanes.values())

    @property
    def lane_count(self) -> int:
        """Number of lanes that currently hold at least one queued entry."""
        return sum(1 for heap in self._lanes.values() if heap)

    def __len__(self) -> int:
        return self.pending

    # -------------------------------------------------------------- scheduling

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = Priority.DEFAULT,
        label: str = "",
        lane: str = DEFAULT_LANE,
    ) -> Event:
        """Schedule *callback* at absolute virtual *time* in *lane*.

        Raises
        ------
        SimulationError
            If *time* precedes the current virtual time.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        time = float(time)
        event = Event(
            time, priority, sequence, callback, label, lane, self._cancel_hook
        )
        # _push, inlined: schedule is the engine's hottest entry point.
        lanes = self._lanes
        heap = lanes.get(lane)
        if heap is None:
            heap = lanes[lane] = []
        heappush(heap, (time, priority, sequence, event))
        if heap[0][3] is event and lane is not self._firing_lane:
            # The event became its lane's head: publish the new head key so
            # the merge index sees it before any older (larger) entry.  The
            # lane currently firing (identity check — a mismatch merely
            # publishes a discardable duplicate) is exempt: the run loop
            # republishes its head after the callback returns.
            heappush(self._index, (time, priority, sequence, lane))
        self._pending += 1
        return event

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = Priority.DEFAULT,
        label: str = "",
        lane: str = DEFAULT_LANE,
    ) -> Event:
        """Schedule *callback* after a relative *delay* in virtual seconds."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        # schedule(), inlined: one frame instead of two on a path hot
        # enough to show in every grid benchmark (``delay >= 0`` already
        # implies the absolute time is not in the past).
        time = self._now + delay
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(
            time, priority, sequence, callback, label, lane, self._cancel_hook
        )
        lanes = self._lanes
        heap = lanes.get(lane)
        if heap is None:
            heap = lanes[lane] = []
        heappush(heap, (time, priority, sequence, event))
        if heap[0][3] is event and lane is not self._firing_lane:
            heappush(self._index, (time, priority, sequence, lane))
        self._pending += 1
        return event

    def restore_event(
        self,
        descriptor: dict,
        callback: Callable[[], None],
    ) -> Event:
        """Re-create a checkpointed event with its **original** identity.

        Unlike :meth:`schedule`, the sequence number and lane come from the
        *descriptor* (captured by :meth:`Event.descriptor` at snapshot time)
        rather than the engine counter, so the restored heap fires in
        exactly the order the interrupted run would have.  Must only be
        called after :meth:`restore_state` has set the clock and sequence
        counter; the descriptor's sequence must predate the restored counter.
        """
        time = float(descriptor["time"])
        sequence = int(descriptor["sequence"])
        if time < self._now:
            raise SimulationError(
                f"cannot restore event at t={time} before current time t={self._now}"
            )
        if sequence >= self._sequence:
            raise SimulationError(
                f"restored event sequence {sequence} not below engine "
                f"sequence counter {self._sequence}"
            )
        event = Event(
            time,
            int(descriptor["priority"]),
            sequence,
            callback,
            str(descriptor.get("label", "")),
            str(descriptor["lane"]),
            self._cancel_hook,
        )
        self._push(event)
        self._pending += 1
        return event

    def lane_view(self, lane: str) -> "EngineLane":
        """A scheduling facade with *lane* pre-bound (cached per lane name).

        Cluster-local components hold a lane view instead of the engine, so
        their timers, completions, and retries land in their own sub-heap
        without any call-site changes — the view exposes the same ``now`` /
        ``schedule`` / ``schedule_in`` / ``restore_event`` surface.
        """
        view = self._views.get(lane)
        if view is None:
            view = self._views[lane] = EngineLane(self, lane)
        return view

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Clock and counter state (events are snapshot by their owners).

        Every pending event is owned by exactly one component (transport
        in-flight registry, executor completion handles, periodic processes,
        …) which serialises its descriptor and re-creates it on restore;
        the engine itself only carries the clock, the sequence counter, and
        the fired total.  Lane contents are likewise rebuilt from the
        owners' descriptors, which carry each event's lane.
        """
        return {
            "now": self._now,
            "start_time": self._start_time,
            "sequence": self._sequence,
            "fired": self._fired,
        }

    def restore_state(self, state: dict) -> None:
        """Rewind to a snapshot; pending events must be restored afterwards.

        Discards any queued events (a freshly built system has only
        construction-time events, all superseded by the snapshot's
        descriptors) and resets the clock/counters so subsequent
        :meth:`restore_event` calls rebuild the lanes exactly.
        """
        self._guard_reentrancy()
        # Clear lane lists in place — lane views hold direct references to
        # them (and to the index list), so the bound objects must survive.
        for heap in self._lanes.values():
            heap.clear()
        self._index.clear()
        self._pending = 0
        self._garbage = 0
        self._start_time = float(state["start_time"])
        self._now = float(state["now"])
        self._sequence = int(state["sequence"])
        self._fired = int(state["fired"])

    # ------------------------------------------------------------------- run

    def step(self) -> bool:
        """Fire the single next non-cancelled event (globally smallest key).

        Returns ``True`` if an event fired, ``False`` if all lanes drained.
        """
        head = self._settle()
        if head is None:
            return False
        lanes = self._lanes
        index = self._index
        lane = index[0][3]
        heap = lanes[lane]
        heapq.heappop(heap)
        if heap:
            nxt = heap[0]
            refreshed = (nxt[0], nxt[1], nxt[2], lane)
            # Same root-replacement shortcut as the fused ``run`` loop: the
            # consumed entry is the root, so an in-place write is valid
            # whenever the lane's new head key is <= both children.
            n = len(index)
            if (n < 2 or refreshed <= index[1]) and (
                n < 3 or refreshed <= index[2]
            ):
                index[0] = refreshed
            else:
                heapq.heapreplace(index, refreshed)
        else:
            heapq.heappop(index)
        event = head[3]
        event.fired = True
        self._pending -= 1
        self._now = head[0]
        self._fired += 1
        if self._tracer is not None:
            self._tracer.emit_row(
                EventFired, head[0], event.label, int(head[1]), head[2]
            )
        event.callback()
        return True

    def run_until(self, end_time: float) -> None:
        """Fire every event with ``time <= end_time``; advance the clock to it.

        The clock finishes at exactly *end_time* even if the last event fired
        earlier, mirroring a real system observed at a fixed horizon.
        """
        if end_time < self._now:
            raise SimulationError(
                f"cannot run to t={end_time}, already at t={self._now}"
            )
        self._guard_reentrancy()
        self._running = True
        try:
            while True:
                head = self._settle()
                if head is None or head[0] > end_time:
                    break
                self.step()
            self._now = float(end_time)
        finally:
            self._running = False

    def halt(self) -> None:
        """Make the running :meth:`run` return after the current event.

        Called from inside an event callback (a driver's stop condition
        just became true); the rest of that callback still runs.  Outside
        ``run`` it has no effect: every ``run`` call starts un-halted.
        """
        self._halted = True

    def run(
        self,
        max_events: Optional[int] = None,
        *,
        until: Optional[float] = None,
        halt_at: Optional[float] = None,
    ) -> int:
        """Fire events until the lanes drain, or a bound stops the run.

        The bounds, all optional:

        * *max_events* — stop once this many events fired;
        * *until* — never fire an event later than this time (the event
          stays queued);
        * *halt_at* — stop right after firing the first event at or past
          this time;
        * :meth:`halt` — called by a callback, stops after that event.

        Returns the number of events fired by this call.

        This is the fused hot loop: it replicates :meth:`step`'s
        settle → pop → fire cycle inline with everything in locals, which
        is worth ~2x over calling ``step()`` per event; the bounds above
        give drivers their stopping points without per-event control.  The
        ``lanes`` dict and ``index`` list aliases stay valid across
        callbacks — compaction mutates both containers in place, and
        ``reset``/``restore_state`` are reentrancy-guarded.
        """
        self._guard_reentrancy()
        self._running = True
        self._halted = False
        fired = 0
        limit = -1 if max_events is None else max_events
        until = math.inf if until is None else until
        halt_at = math.inf if halt_at is None else halt_at
        lanes = self._lanes
        index = self._index
        tracer = self._tracer
        # Cascade carry: set when the publish step proved the firing lane's
        # next head is already the global minimum.  While set, the index
        # root still holds the consumed (stale) entry — it is rewritten
        # once, when the cascade breaks (or in the outer ``finally`` if the
        # run exits mid-cascade) — and ``entry``/``lane_name`` persist from
        # the iteration that started the cascade.
        carry_head = carry_heap = None
        entry = lane_name = None
        try:
            while fired != limit:
                if carry_head is not None:
                    if carry_head[0] > until:
                        break  # the outer ``finally`` restores the root
                    head = carry_head
                    heap = carry_heap
                    carry_head = None
                else:
                    # -- settle: resolve the index top to a live lane head
                    # (mirrors _settle, including its discard-vs-refresh
                    # staleness policy — see that docstring)
                    head = None
                    while index:
                        entry = index[0]
                        heap = lanes.get(entry[3])
                        swept = 0
                        if self._garbage and heap and heap[0][3].cancelled:
                            while heap and heap[0][3].cancelled:
                                heappop(heap)
                                swept += 1
                            self._garbage -= swept
                        if not heap:
                            heappop(index)
                            continue
                        h0 = heap[0]
                        if h0[2] == entry[2]:  # sequences unique: same event
                            head = h0
                            break
                        if swept:
                            heapreplace(
                                index, (h0[0], h0[1], h0[2], entry[3])
                            )
                        else:
                            heappop(index)
                    if head is None or head[0] > until:
                        break
                    # -- defer the index refresh until the callback has
                    # run, so a same-instant dispatch cascade into this
                    # lane (suppressed by ``_firing_lane`` in the schedule
                    # fast paths) costs one index publish total instead of
                    # a publish plus a stale discard per scheduled event.
                    lane_name = entry[3]
                heappop(heap)
                event = head[3]
                event.fired = True
                self._pending -= 1
                self._now = head[0]
                fired += 1
                if tracer is not None:
                    tracer.emit_row(
                        EventFired, head[0], event.label, int(head[1]), head[2]
                    )
                # Left set between iterations on purpose: nothing runs
                # outside callbacks inside this loop, the next iteration
                # overwrites it, and the outer ``finally`` clears it.
                self._firing_lane = lane_name
                try:
                    event.callback()
                finally:
                    # Publish the lane's post-callback head.  The ``heap``
                    # alias is still the lane's list: compaction rebuilds
                    # lane lists in place, never rebinding them.
                    if index and index[0] is entry:
                        if heap:
                            nxt = heap[0]
                            # Index children are the minima of their
                            # subtrees, so ``key <= both children`` proves
                            # the lane's next head is the global minimum
                            # (the root is this lane's consumed entry) —
                            # fire it next *without touching the index*;
                            # the stale root is rewritten when the cascade
                            # breaks.  The 3-tuple key sorts before a
                            # 4-tuple index entry with the same
                            # (time, priority, sequence) — such an entry
                            # names this very event (sequences are unique),
                            # so treating the tie as "minimum" is exact.
                            key = (nxt[0], nxt[1], nxt[2])
                            n = len(index)
                            if (n < 2 or key <= index[1]) and (
                                n < 3 or key <= index[2]
                            ):
                                if nxt[3].cancelled:
                                    # In-place write is valid (<= both
                                    # children); the next settle sweeps it.
                                    index[0] = (
                                        nxt[0], nxt[1], nxt[2], lane_name
                                    )
                                else:
                                    carry_head = nxt
                                    carry_heap = heap
                            else:
                                heapreplace(
                                    index,
                                    (nxt[0], nxt[1], nxt[2], lane_name),
                                )
                        else:
                            heappop(index)
                    elif heap:
                        # The callback displaced the consumed root entry (a
                        # smaller cross-lane key, a compaction rebuild, or a
                        # settle from inside the callback); push a fresh
                        # entry for this lane's head — at worst a duplicate,
                        # discarded harmlessly later.
                        nxt = heap[0]
                        heappush(index, (nxt[0], nxt[1], nxt[2], lane_name))
                if self._halted or head[0] >= halt_at:
                    break
        finally:
            if carry_head is not None:
                # Exited mid-cascade (a bound, a halt, or a callback raised):
                # the index root still holds the consumed entry.  Restore
                # it to the lane's live head — the in-place write was
                # proven <= both children when the carry was set, and
                # nothing has run since.
                nxt = carry_head
                refreshed = (nxt[0], nxt[1], nxt[2], lane_name)
                if index and index[0] is entry:
                    index[0] = refreshed
                else:  # pragma: no cover - defensive; duplicate is benign
                    heappush(index, refreshed)
            self._running = False
            self._firing_lane = None
            # The fired total accumulates in the loop-local and flushed
            # here (exact again the moment ``run`` returns — nothing in the
            # tree reads ``fired_count`` from inside a callback).
            self._fired += fired
        return fired

    def reset(self) -> None:
        """Return the engine to its just-constructed state.

        Pending events are discarded (their cancel hooks are not invoked —
        the whole queue is gone), the clock rewinds to the construction
        ``start_time``, and the sequence/fired/pending counters zero, so a
        reset engine replays a seeded scenario identically to a fresh one.

        Raises
        ------
        SimulationError
            If called re-entrantly from inside a running event callback.
        """
        self._guard_reentrancy()
        # In-place clears for the same reason as ``restore_state``: lane
        # views cache the list objects.
        for heap in self._lanes.values():
            heap.clear()
        self._index.clear()
        self._now = self._start_time
        self._sequence = 0
        self._fired = 0
        self._pending = 0
        self._garbage = 0

    # --------------------------------------------------------------- helpers

    def _push(self, event: Event) -> None:
        """Push *event* into its lane heap; index the lane if its head lowered."""
        lanes = self._lanes
        heap = lanes.get(event.lane)
        if heap is None:
            heap = lanes[event.lane] = []
        heapq.heappush(heap, (event.time, event.priority, event.sequence, event))
        if heap[0][3] is event:
            # The event became its lane's head: publish the new head key so
            # the merge index sees it before any older (larger) entry.
            heapq.heappush(
                self._index, (event.time, event.priority, event.sequence, event.lane)
            )

    def _settle(self) -> Optional[_LaneEntry]:
        """Resolve the index top to a live lane head; return that lane entry.

        Sweeps cancelled events off lane heads, discards index entries for
        drained lanes, and resolves stale entries.  On return,
        ``self._index[0]`` names the lane whose head is the globally
        smallest live event — or ``None`` if all lanes drained.

        Staleness policy: every head change *except a cancelled-head sweep*
        already published a live entry for the new head (a head-lowering
        ``schedule`` pushes one — suppressed only for the lane currently
        firing, whose head the run loop republishes right after the
        callback returns — and the fire paths refresh or republish the
        consumed root), so a stale entry found without a sweep is pure
        garbage and is **discarded** with one cheap pop.  Replacing it with the
        current head key instead would duplicate the live entry — and under
        same-instant burst traffic those duplicates breed at the root until
        settling dominates the run (measured 7x heap traffic).  Only the
        sweep case refreshes, because the post-sweep head is the one head
        that may have no entry anywhere.
        """
        index = self._index
        lanes = self._lanes
        while index:
            entry = index[0]
            heap = lanes.get(entry[3])
            swept = 0
            if self._garbage and heap and heap[0][3].cancelled:
                while heap and heap[0][3].cancelled:
                    heapq.heappop(heap)
                    swept += 1
                self._garbage -= swept
            if not heap:
                heapq.heappop(index)
                continue
            head = heap[0]
            if head[2] == entry[2]:  # sequences are unique: same event
                return head
            if swept:
                # The swept lane's new head may be indexed nowhere: refresh
                # this entry to it (a duplicate, if one exists, is discarded
                # harmlessly later).
                heapq.heapreplace(index, (head[0], head[1], head[2], entry[3]))
            else:
                heapq.heappop(index)
        return None

    def _on_event_cancelled(self) -> None:
        """Event.cancel hook: keep the live counters exact; maybe compact."""
        self._pending -= 1
        self._garbage += 1
        if self._garbage > COMPACT_MIN and self._garbage > self._pending:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from every lane heap and rebuild the index.

        O(heap_size) filter + heapify per lane; triggered only when garbage
        outnumbers live events, so amortised cost per cancellation is O(1)
        and :attr:`heap_size` stays within a constant factor of
        ``max(pending, COMPACT_MIN)``.

        Lane lists are rebuilt **in place** (and drained lanes kept, empty):
        the fused run loop and the lane views hold direct references to
        them, so the list object bound to a lane name must never change.
        """
        lanes = self._lanes
        index = self._index
        index.clear()
        for lane, heap in lanes.items():
            heap[:] = [entry for entry in heap if not entry[3].cancelled]
            if heap:
                heapq.heapify(heap)
                head = heap[0]
                index.append((head[0], head[1], head[2], lane))
        heapq.heapify(index)
        self._garbage = 0

    def next_event_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or ``None`` if empty."""
        head = self._settle()
        return head[0] if head is not None else None

    def _guard_reentrancy(self) -> None:
        if self._running:
            raise SimulationError("engine is already running (reentrant run call)")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Engine(now={self._now:.3f}, pending={self.pending}, "
            f"fired={self._fired}, lanes={self.lane_count})"
        )


class EngineLane:
    """A lane-bound scheduling facade over :class:`Engine`.

    Exposes exactly the engine surface cluster-local components use —
    ``now``, ``schedule``, ``schedule_in``, ``restore_event``, ``tracer`` —
    with the lane name pre-bound, so a scheduler or monitor built against
    the flat engine API partitions its events without knowing lanes exist.
    """

    __slots__ = ("_engine", "_lane", "_heap", "_index", "_hook")

    def __init__(self, engine: Engine, lane: str) -> None:
        self._engine = engine
        self._lane = lane
        # Direct references for the fast paths below.  All three objects
        # are stable for the engine's lifetime: lane lists are rebuilt in
        # place by compaction and cleared in place by reset/restore, the
        # index list likewise, and the cancel hook is one shared bound
        # method.
        self._heap = engine._lanes.setdefault(lane, [])
        self._index = engine._index
        self._hook = engine._cancel_hook

    @property
    def now(self) -> float:
        """The current virtual time in seconds."""
        return self._engine.now

    @property
    def lane(self) -> str:
        """The lane name this view schedules into."""
        return self._lane

    @property
    def engine(self) -> Engine:
        """The underlying engine (for run control and checkpointing)."""
        return self._engine

    @property
    def tracer(self) -> Optional["Tracer"]:
        """The tracer event dispatch is reported to, if any."""
        return self._engine.tracer

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = Priority.DEFAULT,
        label: str = "",
    ) -> Event:
        """Schedule *callback* at absolute virtual *time* in this lane.

        Single-frame fast path like :meth:`schedule_in` — same-instant
        dispatch cascades (``schedule(view.now, ...)``) are the second
        hottest scheduling call in a running grid.  ``priority`` and
        ``label`` accept positional calls (keyword parsing is measurable
        at cascade rates).
        """
        engine = self._engine
        if time < engine._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time "
                f"t={engine._now}"
            )
        time = float(time)
        lane = self._lane
        sequence = engine._sequence
        engine._sequence = sequence + 1
        # Allocate + fill slots directly: skips the ``Event.__init__`` frame,
        # measurable at grid scale.  Kept in lockstep with the constructor.
        event = _new_event(Event)
        event.time = time
        event.priority = priority
        event.sequence = sequence
        event.callback = callback
        event.label = label
        event.lane = lane
        event.cancelled = False
        event.fired = False
        event.on_cancel = self._hook
        heap = self._heap
        heappush(heap, (time, priority, sequence, event))
        if heap[0][3] is event and lane is not engine._firing_lane:
            heappush(self._index, (time, priority, sequence, lane))
        engine._pending += 1
        return event

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = Priority.DEFAULT,
        label: str = "",
    ) -> Event:
        """Schedule *callback* after *delay* virtual seconds in this lane.

        This is the single hottest call in a running grid — every monitor
        poll, advertisement timer, completion booking, and message delivery
        goes through a lane view — so the engine's scheduling logic is
        replicated here in one frame rather than delegated through
        ``Engine.schedule_in`` (two frames of pure call overhead per event
        at 1000-agent scale).  Kept in lockstep with ``Engine.schedule_in``;
        the engine-equivalence property tests pin the shared semantics.
        """
        engine = self._engine
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        time = engine._now + delay
        lane = self._lane
        sequence = engine._sequence
        engine._sequence = sequence + 1
        # Slot-filling allocation, same as ``EngineLane.schedule``.
        event = _new_event(Event)
        event.time = time
        event.priority = priority
        event.sequence = sequence
        event.callback = callback
        event.label = label
        event.lane = lane
        event.cancelled = False
        event.fired = False
        event.on_cancel = self._hook
        heap = self._heap
        heappush(heap, (time, priority, sequence, event))
        if heap[0][3] is event and lane is not engine._firing_lane:
            heappush(self._index, (time, priority, sequence, lane))
        engine._pending += 1
        return event

    def restore_event(
        self, descriptor: dict, callback: Callable[[], None]
    ) -> Event:
        """Restore a checkpointed event into the lane its descriptor names."""
        return self._engine.restore_event(descriptor, callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EngineLane(lane={self._lane!r}, engine={self._engine!r})"
