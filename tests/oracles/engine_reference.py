"""The single-heap reference engine — the pre-partitioning implementation.

This is the seed engine preserved in behaviour: one global binary heap
ordered by ``(time, priority, sequence)``, with lazy-deleted cancellations
and no compaction.  It is the correctness oracle for the lane-partitioned
:class:`~repro.sim.engine.Engine`, which must fire events in exactly this
engine's order: the equivalence property suite runs paper-scale
experiments on both (by substituting this class for ``runner.Engine``) and
requires byte-identical completion records, metrics JSON, canonical traces
and RNG digests.

It accepts the partitioned engine's full surface — ``lane=`` keywords and
``lane_view`` — so it drops into ``build_grid`` with no call-site
branching; lanes are recorded on events (descriptors round-trip through
checkpoints) but play no part in ordering, which is the whole point.
The heap holds ``(time, priority, sequence, event)`` tuples; sequences
are unique, so the event itself is never compared.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.records import EventFired
from repro.sim.events import DEFAULT_LANE, Event, Priority

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.obs.trace import Tracer

__all__ = ["SingleHeapEngine"]

_Entry = Tuple[float, int, int, Event]


class _ReferenceLane:
    """Purely delegating lane facade for the reference engine.

    The partitioned :class:`~repro.sim.engine.EngineLane` replicates its
    engine's scheduling internals as a single-frame fast path, so it cannot
    front this engine; components only duck-type the view surface, so this
    plain delegator is interchangeable at every call site.
    """

    __slots__ = ("_engine", "_lane")

    def __init__(self, engine: "SingleHeapEngine", lane: str) -> None:
        self._engine = engine
        self._lane = lane

    @property
    def now(self) -> float:
        """The current virtual time in seconds."""
        return self._engine.now

    @property
    def lane(self) -> str:
        """The lane name this view schedules into (inert here)."""
        return self._lane

    @property
    def engine(self) -> "SingleHeapEngine":
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
        """Schedule *callback* at absolute virtual *time* in this lane."""
        return self._engine.schedule(
            time, callback, priority=priority, label=label, lane=self._lane
        )

    def schedule_in(
        self,
        delay: float,
        callback: Callable[[], None],
        priority: int = Priority.DEFAULT,
        label: str = "",
    ) -> Event:
        """Schedule *callback* after *delay* virtual seconds in this lane."""
        return self._engine.schedule_in(
            delay, callback, priority=priority, label=label, lane=self._lane
        )

    def restore_event(
        self, descriptor: dict, callback: Callable[[], None]
    ) -> Event:
        """Restore a checkpointed event into the lane its descriptor names."""
        return self._engine.restore_event(descriptor, callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_ReferenceLane(lane={self._lane!r}, engine={self._engine!r})"


class SingleHeapEngine:
    """The original global-heap discrete-event engine (reference oracle).

    Examples
    --------
    >>> eng = SingleHeapEngine()
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
        self._heap: List[_Entry] = []
        self._views: Dict[str, _ReferenceLane] = {}
        self._sequence = 0
        self._running = False
        self._fired = 0
        self._pending = 0
        self._halted = False
        self._tracer = tracer

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
        """Entries in the global heap, including lazy-deleted garbage."""
        return len(self._heap)

    @property
    def lane_count(self) -> int:
        """Distinct lanes among queued events (informational only here)."""
        return len({e.lane for *_, e in self._heap if not e.cancelled})

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
        """Schedule *callback* at absolute virtual *time* (*lane* is recorded
        on the event for descriptor parity but never affects ordering)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time} before current time t={self._now}"
            )
        event = Event(
            float(time),
            priority,
            self._sequence,
            callback,
            label,
            lane=lane,
            on_cancel=self._on_event_cancelled,
        )
        self._sequence += 1
        self._push(event)
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
        return self.schedule(
            self._now + delay, callback, priority=priority, label=label, lane=lane
        )

    def restore_event(
        self, descriptor: dict, callback: Callable[[], None]
    ) -> Event:
        """Re-create a checkpointed event with its **original** identity."""
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
            lane=str(descriptor["lane"]),
            on_cancel=self._on_event_cancelled,
        )
        self._push(event)
        return event

    def lane_view(self, lane: str) -> _ReferenceLane:
        """Lane facade for API parity; lanes are inert in this engine."""
        view = self._views.get(lane)
        if view is None:
            view = self._views[lane] = _ReferenceLane(self, lane)
        return view

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Clock and counter state (events are snapshot by their owners)."""
        return {
            "now": self._now,
            "start_time": self._start_time,
            "sequence": self._sequence,
            "fired": self._fired,
        }

    def restore_state(self, state: dict) -> None:
        """Rewind to a snapshot; pending events must be restored afterwards."""
        self._guard_reentrancy()
        self._heap.clear()
        self._pending = 0
        self._start_time = float(state["start_time"])
        self._now = float(state["now"])
        self._sequence = int(state["sequence"])
        self._fired = int(state["fired"])

    # ------------------------------------------------------------------- run

    def step(self) -> bool:
        """Fire the single next non-cancelled event."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                continue  # already uncounted by the cancellation hook
            event.fired = True
            self._pending -= 1
            self._now = event.time
            self._fired += 1
            if self._tracer is not None:
                self._tracer.emit(
                    EventFired(
                        t=event.time,
                        label=event.label,
                        priority=int(event.priority),
                        seq=event.sequence,
                    )
                )
            event.callback()
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Fire every event with ``time <= end_time``; advance the clock to it."""
        if end_time < self._now:
            raise SimulationError(
                f"cannot run to t={end_time}, already at t={self._now}"
            )
        self._guard_reentrancy()
        self._running = True
        try:
            while self._heap:
                head = self._peek()
                if head is None or head.time > end_time:
                    break
                self.step()
            self._now = float(end_time)
        finally:
            self._running = False

    def halt(self) -> None:
        """Make the running :meth:`run` return after the current event."""
        self._halted = True

    def run(
        self,
        max_events: Optional[int] = None,
        *,
        until: Optional[float] = None,
        halt_at: Optional[float] = None,
    ) -> int:
        """Fire events one :meth:`step` at a time until the queue drains or
        a bound stops the run — the same bounds as the partitioned engine:
        *max_events*, no event later than *until*, stop right after the
        first event at or past *halt_at*, or :meth:`halt` from a callback."""
        self._guard_reentrancy()
        self._running = True
        self._halted = False
        fired = 0
        try:
            while max_events is None or fired < max_events:
                head = self._peek()
                if head is None or (until is not None and head.time > until):
                    break
                self.step()
                fired += 1
                if self._halted or (halt_at is not None and self._now >= halt_at):
                    break
        finally:
            self._running = False
        return fired

    def reset(self) -> None:
        """Return the engine to its just-constructed state."""
        self._guard_reentrancy()
        self._heap.clear()
        self._now = self._start_time
        self._sequence = 0
        self._fired = 0
        self._pending = 0

    # --------------------------------------------------------------- helpers

    def _push(self, event: Event) -> None:
        heapq.heappush(
            self._heap, (event.time, event.priority, event.sequence, event)
        )
        self._pending += 1

    def _on_event_cancelled(self) -> None:
        """Event.cancel hook: keep the live pending count exact."""
        self._pending -= 1

    def _peek(self) -> Optional[Event]:
        """Return the next non-cancelled event without popping it."""
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][3] if self._heap else None

    def next_event_time(self) -> Optional[float]:
        """Virtual time of the next pending event, or ``None`` if empty."""
        head = self._peek()
        return head.time if head is not None else None

    def _guard_reentrancy(self) -> None:
        if self._running:
            raise SimulationError("engine is already running (reentrant run call)")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SingleHeapEngine(now={self._now:.3f}, "
            f"pending={self.pending}, fired={self._fired})"
        )
