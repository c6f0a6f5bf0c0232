"""Event objects for the discrete-event engine.

An :class:`Event` pairs a virtual firing time with a zero-argument callback.
The engine fires events in ``(time, priority, sequence)`` order so that
simultaneous events fire deterministically: lower priority value first, then
insertion order.  Determinism matters — the paper's experiments are seeded
and must replay identically.

``Event`` is a hand-rolled ``__slots__`` class rather than a dataclass: the
engine allocates one per scheduled callback, which makes construction and
attribute access the hottest allocation path in the simulator (see
``engine_event_alloc`` in the perf suite for the measured win).  Events
define no comparison of their own (equality is identity): the engine's heaps
hold ``(time, priority, sequence, event)`` tuples that compare in C, and the
unique sequence means the event itself is never compared.  The engine
returns each event as its own handle; :data:`EventHandle` names that role.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["Event", "EventHandle", "Priority", "DEFAULT_LANE"]

#: The lane events land in when the scheduler does not name one.  The
#: default lane doubles as the *cross-cluster* lane: inter-cluster message
#: deliveries, portal arrivals, and any unrouted event share it.
DEFAULT_LANE = ""


class Priority:
    """Well-known priority bands for simultaneous events.

    Completions fire before arrivals at the same instant so freed processors
    are visible to the scheduler that handles the arrival; monitoring and
    advertisement run last, observing the settled state.
    """

    COMPLETION = 0
    ARRIVAL = 10
    SCHEDULING = 20
    ADVERTISEMENT = 30
    MONITORING = 40
    DEFAULT = 50


class Event:
    """A scheduled callback, fired in ``(time, priority, sequence)`` order.

    Attributes
    ----------
    time / priority / sequence:
        The total-order key.  ``sequence`` is engine-assigned and unique,
        so ties never fall through to later fields.
    callback:
        Zero-argument callable fired when the event is due.
    label:
        Debug label (also recorded in traces).
    lane:
        The event lane this event is queued in (see
        :class:`~repro.sim.engine.Engine`); purely a performance
        partitioning — firing order is lane-independent.
    cancelled:
        Lazily honoured: the engine skips cancelled events when popped and
        compacts its heaps when too many accumulate.
    fired:
        Set by the engine the moment the event is popped to fire, so a
        ``cancel()`` from inside its own callback (e.g. a periodic process
        stopping itself) no longer counts as a pending-event cancellation.
    on_cancel:
        Engine hook invoked on the first effective cancellation only —
        keeps the engine's live pending counter exact without re-scanning
        the heap.
    """

    __slots__ = (
        "time",
        "priority",
        "sequence",
        "callback",
        "label",
        "lane",
        "cancelled",
        "fired",
        "on_cancel",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[[], None],
        label: str = "",
        lane: str = DEFAULT_LANE,
        on_cancel: Optional[Callable[[], None]] = None,
    ) -> None:
        # All parameters are positional-capable: the engine constructs one
        # Event per scheduled callback, and positional calls measurably
        # outrun keyword calls on this hottest allocation path.
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.lane = lane
        self.cancelled = False
        self.fired = False
        self.on_cancel = on_cancel

    def cancel(self) -> None:
        """Mark the event cancelled; the engine will skip it when popped.

        Idempotent, and a no-op once the event has fired; the engine's
        cancellation hook runs at most once.
        """
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self.on_cancel is not None:
            self.on_cancel()

    # The engine returns events directly as their own handles (one object
    # allocation per schedule instead of two), so Event carries the full
    # handle surface.

    @property
    def pending(self) -> bool:
        """Whether the event is still waiting in the heap (not fired/cancelled)."""
        return not (self.fired or self.cancelled)

    def descriptor(self) -> dict:
        """The ``(time, priority, sequence, label, lane)`` identity of this event.

        Checkpoints store descriptors instead of handles; restore re-creates
        the event with its *original* triple via
        :meth:`~repro.sim.engine.Engine.restore_event`, so heap order — and
        therefore replay — is preserved exactly.
        """
        return {
            "time": self.time,
            "priority": self.priority,
            "sequence": self.sequence,
            "label": self.label,
            "lane": self.lane,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(t={self.time:.3f}, prio={self.priority}, "
            f"seq={self.sequence}, label={self.label!r}, lane={self.lane!r})"
        )


#: What :meth:`~repro.sim.engine.Engine.schedule` returns: the event
#: itself, which carries the whole handle surface (``cancel``, ``pending``,
#: ``descriptor``, the identity fields).
EventHandle = Event
