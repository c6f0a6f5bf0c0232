"""In-memory message transport over the simulation engine.

Replaces the original system's TCP sockets (see DESIGN.md §2): endpoints
register a handler under their (address, port) identity; ``send`` delivers
the message through the discrete-event engine after a configurable latency
(default 0, matching the paper's LAN-scale deployment where network delay
is negligible against 1-second request intervals).

Delivery is asynchronous even at zero latency — the handler runs in its own
event — so agent logic never re-enters itself, exactly like a real
single-threaded message loop.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import TransportError
from repro.net.faults import FaultPlan
from repro.net.message import Endpoint, Message, MessageKind
from repro.obs.records import MessageDelivered, MessageDropped, MessageSent
from repro.obs.trace import Tracer
from repro.sim.engine import Engine
from repro.sim.events import DEFAULT_LANE, EventHandle, Priority
from repro.utils.validation import check_non_negative

__all__ = ["Transport", "DEFAULT_DROP_RING_SIZE"]

Handler = Callable[[Message], None]

#: How many recently dropped messages are retained for debugging.  Drops
#: are *counted* without bound; only the message objects are ring-buffered
#: (a long churny run used to accumulate every dropped Message forever).
DEFAULT_DROP_RING_SIZE = 32

# One interned delivery label per message kind.  Labels used to embed the
# message id (``deliver-request-123``), minting a fresh string per send —
# measurable churn at scaled-grid message volumes (see ``bench_alloc``).
# The id adds nothing: delivery events already close over their Message,
# and the labels are observational only (``sim.event`` records are
# non-canonical, so the format is free to change).  Keyed by the kind's
# value string, read as the plain ``_value_`` attribute: the per-message
# lookup then hashes a ``str`` instead of calling the Python-level
# ``Enum.__hash__`` and the ``Enum.value`` property.
_DELIVER_LABELS: Dict[str, str] = {
    kind.value: f"deliver-{kind.value}" for kind in MessageKind
}


class Transport:
    """Routes messages between registered endpoints via the sim engine.

    Parameters
    ----------
    sim:
        The discrete-event engine.
    latency:
        Seconds between send and delivery (applied to every message).
    fault_plan:
        Optional :class:`~repro.net.faults.FaultPlan` consulted on every
        send; ``None`` (default) is the faultless seed behaviour.
    drop_ring_size:
        How many recently dropped messages to retain for inspection.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; when set, every send,
        delivery, and drop (with fault attribution) is recorded.
    """

    def __init__(
        self,
        sim: Engine,
        *,
        latency: float = 0.0,
        fault_plan: Optional[FaultPlan] = None,
        drop_ring_size: int = DEFAULT_DROP_RING_SIZE,
        tracer: Optional[Tracer] = None,
    ) -> None:
        check_non_negative(latency, "latency")
        if drop_ring_size < 1:
            raise TransportError(f"drop_ring_size must be >= 1, got {drop_ring_size}")
        self._sim = sim
        self._latency = float(latency)
        self._fault_plan = fault_plan
        self._handlers: Dict[Endpoint, Handler] = {}
        self._sent = 0
        self._delivered = 0
        self._dropped_count = 0
        self._fault_dropped_count = 0
        self._drop_ring: Deque[Message] = deque(maxlen=drop_ring_size)
        # Messages accepted by send() whose delivery event has not yet
        # fired, keyed by message id.  Checkpoints serialise these so a
        # restored run re-delivers exactly what was on the wire.
        self._in_flight: Dict[int, Tuple[Message, EventHandle]] = {}
        # Endpoint -> event-lane routing for delivery events.  Intra-cluster
        # messages land in the cluster's own lane; anything else (including
        # endpoints never assigned a lane) goes to the cross-cluster lane.
        # Purely a partitioning hint — delivery order is lane-independent.
        self._endpoint_lanes: Dict[Endpoint, str] = {}
        self._taps: List[Callable[[Message], None]] = []
        self._tracer = tracer

    # ------------------------------------------------------------------ state

    @property
    def latency(self) -> float:
        """Per-message delivery latency in seconds."""
        return self._latency

    @property
    def sent(self) -> int:
        """Messages accepted for delivery."""
        return self._sent

    @property
    def delivered(self) -> int:
        """Messages handed to handlers."""
        return self._delivered

    @property
    def dropped_count(self) -> int:
        """Total messages dropped because their endpoint was unregistered."""
        return self._dropped_count

    @property
    def fault_dropped_count(self) -> int:
        """Total messages dropped by the installed fault plan."""
        return self._fault_dropped_count

    @property
    def dropped_recent(self) -> List[Message]:
        """The last few dropped messages, oldest first (bounded copy)."""
        return list(self._drop_ring)

    @property
    def fault_plan(self) -> Optional[FaultPlan]:
        """The installed fault plan, if any."""
        return self._fault_plan

    def set_fault_plan(self, plan: Optional[FaultPlan]) -> None:
        """Install (or clear) the fault plan consulted on every send."""
        self._fault_plan = plan

    def endpoints(self) -> List[Endpoint]:
        """Registered endpoints, sorted."""
        return sorted(self._handlers)

    # -------------------------------------------------------------- lifecycle

    def register(self, endpoint: Endpoint, handler: Handler) -> None:
        """Bind *handler* to *endpoint*; rebinding an endpoint is an error."""
        if endpoint in self._handlers:
            raise TransportError(f"endpoint {endpoint} already registered")
        self._handlers[endpoint] = handler

    def unregister(self, endpoint: Endpoint) -> None:
        """Remove an endpoint; in-flight messages to it will be dropped."""
        if endpoint not in self._handlers:
            raise TransportError(f"endpoint {endpoint} not registered")
        del self._handlers[endpoint]

    def is_registered(self, endpoint: Endpoint) -> bool:
        """Whether *endpoint* currently has a handler."""
        return endpoint in self._handlers

    def tap(self, observer: Callable[[Message], None]) -> None:
        """Observe every delivered message (tracing/tests)."""
        self._taps.append(observer)

    def assign_lane(self, endpoint: Endpoint, lane: str) -> None:
        """Route future deliveries involving *endpoint* through *lane*.

        A message whose sender and recipient share a lane is delivered in
        that lane; every other message — inter-cluster traffic, or traffic
        touching an unassigned endpoint — is delivered in the cross-cluster
        lane.  Lane assignment never changes delivery order (the engine
        merges lanes under the global ``(time, priority, sequence)`` key);
        it only keeps intra-cluster traffic out of the shared heap.
        """
        self._endpoint_lanes[endpoint] = lane

    # ------------------------------------------------------------------- send

    def send(self, message: Message, *, extra_latency: float = 0.0) -> None:
        """Queue *message* for delivery after the transport latency.

        Parameters
        ----------
        message:
            The message to deliver.
        extra_latency:
            Additional seconds on top of the base transport latency for
            this one message — the serialisation delay of a bulk payload
            (workflow data staging charges ``size / bandwidth`` here).
            Fault-plan jitter stacks on top.

        Raises
        ------
        TransportError
            If the recipient endpoint is not registered at send time.
        """
        if extra_latency:
            check_non_negative(extra_latency, "extra_latency")
        recipient = message.recipient
        if recipient not in self._handlers:
            raise TransportError(
                f"no endpoint registered at {recipient} "
                f"(message {message.kind.value} from {message.sender})"
            )
        self._sent += 1
        kind = message.kind._value_
        if self._tracer is not None:
            self._tracer.emit_row(
                MessageSent,
                self._sim.now,
                kind,
                str(message.sender),
                str(recipient),
                message.hops,
            )
        if self._fault_plan is not None:
            verdict = self._fault_plan.on_send(message, self._sim.now)
            if verdict.drop:
                # Silent loss: the sender believes the send succeeded —
                # exactly the failure mode ack timeouts exist to detect.
                self._fault_dropped_count += 1
                self._drop_ring.append(message)
                if self._tracer is not None:
                    self._tracer.emit(self._drop_record(message, verdict.reason))
                return
            extra_latency += verdict.extra_latency
        # A message stays in its cluster's lane only when both ends share
        # it; everything else is cross-cluster traffic.
        lanes = self._endpoint_lanes
        lane = lanes.get(recipient, DEFAULT_LANE)
        if lane != DEFAULT_LANE and lanes.get(message.sender) != lane:
            lane = DEFAULT_LANE
        handle = self._sim.schedule_in(
            self._latency + extra_latency,
            partial(self._deliver, message),
            priority=Priority.DEFAULT,
            label=_DELIVER_LABELS[kind],
            lane=lane,
        )
        self._in_flight[message.message_id] = (message, handle)

    def _deliver(self, message: Message) -> None:
        self._in_flight.pop(message.message_id, None)
        handler = self._handlers.get(message.recipient)
        if handler is None:
            self._dropped_count += 1
            self._drop_ring.append(message)
            if self._tracer is not None:
                self._tracer.emit(self._drop_record(message, "unregistered"))
            return
        self._delivered += 1
        if self._tracer is not None:
            self._tracer.emit_row(
                MessageDelivered,
                self._sim.now,
                message.kind._value_,
                str(message.sender),
                str(message.recipient),
                message.hops,
            )
        for tap in self._taps:
            tap(message)
        handler(message)

    def _drop_record(self, message: Message, reason: str) -> MessageDropped:
        return MessageDropped(
            t=self._sim.now,
            msg=message.kind.value,
            sender=str(message.sender),
            recipient=str(message.recipient),
            hops=message.hops,
            reason=reason,
        )

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Counters, the drop ring, in-flight messages, and fault attribution.

        Endpoint registrations are *not* serialised — they are re-created by
        rebuilding the grid (and adjusted by each agent's own restore for
        crashed agents).  The fault plan's RNG position is covered by the
        run's :class:`~repro.utils.rng.RngRegistry` snapshot.
        """
        from repro.checkpoint.codec import encode_message

        state = {
            "sent": self._sent,
            "delivered": self._delivered,
            "dropped_count": self._dropped_count,
            "fault_dropped_count": self._fault_dropped_count,
            "drop_ring": [encode_message(m) for m in self._drop_ring],
            "in_flight": [
                {
                    "message": encode_message(message),
                    "event": handle.descriptor(),
                }
                for _, (message, handle) in sorted(self._in_flight.items())
                if not handle.cancelled
            ],
        }
        if self._fault_plan is not None:
            state["fault_plan"] = {
                "dropped_by_chance": self._fault_plan.dropped_by_chance,
                "dropped_by_partition": self._fault_plan.dropped_by_partition,
                "jittered": self._fault_plan.jittered,
                "straggled": self._fault_plan.straggled,
            }
        return state

    def restore_state(self, state: dict, *, applications) -> None:
        """Rewind counters and re-create every in-flight delivery event.

        *applications* maps application names to the rebuilt grid's
        :class:`~repro.pace.application.ApplicationModel` instances, so
        in-flight REQUEST payloads share model identity with the
        schedulers that will evaluate them.
        """
        from repro.checkpoint.codec import decode_message

        self._sent = int(state["sent"])
        self._delivered = int(state["delivered"])
        self._dropped_count = int(state["dropped_count"])
        self._fault_dropped_count = int(state["fault_dropped_count"])
        self._drop_ring.clear()
        for raw in state["drop_ring"]:
            self._drop_ring.append(decode_message(raw, applications))
        for _, (_, handle) in list(self._in_flight.items()):
            handle.cancel()
        self._in_flight.clear()
        for entry in state["in_flight"]:
            message = decode_message(entry["message"], applications)
            handle = self._sim.restore_event(
                entry["event"], lambda m=message: self._deliver(m)
            )
            self._in_flight[message.message_id] = (message, handle)
        plan_state = state.get("fault_plan")
        if plan_state is not None and self._fault_plan is not None:
            self._fault_plan.dropped_by_chance = int(plan_state["dropped_by_chance"])
            self._fault_plan.dropped_by_partition = int(
                plan_state["dropped_by_partition"]
            )
            self._fault_plan.jittered = int(plan_state["jittered"])
            self._fault_plan.straggled = int(plan_state["straggled"])

    # ------------------------------------------------------------------ reset

    def reset_counters(self) -> None:
        """Zero every stateful counter and the drop ring.

        Covers the sent/delivered/dropped tallies, the bounded ring of
        recent drops, and — because its counters are part of the same
        observable surface — the installed fault plan's attribution
        counters.  Endpoint registrations and the fault plan itself are
        configuration, not state, and survive the reset.
        """
        self._sent = 0
        self._delivered = 0
        self._dropped_count = 0
        self._fault_dropped_count = 0
        self._drop_ring.clear()
        if self._fault_plan is not None:
            self._fault_plan.reset_counters()
