"""Typed messages exchanged between agents, portals, and schedulers.

The original system spoke XML over TCP between Java agents; the message
*types* here mirror the protocol the paper describes: execution requests
travel down the discovery path (Fig. 6), results return to the user, and
service advertisements flow between neighbouring agents (Fig. 5) either
unsolicited (push) or in reply to a pull.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.errors import TransportError

__all__ = [
    "Endpoint",
    "MessageKind",
    "Message",
    "next_message_id",
    "peek_message_counter",
    "set_message_counter",
]

# Process-wide message-id source.  A plain int (not itertools.count) so a
# checkpoint can capture and restore it: post-resume sends must mint the
# same ids as the uninterrupted run, or the transport's in-flight table —
# keyed and snapshot-ordered by message id — diverges between a resumed
# and an uninterrupted run.
_next_message_id = 0


def next_message_id() -> int:
    """Mint the next globally unique message id."""
    global _next_message_id
    value = _next_message_id
    _next_message_id += 1
    return value


def peek_message_counter() -> int:
    """The id the next message will be assigned (checkpoint support)."""
    return _next_message_id


def set_message_counter(value: int) -> None:
    """Reset the id source so the next message gets *value* (restore support)."""
    global _next_message_id
    if value < 0:
        raise TransportError(f"message counter must be >= 0, got {value}")
    _next_message_id = int(value)


@dataclass(frozen=True, order=True, slots=True)
class Endpoint:
    """A network identity: the (address, port) tuple of Figs. 5–6.

    Endpoints key the transport's handler and lane tables, the fault plan
    and every agent registry — about five hash lookups per message — so
    the hash is computed once, at construction, and so is the
    ``address:port`` string every traced message carries twice.  String
    hashes differ between interpreter processes, so pickling (``run_many``
    spawns its workers) carries only the fields and the copy recomputes
    both.
    """

    address: str
    port: int
    _hash: int = field(init=False, repr=False, compare=False)
    _str: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.address:
            raise TransportError("endpoint address must be non-empty")
        if not (0 < self.port < 65536):
            raise TransportError(f"endpoint port out of range: {self.port}")
        object.__setattr__(self, "_hash", hash((self.address, self.port)))
        object.__setattr__(self, "_str", f"{self.address}:{self.port}")

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Endpoint, (self.address, self.port))

    def __str__(self) -> str:
        return self._str


class MessageKind(enum.Enum):
    """Protocol message types."""

    REQUEST = "request"      # an execution request (Fig. 6) seeking a resource
    RESULT = "result"        # execution outcome returned to the submitter
    ADVERTISE = "advertise"  # service information (Fig. 5), pushed or pulled
    PULL = "pull"            # ask a neighbour for its current service info
    ACK = "ack"              # receipt of a REQUEST (resilience layer only)
    HEARTBEAT = "heartbeat"  # liveness beacon between linked agents (membership)
    ADOPT = "adopt"          # orphaned agent asks a new parent to take it in
    ADOPTED = "adopted"      # adopter's confirmation closing the re-parenting
    CFP = "cfp"              # call-for-proposals opening an auction (policy layer)
    BID = "bid"              # sealed completion-time bid answering a CFP
    RESERVE = "reserve"      # ask a neighbour to book a future freetime window
    CONFIRM = "confirm"      # reservation granted (carries the booked window)
    REJECT = "reject"        # reservation declined (no feasible window)
    RELEASE = "release"      # booker relinquishes a previously granted window
    TRANSFER = "transfer"    # staged-in workflow input arriving at a cluster


@dataclass(frozen=True, slots=True)
class Message:
    """One transported message.

    ``payload`` is kind-specific: a request record, a task summary, or a
    service-information record.  ``hops`` counts discovery forwards so a
    request cannot circulate indefinitely.

    Slotted: a scaled grid keeps tens of thousands of messages in flight,
    and per-instance dicts dominated their footprint (see the
    ``engine_event_alloc`` micro-benchmark).
    """

    kind: MessageKind
    sender: Endpoint
    recipient: Endpoint
    payload: Any
    hops: int = 0
    message_id: int = field(default_factory=next_message_id)

    def forwarded(self, sender: Endpoint, recipient: Endpoint) -> "Message":
        """A copy routed onward with the hop count incremented."""
        return Message(
            kind=self.kind,
            sender=sender,
            recipient=recipient,
            payload=self.payload,
            hops=self.hops + 1,
        )
