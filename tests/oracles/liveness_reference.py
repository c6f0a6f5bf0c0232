"""The uncached liveness plane — the oracle for the cached one.

Production caches each agent's neighbour-endpoint set and the next-of-kin
gossip (:class:`~repro.net.payloads.KinInfo`) its child-bound heartbeats
carry, and drops both at every link mutation.  This module keeps the
construction those caches replaced: the failure detector's membership
test scans the neighbour list with endpoint equality, and every heartbeat
tick builds the gossip afresh from the current links.  The cache property
tests compare the two after every event.

Nothing here writes agent state, so calling the oracle cannot perturb the
run it observes.
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.net.message import Endpoint
from repro.net.payloads import KinInfo

__all__ = [
    "reference_is_neighbour",
    "reference_kin_info",
    "reference_neighbour_endpoints",
]


def reference_is_neighbour(agent, sender: Endpoint) -> bool:
    """Whether membership traffic from *sender* refreshes a lease."""
    return any(n.endpoint == sender for n in agent.neighbours())


def reference_neighbour_endpoints(agent) -> FrozenSet[Endpoint]:
    """Every current neighbour's endpoint, read off the links."""
    return frozenset(n.endpoint for n in agent.neighbours())


def reference_kin_info(agent) -> Optional[KinInfo]:
    """The gossip a heartbeat tick sends children (``None`` if childless)."""
    if not agent.children:
        return None
    parent = agent.parent
    return KinInfo(
        parent=agent.name,
        grandparent=None if parent is None else (parent.name, parent.endpoint),
        siblings=tuple((c.name, c.endpoint) for c in agent.children),
    )
