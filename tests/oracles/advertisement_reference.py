"""The uncached advertisement plane — the oracle for the cached one.

Production builds an agent's Fig. 5 record once and re-issues it only when
the freetime moves, and :meth:`LocalScheduler.freetime` reads a per-node
free vector cached under a version.  This module keeps the construction
those caches replaced: every call re-derives the hardware type with a
``max`` over every node, rebuilds the per-node free vector from the
executor's bookings, and clamps it to the clock.  The cache property tests
compare the two after every event.

Nothing here writes scheduler state, so calling the oracle cannot perturb
the run it observes.
"""

from __future__ import annotations

import numpy as np

from repro.net.message import Endpoint
from repro.net.payloads import ServiceInfo

__all__ = [
    "reference_free_per_node",
    "reference_freetime",
    "reference_service_info",
]


def reference_free_per_node(scheduler) -> np.ndarray:
    """Per-node booked-or-scheduled free times, rebuilt from scratch."""
    executor = scheduler.executor
    base = np.array(
        [executor.node_free_at(n.node_id) for n in scheduler.resource.nodes]
    )
    if scheduler.policy.is_static:
        return np.maximum(scheduler._static.booked_free_times, base)
    if scheduler.queue.is_empty:
        return base
    cached = scheduler._cached_node_free
    if cached is None:
        # Only before the first scheduling pass over a non-empty queue —
        # never between events — and that build is the production one.
        raise AssertionError("queued tasks without an incumbent schedule")
    return np.maximum(cached, base)


def reference_freetime(scheduler) -> float:
    """ω (§3.2) aggregated per ``freetime_mode``, with no caching."""
    per_node = np.maximum(reference_free_per_node(scheduler), scheduler.sim.now)
    mode = scheduler._freetime_mode
    if mode == "mean":
        return float(per_node.mean())
    if mode == "min":
        return float(per_node.min())
    return float(per_node.max())


def reference_service_info(agent) -> ServiceInfo:
    """The agent's Fig. 5 record, every field derived afresh."""
    scheduler = agent.scheduler
    endpoint = agent.endpoint
    return ServiceInfo(
        agent_endpoint=endpoint,
        scheduler_endpoint=Endpoint(endpoint.address, endpoint.port + 9000),
        hardware_type=scheduler.resource.slowest_platform().name,
        nproc=scheduler.resource.size,
        environments=scheduler.environments,
        freetime=reference_freetime(scheduler),
    )
