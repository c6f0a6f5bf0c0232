"""Heartbeat/lease failure detection for the agent hierarchy.

The paper's hierarchy (§3.1, Fig. 7) is a static tree and every agent "is
only aware of neighbouring agents" — so a crashed coordinator silently
severs its whole subtree.  This module adds the *membership* half of the
self-healing layer: a seeded, deterministic failure detector that each
agent runs over its parent/child links.

Every ``heartbeat_interval`` virtual seconds an agent beacons a HEARTBEAT
to each neighbour and sweeps its per-link liveness leases::

    alive ──(silence ≥ suspect_after)──▶ suspected
    suspected ──(heartbeat arrives)────▶ alive        (slow, not dead)
    suspected ──(silence ≥ confirm_after)──▶ confirmed-dead

Suspicion *quarantines*: eq.-(10) discovery stops dispatching to a
suspected neighbour (its stale performance record may describe a corpse),
but the link survives so a straggler that was merely slow recovers the
moment its next heartbeat lands.  Confirmation severs the link and hands
the repair to :mod:`repro.agents.healing`.

Liveness refreshes **only** on membership traffic (HEARTBEAT / ADOPT /
ADOPTED), never on data messages: a half-wired peer that answers pulls but
does not consider us a neighbour must not keep the lease alive, or stale
links left behind by crash/restart cycles would never be garbage-collected.

Everything here rides the sim clock and the shared :class:`Transport`; the
detector draws no randomness, so enabling it never perturbs the grid's RNG
streams.  Defaults keep the whole layer off (byte-identical to the
pre-membership behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Dict, Optional

from repro.errors import ValidationError
from repro.net.message import Endpoint
from repro.obs.records import MemberAlive, MemberDead, MemberSuspected
from repro.sim.events import Priority
from repro.sim.process import PeriodicProcess

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.agents.agent import Agent

__all__ = ["MembershipConfig", "DetectorStats", "FailureDetector"]

#: Liveness states of one monitored link.
ALIVE = "alive"
SUSPECTED = "suspected"


@dataclass(frozen=True)
class MembershipConfig:
    """Failure-detection and self-healing policy knobs.

    Disabled by default: the stock experiments run the paper's static
    hierarchy untouched.  When enabled, every agent heartbeats its
    neighbours and leases their liveness; ``heal`` additionally turns on
    deterministic re-parenting of orphaned subtrees (see
    :mod:`repro.agents.healing`).

    Tuning rule of thumb: ``suspect_after`` should exceed the worst
    *expected* heartbeat gap (interval + grey-failure response delay) or
    stragglers flap in and out of quarantine; ``confirm_after`` must exceed
    the worst *possible* gap of a live peer or a slow node gets killed.
    """

    enabled: bool = False
    heartbeat_interval: float = 2.0
    suspect_after: float = 6.0
    confirm_after: float = 15.0
    heal: bool = True
    heal_retry: float = 4.0
    max_heal_attempts: int = 8

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ValidationError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if self.suspect_after <= self.heartbeat_interval:
            raise ValidationError(
                "suspect_after must exceed heartbeat_interval "
                f"({self.suspect_after} <= {self.heartbeat_interval})"
            )
        if self.confirm_after <= self.suspect_after:
            raise ValidationError(
                "confirm_after must exceed suspect_after "
                f"({self.confirm_after} <= {self.suspect_after})"
            )
        if self.heal_retry <= 0:
            raise ValidationError(f"heal_retry must be > 0, got {self.heal_retry}")
        if self.max_heal_attempts < 1:
            raise ValidationError(
                f"max_heal_attempts must be >= 1, got {self.max_heal_attempts}"
            )


@dataclass
class DetectorStats:
    """Counters for one agent's failure detector."""

    heartbeats_sent: int = 0
    suspects: int = 0
    recoveries: int = 0
    confirms: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            setattr(self, f.name, f.default)


class FailureDetector:
    """Per-link liveness leases for one agent's neighbours.

    Owns one :class:`PeriodicProcess` (the heartbeat/sweep tick) and two
    maps keyed by neighbour endpoint: the last time membership traffic was
    seen, and the current lease state.  The sweep iterates the agent's
    neighbour list (children in hierarchy order, then the parent), so every
    transition — and therefore every trace record and healing action — is
    deterministic.
    """

    def __init__(self, agent: "Agent", config: MembershipConfig) -> None:
        self._agent = agent
        self._config = config
        self._last_seen: Dict[Endpoint, float] = {}
        self._state: Dict[Endpoint, str] = {}
        self._process: Optional[PeriodicProcess] = None
        self.stats = DetectorStats()

    @property
    def config(self) -> MembershipConfig:
        """The membership policy this detector runs."""
        return self._config

    @property
    def running(self) -> bool:
        """Whether the heartbeat tick is scheduled."""
        return self._process is not None and self._process.running

    # -------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Arm the heartbeat tick and (re)baseline every neighbour's lease.

        Baselining to *now* matters on restart: a rebooted agent must give
        its neighbours a full lease before judging them, not inherit the
        silence accumulated while it was down.
        """
        if self.running:
            return
        now = self._agent.sim.now
        for neighbour in self._agent.neighbours():
            self._last_seen[neighbour.endpoint] = now
        if self._process is None:
            self._process = PeriodicProcess(
                self._agent.sim,
                self._config.heartbeat_interval,
                self._tick,
                priority=Priority.MONITORING,
                fire_immediately=True,
                label=f"heartbeat-{self._agent.name}",
            )
        self._process.start()

    def stop(self) -> None:
        """Stop the heartbeat tick; lease state is kept.  Idempotent."""
        if self._process is not None:
            self._process.stop()

    def reset(self) -> None:
        """Forget all lease state (a crashed process keeps no memory)."""
        self.stop()
        self._last_seen.clear()
        self._state.clear()

    # ---------------------------------------------------------------- queries

    def is_quarantined(self, endpoint: Endpoint) -> bool:
        """Whether discovery must not dispatch to *endpoint* right now."""
        return self._state.get(endpoint, ALIVE) is not ALIVE

    def state_of(self, endpoint: Endpoint) -> str:
        """The lease state of one neighbour link (``alive`` when unknown)."""
        return self._state.get(endpoint, ALIVE)

    # ----------------------------------------------------------------- inputs

    def observe(self, sender: Endpoint) -> None:
        """Membership traffic arrived from *sender*: refresh its lease.

        A suspected peer proves itself slow-not-dead and returns to
        ``alive`` (clearing its quarantine).  Senders that are not current
        neighbours are ignored — their lease would never be swept.
        """
        agent = self._agent
        if sender not in agent.neighbour_endpoints():
            return
        now = agent.sim.now
        self._last_seen[sender] = now
        if self._state.get(sender) == SUSPECTED:
            del self._state[sender]
            self.stats.recoveries += 1
            tracer = agent.tracer
            if tracer is not None:
                tracer.emit(
                    MemberAlive(
                        t=now,
                        agent=agent.name,
                        peer=agent.peer_name(sender),
                    )
                )

    def forget(self, endpoint: Endpoint) -> None:
        """Drop all lease state for a severed link."""
        self._last_seen.pop(endpoint, None)
        self._state.pop(endpoint, None)

    # ------------------------------------------------------------------- tick

    def _tick(self) -> None:
        """One detector round: sweep leases, then beacon heartbeats.

        Sweeping first means a peer is judged on silence *up to* this tick;
        the heartbeats sent below can only refresh the peer's view of us.
        Confirmed-dead callbacks (``Agent._on_peer_dead``) may sever links,
        so the sweep snapshots the neighbour list before mutating.
        """
        agent = self._agent
        now = agent.sim.now
        config = self._config
        for neighbour in agent.neighbours():
            ep = neighbour.endpoint
            silence = now - self._last_seen.setdefault(ep, now)
            state = self._state.get(ep, ALIVE)
            if state is ALIVE and silence >= config.suspect_after:
                self._state[ep] = SUSPECTED
                state = SUSPECTED
                self.stats.suspects += 1
                if agent.tracer is not None:
                    agent.tracer.emit(
                        MemberSuspected(
                            t=now,
                            agent=agent.name,
                            peer=neighbour.name,
                            silence=silence,
                        )
                    )
            if state == SUSPECTED and silence >= config.confirm_after:
                self.forget(ep)
                self.stats.confirms += 1
                if agent.tracer is not None:
                    agent.tracer.emit(
                        MemberDead(
                            t=now,
                            agent=agent.name,
                            peer=neighbour.name,
                            silence=silence,
                        )
                    )
                agent._on_peer_dead(neighbour)  # noqa: SLF001 - membership hook
        self.stats.heartbeats_sent += agent.send_heartbeats()

    # ------------------------------------------------------------- checkpoint

    def snapshot_state(self) -> dict:
        """Leases, states, counters, and the pending tick event."""
        from repro.checkpoint.codec import encode_endpoint

        return {
            "last_seen": [
                [encode_endpoint(ep), t] for ep, t in sorted(self._last_seen.items())
            ],
            "states": [
                [encode_endpoint(ep), s] for ep, s in sorted(self._state.items())
            ],
            "stats": {f.name: getattr(self.stats, f.name) for f in fields(self.stats)},
            "process": None if self._process is None else self._process.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Rebuild leases and re-arm the tick without firing it."""
        from repro.checkpoint.codec import decode_endpoint

        self._last_seen = {
            decode_endpoint(ep): float(t) for ep, t in state["last_seen"]
        }
        self._state = {decode_endpoint(ep): str(s) for ep, s in state["states"]}
        for f in fields(self.stats):
            setattr(self.stats, f.name, int(state["stats"][f.name]))
        if self._process is not None:
            self._process.stop()
            self._process = None
        if state["process"] is not None:
            self._process = PeriodicProcess(
                self._agent.sim,
                self._config.heartbeat_interval,
                self._tick,
                priority=Priority.MONITORING,
                fire_immediately=True,
                label=f"heartbeat-{self._agent.name}",
            )
            self._process.restore_state(state["process"])
