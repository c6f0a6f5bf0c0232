"""Discrete-event simulation substrate (virtual-time test mode, §4.1)."""

from repro.sim.engine import Engine, EngineLane
from repro.sim.events import DEFAULT_LANE, Event, EventHandle, Priority
from repro.sim.process import PeriodicProcess, delayed

__all__ = [
    "DEFAULT_LANE",
    "Engine",
    "EngineLane",
    "Event",
    "EventHandle",
    "Priority",
    "PeriodicProcess",
    "delayed",
]
