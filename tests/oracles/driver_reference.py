"""The per-event run driver — the oracle for :class:`Run`'s fused loop.

Production :meth:`Run._advance` drives ``Engine.run`` in fused chunks that
end at hook boundaries, and a portal result listener halts the engine on
the event that resolves the run.  This subclass keeps the loop that
replaced: one ``sim.step()`` per event, the stop predicate re-checked
before every event, and the boundary test after every event.  Both must
stop at the same ``fired_count`` and write the same snapshots.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.runner import Run

__all__ = ["PerEventRun"]


class PerEventRun(Run):
    """A :class:`Run` that steps its engine one event at a time."""

    def _advance(self, limit: Optional[float]) -> bool:
        sim = self.system.sim
        step = sim.step
        done = self._done
        timed = self.soak is not None
        steps = self.steps
        next_step, next_time = self._next_step, self._next_time
        while not done():
            if limit is not None:
                when = sim.next_event_time()
                if when is None or when > limit:
                    break
                step()
            elif not step():
                break
            steps += 1
            if steps >= next_step or (timed and sim.now >= next_time):
                self.steps = steps
                self._boundary()
                next_step, next_time = self._next_step, self._next_time
        self.steps = steps
        return done()
