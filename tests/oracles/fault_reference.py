"""The fault plan's per-message decision as it was written first.

:meth:`repro.net.faults.FaultPlan.on_send` precomputes its reason strings,
shares its drop verdicts and skips the per-link table when a plan has no
link faults.  :class:`ReferenceFaultPlan` keeps the original body — a
tuple lookup per message, a ``list`` + ``join`` for the reason, a fresh
verdict per drop — so a test can drive both over one message stream and
compare every verdict, counter and the final RNG state.
"""

from __future__ import annotations

from typing import List

from repro.net.faults import FaultPlan, FaultVerdict
from repro.net.message import Message

__all__ = ["ReferenceFaultPlan"]


class ReferenceFaultPlan(FaultPlan):
    """A :class:`FaultPlan` deciding each send with the original body."""

    def on_send(self, message: Message, now: float) -> FaultVerdict:
        sender, recipient = message.sender, message.recipient
        for start, end, group_a, group_b in self._partitions:
            if start <= now < end and (
                (sender in group_a and recipient in group_b)
                or (sender in group_b and recipient in group_a)
            ):
                self.dropped_by_partition += 1
                return FaultVerdict(drop=True, reason="partition")
        probability = self._link_drop.get(
            (sender, recipient), self._spec.drop_probability
        )
        if probability > 0.0:
            assert self._rng is not None
            if self._rng.random() < probability:
                self.dropped_by_chance += 1
                return FaultVerdict(drop=True, reason="loss")
        extra = 0.0
        reasons: List[str] = []
        delay = self._straggler_delay.get(sender, 0.0)
        if delay > 0.0:
            assert self._rng is not None
            extra += float(self._rng.uniform(0.5, 1.5)) * delay
            self.straggled += 1
            reasons.append("straggler")
        if self._spec.latency_jitter > 0.0:
            assert self._rng is not None
            extra += float(self._rng.uniform(0.0, self._spec.latency_jitter))
            self.jittered += 1
            reasons.append("jitter")
        if extra > 0.0:
            return FaultVerdict(
                drop=False, extra_latency=extra, reason="+".join(reasons)
            )
        return FaultVerdict(drop=False)
