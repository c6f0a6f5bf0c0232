"""The production fault plan against the original per-message decision.

:meth:`FaultPlan.on_send` shares its drop verdicts, precomputes its reason
strings and skips the per-link table when a plan has none.  Driven over
the same message stream with the same seed, it must return the verdicts
:class:`tests.oracles.fault_reference.ReferenceFaultPlan` returns, keep
the same attribution counters, and leave its RNG stream at the same
position — the draws are neither batched, reordered nor skipped.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.faults import (
    FaultPlan,
    FaultPlanSpec,
    LinkFault,
    PartitionWindow,
    StragglerFault,
)
from repro.net.message import Endpoint, Message, MessageKind
from tests.oracles.fault_reference import ReferenceFaultPlan

NAMES = {name: Endpoint(f"{name.lower()}.grid", 1000 + i)
         for i, name in enumerate(["S1", "S2", "S3", "S4", "S5", "portal"])}
COUNTERS = ("dropped_by_chance", "dropped_by_partition", "jittered", "straggled")

SPECS = {
    "loss-jitter-stragglers": FaultPlanSpec(
        drop_probability=0.15,
        latency_jitter=0.4,
        stragglers=(
            StragglerFault("S2", response_delay=2.0, service_factor=1.5),
            StragglerFault("S4", response_delay=0.5),
        ),
    ),
    "stragglers-only": FaultPlanSpec(
        stragglers=(StragglerFault("S3", response_delay=1.0),),
    ),
    "partitions-and-links": FaultPlanSpec(
        drop_probability=0.05,
        link_faults=(
            LinkFault("S1", "S2", 1.0),
            LinkFault("S3", "S1", 0.5),
            LinkFault("S5", "portal", 0.0),
        ),
        partitions=(
            PartitionWindow(20.0, 60.0, ("S1", "S2"), ("S3", "S4")),
            PartitionWindow(50.0, 90.0, ("S5",), ("portal",)),
        ),
        latency_jitter=0.2,
    ),
    "partition-only": FaultPlanSpec(
        partitions=(PartitionWindow(10.0, 40.0, ("S1",), ("S2", "S3")),),
    ),
    "links-only": FaultPlanSpec(link_faults=(LinkFault("S2", "S1", 0.7),)),
}


def message_stream(seed: int, count: int):
    """``count`` sends between random participants at rising times."""
    rng = np.random.default_rng(seed)
    endpoints = list(NAMES.values())
    kinds = list(MessageKind)
    now = 0.0
    for _ in range(count):
        now += float(rng.exponential(0.1))
        sender, recipient = rng.choice(len(endpoints), size=2, replace=False)
        kind = kinds[int(rng.integers(len(kinds)))]
        yield Message(kind, endpoints[sender], endpoints[recipient], None), now


def plan(cls, spec: FaultPlanSpec, seed: int) -> FaultPlan:
    return cls(spec, np.random.default_rng(seed), NAMES)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_verdict_stream_and_rng_match_the_oracle(name, seed):
    spec = SPECS[name]
    production = plan(FaultPlan, spec, seed)
    reference = plan(ReferenceFaultPlan, spec, seed)
    verdicts = []
    for message, now in message_stream(seed, 3_000):
        got = production.on_send(message, now)
        expected = reference.on_send(message, now)
        assert got == expected, (message, now)
        verdicts.append(got)
    for counter in COUNTERS:
        assert getattr(production, counter) == getattr(reference, counter), counter
    if production._rng is not None:
        assert (
            production._rng.bit_generator.state
            == reference._rng.bit_generator.state
        )
    # The stream exercised the spec: something was decided.
    assert any(v.drop or v.extra_latency > 0.0 for v in verdicts)


def test_every_reason_string_occurs():
    spec = SPECS["loss-jitter-stragglers"]
    production = plan(FaultPlan, spec, 3)
    reasons = {
        production.on_send(message, now).reason
        for message, now in message_stream(3, 3_000)
    }
    assert reasons == {"loss", "jitter", "straggler+jitter"}
    stragglers = plan(FaultPlan, SPECS["stragglers-only"], 3)
    assert {
        stragglers.on_send(message, now).reason
        for message, now in message_stream(3, 500)
    } == {"", "straggler"}
    partition = plan(FaultPlan, SPECS["partition-only"], 3)
    assert "partition" in {
        partition.on_send(message, now).reason
        for message, now in message_stream(3, 1_000)
    }


def test_partition_only_plan_needs_no_rng():
    spec = SPECS["partition-only"]
    production = FaultPlan(spec, None, NAMES)
    reference = ReferenceFaultPlan(spec, None, NAMES)
    for message, now in message_stream(5, 1_000):
        assert production.on_send(message, now) == reference.on_send(message, now)
    assert production.dropped_by_partition == reference.dropped_by_partition > 0
