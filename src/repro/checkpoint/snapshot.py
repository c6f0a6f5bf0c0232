"""Whole-system snapshot/restore orchestration.

:func:`snapshot_system` gathers every component's ``snapshot_state()`` into
one JSON-ready payload section; :func:`restore_system` rewinds a **freshly
built, not-yet-started** :class:`~repro.experiments.runner.GridSystem` to
that state.  The run driver adds its own progress (pending arrival events,
churn timers, the step counter, soak windows) around this section — see
:func:`repro.experiments.runner.write_checkpoint`.

Restore order matters: the engine is rewound first (clearing the heap and
re-establishing the clock and sequence counter), after which every
component re-creates its pending events with their *original*
``(time, priority, sequence)`` identities, reproducing the heap exactly.

The module also provides codecs for the run *inputs* — the experiment
configuration, topology, and workload — so a snapshot file is
self-contained: resuming needs nothing but the file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from typing import Any, Dict, List

from repro.errors import CheckpointError

__all__ = [
    "snapshot_system",
    "restore_system",
    "applications_of",
    "encode_config",
    "decode_config",
    "encode_topology",
    "decode_topology",
    "topology_fingerprint",
    "encode_workload_item",
    "decode_workload_item",
    "workload_fingerprint",
]


def applications_of(system) -> Dict[str, Any]:
    """Name → :class:`~repro.pace.application.ApplicationModel` for *system*.

    Decoders resolve application references through this mapping so
    restored requests share model identity with the schedulers.
    """
    return {name: spec.model for name, spec in system.specs.items()}


# ---------------------------------------------------------------- the system


def snapshot_system(system) -> Dict[str, Any]:
    """Every component's state, JSON-ready.

    Raises
    ------
    CheckpointError
        If the system was built without an RNG registry (nothing to pin
        stream positions to) or a component refuses (e.g. a monitor with
        load tracking enabled).
    """
    from repro.net.message import peek_message_counter

    if system.rngs is None:
        raise CheckpointError(
            "cannot checkpoint a system built without an RNG registry"
        )
    return {
        "engine": system.sim.snapshot_state(),
        "rngs": system.rngs.snapshot_state(),
        "message_counter": peek_message_counter(),
        "transport": system.transport.snapshot_state(),
        "evaluator": system.evaluator.snapshot_state(),
        "schedulers": {
            name: scheduler.snapshot_state()
            for name, scheduler in sorted(system.schedulers.items())
        },
        "agents": {
            name: agent.snapshot_state()
            for name, agent in sorted(system.agents.items())
        },
        "portal": system.portal.snapshot_state(),
    }


def restore_system(system, state: Dict[str, Any]) -> None:
    """Rewind a freshly built (un-started) *system* to *state*.

    The caller must have rebuilt the grid from the snapshot's own config
    and topology; component sets are validated against the snapshot.
    """
    from repro.net.message import set_message_counter

    if system.rngs is None:
        raise CheckpointError("cannot restore into a system without an RNG registry")
    for section in ("schedulers", "agents"):
        have = set(getattr(system, section))
        want = set(state[section])
        if have != want:
            raise CheckpointError(
                f"snapshot {section} {sorted(want)} do not match the rebuilt "
                f"grid's {sorted(have)}"
            )
    applications = applications_of(system)
    # Engine first: clears the heap and restores clock/sequence, so every
    # component's restore can re-create its events against it.
    system.sim.restore_state(state["engine"])
    system.rngs.restore_state(state["rngs"])
    set_message_counter(int(state["message_counter"]))
    for name in sorted(system.schedulers):
        system.schedulers[name].restore_state(
            state["schedulers"][name], applications=applications
        )
    for name in sorted(system.agents):
        system.agents[name].restore_state(
            state["agents"][name], applications=applications
        )
    system.portal.restore_state(state["portal"], applications=applications)
    system.transport.restore_state(state["transport"], applications=applications)
    system.evaluator.restore_state(state["evaluator"])


# ------------------------------------------------------------- configuration

#: Top-level config keys that format-v2 snapshots may carry but this build
#: no longer has.  ``engine`` chose between two event engines whose
#: outputs were equivalence-tested byte-identical, so a snapshot resumes
#: unchanged on the one engine left, whichever it recorded.
RETIRED_CONFIG_KEYS = frozenset({"engine"})


def encode_config(config) -> Dict[str, Any]:
    """``ExperimentConfig`` → JSON-ready dict (policy as its enum value)."""
    data = asdict(config)
    data["policy"] = config.policy.value
    return data


def decode_config(data: Dict[str, Any]):
    """Inverse of :func:`encode_config`.

    Unknown keys (a snapshot written by a different build) raise
    :class:`CheckpointError` rather than being silently dropped, at the
    top level as well as inside nested sections.  The one exception is
    :data:`RETIRED_CONFIG_KEYS`: fields this build no longer has whose
    every recorded value replays identically without them.
    """
    from repro.agents.discovery import DiscoveryConfig
    from repro.agents.membership import MembershipConfig
    from repro.agents.policy import GlobalPolicyConfig
    from repro.agents.resilience import ResilienceConfig
    from repro.experiments.config import ExperimentConfig
    from repro.net.faults import ChurnSpec, FaultPlanSpec
    from repro.scheduling.cost import CostWeights
    from repro.scheduling.ga import GAConfig
    from repro.scheduling.scheduler import SchedulingPolicy

    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(data) - known - RETIRED_CONFIG_KEYS)
    if unknown:
        raise CheckpointError(
            f"snapshot config does not match this build: unknown keys {unknown}"
        )
    try:
        ga_raw = dict(data["ga_config"])
        weights = CostWeights(**ga_raw.pop("weights"))
        ga_config = GAConfig(weights=weights, **ga_raw)
        faults = data["faults"]
        churn = data["churn"]
        churn_spec = None
        if churn is not None:
            churn = dict(churn)
            churn["window"] = tuple(churn["window"])
            churn_spec = ChurnSpec(**churn)
        return ExperimentConfig(
            name=str(data["name"]),
            policy=SchedulingPolicy(data["policy"]),
            agents_enabled=bool(data["agents_enabled"]),
            request_count=int(data["request_count"]),
            request_interval=float(data["request_interval"]),
            pull_interval=float(data["pull_interval"]),
            master_seed=int(data["master_seed"]),
            generations_per_event=int(data["generations_per_event"]),
            ga_config=ga_config,
            discovery=DiscoveryConfig(**data["discovery"]),
            prediction_noise=float(data["prediction_noise"]),
            runtime_noise=float(data["runtime_noise"]),
            advertisement=str(data["advertisement"]),
            monitor_poll_interval=float(data["monitor_poll_interval"]),
            freetime_mode=str(data["freetime_mode"]),
            resilience=ResilienceConfig(**data["resilience"]),
            faults=(
                None if faults is None else FaultPlanSpec.from_json(json.dumps(faults))
            ),
            churn=churn_spec,
            membership=MembershipConfig(**data["membership"]),
            global_policy=GlobalPolicyConfig(**data["global_policy"]),
        )
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"snapshot config does not match this build: {exc}")


# ----------------------------------------------------------------- topology


def _topology_inputs(topology) -> Dict[str, Any]:
    # Mapping *order* is part of the topology's identity: hierarchy wiring
    # appends children in ``parent_of`` iteration order, which fixes the
    # send order of pulls/pushes and therefore which messages a seeded
    # fault plan drops.  Lists of pairs survive canonical (key-sorted)
    # JSON serialisation; plain dicts would come back re-ordered.
    return {
        "platforms": [[k, v] for k, v in topology.platforms.items()],
        "parent_of": [[k, v] for k, v in topology.parent_of.items()],
        "nproc": [[k, v] for k, v in topology.nproc.items()],
    }


def topology_fingerprint(topology) -> str:
    """sha256 over the topology's canonical JSON description."""
    body = json.dumps(
        _topology_inputs(topology), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def encode_topology(topology) -> Dict[str, Any]:
    """``GridTopology`` → JSON-ready dict with a self-identifying fingerprint.

    Only the default hardware catalogue is supported — the catalogue holds
    fitted model curves that a snapshot cannot carry.
    """
    from repro.pace.hardware import DEFAULT_CATALOGUE

    if topology.catalogue is not DEFAULT_CATALOGUE:
        raise CheckpointError(
            "cannot checkpoint a topology with a custom hardware catalogue"
        )
    data = _topology_inputs(topology)
    data["fingerprint"] = topology_fingerprint(topology)
    return data


def decode_topology(data: Dict[str, Any]):
    """Inverse of :func:`encode_topology`; verifies the fingerprint."""
    from repro.experiments.casestudy import GridTopology

    topology = GridTopology(
        platforms={str(k): str(v) for k, v in data["platforms"]},
        parent_of={
            str(k): (None if v is None else str(v)) for k, v in data["parent_of"]
        },
        nproc={str(k): int(v) for k, v in data["nproc"]},
    )
    actual = topology_fingerprint(topology)
    if actual != data["fingerprint"]:
        raise CheckpointError(
            f"rebuilt topology fingerprint {actual} does not match the "
            f"snapshot's {data['fingerprint']}"
        )
    return topology


# ----------------------------------------------------------------- workload


def encode_workload_item(item) -> List[Any]:
    """``WorkloadItem`` → ``[submit_time, agent, application, deadline]``."""
    return [item.submit_time, item.agent_name, item.application, item.deadline]


def decode_workload_item(data: List[Any]):
    """Inverse of :func:`encode_workload_item`."""
    from repro.experiments.workload import WorkloadItem

    return WorkloadItem(
        submit_time=float(data[0]),
        agent_name=str(data[1]),
        application=str(data[2]),
        deadline=float(data[3]),
    )


def workload_fingerprint(items) -> str:
    """sha256 over the workload's canonical JSON description."""
    body = json.dumps(
        [encode_workload_item(i) for i in items],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()
