"""The benchmark's workloads: inputs from a seed, one run, its checked outcome.

Every workload goes through the public ``repro`` API only.  A workload is
a *panel* of ``members`` independent simulations whose seeds derive from
the benchmark seed; pooling the panel keeps the seed-to-seed spread of
the simulated metrics small.  Arrivals inside each simulation follow an
open-loop schedule in simulated time (they are generated up front and
never wait for earlier requests).
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.net.message import MessageKind
from spans import clock

#: Seeds of one panel: member k of benchmark seed s simulates seed s*64+k.
SEED_STRIDE = 64

#: The checker rule a known program defect breaks on some chaos seeds: an
#: ACKed request bounces between the hierarchy head and a child until its
#: hop limit and is then dropped with no result.
KNOWN_DEFECT_RULE = "ack-resolution"

#: Counters a resumed chaos run need not share with its reference run:
#: tracing and checkpoint products, and the event count (known defect:
#: on some seeds the resumed engine fires one event fewer).
RESUME_UNCOMPARED = frozenset(
    {
        "sim.events",
        "obs.records",
        "obs.ack_resolution_violations",
        "checkpoint.bytes",
        "checkpoint.resume_event_drift",
    }
)


def member_seed(seed: int, member: int) -> int:
    return seed * SEED_STRIDE + member


@dataclass
class Inputs:
    """A member's generated inputs — everything the program receives."""

    config: object
    topology: object
    items: list


@dataclass
class Outcome:
    """One member run's checked outputs and counters."""

    submitted: int
    succeeded: int
    failed: int
    unresolved: int
    deadline_met: int
    responses: List[float]
    epsilon: float
    n_tasks: int
    utilisation: float
    imbalance: float
    rng_digest: str
    signature: str
    host_s: float
    counts: Dict[str, float]
    errors: List[str] = field(default_factory=list)
    #: Known program defects this run showed: reported, counted in
    #: ``counts``, and not failed (see README.md, "Known defects").
    defects: List[str] = field(default_factory=list)
    #: ``host_s`` at reference machine speed (timed end-to-end runs only).
    ref_s: float = 0.0


class Capture:
    """Receives every grid the drivers build during one member run."""

    def __init__(self) -> None:
        self.systems: list = []
        self.build_s: List[float] = []
        self.delivered: Counter = Counter()

    def on_build(self, system, seconds: float) -> None:
        self.systems.append(system)
        self.build_s.append(seconds)
        system.transport.tap(self._tap)

    def _tap(self, message) -> None:
        self.delivered[message.kind.name] += 1


def node_overlaps(records) -> int:
    """Pairs of executions that overlap in time on one node of one resource."""
    by_node: Dict[tuple, list] = {}
    for record in records:
        for node in record.node_ids:
            by_node.setdefault((record.resource_name, node), []).append(
                (record.start, record.completion)
            )
    overlaps = 0
    for intervals in by_node.values():
        intervals.sort()
        busy_until = -math.inf
        for start, end in intervals:
            if start < busy_until - 1e-9:
                overlaps += 1
            busy_until = max(busy_until, end)
    return overlaps


def _outcome(
    system,
    result,
    n_items: int,
    *,
    strict: bool,
    host_s: float,
    fault_dropped: int,
    capture: Capture,
) -> Outcome:
    """Classify every submitted request exactly once and run the checks."""
    errors: List[str] = []
    portal = system.portal
    results = portal.results
    submitted = portal.submitted_count
    if submitted != n_items:
        errors.append(f"portal submitted {submitted} of {n_items} requests")
    succeeded = failed = unresolved = met = 0
    responses: List[float] = []
    for request_id in range(submitted):
        res = results.get(request_id)
        if res is None:
            unresolved += 1
        elif res.success:
            succeeded += 1
            responses.append(res.completion_time - res.submit_time)
            met += res.completion_time <= res.deadline
        else:
            failed += 1
    if succeeded + failed != len(results):
        errors.append(f"{len(results)} results for {succeeded + failed} request ids")
    if unresolved != portal.pending_count:
        errors.append(
            f"{unresolved} requests without a result, portal reports "
            f"{portal.pending_count} pending"
        )
    if strict and (failed or unresolved):
        errors.append(f"strict run: {failed} failed, {unresolved} unresolved")
    records = result.records
    overlaps = node_overlaps(records)
    if overlaps:
        errors.append(f"{overlaps} overlapping executions on one node")
    total = result.metrics.total
    stats = result.agent_stats.values()
    generations = 0
    rows_costed = rows_evaluated = 0
    for scheduler in system.schedulers.values():
        ga = scheduler.ga
        if ga is not None:
            generations += ga.generations
            rows_costed += ga.stats.rows_costed
            rows_evaluated += ga.stats.rows_evaluated
    counts: Dict[str, float] = {
        "sim.events": system.sim.fired_count,
        "net.messages": result.messages_sent,
        "net.fault_dropped": fault_dropped,
        "agents.forwarded": sum(s.forwarded for s in stats),
        "agents.retries": sum(s.retries for s in stats),
        "agents.reroutes": sum(s.reroutes for s in stats),
        "agents.gave_up": sum(s.gave_up for s in stats),
        "scheduling.generations": generations,
        "scheduling.eval_reuse_hit_rate": (
            1.0 - rows_evaluated / rows_costed if rows_costed else 0.0
        ),
        "pace.cache_hit_rate": result.cache_stats.hit_rate,
        "scheduling.executions": len(records),
        "scheduling.duplicate_executions": len(records) - succeeded,
        "scheduling.node_overlaps": overlaps,
        # Set by the chaos workload, the only one that traces and checkpoints.
        "obs.records": 0,
        "obs.ack_resolution_violations": 0,
        "checkpoint.bytes": 0,
        "checkpoint.resume_event_drift": 0,
    }
    for kind in MessageKind:
        counts[f"net.msg.{kind.name}"] = capture.delivered[kind.name]
    signature = hashlib.sha256(
        repr(
            (
                result.rng_digest,
                repr(total),
                submitted,
                succeeded,
                failed,
                unresolved,
                met,
                responses,
                sorted(counts.items()),
            )
        ).encode()
    ).hexdigest()
    return Outcome(
        submitted=submitted,
        succeeded=succeeded,
        failed=failed,
        unresolved=unresolved,
        deadline_met=met,
        responses=responses,
        epsilon=total.epsilon,
        n_tasks=total.n_tasks,
        utilisation=total.upsilon,
        imbalance=1.0 - total.beta,
        rng_digest=result.rng_digest,
        signature=signature,
        host_s=host_s,
        counts=counts,
        errors=errors,
    )


Span = Callable[[str, Callable], Callable]


def no_span(name: str, fn: Callable) -> Callable:
    return fn


class Workload:
    """One named workload: a panel of ``members`` seeded simulations."""

    name = ""
    members = 1
    requests = 0
    #: How many leading panel members the timed runs cover (None: all).
    timed_members: Optional[int] = None
    #: Whether each member first gets an untimed :meth:`reference` run that
    #: its timed runs are checked against.  Without one, the timed runs
    #: include a second run of member 0, so its seed always runs twice.
    has_reference = False

    def __init__(self, out_dir: str) -> None:
        #: Where a run may write files (the chaos checkpoint).
        self.out_dir = out_dir

    def inputs(self, seed: int) -> Inputs:
        raise NotImplementedError

    def reference(self, inputs: Inputs, capture: Capture, span: Span) -> Outcome:
        raise NotImplementedError

    def run(self, inputs: Inputs, capture: Capture, span: Span) -> Outcome:
        raise NotImplementedError


class CaseStudyGA(Workload):
    """The paper's Experiment 3: GA + agents on the 12-agent §4 grid, 1 req/s."""

    name = "casestudy_ga"
    members = 6
    requests = 120

    def inputs(self, seed: int) -> Inputs:
        from repro.experiments.casestudy import case_study_topology
        from repro.experiments.config import table2_experiments
        from repro.experiments.workload import generate_workload
        from repro.pace.workloads import paper_application_specs

        config = table2_experiments(master_seed=seed, request_count=self.requests)[2]
        topology = case_study_topology()
        items = generate_workload(
            topology.agent_names,
            paper_application_specs(),
            count=config.request_count,
            interval=config.request_interval,
            master_seed=config.master_seed,
        )
        return Inputs(config, topology, items)

    def run(self, inputs: Inputs, capture: Capture, span: Span) -> Outcome:
        from repro.experiments.runner import run_experiment

        t0 = clock()
        result = run_experiment(inputs.config, inputs.topology, workload=inputs.items)
        wall = clock() - t0
        return _outcome(
            capture.systems[-1],
            result,
            len(inputs.items),
            strict=True,
            host_s=wall - capture.build_s[0],
            fault_dropped=0,
            capture=capture,
        )


class Grid1000Fifo(CaseStudyGA):
    """A generated 1000-agent grid, Poisson arrivals at 2 req/s, FIFO policy."""

    name = "grid1000_fifo"
    members = 5
    requests = 200

    def spec(self, seed: int):
        from repro.experiments.scenarios import ScenarioSpec

        return ScenarioSpec(
            name="bench-grid1000",
            agent_count=1000,
            request_count=self.requests,
            rate=2.0,
            arrival="poisson",
            master_seed=seed,
        )

    def inputs(self, seed: int) -> Inputs:
        from repro.experiments.scenarios import generate_scenario
        from repro.scheduling.scheduler import SchedulingPolicy

        spec = self.spec(seed)
        scenario = generate_scenario(spec)
        config = spec.config(policy=SchedulingPolicy.FIFO)
        return Inputs(config, scenario.topology, list(scenario.workload))


class Chaos500Traced(Grid1000Fifo):
    """The chaos tier, traced, checkpointed mid-run, resumed and checked.

    Every member's reference run is the same seed untraced and
    uninterrupted (``run_degraded``); the simulated metrics pool those.
    Member 0 is the timed one: its reference event count places the
    checkpoint mid-run, and the resumed run must reproduce the reference
    exactly.  Running all three members through the traced, checkpointed
    operation would not fit the time budget.
    """

    name = "chaos500_traced"
    members = 3
    timed_members = 1
    requests = 200
    has_reference = True

    def __init__(self, out_dir: str) -> None:
        super().__init__(out_dir)
        self.references: Dict[int, Outcome] = {}

    def spec(self, seed: int):
        from repro.experiments.scenarios import ScenarioSpec

        return ScenarioSpec(
            name="bench-chaos500",
            agent_count=500,
            request_count=self.requests,
            chaos="grey-combo",
            master_seed=seed,
        )

    def reference(self, inputs: Inputs, capture: Capture, span: Span) -> Outcome:
        from repro.experiments.experiment4 import run_degraded

        run = run_degraded(inputs.config, inputs.topology, workload=inputs.items)
        outcome = self._degraded_outcome(run, capture, inputs, 0.0)
        self.references[inputs.config.master_seed] = outcome
        return outcome

    def _degraded_outcome(self, run, capture, inputs, host_s) -> Outcome:
        return _outcome(
            capture.systems[-1],
            run.result,
            len(inputs.items),
            strict=False,
            host_s=host_s,
            fault_dropped=run.fault_dropped,
            capture=capture,
        )

    def run(self, inputs: Inputs, capture: Capture, span: Span) -> Outcome:
        from repro.experiments.experiment4 import checkpoint_degraded, resume_degraded
        from repro.obs import MemorySink, Tracer, check_trace

        reference = self.references[inputs.config.master_seed]
        path = os.path.join(self.out_dir, f"{self.name}.ckpt")
        t0 = clock()
        pre = Tracer(MemorySink())
        checkpoint_degraded(
            inputs.config,
            inputs.topology,
            workload=inputs.items,
            tracer=pre,
            at_step=reference.counts["sim.events"] // 2,
            path=path,
        )
        post = Tracer(MemorySink())
        run = resume_degraded(path, tracer=post)
        records = pre.records + post.records
        violations = span("obs.check", check_trace)(records)
        wall = clock() - t0
        outcome = self._degraded_outcome(
            run, capture, inputs, wall - capture.build_s[0]
        )
        counts = outcome.counts
        counts["obs.records"] = len(records)
        counts["checkpoint.bytes"] = os.path.getsize(path)
        for violation in violations:
            if violation.rule == KNOWN_DEFECT_RULE:
                counts["obs.ack_resolution_violations"] += 1
                outcome.defects.append(f"trace check: {violation}")
            else:
                outcome.errors.append(f"trace check: {violation}")
        drift = counts["sim.events"] - reference.counts["sim.events"]
        counts["checkpoint.resume_event_drift"] = abs(drift)
        if drift:
            outcome.defects.append(
                f"the resumed run fired {drift:+d} events against the "
                "uninterrupted run"
            )
        differences = [
            name
            for name in ("rng_digest", "submitted", "succeeded", "failed",
                         "unresolved", "deadline_met", "responses", "n_tasks")
            if getattr(outcome, name) != getattr(reference, name)
        ]
        if repr((outcome.epsilon, outcome.utilisation, outcome.imbalance)) != repr(
            (reference.epsilon, reference.utilisation, reference.imbalance)
        ):
            differences.append("metrics")
        differences += [
            name
            for name, value in counts.items()
            if name not in RESUME_UNCOMPARED and value != reference.counts[name]
        ]
        if differences:
            outcome.errors.append(
                "the resumed run differs from the uninterrupted untraced run in "
                + ", ".join(differences)
            )
        return outcome


#: Every workload class by name.
WORKLOADS = {cls.name: cls for cls in (CaseStudyGA, Grid1000Fifo, Chaos500Traced)}
