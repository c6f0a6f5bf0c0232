"""Experiment 4 — graceful degradation under injected faults.

The paper's three experiments assume a benign LAN.  Experiment 4 (our
robustness extension) re-runs the §4.1 case-study workload on the same
12-agent grid while the fault fabric (:mod:`repro.net.faults`) injects
message loss, latency jitter, and agent churn, across a grid of
``loss rate × churn rate`` operating points.  Each point reports the
request **completion rate**, the **deadline-met rate**, the §3.3
balancing metrics, and the resilience layer's counters (retries,
reroutes, give-ups), for the resilient protocol
(ACK + retry + registry TTL) paired with the paper's fire-and-forget
baseline (``no-retry`` — the ablation every resilient point is measured
against).

Message loss leaves requests unresolved, so every point runs in the
``horizon`` mode of :class:`~repro.experiments.runner.Run`, which counts
them instead of raising; :func:`run_degraded` is that mode's entry point.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Mapping, Optional

from repro.agents.resilience import ResilienceConfig
from repro.experiments.casestudy import case_study_topology
from repro.experiments.config import ExperimentConfig

# The horizon-mode entry points live with the one run driver; they are
# re-exported here, where degraded runs have always been imported from.
from repro.experiments.runner import (  # noqa: F401
    DegradedRun,
    MembershipSummary,
    build_grid,
    checkpoint_degraded,
    compute_metrics,
    resume_degraded,
    run_degraded,
    write_checkpoint,
)
from repro.experiments.tournament import (
    BETA,
    COMPLETED,
    EPSILON,
    MET_DEADLINE,
    UNRESOLVED,
    Cell,
    Column,
    Contender,
    Tournament,
    TournamentResult,
    completed,
)
from repro.net.faults import ChurnSpec, FaultPlanSpec
from repro.scheduling.scheduler import SchedulingPolicy

__all__ = [
    "EXPERIMENT4",
    "MembershipSummary",
    "DegradedRun",
    "degradation_config",
    "experiment4_base_config",
    "run_degraded",
    "checkpoint_degraded",
    "resume_degraded",
]

def experiment4_base_config(
    *, master_seed: int = 2003, request_count: int = 600
) -> ExperimentConfig:
    """Experiment 3's configuration (GA + agents), the substrate faults act on."""
    return ExperimentConfig(
        name="experiment-4",
        policy=SchedulingPolicy.GA,
        agents_enabled=True,
        master_seed=master_seed,
        request_count=request_count,
    )


def degradation_config(
    base: ExperimentConfig,
    *,
    loss: float = 0.0,
    churn_rate: float = 0.0,
    jitter: float = 0.0,
    resilient: bool = True,
    fault_spec: Optional[FaultPlanSpec] = None,
    churn_spec: Optional[ChurnSpec] = None,
) -> ExperimentConfig:
    """One operating point's configuration.

    ``fault_spec``/``churn_spec`` override the simple ``loss``/``jitter``/
    ``churn_rate`` knobs when a richer plan (link faults, partitions,
    custom downtime) is wanted.  ``resilient=False`` keeps the paper's
    fire-and-forget protocol — the ablation every resilient point is
    measured against.
    """
    faults = (
        fault_spec
        if fault_spec is not None
        else FaultPlanSpec(drop_probability=loss, latency_jitter=jitter)
    )
    churn = churn_spec
    if churn is None and churn_rate > 0:
        churn = ChurnSpec(rate=churn_rate)
    if resilient:
        # The registry TTL tracks the advertisement cadence: a crashed
        # neighbour stops attracting forwards three missed pulls after its
        # last advert.
        resilience = ResilienceConfig(
            enabled=True, registry_ttl=3.0 * base.pull_interval
        )
    else:
        resilience = ResilienceConfig()
    mode = "resilient" if resilient else "no-retry"
    return replace(
        base,
        name=f"{base.name}-loss{faults.drop_probability:g}"
        f"-churn{(churn.rate if churn else 0.0):g}-{mode}",
        faults=faults,
        churn=churn,
        resilience=resilience,
    )


def _read_fault_plan(path: str) -> FaultPlanSpec:
    with open(path, encoding="utf-8") as handle:
        return FaultPlanSpec.from_json(handle.read())


def _cells(options: Mapping[str, Any]) -> List[Cell]:
    """One cell per (loss, churn) pair; a ``fault_plan`` replaces the loss axis.

    Every run regenerates the base config's seeded workload, so all points
    replay the identical requests.
    """
    base = experiment4_base_config(
        master_seed=options["seed"], request_count=options["requests"]
    )
    topology = case_study_topology()
    plan = options["fault_plan"]
    losses = [plan.drop_probability] if plan is not None else options["loss"]
    return [
        Cell(
            name=f"loss{loss:g}-churn{churn:g}",
            config=base,
            topology=topology,
            params={"loss_rate": loss, "churn_rate": churn},
        )
        for churn in options["churn"]
        for loss in losses
    ]


def _contenders(options: Mapping[str, Any]) -> List[Contender]:
    def arm(resilient: bool) -> Contender:
        return Contender(
            "resilient" if resilient else "no-retry",
            lambda cell: degradation_config(
                cell.config,
                loss=cell.params["loss_rate"],
                churn_rate=cell.params["churn_rate"],
                jitter=options["jitter"],
                resilient=resilient,
                fault_spec=options["fault_plan"],
            ),
        )

    return [arm(False)] + ([] if options["no_retry"] else [arm(True)])


def _checks(result: TournamentResult) -> List[str]:
    """Full completion at zero faults; retries under loss; resilient >= ablation."""
    failures = []
    resilient = result.select(contender="resilient")
    for p in resilient or result.points:
        r = p.result
        if p["loss_rate"] == 0.0 and p["churn_rate"] == 0.0 and r.completion_rate < 1.0:
            failures.append(f"zero-fault point completed only {r.succeeded}/{r.submitted}")
    if not resilient:
        return failures
    lossy = [p for p in resilient if p["loss_rate"] > 0]
    if lossy and not any(p.result.counters.retries > 0 for p in lossy):
        failures.append("no retries observed under message loss")
    for p in resilient:
        ours, theirs = p.result.succeeded, p.baseline.result.succeeded
        if ours < theirs:
            failures.append(
                f"resilient completed {ours} < ablation {theirs} "
                f"at loss={p['loss_rate']}, churn={p['churn_rate']}"
            )
    worst = max(resilient, key=lambda p: (p["loss_rate"], p["churn_rate"]))
    ours, theirs = worst.result.succeeded, worst.baseline.result.succeeded
    if worst.result.fault_dropped > 0 and ours <= theirs:
        failures.append(
            "resilient protocol not strictly better at the worst point "
            f"({ours} vs {theirs})"
        )
    return failures


EXPERIMENT4 = Tournament(
    name="experiment4",
    help="degradation study: case-study workload under loss/churn/jitter",
    title=lambda result: "Experiment 4: degradation under injected faults — "
    + ("resilient protocol" if result.select(contender="resilient") else "no-retry baseline"),
    flags=(
        ("--requests", dict(type=int, default=600)),
        ("--seed", dict(type=int, default=2003)),
        ("--loss", dict(type=float, nargs="+", default=[0.0, 0.05, 0.1, 0.2],
                        metavar="P", help="per-message drop probabilities to sweep")),
        ("--churn", dict(type=float, nargs="+", default=[0.0, 0.25],
                         metavar="R",
                         help="fractions of (non-head) agents crashed once")),
        ("--jitter", dict(type=float, default=0.0, metavar="SECONDS",
                          help="max uniform extra latency per message")),
        ("--no-retry", dict(action="store_true",
                            help="run only the fire-and-forget ablation "
                            "(default: resilient protocol plus the ablation)")),
        ("--fault-plan", dict(type=_read_fault_plan, metavar="PATH",
                              help="JSON FaultPlanSpec replacing the --loss sweep "
                              "(link faults, partitions, ...)")),
    ),
    check_help="exit non-zero unless the robustness invariants hold (full "
    "completion at zero faults; retries under loss; resilient >= ablation "
    "everywhere)",
    cells=_cells,
    contenders=_contenders,
    columns=(
        Column("loss", lambda p: f"{p['loss_rate']:.0%}"),
        Column("churn", lambda p: f"{p['churn_rate']:.0%}"),
        COMPLETED,
        MET_DEADLINE,
        UNRESOLVED,
        Column("retries", lambda p: p.result.counters.retries),
        Column("reroutes", lambda p: p.result.counters.reroutes),
        Column("gave up", lambda p: p.result.counters.gave_up),
        Column("crashes", lambda p: p.result.crashes),
        EPSILON,
        BETA,
        Column("no-retry completed", lambda p: completed(p.baseline), paired=True),
    ),
    checks=_checks,
    passed="all robustness invariants hold",
    baseline="no-retry",
)
