"""Experiment 5 — availability with a self-healing hierarchy.

Experiment 4 measured graceful degradation of the *protocol* (ACK/retry
vs fire-and-forget) under message loss and transient churn.  Experiment 5
measures the *hierarchy*: what a permanently crashed coordinator costs,
and how much of that cost the membership layer's failure detection and
deterministic re-parenting (:mod:`repro.agents.membership`,
:mod:`repro.agents.healing`) buys back.

The study is a grid of ``coordinator-churn rate × straggler count``
operating points, each run twice:

* **healing** — membership enabled with the full ADOPT/ADOPTED repair
  protocol: orphaned subtrees re-attach (eldest sibling, else
  grandparent) and replay their service advertisements, so eq.-(10)
  discovery keeps balancing load across the repaired tree;
* **static** — the ablation: the same failure detector (so performance-
  info quarantine is identical) but ``heal=False``; an orphaned subtree
  self-severs and absorbs every request locally for the rest of the run.

Coordinator crashes are permanent (the churn downtime outlives any run)
and target only agents with children — losing a leaf never orphans
anyone.  Stragglers are grey failures on leaf agents: their sends arrive
seconds late and their tasks run slower than predicted
(:class:`~repro.net.faults.StragglerFault`).  The detector thresholds are
tuned so a straggler trips *suspicion* but never *confirmation*: the
straggler-only column doubles as the false-positive probe, asserting
zero confirmed deaths when nobody actually died.

Reported per point: the request success rates (completion, and the
stricter deadline-met SLO the healing/static comparison turns on), the
§3.3 balancing metrics, detection counters (suspects / recoveries /
confirms), and the repair latency (mean seconds from confirmed death to
re-parented).  All points replay one identical seeded workload, so every
difference is attributable to the injected failures and the healing knob.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Mapping

from repro.agents.membership import MembershipConfig
from repro.agents.resilience import ResilienceConfig
from repro.errors import ExperimentError
from repro.experiments.casestudy import GridTopology, case_study_topology
from repro.experiments.config import ExperimentConfig
from repro.experiments.experiment4 import experiment4_base_config
from repro.experiments.tournament import (
    BETA,
    COMPLETED,
    EPSILON,
    MET_DEADLINE,
    Cell,
    Column,
    Contender,
    Tournament,
    TournamentResult,
)
from repro.net.faults import ChurnSpec, FaultPlanSpec, StragglerFault

__all__ = [
    "STRAGGLER_RESPONSE_DELAY",
    "STRAGGLER_SERVICE_FACTOR",
    "PERMANENT_DOWNTIME",
    "EXPERIMENT5",
    "experiment5_config",
    "healing_advantage",
    "leaf_names",
]

#: Grey-failure severity (see the detector-tuning note in
#: :class:`~repro.agents.membership.MembershipConfig`): 3 s mean response
#: delay yields worst-case heartbeat gaps of ~6.5 s — over the 6 s
#: suspicion threshold sometimes, far under the 15 s confirmation one
#: always — and a 2× service factor quietly breaks PACE predictions.
STRAGGLER_RESPONSE_DELAY = 3.0
STRAGGLER_SERVICE_FACTOR = 2.0

#: Crash "downtime" that outlives any run: coordinator deaths are
#: permanent, which is the scenario healing exists for.
PERMANENT_DOWNTIME = 1e9


def leaf_names(topology: GridTopology) -> List[str]:
    """Agents with no children, in the topology's agent order."""
    parents = {p for p in topology.parent_of.values() if p is not None}
    return [n for n in topology.agent_names if n not in parents]


def experiment5_config(
    base: ExperimentConfig,
    topology: GridTopology,
    *,
    churn_rate: float = 0.0,
    straggler_count: int = 0,
    healing: bool = True,
) -> ExperimentConfig:
    """One operating point's configuration.

    The straggler nodes are the *last* ``straggler_count`` leaves of the
    topology — deterministic, and never routing-interior agents.  Both
    arms (healing and static) run identical detection; only the repair
    protocol differs.
    """
    leaves = leaf_names(topology)
    if straggler_count > len(leaves):
        raise ExperimentError(
            f"straggler_count {straggler_count} exceeds the {len(leaves)} leaves"
        )
    stragglers = tuple(
        StragglerFault(
            node=name,
            response_delay=STRAGGLER_RESPONSE_DELAY,
            service_factor=STRAGGLER_SERVICE_FACTOR,
        )
        for name in leaves[len(leaves) - straggler_count:]
    )
    faults = FaultPlanSpec(stragglers=stragglers) if stragglers else None
    churn = (
        ChurnSpec(
            rate=churn_rate,
            downtime=PERMANENT_DOWNTIME,
            target="coordinators",
        )
        if churn_rate > 0
        else None
    )
    mode = "healing" if healing else "static"
    return replace(
        base,
        name=f"{base.name}-churn{churn_rate:g}-grey{straggler_count}-{mode}",
        faults=faults,
        churn=churn,
        resilience=ResilienceConfig(
            enabled=True, registry_ttl=3.0 * base.pull_interval
        ),
        membership=MembershipConfig(enabled=True, heal=healing),
    )


def _cells(options: Mapping[str, Any]) -> List[Cell]:
    """One cell per (churn, stragglers) pair, all replaying one seeded workload.

    Every run regenerates the base config's workload from its seed.
    """
    base = replace(
        experiment4_base_config(
            master_seed=options["seed"], request_count=options["requests"]
        ),
        name="experiment-5",
    )
    topology = case_study_topology()
    return [
        Cell(
            name=f"churn{churn:g}-grey{stragglers}",
            config=base,
            topology=topology,
            params={"churn_rate": churn, "straggler_count": stragglers},
        )
        for churn in sorted(options["churn"])
        for stragglers in sorted(options["stragglers"])
    ]


def _contenders(options: Mapping[str, Any]) -> List[Contender]:
    def arm(healing: bool) -> Contender:
        return Contender(
            "healing" if healing else "static",
            lambda cell: experiment5_config(
                cell.config,
                cell.topology,
                churn_rate=cell.params["churn_rate"],
                straggler_count=cell.params["straggler_count"],
                healing=healing,
            ),
        )

    return [arm(True), arm(False)]


def healing_advantage(
    result: TournamentResult, churn_rate: float, straggler_count: int
) -> float:
    """Deadline-met-rate delta, healing minus static, for one cell."""
    cell = dict(churn_rate=churn_rate, straggler_count=straggler_count)
    healed = result.point(contender="healing", **cell).result
    static = result.point(contender="static", **cell).result
    return healed.deadline_met_rate - static.deadline_met_rate


def _checks(result: TournamentResult) -> List[str]:
    """Healing beats static under churn; no false confirms; orphans repaired."""
    failures = []
    for p in result.points:
        m = p.result.membership
        where = f"churn={p['churn_rate']}, grey={p['straggler_count']}"
        if p.result.crashes == 0 and m.confirms > 0:
            failures.append(
                f"{m.confirms} confirmed deaths with zero crashes "
                f"({where}, healing={p.contender == 'healing'}) — false positives"
            )
        if p.contender == "healing" and m.orphaned > (
            m.adoptions_completed + m.promotions
        ):
            failures.append(
                f"unrepaired orphans at {where}: {m.orphaned} orphaned, "
                f"{m.adoptions_completed} adopted, {m.promotions} promoted"
            )
    churn_cells = sorted(
        {(p["churn_rate"], p["straggler_count"]) for p in result.points if p["churn_rate"] > 0}
    )
    for churn_rate, straggler_count in churn_cells:
        advantage = healing_advantage(result, churn_rate, straggler_count)
        if advantage <= 0:
            failures.append(
                f"healing does not beat the static hierarchy at "
                f"churn={churn_rate}, grey={straggler_count} "
                f"(deadline-SLO delta {advantage:+.1%})"
            )
    return failures


def _repair_seconds(point) -> str:
    m = point.result.membership
    return f"{m.mean_repair_seconds:.2f}" if m.repair_count else "-"


EXPERIMENT5 = Tournament(
    name="experiment5",
    help="availability study: coordinator churn x grey failures, "
    "self-healing hierarchy vs static ablation",
    title="Experiment 5: availability with a self-healing hierarchy",
    flags=(
        ("--requests", dict(type=int, default=600)),
        ("--seed", dict(type=int, default=2003)),
        ("--churn", dict(type=float, nargs="+", default=[0.0, 0.5],
                         metavar="R",
                         help="fractions of coordinators crashed permanently")),
        ("--stragglers", dict(type=int, nargs="+",
                              default=[0, 2], metavar="N",
                              help="numbers of grey (slow, not dead) leaf agents")),
    ),
    check_help="exit non-zero unless the healing invariants hold (healing "
    "strictly beats static on the deadline SLO in every churn cell; zero "
    "confirmed deaths without a crash; every orphan repaired)",
    cells=_cells,
    contenders=_contenders,
    columns=(
        Column("churn", lambda p: f"{p['churn_rate']:.0%}"),
        Column("grey", lambda p: p["straggler_count"]),
        Column("healing", lambda p: "on" if p.contender == "healing" else "off"),
        COMPLETED,
        MET_DEADLINE,
        Column("crashes", lambda p: p.result.crashes),
        Column("suspects", lambda p: p.result.membership.suspects),
        Column("confirms", lambda p: p.result.membership.confirms),
        Column("orphaned", lambda p: p.result.membership.orphaned),
        Column("repaired", lambda p: p.result.membership.adoptions_completed
               + p.result.membership.promotions),
        Column("repair (s)", _repair_seconds),
        EPSILON,
        BETA,
    ),
    checks=_checks,
    passed="all healing invariants hold",
)
