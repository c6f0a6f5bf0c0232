"""Experiment 6 — the standing global-policy tournament.

Experiments 1–3 fixed the *global* dispatch rule to the paper's eq. (10)
and varied the local scheduler; Experiments 4–5 stressed the fabric and
the hierarchy under that same rule.  Experiment 6 makes the dispatch rule
itself the variable: every :data:`~repro.agents.policy.POLICY_KINDS`
policy — ``eq10`` (the paper), ``auction`` (contract-net CFP/bid), and
``reservation`` (advance freetime-window booking) — runs the identical
seeded workload across four standing cells:

* **clean** — the §4.1 case-study grid, no faults.  The eq10 point of
  this cell is the parity anchor: it must be byte-identical to a run of
  the default configuration (the pre-policy-layer seed behaviour), which
  :func:`verify_clean_parity` asserts on traces, metrics, and RNG digests.
* **loss** — 20 % per-message drop with the resilient protocol, probing
  how each policy's extra round trips (bids, reservations) survive loss.
* **bursty** — a generated MMPP scenario on a larger grid
  (:mod:`repro.experiments.scenarios`), probing behaviour when arrivals
  cluster far above the mean rate.
* **churn** — half the coordinators crash permanently with healing on,
  probing each policy's release/settlement paths on confirmed death.

Reported per (policy × cell) point: completion and deadline-SLO rates
and the §3.3 balancing metrics (ε, υ, β).  Every cell replays one
identical workload across the three policies, so within a cell every
difference is attributable to the dispatch rule alone.

With ``--check`` every point runs traced: the auction point of the clean
cell and the reservation point of the churn cell (:data:`PROBES`) must
pass :func:`~repro.obs.check.check_trace` (which enforces every-auction-
settles-or-times-out, no-double-booked-windows, and reservations-
released-on-confirmed-death) and actually exercise their protocol (at
least one settle, at least one booking).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, replace
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import repro.net.message as message_module
from repro.agents.policy import POLICY_KINDS, GlobalPolicyConfig
from repro.errors import ExperimentError
from repro.experiments.casestudy import case_study_topology
from repro.experiments.experiment4 import (
    degradation_config,
    experiment4_base_config,
    run_degraded,
)
from repro.experiments.experiment5 import experiment5_config
from repro.experiments.runner import Run
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
from repro.experiments.tournament import (
    BETA,
    COMPLETED,
    EPSILON,
    MET_DEADLINE,
    UNRESOLVED,
    UPSILON,
    WALL,
    Cell,
    Column,
    Contender,
    Tournament,
    TournamentResult,
)
from repro.experiments.workload import generate_workload
from repro.obs import MemorySink, Tracer, canonical_lines, check_trace
from repro.pace.workloads import paper_application_specs
from repro.scheduling.scheduler import SchedulingPolicy

__all__ = [
    "CELLS",
    "DEFAULT_BURSTY_AGENTS",
    "LOSS_RATE",
    "CHURN_RATE",
    "EXPERIMENT6",
    "PROBES",
    "experiment6_cells",
    "verify_clean_parity",
]

#: The standing cells, in tournament order.
CELLS: Tuple[str, ...] = ("clean", "loss", "bursty", "churn")

#: Loss cell severity — the worst point of Experiment 4's default grid.
LOSS_RATE = 0.2
#: Churn cell severity — Experiment 5's default coordinator-churn rate.
CHURN_RATE = 0.5
#: The structural-invariant probes of ``--check``: (policy, cell) → the
#: record kind proving the run exercised that policy's protocol.
PROBES = {("auction", "clean"): "auction.settle", ("reservation", "churn"): "resv.book"}
#: Bursty cell grid size.  Five times the case study, small enough that
#: the full 3-policy tournament stays interactive.
DEFAULT_BURSTY_AGENTS = 60


def experiment6_cells(
    *,
    request_count: int = 600,
    master_seed: int = 2003,
    bursty_agents: int = DEFAULT_BURSTY_AGENTS,
    cells: Sequence[str] = CELLS,
) -> List[Cell]:
    """Build the requested cells, each with one seeded shared workload.

    The clean/loss/churn cells share the case-study topology and one
    workload; the bursty cell generates its own larger grid and MMPP
    request stream (same master seed, so the whole tournament is one
    deterministic function of ``(request_count, master_seed,
    bursty_agents)``).  Each cell's config still carries the *default*
    global policy; the contenders stamp theirs in.
    """
    unknown = [c for c in cells if c not in CELLS]
    if unknown:
        raise ExperimentError(f"unknown experiment-6 cells {unknown!r}")
    base = replace(
        experiment4_base_config(master_seed=master_seed, request_count=request_count),
        name="experiment-6",
    )
    topo = case_study_topology()
    workload = generate_workload(
        topo.agent_names,
        paper_application_specs(),
        count=base.request_count,
        interval=base.request_interval,
        master_seed=base.master_seed,
    )
    built: List[Cell] = []
    for cell in cells:
        if cell == "bursty":
            scenario = generate_scenario(
                ScenarioSpec(
                    name="experiment-6-bursty",
                    agent_count=bursty_agents,
                    request_count=request_count,
                    arrival="mmpp",
                    master_seed=master_seed,
                )
            )
            # FIFO locally, like every scale-tier run: the bursty cell
            # measures the dispatch rule under load spikes, not the GA.
            config = scenario.spec.config(policy=SchedulingPolicy.FIFO)
            built.append(
                Cell("bursty", config, scenario.topology,
                     run_options={"workload": scenario.workload})
            )
            continue
        if cell == "clean":
            config = replace(base, name=f"{base.name}-clean")
        elif cell == "loss":
            config = degradation_config(base, loss=LOSS_RATE, resilient=True)
        else:
            config = experiment5_config(base, topo, churn_rate=CHURN_RATE, healing=True)
        built.append(Cell(cell, config, topo, run_options={"workload": workload}))
    return built


def _contenders(options: Mapping[str, Any]) -> List[Contender]:
    unknown = [p for p in options["policies"] if p not in POLICY_KINDS]
    if unknown:
        raise ExperimentError(f"unknown global policies {unknown!r}")

    def arm(kind: str) -> Contender:
        return Contender(
            kind,
            lambda cell: replace(
                cell.config,
                name=f"{cell.config.name}-{kind}",
                global_policy=GlobalPolicyConfig(kind=kind),
            ),
        )

    return [arm(kind) for kind in POLICY_KINDS if kind in options["policies"]]


def _measure(run: Run, options: Mapping[str, Any]) -> Dict[str, Any]:
    """Protocol record counts and checker violations of a traced point."""
    if run.system.tracer is None:
        return {}
    records = run.system.tracer.records
    return {
        "protocol_records": dict(
            Counter(r.kind for r in records if r.kind.startswith(("auction.", "resv.")))
        ),
        "violations": check_trace(records),
    }


def _checks(result: TournamentResult) -> List[str]:
    """eq10 clean-cell parity, full clean-cell completion, clean probe traces."""
    options = result.options
    failures = []
    if "clean" in options["cells"]:
        failures += [
            f"eq10 clean cell is not the seed path: {mismatch}"
            for mismatch in verify_clean_parity(
                request_count=options["requests"], master_seed=options["seed"]
            )
        ]
    for p in result.select(cell="clean"):
        if p.result.completion_rate < 1.0:
            failures.append(
                f"clean cell incomplete under {p.contender}: "
                f"{p.result.succeeded}/{p.result.submitted}"
            )
    for (policy, cell), kind in PROBES.items():
        for p in result.select(contender=policy, cell=cell):
            for violation in p["violations"]:
                failures.append(
                    f"{policy}/{cell} trace violates {violation.rule} "
                    f"at t={violation.t:.3f}: {violation.message}"
                )
            if not p["protocol_records"].get(kind):
                failures.append(
                    f"{policy}/{cell} run never produced a {kind} record — "
                    "the protocol was not exercised"
                )
    return failures


EXPERIMENT6 = Tournament(
    name="experiment6",
    help="global-policy tournament: eq10 vs auction vs reservation "
    "across clean/loss/bursty/churn cells",
    title="Experiment 6: global-policy tournament",
    flags=(
        ("--requests", dict(type=int, default=120)),
        ("--seed", dict(type=int, default=2003)),
        ("--bursty-agents", dict(type=int, default=DEFAULT_BURSTY_AGENTS,
                                 metavar="N",
                                 help="grid size of the generated MMPP bursty cell")),
        ("--policies", dict(nargs="+", default=list(POLICY_KINDS),
                            choices=POLICY_KINDS, metavar="KIND",
                            help="which global policies to enter")),
        ("--cells", dict(nargs="+", default=list(CELLS), choices=CELLS,
                         metavar="CELL", help="which standing cells to run")),
    ),
    check_help="exit non-zero unless the policy invariants hold (eq10 clean "
    "cell byte-identical to the seed path; every auction settles or times "
    "out; no double-booked reservation windows; reservations released on "
    "confirmed death)",
    cells=lambda o: experiment6_cells(
        request_count=o["requests"],
        master_seed=o["seed"],
        bursty_agents=o["bursty_agents"],
        cells=o["cells"],
    ),
    contenders=_contenders,
    columns=(
        Column("cell", lambda p: p.cell.name),
        Column("policy", lambda p: p.contender),
        COMPLETED,
        MET_DEADLINE,
        UNRESOLVED,
        EPSILON,
        UPSILON,
        BETA,
        WALL,
    ),
    checks=_checks,
    passed="all policy invariants hold",
    traced=lambda options: options["check"],
    measure=_measure,
)


# ------------------------------------------------------------ verification


def verify_clean_parity(
    *, request_count: int = 120, master_seed: int = 2003
) -> List[str]:
    """Assert the clean-cell eq10 point ≡ the pre-policy seed behaviour.

    Runs the clean cell twice — once with the default configuration (the
    seed path) and once with an *explicitly* selected ``eq10`` policy
    carrying non-default timeouts (which eq10 must ignore) — and compares
    the canonical trace, the balancing metrics, the message counters, and
    the RNG digest.  Returns the list of divergences; byte-identity means
    an empty list.
    """
    (cell,) = experiment6_cells(
        request_count=request_count, master_seed=master_seed, cells=("clean",)
    )
    baseline_cfg = replace(cell.config, global_policy=GlobalPolicyConfig())
    explicit_cfg = replace(
        cell.config,
        global_policy=GlobalPolicyConfig(
            kind="eq10", bid_timeout=7.5, reservation_timeout=11.0
        ),
    )
    runs = []
    for config in (baseline_cfg, explicit_cfg):
        message_module.set_message_counter(0)
        tracer = Tracer(MemorySink())
        result = run_degraded(
            config, cell.topology, workload=cell.run_options["workload"], tracer=tracer
        )
        runs.append((result, canonical_lines(tracer.records)))
    (base_run, base_lines), (expl_run, expl_lines) = runs
    mismatches: List[str] = []
    if base_lines != expl_lines:
        first = next(
            (
                i
                for i, (a, b) in enumerate(zip(base_lines, expl_lines))
                if a != b
            ),
            min(len(base_lines), len(expl_lines)),
        )
        mismatches.append(
            f"trace diverges at record {first} "
            f"({len(base_lines)} vs {len(expl_lines)} records)"
        )
    # Serialise before comparing: NaN cells (idle resources in short
    # runs) are equal as JSON text but never as floats.
    base_metrics = json.dumps(asdict(base_run.metrics), sort_keys=True)
    expl_metrics = json.dumps(asdict(expl_run.metrics), sort_keys=True)
    if base_metrics != expl_metrics:
        mismatches.append("balancing metrics differ")
    for field in (
        "submitted", "succeeded", "failed", "deadline_met",
        "messages_sent", "messages_delivered", "rng_digest",
    ):
        a, b = getattr(base_run, field), getattr(expl_run, field)
        if a != b:
            mismatches.append(f"{field} differs: {a} vs {b}")
    return mismatches
