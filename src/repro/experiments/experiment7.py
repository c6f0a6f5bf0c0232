"""Experiment 7 — precedence-aware vs precedence-naive DAG scheduling.

Experiments 1–6 schedule independent tasks; Experiment 7 measures the
workflow extension (:mod:`repro.tasks.graph`, :mod:`repro.tasks.workflow`)
on streams of task graphs with real data movement.  Each cell replays one
seeded workflow stream twice:

``aware``
    The precedence-aware configuration: per-node durations from the PACE
    evaluator turn into b-level priorities and distributed per-node
    deadlines (``D - (b_level - t_node)``), and eq.-(10) discovery gains
    the data-gravity term (``DiscoveryConfig.data_gravity``) so routing
    charges each candidate the staging cost of the inputs it does not
    hold.

``naive``
    The precedence-naive baseline: every node carries priority ``0.0``
    and the whole-graph deadline, and routing ignores data placement.
    Precedence is still *enforced* (the gates and transfers are part of
    the fabric, not the contender) — only the scheduling metadata is
    blind to it.

The standing cells are graph shapes × arrival processes on the §4.1
case-study grid in ``staged`` release mode (fork-join / map-reduce /
montage × uniform / poisson), plus one ``pipeline`` cell that runs the
mixed stream in ``eager`` mode on agent-less single clusters — the GA
optimising whole graphs under in-scheduler precedence constraints.

Reported per (cell × mode) point: workflow completion and deadline-SLO
rates, task counts, bytes moved across clusters (sum of ``dag.transfer``
sizes), and the §3.3 balancing metrics (ε, υ, β).  Every run is traced;
with ``check=True`` each trace additionally goes through
:func:`~repro.obs.check.check_trace`, whose ``dispatch-after-inputs``
rule proves no task started before all parent outputs arrived at its
cluster.  Workflow runs use the strict mode of
:class:`~repro.experiments.runner.Run`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.casestudy import case_study_topology
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import GridSystem, Run
from repro.experiments.scenarios import ScenarioSpec, generate_workflows
from repro.experiments.tournament import (
    BETA,
    EPSILON,
    UPSILON,
    WALL,
    Cell,
    Column,
    Contender,
    Tournament,
    TournamentResult,
)
from repro.obs import check_trace
from repro.scheduling.scheduler import SchedulingPolicy
from repro.tasks.graph import WORKFLOW_SHAPES, TaskGraph

__all__ = [
    "ARRIVALS",
    "CELLS",
    "MODES",
    "EXPERIMENT7",
    "experiment7_cells",
    "slo_regressions",
]

#: Arrival processes the standing cells sweep.
ARRIVALS: Tuple[str, ...] = ("uniform", "poisson")

#: The two contenders each cell replays.
MODES: Tuple[str, ...] = ("aware", "naive")

#: Standing cells: every shape × arrival in staged mode, plus the eager
#: single-cluster pipeline cell.
CELLS: Tuple[str, ...] = tuple(
    f"{shape}-{arrival}" for shape in WORKFLOW_SHAPES for arrival in ARRIVALS
) + ("pipeline",)

#: Background-request budget per workflow — sets the stream's span (the
#: mean workflow gap is ``_SPAN_REQUESTS / rate`` seconds), chosen so
#: consecutive graphs overlap without drowning the grid.
_SPAN_REQUESTS = 25

#: Whole-graph deadline multiplier.  Tight enough that the naive
#: baseline misses deadlines the aware contender makes; the separation
#: is asserted by ``repro.cli experiment7 --check``.
_DEADLINE_SCALE = 0.7


def experiment7_cells(
    *,
    workflow_count: int = 8,
    master_seed: int = 2003,
    cells: Sequence[str] = CELLS,
) -> List[Cell]:
    """Build the requested cells, each with one seeded workflow stream.

    Every cell lives on the case-study grid; the stream is a pure
    function of ``(cell name, workflow_count, master_seed)`` via
    :func:`~repro.experiments.scenarios.generate_workflows`.
    """
    unknown = [c for c in cells if c not in CELLS]
    if unknown:
        raise ExperimentError(f"unknown experiment-7 cells {unknown!r}")
    if workflow_count < 1:
        raise ExperimentError(
            f"workflow_count must be >= 1, got {workflow_count}"
        )
    topo = case_study_topology()
    built: List[Cell] = []
    for name in cells:
        if name == "pipeline":
            shape, arrival, release_mode = "mixed", "uniform", "eager"
        else:
            shape, arrival = name.rsplit("-", 1)
            release_mode = "staged"
        spec = ScenarioSpec(
            name=f"experiment-7-{name}",
            agent_count=len(topo.agent_names),
            request_count=workflow_count * _SPAN_REQUESTS,
            arrival=arrival,
            master_seed=master_seed,
            deadline_scale=_DEADLINE_SCALE,
            workflow_count=workflow_count,
            workflow_shape=shape,
        )
        config = ExperimentConfig(
            name=f"experiment-7-{name}",
            policy=SchedulingPolicy.GA,
            agents_enabled=(release_mode == "staged"),
            request_count=spec.request_count,
            master_seed=master_seed,
        )
        built.append(
            Cell(
                name,
                config,
                topo,
                params={"shape": shape, "arrival": arrival, "release_mode": release_mode},
                run_options={
                    "workflows": tuple(generate_workflows(spec, topo)),
                    "release_mode": release_mode,
                },
            )
        )
    return built


def _node_durations(
    system: GridSystem, graph: TaskGraph, agent_name: str
) -> Dict[str, float]:
    """Estimated seconds per node, measured on the entry agent's hardware.

    The portable estimate the coordinator's b-levels need: PACE's best
    predicted time on the cluster the graph enters at.  Where a node is
    later routed elsewhere the estimate is off by that platform's speed
    ratio — an estimate, exactly like the paper's prediction data.
    """
    platform = system.topology.platform(agent_name)
    nproc = system.topology.nproc[agent_name]
    return {
        node: system.evaluator.best_count(
            system.specs[graph.application(node)].model, platform, nproc
        )[1]
        for node in graph.node_names
    }


def _aware_config(cell: Cell) -> ExperimentConfig:
    config = replace(cell.config, name=f"{cell.config.name}-aware")
    if cell.params["release_mode"] == "staged":
        config = replace(config, discovery=replace(config.discovery, data_gravity=True))
    return config


def _measure(run: Run, options: Mapping[str, Any]) -> Dict[str, Any]:
    """Workflow-level outcomes and the DAG record counts of one traced run."""
    results = run.system.portal.results
    deadline_met = 0
    for item, workflow_id in run.started:
        completion = run.coordinator.run(workflow_id).completion_time(results)
        if completion is not None and completion <= item.deadline:
            deadline_met += 1
    records = run.system.tracer.records
    bytes_moved = 0.0
    dag_records: Dict[str, int] = {}
    for record in records:
        if record.kind.startswith("dag."):
            dag_records[record.kind] = dag_records.get(record.kind, 0) + 1
            if record.kind == "dag.transfer":
                bytes_moved += record.size
    runs = run.coordinator.runs.values()
    return {
        "workflows": len(run.started),
        "workflows_succeeded": sum(1 for r in runs if r.succeeded),
        # Whole-graph deadlines: this shadows the per-request count.
        "deadline_met": deadline_met,
        "tasks_submitted": sum(len(r.released) for r in runs),
        "tasks_succeeded": sum(len(r.sources) for r in runs),
        "bytes_moved": bytes_moved,
        "dag_records": dag_records,
        "violations": check_trace(records) if options["check"] else [],
    }


def _share(count: int, of: int) -> str:
    return f"{count}/{of} ({count / of if of else 0.0:.0%})"


def slo_regressions(result: TournamentResult) -> List[str]:
    """Cells where the aware contender loses to naive on deadline SLO."""
    out = []
    for cell in sorted({p.cell.name for p in result.points}):
        aware = result.point(cell=cell, contender="aware")["deadline_met"]
        naive = result.point(cell=cell, contender="naive")["deadline_met"]
        if aware < naive:
            out.append(f"{cell}: aware met {aware} deadlines vs naive {naive}")
    return out


def _checks(result: TournamentResult) -> List[str]:
    """Gates exercised, every workflow resolved, aware never loses on SLO."""
    failures = []
    for p in result.points:
        where = f"{p.cell.name}/{p.contender}"
        for violation in p["violations"]:
            failures.append(
                f"{where} trace violates {violation.rule} "
                f"at t={violation.t:.3f}: {violation.message}"
            )
        if not p["dag_records"].get("dag.ready"):
            failures.append(
                f"{where} run produced no dag.ready records — "
                "the precedence gates were not exercised"
            )
        if p["workflows_succeeded"] < p["workflows"]:
            failures.append(
                f"{where}: only {p['workflows_succeeded']}/"
                f"{p['workflows']} workflows completed"
            )
    for regression in slo_regressions(result):
        failures.append(f"aware lost the deadline SLO in {regression}")
    met = {
        mode: sum(p["deadline_met"] for p in result.select(contender=mode))
        for mode in MODES
    }
    if met["aware"] <= met["naive"]:
        failures.append(
            f"aware does not beat naive overall: {met['aware']} vs "
            f"{met['naive']} deadlines met"
        )
    return failures


EXPERIMENT7 = Tournament(
    name="experiment7",
    help="DAG workloads: precedence-aware vs precedence-naive "
    "scheduling across graph shapes and arrival processes",
    title="Experiment 7: precedence-aware vs naive DAG scheduling",
    flags=(
        ("--workflows", dict(type=int, default=8, metavar="N",
                             help="workflow instances per cell")),
        ("--seed", dict(type=int, default=2003)),
        ("--cells", dict(nargs="+", default=None, metavar="CELL",
                         help="which standing cells to run (default: all; see "
                         "repro.experiments.experiment7.CELLS)")),
    ),
    check_help="exit non-zero unless the workflow invariants hold (no task "
    "dispatched before its inputs arrived; every workflow resolves; aware "
    "never loses to naive on the deadline SLO and beats it overall)",
    cells=lambda o: experiment7_cells(
        workflow_count=o["workflows"], master_seed=o["seed"], cells=o["cells"] or CELLS
    ),
    contenders=lambda o: [
        Contender("aware", _aware_config, {"durations": _node_durations}),
        Contender(
            "naive", lambda cell: replace(cell.config, name=f"{cell.config.name}-naive")
        ),
    ],
    columns=(
        Column("cell", lambda p: p.cell.name),
        Column("mode", lambda p: p.contender),
        Column("workflows", lambda p: _share(p["workflows_succeeded"], p["workflows"])),
        Column("met deadline", lambda p: _share(p["deadline_met"], p["workflows"])),
        Column("tasks", lambda p: f"{p['tasks_succeeded']}/{p['tasks_submitted']}"),
        Column("bytes moved", lambda p: round(p["bytes_moved"], 1)),
        EPSILON,
        UPSILON,
        BETA,
        WALL,
    ),
    checks=_checks,
    passed="all workflow invariants hold",
    mode="strict",
    traced=lambda options: True,
    measure=_measure,
)
