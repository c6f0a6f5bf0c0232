"""Regenerating the paper's tables and figures.

Each public function maps onto one evaluation artefact:

* :func:`table1_rows` / :func:`validate_table1` — Table 1 (the seven
  applications' predictions on the SGIOrigin2000);
* :func:`run_table3` — runs experiments 1–3 and returns their metrics,
  the data behind Table 3 *and* Figures 8–10 (:func:`table3_jobs` pins
  them to one shared workload);
* :func:`figure8_series` / :func:`figure9_series` / :func:`figure10_series`
  — per-metric figure datasets;
* :func:`check_paper_trends` — the qualitative shape assertions listed in
  DESIGN.md §5 (who wins, in which direction, on which resources).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.casestudy import GridTopology, case_study_topology
from repro.experiments.config import ExperimentConfig, table2_experiments
from repro.experiments.parallel import ExperimentJob, run_many
from repro.experiments.runner import ExperimentResult
from repro.experiments.workload import generate_workload
from repro.metrics.balancing import GridMetrics
from repro.metrics.reporting import figure_series
from repro.pace.evaluation import EvaluationEngine
from repro.pace.hardware import SGI_ORIGIN_2000
from repro.pace.workloads import (
    APPLICATION_NAMES,
    TABLE1_DEADLINE_BOUNDS,
    TABLE1_TIMES,
    paper_application_specs,
    paper_applications,
)

__all__ = [
    "table1_rows",
    "validate_table1",
    "table3_jobs",
    "run_table3",
    "figure8_series",
    "figure9_series",
    "figure10_series",
    "TrendCheck",
    "check_paper_trends",
]


def table1_rows(max_nproc: int = 16) -> List[Tuple[str, Tuple[float, float], List[float]]]:
    """Table 1 as produced by *our* evaluation engine (not the raw data).

    Returns ``(application, deadline bounds, [t(1) ... t(max_nproc)])``
    rows; :func:`validate_table1` asserts they equal the published values.
    """
    engine = EvaluationEngine()
    rows = []
    for name, model in paper_applications().items():
        times = [
            engine.evaluate_count(model, k, SGI_ORIGIN_2000)
            for k in range(1, max_nproc + 1)
        ]
        rows.append((name, TABLE1_DEADLINE_BOUNDS[name], times))
    return rows


def validate_table1() -> None:
    """Assert the evaluation engine reproduces Table 1 exactly.

    Raises
    ------
    ExperimentError
        On any mismatch with the published values.
    """
    for name, _bounds, times in table1_rows():
        expected = list(map(float, TABLE1_TIMES[name]))
        if times != expected:
            raise ExperimentError(
                f"Table 1 mismatch for {name!r}: {times} != {expected}"
            )


def table3_jobs(
    configs: Sequence[ExperimentConfig], topology: Optional[GridTopology] = None
) -> List[ExperimentJob]:
    """*configs* as jobs pinned to one shared workload.

    The workload is generated once, from the first config's seed, and
    pinned into every job, making the experiments differ *only* in their
    load-balancing configuration, exactly as §4.1 requires.
    """
    if not configs:
        raise ExperimentError("no experiment configurations given")
    topo = topology if topology is not None else case_study_topology()
    first = configs[0]
    workload = tuple(
        generate_workload(
            topo.agent_names,
            paper_application_specs(),
            count=first.request_count,
            interval=first.request_interval,
            master_seed=first.master_seed,
        )
    )
    return [ExperimentJob(cfg, topo, workload) for cfg in configs]


def run_table3(
    *,
    master_seed: int = 2003,
    request_count: int = 600,
    topology: Optional[GridTopology] = None,
    configs: Optional[Sequence[ExperimentConfig]] = None,
    jobs: int = 1,
) -> List[ExperimentResult]:
    """Run experiments 1–3 over one shared workload; returns their results.

    *configs* defaults to the paper's three (:func:`table2_experiments`).
    The runs go through :func:`table3_jobs` to the experiment fabric;
    ``jobs > 1`` fans the (independent) experiments out over worker
    processes, and results are ordered and seed-identical either way.
    """
    cfgs = (
        list(configs)
        if configs is not None
        else table2_experiments(master_seed=master_seed, request_count=request_count)
    )
    return run_many(table3_jobs(cfgs, topology), jobs=jobs)


def figure8_series(results: Sequence[ExperimentResult]) -> Dict[str, List[float]]:
    """Fig. 8's dataset: ε per agent across experiments (seconds)."""
    return figure_series([r.metrics for r in results], "epsilon")


def figure9_series(results: Sequence[ExperimentResult]) -> Dict[str, List[float]]:
    """Fig. 9's dataset: υ per agent across experiments (percent)."""
    return figure_series([r.metrics for r in results], "upsilon")


def figure10_series(results: Sequence[ExperimentResult]) -> Dict[str, List[float]]:
    """Fig. 10's dataset: β per agent across experiments (percent)."""
    return figure_series([r.metrics for r in results], "beta")


@dataclass(frozen=True)
class TrendCheck:
    """One qualitative shape assertion and whether the results satisfy it."""

    name: str
    holds: bool
    detail: str


def check_paper_trends(results: Sequence[ExperimentResult]) -> List[TrendCheck]:
    """Evaluate the paper's qualitative conclusions against our results.

    Expects the results of experiments 1–3 in order.  These are the shape
    properties DESIGN.md §5 commits to — not absolute numbers.
    """
    if len(results) != 3:
        raise ExperimentError(f"expected 3 experiment results, got {len(results)}")
    m1, m2, m3 = (r.metrics for r in results)
    checks: List[TrendCheck] = []

    def add(name: str, holds: bool, detail: str) -> None:
        checks.append(TrendCheck(name, holds, detail))

    eps = [m.total.epsilon for m in (m1, m2, m3)]
    add(
        "epsilon-improves",
        eps[0] < eps[1] < eps[2],
        f"ε totals {[round(e) for e in eps]} (paper: -475 < -295 < 32)",
    )
    add(
        "exp1-misses-deadlines",
        eps[0] < 0,
        f"experiment 1 ε = {eps[0]:.0f}s (paper: ≈ -8 minutes)",
    )
    add(
        "exp3-meets-deadlines",
        eps[2] > 0,
        f"experiment 3 ε = {eps[2]:.0f}s (paper: +32 s)",
    )
    ups = [m.total.upsilon_percent for m in (m1, m2, m3)]
    add(
        "utilisation-improves",
        ups[0] < ups[1] < ups[2],
        f"υ totals {[round(u) for u in ups]}% (paper: 26 < 38 < 80)",
    )
    betas = [m.total.beta_percent for m in (m1, m2, m3)]
    add(
        "balance-improves",
        betas[0] < betas[1] < betas[2],
        f"β totals {[round(b) for b in betas]}% (paper: 31 < 42 < 90)",
    )
    add(
        "agents-dominate-global-balance",
        (betas[2] - betas[1]) > (betas[1] - betas[0]),
        "the agent mechanism improves grid-wide β more than the GA did",
    )
    slow = [n for n in m1.per_resource if n in ("S11", "S12")]
    if slow:
        ga_gain = min(
            m2.resource(n).epsilon - m1.resource(n).epsilon for n in slow
        )
        add(
            "ga-helps-overloaded",
            ga_gain > 0,
            f"GA improves ε on the overloaded {slow} by ≥ {ga_gain:.0f}s",
        )
    fast = [n for n in m1.per_resource if n in ("S1", "S2")]
    if fast:
        agent_gain = min(
            m3.resource(n).upsilon - m2.resource(n).upsilon for n in fast
        )
        add(
            "agents-load-fast-platforms",
            agent_gain > 0,
            f"agents raise utilisation of lightly-loaded {fast} "
            f"by ≥ {agent_gain * 100:.0f} points",
        )
    return checks
