"""The §4 case study: configurations, workload, runner, tables and figures."""

from repro.experiments.casestudy import (
    CASE_STUDY_PLATFORMS,
    CASE_STUDY_TREE,
    GridTopology,
    case_study_topology,
    scaled_topology,
)
from repro.experiments.config import ExperimentConfig, table2_experiments
from repro.experiments.ablations import (
    base_config,
    sweep_advertisement,
    sweep_agent_count,
    sweep_freetime_mode,
    sweep_prediction_noise,
    sweep_pull_interval,
)
from repro.experiments.export import (
    metrics_to_dict,
    records_to_csv,
    result_to_dict,
    results_to_json,
    table3_to_csv,
)
from repro.experiments.experiment4 import (
    EXPERIMENT4,
    degradation_config,
    experiment4_base_config,
)
from repro.experiments.experiment5 import EXPERIMENT5
from repro.experiments.experiment6 import (
    EXPERIMENT6,
    experiment6_cells,
    verify_clean_parity,
)
from repro.experiments.experiment7 import EXPERIMENT7
from repro.experiments.runner import (
    DegradedRun,
    ExperimentResult,
    GridSystem,
    Run,
    build_grid,
    resume,
    run_degraded,
    run_experiment,
)
from repro.experiments.tournament import Tournament
from repro.experiments.sweep import SeedSweepSummary, run_seed_sweep
from repro.experiments.tables import (
    TrendCheck,
    check_paper_trends,
    figure8_series,
    figure9_series,
    figure10_series,
    run_table3,
    table1_rows,
    validate_table1,
)
from repro.experiments.workload import WorkloadItem, generate_workload, workload_summary

__all__ = [
    "base_config",
    "sweep_advertisement",
    "sweep_agent_count",
    "sweep_freetime_mode",
    "sweep_prediction_noise",
    "sweep_pull_interval",
    "CASE_STUDY_PLATFORMS",
    "CASE_STUDY_TREE",
    "GridTopology",
    "case_study_topology",
    "scaled_topology",
    "ExperimentConfig",
    "table2_experiments",
    "metrics_to_dict",
    "records_to_csv",
    "result_to_dict",
    "results_to_json",
    "table3_to_csv",
    "EXPERIMENT4",
    "EXPERIMENT5",
    "EXPERIMENT6",
    "EXPERIMENT7",
    "degradation_config",
    "experiment4_base_config",
    "experiment6_cells",
    "verify_clean_parity",
    "DegradedRun",
    "ExperimentResult",
    "GridSystem",
    "Run",
    "build_grid",
    "resume",
    "run_degraded",
    "run_experiment",
    "Tournament",
    "SeedSweepSummary",
    "run_seed_sweep",
    "TrendCheck",
    "check_paper_trends",
    "figure8_series",
    "figure9_series",
    "figure10_series",
    "run_table3",
    "table1_rows",
    "validate_table1",
    "WorkloadItem",
    "generate_workload",
    "workload_summary",
]
