"""Experiment 7 acceptance: the DAG tournament is valid and complete.

Asserted on a reduced-size run of the real grid:

* every dispatched workflow task passed the ``dispatch-after-inputs``
  trace rule (the run is checked, not trusted);
* both modes resolve every workflow in the clean cells;
* the cell builder is deterministic per seed and rejects unknown cells;
* the report renders one row per (cell, mode).
"""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.experiment7 import (
    CELLS,
    EXPERIMENT7,
    MODES,
    experiment7_cells,
    slo_regressions,
)

RUN_CELLS = ("fork-join-uniform", "pipeline")
WORKFLOWS = 3


@pytest.fixture(scope="module")
def result():
    return EXPERIMENT7.play(
        workflows=WORKFLOWS, seed=2003, cells=RUN_CELLS, check=True
    )


class TestCellBuilder:
    def test_unknown_cell_is_rejected(self):
        with pytest.raises(ExperimentError, match="unknown experiment-7 cells"):
            experiment7_cells(cells=("fork-join-hourly",))

    def test_builder_is_deterministic(self):
        first = experiment7_cells(workflow_count=2, cells=RUN_CELLS)
        second = experiment7_cells(workflow_count=2, cells=RUN_CELLS)
        assert [c.name for c in first] == list(RUN_CELLS)
        for a, b in zip(first, second):
            assert a.params["release_mode"] == b.params["release_mode"]
            a_flows, b_flows = a.run_options["workflows"], b.run_options["workflows"]
            assert [w.submit_time for w in a_flows] == [w.submit_time for w in b_flows]
            assert [w.graph().to_dict() for w in a_flows] == [
                w.graph().to_dict() for w in b_flows
            ]

    def test_pipeline_cell_is_eager_and_local(self):
        (cell,) = experiment7_cells(workflow_count=2, cells=("pipeline",))
        assert cell.params["release_mode"] == "eager"
        assert cell.config.agents_enabled is False

    def test_full_matrix_names(self):
        assert len(CELLS) == 7
        assert CELLS[-1] == "pipeline"


class TestTournamentRun:
    def test_one_point_per_cell_and_mode(self, result):
        seen = {(p.cell.name, p.contender) for p in result.points}
        assert seen == {(c, m) for c in RUN_CELLS for m in MODES}

    def test_checked_run_has_no_violations(self, result):
        assert [v for p in result.points for v in p["violations"]] == []

    def test_clean_cells_resolve_every_workflow(self, result):
        for point in result.points:
            assert point["workflows"] == WORKFLOWS
            assert point["workflows_succeeded"] == WORKFLOWS
            assert point["tasks_succeeded"] == point["tasks_submitted"]

    def test_dag_records_flow_only_in_staged_cells(self, result):
        staged = result.point(cell="fork-join-uniform", contender="aware")
        assert staged["dag_records"].get("dag.ready", 0) > 0
        assert staged["dag_records"].get("dag.transfer", 0) > 0
        assert staged["bytes_moved"] > 0
        eager = result.point(cell="pipeline", contender="aware")
        assert eager["bytes_moved"] == 0.0  # eager graphs never leave the cluster

    def test_point_accessor_rejects_unknown(self, result):
        with pytest.raises(ExperimentError, match="no point"):
            result.point(cell="fork-join-uniform", contender="psychic")

    def test_slo_regressions_structure(self, result):
        for regression in slo_regressions(result):
            cell, _ = regression.split(":", 1)
            assert cell in RUN_CELLS


class TestReporting:
    def test_render_has_one_row_per_point(self, result):
        text = result.render()
        for point in result.points:
            assert point.cell.name in text
        assert text.count("aware") >= len(RUN_CELLS)
        assert "bytes" in text or "moved" in text
