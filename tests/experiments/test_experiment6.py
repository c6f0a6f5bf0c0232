"""Experiment 6 acceptance: the policy tournament is honest and anchored.

The tournament's contract, asserted on a reduced-size run of the real
grid:

* the eq10 clean-cell point is the seed path (parity verification finds
  zero divergences);
* every policy still completes the clean cell fully — alternative
  dispatch rules must not lose requests on a healthy grid;
* within a cell all policies replay one identical workload, so the cell
  builder must hand out the same request stream to clean/loss/churn;
* the structural-invariant probes run clean through the trace checker
  and actually exercise the protocols they claim to check.
"""

from __future__ import annotations

import pytest

from repro.agents.policy import POLICY_KINDS
from repro.errors import ExperimentError
from repro.experiments.experiment6 import (
    CELLS,
    EXPERIMENT6,
    PROBES,
    experiment6_cells,
    verify_clean_parity,
)

REQUESTS = 24
BURSTY_AGENTS = 24


@pytest.fixture(scope="module")
def result():
    return EXPERIMENT6.play(
        requests=REQUESTS, seed=2003, bursty_agents=BURSTY_AGENTS, check=True
    )


class TestParityAnchor:
    def test_tournament_parity_is_clean(self, result):
        # The --check verdict: clean-cell parity, completion, and probes.
        assert result.failures() == []

    def test_standalone_parity_is_clean(self):
        assert verify_clean_parity(request_count=12, master_seed=7) == []


class TestTournamentShape:
    def test_one_point_per_policy_and_cell(self, result):
        assert len(result.points) == len(POLICY_KINDS) * len(CELLS)
        seen = {(p.contender, p.cell.name) for p in result.points}
        assert seen == {(p, c) for p in POLICY_KINDS for c in CELLS}

    def test_cell_points_ordered_by_policy(self, result):
        for cell in CELLS:
            points = result.select(cell=cell)
            assert [p.contender for p in points] == list(POLICY_KINDS)

    def test_point_lookup_raises_on_unknown(self, result):
        with pytest.raises(ExperimentError, match="no point"):
            result.point(contender="eq10", cell="quiet")

    def test_every_policy_completes_the_clean_cell(self, result):
        for point in result.select(cell="clean"):
            assert point.result.completion_rate == 1.0
            assert point.result.unresolved == 0

    def test_points_account_for_every_request(self, result):
        for point in (p.result for p in result.points):
            assert point.submitted > 0
            assert (
                point.succeeded + point.failed + point.unresolved
                == point.submitted
            )
            assert point.deadline_met <= point.succeeded

    def test_render_includes_every_cell(self, result):
        table = result.render()
        for cell in CELLS:
            assert cell in table
        assert "met deadline" in table
        assert table.count("\n") >= len(result.points)


class TestCellBuilder:
    def test_case_study_cells_share_one_workload(self):
        cells = {
            c.name: c
            for c in experiment6_cells(
                request_count=REQUESTS, cells=("clean", "loss", "churn")
            )
        }
        workload = cells["clean"].run_options["workload"]
        assert workload == cells["loss"].run_options["workload"]
        assert workload == cells["churn"].run_options["workload"]
        assert cells["clean"].topology is cells["loss"].topology

    def test_bursty_cell_has_its_own_grid(self):
        clean, bursty = experiment6_cells(
            request_count=REQUESTS,
            bursty_agents=BURSTY_AGENTS,
            cells=("clean", "bursty"),
        )
        assert len(bursty.topology.agent_names) > len(
            clean.topology.agent_names
        )
        assert bursty.run_options["workload"] != clean.run_options["workload"]

    def test_unknown_cell_rejected(self):
        with pytest.raises(ExperimentError, match="unknown experiment-6"):
            experiment6_cells(cells=("clean", "calm"))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ExperimentError, match="unknown global policies"):
            EXPERIMENT6.play(requests=4, policies=("dictator",))


class TestStructuralInvariants:
    @pytest.fixture(scope="class")
    def probes(self):
        result = EXPERIMENT6.play(
            requests=40,
            seed=2003,
            cells=("clean", "churn"),
            policies=("auction", "reservation"),
            check=True,
        )
        return [result.point(contender=p, cell=c) for p, c in PROBES]

    def test_probe_traces_are_violation_free(self, probes):
        for probe in probes:
            assert probe["violations"] == []

    def test_protocols_actually_fired(self, probes):
        by_policy = {p.contender: p["protocol_records"] for p in probes}
        assert by_policy["auction"].get("auction.settle", 0) > 0
        assert by_policy["reservation"].get("resv.book", 0) > 0

    def test_probes_cover_clean_and_churn(self, probes):
        assert [(p.contender, p.cell.name) for p in probes] == [
            ("auction", "clean"),
            ("reservation", "churn"),
        ]
