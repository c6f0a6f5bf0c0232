"""Tests for Experiment 4 — the degradation study under injected faults."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError, ValidationError
from repro.experiments.experiment4 import (
    EXPERIMENT4,
    degradation_config,
    experiment4_base_config,
    run_degraded,
)
from repro.experiments.tournament import TournamentResult
from repro.net.faults import ChurnSpec, FaultPlanSpec, LinkFault

REQUESTS = 30


@pytest.fixture(scope="module")
def grid():
    """One small degradation grid, resilient and ablation, shared by tests."""
    return EXPERIMENT4.play(requests=REQUESTS, loss=(0.0, 0.2), churn=(0.0,))


@pytest.fixture(scope="module")
def grids(grid):
    """The grid's resilient and ablation points, cell by cell."""
    return grid.select(contender="resilient"), grid.select(contender="no-retry")


def worst(points):
    """The highest-stress point (max loss, then max churn)."""
    return max(points, key=lambda p: (p["loss_rate"], p["churn_rate"]))


class TestDegradationConfig:
    def test_resilient_point(self):
        base = experiment4_base_config(request_count=10)
        cfg = degradation_config(base, loss=0.1, churn_rate=0.25)
        assert cfg.resilience.enabled
        assert cfg.resilience.registry_ttl == 3.0 * base.pull_interval
        assert cfg.faults is not None and cfg.faults.drop_probability == 0.1
        assert cfg.churn is not None and cfg.churn.rate == 0.25
        assert "resilient" in cfg.name

    def test_ablation_point_keeps_paper_protocol(self):
        cfg = degradation_config(
            experiment4_base_config(request_count=10), loss=0.1, resilient=False
        )
        assert not cfg.resilience.enabled
        assert "no-retry" in cfg.name

    def test_no_churn_below_threshold(self):
        cfg = degradation_config(
            experiment4_base_config(request_count=10), churn_rate=0.0
        )
        assert cfg.churn is None

    def test_rich_specs_override_simple_knobs(self):
        spec = FaultPlanSpec(link_faults=(LinkFault("S1", "S2", 1.0),))
        churn = ChurnSpec(rate=0.5, downtime=120.0)
        cfg = degradation_config(
            experiment4_base_config(request_count=10),
            loss=0.3,
            fault_spec=spec,
            churn_spec=churn,
        )
        assert cfg.faults == spec
        assert cfg.churn == churn


class TestRunDegraded:
    def test_zero_faults_complete_everything(self):
        cfg = degradation_config(experiment4_base_config(request_count=12))
        run = run_degraded(cfg)
        assert run.submitted == 12
        assert run.succeeded == 12
        assert run.failed == 0 and run.unresolved == 0
        assert run.counters.retries == 0 and run.counters.gave_up == 0
        assert run.fault_dropped == 0
        assert run.crashes == 0 and run.restarts == 0
        assert run.deadline_met <= run.succeeded
        assert len(run.result.records) == 12

    def test_churn_crashes_and_restarts_agents(self):
        cfg = degradation_config(
            experiment4_base_config(request_count=12), churn_rate=0.5
        )
        run = run_degraded(cfg)
        assert run.crashes > 0
        assert run.restarts == run.crashes
        assert run.submitted == 12
        assert run.succeeded >= 1


class TestExperiment4Grid:
    def test_grid_shape_and_lookup(self, grid, grids):
        resilient, ablation = grids
        for points in grids:
            assert len(points) == 2
            assert all(p.result.submitted == REQUESTS for p in points)
        assert all(p.baseline in ablation for p in resilient)
        point = grid.point(contender="resilient", loss_rate=0.2, churn_rate=0.0)
        assert point["loss_rate"] == 0.2
        assert worst(resilient) is point
        with pytest.raises(ExperimentError):
            grid.point(contender="resilient", loss_rate=0.99, churn_rate=0.0)

    def test_zero_fault_point_completes_fully(self, grid):
        for clean in grid.select(loss_rate=0.0, churn_rate=0.0):
            assert clean.result.completion_rate == 1.0
            assert clean.result.unresolved == 0
            assert clean.result.fault_dropped == 0

    def test_loss_point_exercises_the_resilience_layer(self, grid):
        lossy = grid.point(contender="resilient", loss_rate=0.2, churn_rate=0.0).result
        assert lossy.fault_dropped > 0
        assert lossy.counters.retries > 0
        assert lossy.counters.acks_received > 0

    def test_resilient_never_below_ablation(self, grids):
        resilient, _ = grids
        for point in resilient:
            twin = point.baseline.result
            assert point.result.submitted == twin.submitted
            assert point.result.succeeded >= twin.succeeded

    def test_resilient_strictly_better_under_stress(self, grids):
        # The acceptance criterion: with real message loss, retrying
        # recovers strictly more requests than fire-and-forget.
        resilient, ablation = grids
        ours, twin = worst(resilient).result, worst(ablation).result
        assert ours.fault_dropped > 0
        assert ours.succeeded > twin.succeeded


class TestRenderExperiment4:
    def test_render_with_ablation_column(self, grid):
        text = grid.render()
        assert "resilient protocol" in text
        assert "no-retry completed" in text
        assert "20%" in text
        assert f"/{REQUESTS}" in text

    def test_render_ablation_alone(self, grid, grids):
        _, ablation = grids
        text = TournamentResult(EXPERIMENT4, grid.options, ablation).render()
        assert "no-retry baseline" in text
        assert "no-retry completed" not in text

    def test_empty_result_rejected(self):
        empty = TournamentResult(EXPERIMENT4, EXPERIMENT4.options(), [])
        with pytest.raises(ValidationError):
            empty.render()
