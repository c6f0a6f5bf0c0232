"""Resume-equivalence: checkpoint + restore must change *nothing*.

The correctness bar for the whole checkpoint fabric: a run snapshotted at
step T and resumed to completion must be byte-identical to the
uninterrupted run — completion records, metrics, canonical trace lines,
and the final RNG digest.  Any drift (a re-ordered dict, a re-minted
message id, an extra RNG draw) shows up here.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

import repro.net.message as message_module
from repro.errors import CheckpointError, ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.experiment4 import (
    checkpoint_degraded,
    degradation_config,
    experiment4_base_config,
    resume_degraded,
    run_degraded,
)
from repro.experiments.runner import Run, resume, run_experiment
from repro.experiments.scenarios import ScenarioSpec, generate_scenario
from repro.obs.records import canonical_lines
from repro.obs.trace import Tracer
from repro.scheduling.scheduler import SchedulingPolicy

SEEDS = (2003, 7, 11, 23, 42)
AT_STEP = 400
FAULT_COUNTERS = ("dropped_by_chance", "dropped_by_partition", "jittered", "straggled")


def strict_config(seed: int) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"ckpt-{seed}",
        policy=SchedulingPolicy.GA,
        agents_enabled=True,
        request_count=12,
        master_seed=seed,
    )


def metrics_json(metrics) -> str:
    # GridMetrics contains NaN epsilons for idle resources; dataclass
    # equality fails on NaN, JSON text comparison does not.
    return json.dumps(asdict(metrics), sort_keys=True)


def assert_equivalent(full, resumed, full_lines, combo_lines):
    assert [asdict(r) for r in full.records] == [asdict(r) for r in resumed.records]
    assert metrics_json(full.metrics) == metrics_json(resumed.metrics)
    assert full.rng_digest == resumed.rng_digest
    assert combo_lines == full_lines


class TestStrictResume:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_resume_is_byte_identical(self, seed, tmp_path):
        path = str(tmp_path / "snap.json")

        message_module.set_message_counter(0)
        tracer_full = Tracer()
        full = run_experiment(strict_config(seed), tracer=tracer_full)

        message_module.set_message_counter(0)
        tracer_pre = Tracer()
        Run(strict_config(seed), tracer=tracer_pre).snapshot_at(AT_STEP, path)
        tracer_post = Tracer()
        resumed = resume(path, mode="strict", tracer=tracer_post)

        assert_equivalent(
            full,
            resumed,
            canonical_lines(tracer_full.records),
            canonical_lines(tracer_pre.records)
            + canonical_lines(tracer_post.records),
        )

    def test_checkpointing_during_run_does_not_perturb_it(self, tmp_path):
        path = str(tmp_path / "rolling.json")
        message_module.set_message_counter(0)
        plain = run_experiment(strict_config(2003))
        message_module.set_message_counter(0)
        rolling = run_experiment(
            strict_config(2003), checkpoint_every=300, checkpoint_path=path
        )
        assert plain.rng_digest == rolling.rng_digest
        assert metrics_json(plain.metrics) == metrics_json(rolling.metrics)
        # The rolling snapshot itself must be resumable.
        message_module.set_message_counter(0)
        Run(strict_config(2003)).snapshot_at(300, path)
        resumed = resume(path, mode="strict")
        assert resumed.rng_digest == plain.rng_digest

    def test_at_step_must_be_positive(self, tmp_path):
        with pytest.raises(ExperimentError, match="at_step"):
            Run(strict_config(2003)).snapshot_at(0, str(tmp_path / "never.json"))

    def test_resume_rejects_wrong_kind(self, tmp_path):
        path = str(tmp_path / "deg.json")
        checkpoint_degraded(degraded_config(), at_step=AT_STEP, path=path)
        with pytest.raises(CheckpointError, match="kind|checkpoint"):
            resume(path, mode="strict")


class TestRetiredConfigKeys:
    def test_snapshot_with_engine_key_resumes_byte_identically(self, tmp_path):
        # Format-v2 snapshots written while the event engine was selectable
        # carry config["engine"]; the key is dropped on decode.
        from repro.checkpoint.format import read_snapshot, write_snapshot

        path = str(tmp_path / "snap.json")
        message_module.set_message_counter(0)
        tracer_full = Tracer()
        full = run_experiment(strict_config(2003), tracer=tracer_full)

        message_module.set_message_counter(0)
        tracer_pre = Tracer()
        Run(strict_config(2003), tracer=tracer_pre).snapshot_at(AT_STEP, path)
        payload = read_snapshot(path)
        payload["config"]["engine"] = "partitioned"
        write_snapshot(path, payload)
        tracer_post = Tracer()
        resumed = resume(path, mode="strict", tracer=tracer_post)

        assert_equivalent(
            full,
            resumed,
            canonical_lines(tracer_full.records),
            canonical_lines(tracer_pre.records)
            + canonical_lines(tracer_post.records),
        )


def degraded_config() -> ExperimentConfig:
    return degradation_config(
        experiment4_base_config(request_count=20),
        loss=0.2,
        churn_rate=0.25,
    )


class TestDegradedResume:
    def test_faulty_cell_resume_is_byte_identical(self, tmp_path):
        """The Experiment-4 acceptance cell: 20% loss, 25% churn."""
        path = str(tmp_path / "snap.json")
        from repro.experiments.experiment4 import run_degraded

        message_module.set_message_counter(0)
        tracer_full = Tracer()
        full = run_degraded(degraded_config(), tracer=tracer_full)

        message_module.set_message_counter(0)
        tracer_pre = Tracer()
        checkpoint_degraded(
            degraded_config(), tracer=tracer_pre, at_step=600, path=path
        )
        tracer_post = Tracer()
        resumed = resume_degraded(path, tracer=tracer_post)

        assert_equivalent(
            full.result,
            resumed.result,
            canonical_lines(tracer_full.records),
            canonical_lines(tracer_pre.records)
            + canonical_lines(tracer_post.records),
        )
        assert full.counters == resumed.counters

    def test_fault_plan_counters_survive_resume(self, tmp_path):
        """Every attribution counter of the fault plan round-trips through
        a snapshot, ``straggled`` included (a resumed grey-combo run used
        to restart it from 0)."""
        spec = ScenarioSpec(
            name="ckpt-grey", agent_count=60, request_count=40,
            chaos="grey-combo", master_seed=7,
        )
        scenario = generate_scenario(spec)

        def build() -> Run:
            return Run(
                spec.config(), scenario.topology, mode="horizon",
                workload=list(scenario.workload),
            )

        def counters(run: Run):
            plan = run.system.transport.fault_plan
            return {name: getattr(plan, name) for name in FAULT_COUNTERS}

        path = str(tmp_path / "snap.json")
        message_module.set_message_counter(0)
        full = build()
        full_result = full.execute()
        message_module.set_message_counter(0)
        build().snapshot_at(full.steps // 3, path)
        resumed = Run.from_snapshot(path)
        resumed_result = resumed.execute()

        assert resumed_result.rng_digest == full_result.rng_digest
        assert counters(resumed) == counters(full)
        assert counters(full)["straggled"] > 0 and counters(full)["jittered"] > 0

    def test_superseded_ack_timer_leaves_no_event_drift(self, tmp_path, monkeypatch):
        """An agent that forwards one request twice keeps one ack timer.

        The first forward's timer used to stay armed (and fire) without
        being in the snapshot, so a run resumed between the two forwards
        and that timer fired one event fewer than the uninterrupted run.
        """
        from repro.agents.agent import Agent
        from repro.experiments.experiment4 import run_degraded

        superseded = []
        forward = Agent.forward_request

        def counting(agent, envelope, *args, **kwargs):
            if envelope.request_id in agent._pending_acks:
                superseded.append(envelope.request_id)
            return forward(agent, envelope, *args, **kwargs)

        monkeypatch.setattr(Agent, "forward_request", counting)
        config = degradation_config(
            experiment4_base_config(master_seed=2004, request_count=40),
            loss=0.2,
            churn_rate=0.25,
        )
        path = str(tmp_path / "snap.json")
        message_module.set_message_counter(0)
        full = run_degraded(config)
        assert superseded, "the cell no longer forwards a request twice"

        message_module.set_message_counter(0)
        checkpoint_degraded(config, at_step=300, path=path)
        resumed = resume_degraded(path)
        assert resumed.steps == full.steps
        assert_equivalent(full, resumed, [], [])


def healing_cell_config() -> ExperimentConfig:
    """An Experiment-5 cell: permanent coordinator churn + grey leaves."""
    from repro.experiments.casestudy import case_study_topology
    from repro.experiments.experiment5 import experiment5_config

    return experiment5_config(
        experiment4_base_config(request_count=20),
        case_study_topology(),
        churn_rate=0.5,
        straggler_count=2,
        healing=True,
    )


class TestMidHealResume:
    """Checkpoint/restore must round-trip *during* a repair byte-identically.

    The hard state: a confirmed-dead parent, an orphaned healer with an
    in-flight ADOPT and its retry timer armed, detector leases mid-lease,
    and possibly results held by a crashed agent.  Snapshots are taken at
    several points across the run; at least one must actually land inside
    a repair window (the test fails loudly if the sweep never does, so
    the step grid can be re-tuned rather than silently passing).
    """

    # 380 and 490 land inside the two repair windows (t=18 and t=22, an
    # in-flight ADOPT each); the later points cover steady post-repair
    # state.  All must stay inside the run's phase 1: checkpoint_degraded
    # drives the run's own loop and refuses a step past the phase-1 end.
    STEPS = (380, 490, 1500, 3000)

    @staticmethod
    def snapshot_mid_heal(payload) -> bool:
        agents = payload["system"]["agents"].values()
        return any(
            state["membership"] is not None
            and state["membership"]["healer"]["pending"] is not None
            for state in agents
        )

    def test_resume_is_byte_identical_across_the_repair(self, tmp_path):
        from repro.checkpoint.format import read_snapshot
        from repro.experiments.experiment4 import run_degraded

        config = healing_cell_config()
        message_module.set_message_counter(0)
        tracer_full = Tracer()
        full = run_degraded(config, tracer=tracer_full)
        assert full.crashes > 0 and full.membership is not None

        mid_heal_hits = 0
        for at_step in self.STEPS:
            path = str(tmp_path / f"heal-{at_step}.json")
            message_module.set_message_counter(0)
            tracer_pre = Tracer()
            checkpoint_degraded(
                config, tracer=tracer_pre, at_step=at_step, path=path
            )
            mid_heal_hits += self.snapshot_mid_heal(read_snapshot(path))
            tracer_post = Tracer()
            resumed = resume_degraded(path, tracer=tracer_post)
            assert_equivalent(
                full.result,
                resumed.result,
                canonical_lines(tracer_full.records),
                canonical_lines(tracer_pre.records)
                + canonical_lines(tracer_post.records),
            )
            assert full.counters == resumed.counters
            assert full.membership == resumed.membership
        assert mid_heal_hits > 0, (
            "no snapshot landed mid-heal; re-tune STEPS to cover a repair"
        )


class TestAtStepFollowsTheRun:
    """An at-step checkpoint drives the run's own loop, phases included."""

    def test_step_past_phase_one_is_refused(self, tmp_path):
        # The uninterrupted run fires `events` events in all, so step
        # events + 1 lies past the end of phase 1.  Stepping blindly to it
        # would snapshot a world (periodics and churn still live past the
        # horizon) the uninterrupted run never enters.
        message_module.set_message_counter(0)
        tracer = Tracer()
        run_degraded(degraded_config(), tracer=tracer)
        events = sum(1 for r in tracer.records if r.kind == "sim.event")
        with pytest.raises(ExperimentError, match="phase 1"):
            checkpoint_degraded(
                degraded_config(), at_step=events + 1, path=str(tmp_path / "late.json")
            )

    def test_soak_step_past_the_end_is_refused(self, tmp_path):
        # Past the last resolution a soak would keep closing (empty)
        # windows the uninterrupted run never closes.
        message_module.set_message_counter(0)
        full = Run(soak_config(), mode="soak", window_seconds=WINDOW).execute()
        late = Run(soak_config(), mode="soak", window_seconds=WINDOW)
        with pytest.raises(ExperimentError, match="before at_step"):
            late.snapshot_at(full.steps + 1, str(tmp_path / "late.json"))


def soak_config() -> ExperimentConfig:
    return ExperimentConfig(
        name="ckpt-soak",
        policy=SchedulingPolicy.GA,
        agents_enabled=True,
        request_count=12,
        master_seed=2003,
    )


#: One configuration per run mode, all small enough for tier-1.
MODE_CONFIGS = {
    "strict": lambda: strict_config(2003),
    "horizon": degraded_config,
    "soak": soak_config,
}
WINDOW = 30.0


def explicit_workload():
    """A request stream that is *not* the config's seeded default."""
    from repro.experiments.casestudy import case_study_topology
    from repro.experiments.workload import generate_workload
    from repro.pace.workloads import paper_application_specs

    return generate_workload(
        case_study_topology().agent_names,
        paper_application_specs(),
        count=12,
        master_seed=99,
    )


@pytest.mark.parametrize("mode", sorted(MODE_CONFIGS))
class TestOneRunKind:
    """Every mode validates its hooks once and resumes with them armed."""

    def test_hooks_validated_and_kept_across_resume(self, mode, tmp_path):
        config, items = MODE_CONFIGS[mode](), explicit_workload()
        first = str(tmp_path / "first.json")
        second = str(tmp_path / "second.json")
        # Validated up front, before anything runs: no modulo-by-zero, and
        # a negative period is not silently taken as its absolute value.
        for every in (0, -3):
            with pytest.raises(ExperimentError, match="checkpoint_every"):
                Run(config, mode=mode, checkpoint_every=every, checkpoint_path=first)
        with pytest.raises(ExperimentError, match="checkpoint_path"):
            Run(config, mode=mode, checkpoint_every=10)

        message_module.set_message_counter(0)
        full = Run(config, mode=mode, workload=items, window_seconds=WINDOW).execute()
        # Any mode snapshots with an explicit workload ...
        message_module.set_message_counter(0)
        Run(config, mode=mode, workload=items, window_seconds=WINDOW).snapshot_at(
            full.steps // 3, first
        )
        # ... and a resumed run keeps rewriting its snapshot, which itself
        # resumes to the same end.
        resumed = resume(first, checkpoint_every=100, checkpoint_path=second)
        again = resume(second)
        for other in (resumed, again):
            assert_equivalent(full, other, [], [])
            assert other.windows == full.windows
            assert other.workload == items
