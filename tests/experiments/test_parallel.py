"""Tests for the process-parallel experiment fabric.

The load-bearing property is *determinism*: a parallel run must be
result-for-result identical to the sequential loop it replaces.  Grid
metrics legitimately contain NaN for resources that received no tasks at
tiny workloads, and NaN breaks dataclass ``==``, so equality is asserted
via ``repr`` (byte-identical rendering, NaN included).
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ExperimentError
from repro.experiments.ablations import base_config
from repro.experiments.parallel import (
    ExperimentJob,
    job_key,
    merge_cache_stats,
    run_many,
)
from repro.experiments.sweep import run_seed_sweep
from repro.experiments.tables import run_table3
from repro.pace.cache import CacheStats

#: Small enough to keep worker runs cheap; big enough to exercise the GA.
REQUESTS = 8


def same_result(a, b) -> bool:
    """Field-for-field equality, tolerating NaN inside the metrics."""
    return (
        repr(a.metrics) == repr(b.metrics)
        and a.records == b.records
        and a.workload == b.workload
        and a.agent_stats == b.agent_stats
        and a.cache_stats == b.cache_stats
        and a.messages_sent == b.messages_sent
        and a.rejected_count == b.rejected_count
    )


class TestRunMany:
    def test_empty_is_empty(self):
        assert run_many([]) == []

    def test_bad_jobs_rejected(self):
        with pytest.raises(ExperimentError):
            run_many([ExperimentJob(base_config(REQUESTS))], jobs=0)

    def test_sequential_matches_run_experiment(self):
        from repro.experiments.runner import run_experiment

        cfg = base_config(REQUESTS)
        [result] = run_many([ExperimentJob(cfg)], jobs=1)
        assert same_result(result, run_experiment(cfg))

    def test_parallel_matches_sequential_in_order(self):
        jobs = [
            ExperimentJob(base_config(REQUESTS, name=f"v{i}", master_seed=seed))
            for i, seed in enumerate((2003, 2004, 2005))
        ]
        sequential = run_many(jobs, jobs=1)
        parallel = run_many(jobs, jobs=2)
        assert len(parallel) == len(sequential)
        for seq, par in zip(sequential, parallel):
            assert par.config == seq.config  # submission order preserved
            assert same_result(par, seq)


class TestWorkerClamp:
    """``jobs`` is an upper bound: the pool never exceeds cores or work.

    Oversubscribing a box with more processes than cores only adds
    scheduler churn (the committed ``sweep_speedup < 1`` on a 1-CPU
    runner is that failure mode), and a clamp that lands on one worker
    must short-circuit to the in-process path — no pool, no pickling.
    """

    class FakePool:
        """Records ``max_workers`` and runs submissions inline."""

        created: list = []

        def __init__(self, max_workers=None, mp_context=None):
            TestWorkerClamp.FakePool.created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            value = fn(*args)

            class Done:
                def result(self):
                    return value

            return Done()

    @pytest.fixture(autouse=True)
    def reset_fake(self):
        self.FakePool.created = []

    def jobs_list(self, count):
        return [
            ExperimentJob(base_config(REQUESTS, name=f"c{i}", master_seed=2003 + i))
            for i in range(count)
        ]

    def test_one_cpu_short_circuits_to_sequential(self, monkeypatch):
        monkeypatch.setattr("repro.experiments.parallel.os.cpu_count", lambda: 1)
        monkeypatch.setattr(
            "repro.experiments.parallel.ProcessPoolExecutor", self.FakePool
        )
        results = run_many(self.jobs_list(2), jobs=4)
        assert len(results) == 2
        assert self.FakePool.created == []  # no pool was built

    def test_single_pending_job_never_builds_a_pool(self, monkeypatch):
        monkeypatch.setattr("repro.experiments.parallel.os.cpu_count", lambda: 8)
        monkeypatch.setattr(
            "repro.experiments.parallel.ProcessPoolExecutor", self.FakePool
        )
        [result] = run_many(self.jobs_list(1), jobs=4)
        assert self.FakePool.created == []

    def test_workers_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.setattr("repro.experiments.parallel.os.cpu_count", lambda: 2)
        monkeypatch.setattr(
            "repro.experiments.parallel.ProcessPoolExecutor", self.FakePool
        )
        results = run_many(self.jobs_list(3), jobs=16)
        assert len(results) == 3
        assert self.FakePool.created == [2]

    def test_workers_clamped_to_pending_jobs(self, monkeypatch):
        monkeypatch.setattr("repro.experiments.parallel.os.cpu_count", lambda: 8)
        monkeypatch.setattr(
            "repro.experiments.parallel.ProcessPoolExecutor", self.FakePool
        )
        results = run_many(self.jobs_list(2), jobs=16)
        assert len(results) == 2
        assert self.FakePool.created == [2]


class TestManifest:
    """Crash-resumable sweeps: completed jobs are reloaded, not re-run."""

    def jobs(self):
        return [
            ExperimentJob(base_config(REQUESTS, master_seed=seed))
            for seed in (2003, 2004)
        ]

    def test_job_key_is_stable_and_discriminating(self):
        a, b = self.jobs()
        assert job_key(a) == job_key(a)
        assert job_key(a) != job_key(b)

    def test_second_invocation_reuses_results(self, tmp_path):
        import os

        first = run_many(self.jobs(), manifest_dir=str(tmp_path))
        manifest = tmp_path / "manifest.jsonl"
        assert manifest.exists()
        assert len(manifest.read_text().splitlines()) == 2
        before = os.stat(manifest).st_mtime_ns
        second = run_many(self.jobs(), manifest_dir=str(tmp_path))
        # Nothing re-ran, so nothing was appended.
        assert os.stat(manifest).st_mtime_ns == before
        assert all(same_result(a, b) for a, b in zip(first, second))

    def test_partial_manifest_runs_only_missing_jobs(self, tmp_path):
        first = run_many(self.jobs(), manifest_dir=str(tmp_path))
        manifest = tmp_path / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        # Simulate a crash that lost the second job's manifest entry.
        manifest.write_text(lines[0] + "\n")
        second = run_many(self.jobs(), manifest_dir=str(tmp_path))
        assert all(same_result(a, b) for a, b in zip(first, second))
        assert len(manifest.read_text().splitlines()) == 2

    def test_unreadable_result_is_rerun(self, tmp_path):
        import json

        first = run_many(self.jobs(), manifest_dir=str(tmp_path))
        manifest = tmp_path / "manifest.jsonl"
        entry = json.loads(manifest.read_text().splitlines()[0])
        (tmp_path / entry["result"]).write_bytes(b"not a pickle")
        second = run_many(self.jobs(), manifest_dir=str(tmp_path))
        assert all(same_result(a, b) for a, b in zip(first, second))

    def test_results_keep_submission_order(self, tmp_path):
        # Reloaded and freshly run results interleave in input order.
        jobs = self.jobs()
        run_many([jobs[1]], manifest_dir=str(tmp_path))
        results = run_many(jobs, manifest_dir=str(tmp_path))
        assert [r.config.master_seed for r in results] == [2003, 2004]


class TestExperimentJob:
    def test_pickle_round_trip(self):
        from repro.experiments.casestudy import case_study_topology
        from repro.experiments.workload import generate_workload
        from repro.pace.workloads import paper_application_specs

        topo = case_study_topology()
        workload = tuple(
            generate_workload(
                topo.agent_names, paper_application_specs(), count=REQUESTS
            )
        )
        job = ExperimentJob(base_config(REQUESTS), topo, workload)
        clone = pickle.loads(pickle.dumps(job))
        assert clone.config == job.config
        assert clone.workload == job.workload
        # The catalogue compares by identity; the topology's declarative
        # fields are what the worker actually consumes.
        assert clone.topology.platforms == topo.platforms
        assert clone.topology.parent_of == topo.parent_of
        assert clone.topology.nproc == topo.nproc


class TestSweepParallel:
    def test_seed_sweep_jobs4_equals_jobs1(self):
        seeds = [2003, 2004]
        sequential = run_seed_sweep(seeds, request_count=REQUESTS, jobs=1)
        parallel = run_seed_sweep(seeds, request_count=REQUESTS, jobs=4)
        assert parallel.trend_support == sequential.trend_support
        assert repr(parallel.totals) == repr(sequential.totals)
        for seed in seeds:
            for seq, par in zip(sequential.per_seed[seed], parallel.per_seed[seed]):
                assert same_result(par, seq)

    def test_table3_jobs_equals_sequential(self):
        sequential = run_table3(request_count=REQUESTS, jobs=1)
        parallel = run_table3(request_count=REQUESTS, jobs=2)
        for seq, par in zip(sequential, parallel):
            assert same_result(par, seq)


class TestHelpers:
    def test_merge_cache_stats(self):
        class FakeResult:
            def __init__(self, stats):
                self.cache_stats = stats

        merged = merge_cache_stats(
            [
                FakeResult(CacheStats(hits=3, misses=2, evictions=1)),
                FakeResult(CacheStats(hits=5, misses=1, evictions=0)),
            ]
        )
        assert merged == CacheStats(hits=8, misses=3, evictions=1)

    def test_sweep_summary_cache_stats(self):
        summary = run_seed_sweep([2003], request_count=REQUESTS, jobs=1)
        stats = summary.cache_stats()
        assert stats.requests > 0
        assert stats == merge_cache_stats(summary.per_seed[2003])
