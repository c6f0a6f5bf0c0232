"""Tests for the perf-regression harness (comparison logic, not timings)."""

from __future__ import annotations

import pytest

from repro.perf import (
    DERIVED_RATIOS,
    PARALLELISM_BENCHMARKS,
    BenchResult,
    Regression,
    check_regression,
    merge_suite_doc,
    render_report,
    run_perf_cli,
    run_suite,
    select_benchmarks,
)


def doc(cpu_count=1, **values):
    """A minimal BENCH_PERF document; values are (value, higher_is_better)."""
    return {
        "meta": {"git_sha": "0" * 40, "requests": 120, "jobs": 4,
                 "machine": {"cpu_count": cpu_count}},
        "benchmarks": {
            name: {"value": value, "unit": "u", "higher_is_better": hib,
                   "detail": ""}
            for name, (value, hib) in values.items()
        },
        "derived": {},
    }


class TestCheckRegression:
    def test_no_change_passes(self):
        d = doc(throughput=(100.0, True), wall=(2.0, False))
        assert check_regression(d, d) == []

    def test_throughput_drop_flagged(self):
        base = doc(throughput=(100.0, True))
        current = doc(throughput=(70.0, True))  # 30% slower
        [regression] = check_regression(current, base)
        assert regression.name == "throughput"
        assert regression.change < -0.25
        assert "throughput" in regression.describe()

    def test_throughput_drop_within_threshold_passes(self):
        base = doc(throughput=(100.0, True))
        current = doc(throughput=(80.0, True))  # 20% slower: allowed
        assert check_regression(current, base) == []

    def test_wall_time_direction_inverted(self):
        base = doc(wall=(2.0, False))
        slower = doc(wall=(3.0, False))  # 50% more wall time: regression
        faster = doc(wall=(1.0, False))  # improvement, never flagged
        assert len(check_regression(slower, base)) == 1
        assert check_regression(faster, base) == []

    def test_improvements_never_flagged(self):
        base = doc(throughput=(100.0, True))
        current = doc(throughput=(500.0, True))
        assert check_regression(current, base) == []

    def test_new_and_removed_benchmarks_ignored(self):
        base = doc(old_metric=(100.0, True))
        current = doc(new_metric=(1.0, True))
        assert check_regression(current, base) == []

    def test_custom_threshold(self):
        base = doc(throughput=(100.0, True))
        current = doc(throughput=(90.0, True))
        assert check_regression(current, base, threshold=0.05) != []

    def test_zero_baseline_skipped(self):
        base = doc(throughput=(0.0, True))
        current = doc(throughput=(0.0, True))
        assert check_regression(current, base) == []


class TestCpuCountSkip:
    """Cross-machine comparisons of parallelism-bound benchmarks skip.

    A 1-CPU container's ≲1x ``sweep_speedup`` baseline must not fail the
    gate on a multi-core machine (or vice versa): the value measures the
    core count, not the code.  Code-bound benchmarks still gate.
    """

    def test_parallelism_benchmarks_are_the_sweep_pair(self):
        assert PARALLELISM_BENCHMARKS == {"sweep_speedup", "sweep_parallel_wall"}

    def test_skipped_when_core_counts_differ(self):
        base = doc(cpu_count=8, sweep_speedup=(3.5, True))
        current = doc(cpu_count=1, sweep_speedup=(0.85, True))  # 76% "worse"
        skipped = []
        assert check_regression(current, base, skipped=skipped) == []
        assert skipped == ["sweep_speedup"]

    def test_gated_when_core_counts_equal(self):
        base = doc(cpu_count=4, sweep_speedup=(3.5, True))
        current = doc(cpu_count=4, sweep_speedup=(0.85, True))
        skipped = []
        [regression] = check_regression(current, base, skipped=skipped)
        assert regression.name == "sweep_speedup"
        assert skipped == []

    def test_code_bound_benchmarks_gate_across_machines(self):
        base = doc(cpu_count=8, casestudy_wall=(2.0, False),
                   sweep_parallel_wall=(1.0, False))
        current = doc(cpu_count=1, casestudy_wall=(4.0, False),
                      sweep_parallel_wall=(5.0, False))
        skipped = []
        [regression] = check_regression(current, base, skipped=skipped)
        assert regression.name == "casestudy_wall"
        assert skipped == ["sweep_parallel_wall"]

    def test_missing_cpu_count_compares_normally(self):
        base = doc(cpu_count=None, sweep_speedup=(3.5, True))
        current = doc(cpu_count=4, sweep_speedup=(0.85, True))
        assert len(check_regression(current, base)) == 1

    def test_skipped_list_optional(self):
        base = doc(cpu_count=8, sweep_speedup=(3.5, True))
        current = doc(cpu_count=1, sweep_speedup=(0.85, True))
        assert check_regression(current, base) == []


class TestMergeSuiteDoc:
    """``perf --update`` folds a partial run into the committed document."""

    def test_fresh_overrides_and_rest_carries_over(self):
        existing = doc(evaluate_scalar=(500.0, True), casestudy_wall=(4.0, False))
        fresh = doc(evaluate_scalar=(520.0, True),
                    evaluate_counts=(2200.0, True))
        merged = merge_suite_doc(existing, fresh)
        assert merged["benchmarks"]["evaluate_scalar"]["value"] == 520.0
        assert merged["benchmarks"]["evaluate_counts"]["value"] == 2200.0
        assert merged["benchmarks"]["casestudy_wall"]["value"] == 4.0

    def test_derived_ratios_recomputed_from_merged_set(self):
        # The bulk numerator comes from the fresh run, the scalar
        # denominator from the existing document: the merge must still
        # produce the ratio.
        existing = doc(evaluate_scalar=(500.0, True))
        fresh = doc(evaluate_counts=(2000.0, True))
        merged = merge_suite_doc(existing, fresh)
        assert merged["derived"]["evaluate_bulk_speedup"] == 4.0

    def test_meta_comes_from_fresh(self):
        existing = doc(cpu_count=8, a=(1.0, True))
        fresh = doc(cpu_count=1, b=(1.0, True))
        merged = merge_suite_doc(existing, fresh)
        assert merged["meta"]["machine"]["cpu_count"] == 1

    def test_no_existing_document_returns_fresh(self):
        fresh = doc(a=(1.0, True))
        assert merge_suite_doc(None, fresh) is fresh
        assert merge_suite_doc({}, fresh) is fresh

    def test_zero_denominator_ratio_dropped(self):
        existing = doc(evaluate_scalar=(0.0, True))
        fresh = doc(evaluate_counts=(2000.0, True))
        merged = merge_suite_doc(existing, fresh)
        assert "evaluate_bulk_speedup" not in merged["derived"]


class TestRunPerfCliUpdate:
    """The ``--update`` flag rewrites the output file in place."""

    @staticmethod
    def fake_suite(monkeypatch, **values):
        fresh = doc(**values)
        monkeypatch.setattr("repro.perf.run_suite",
                            lambda **kwargs: dict(fresh))
        return fresh

    def test_update_merges_into_existing_output(self, tmp_path, monkeypatch):
        import json

        output = tmp_path / "BENCH_PERF.json"
        existing = doc(casestudy_wall=(4.0, False), evaluate_scalar=(500.0, True))
        output.write_text(json.dumps(existing))
        self.fake_suite(monkeypatch, evaluate_counts=(2000.0, True))
        assert run_perf_cli(str(output), update=True) == 0
        written = json.loads(output.read_text())
        assert written["benchmarks"]["casestudy_wall"]["value"] == 4.0
        assert written["benchmarks"]["evaluate_counts"]["value"] == 2000.0
        assert written["derived"]["evaluate_bulk_speedup"] == 4.0

    def test_without_update_subset_overwrites(self, tmp_path, monkeypatch):
        import json

        output = tmp_path / "BENCH_PERF.json"
        existing = doc(casestudy_wall=(4.0, False))
        output.write_text(json.dumps(existing))
        self.fake_suite(monkeypatch, ga_evolve_vectorized=(2000.0, True))
        assert run_perf_cli(str(output), update=False) == 0
        written = json.loads(output.read_text())
        assert "casestudy_wall" not in written["benchmarks"]

    def test_update_still_gates_against_prior_content(self, tmp_path, monkeypatch):
        import json

        output = tmp_path / "BENCH_PERF.json"
        existing = doc(ga_evolve_vectorized=(2000.0, True))
        output.write_text(json.dumps(existing))
        self.fake_suite(monkeypatch, ga_evolve_vectorized=(1000.0, True))  # 50% drop
        assert run_perf_cli(str(output), update=True) == 1

    def test_update_without_existing_file_writes_fresh(self, tmp_path, monkeypatch):
        import json

        output = tmp_path / "BENCH_PERF.json"
        self.fake_suite(monkeypatch, ga_evolve_vectorized=(2000.0, True))
        assert run_perf_cli(str(output), update=True) == 0
        written = json.loads(output.read_text())
        assert written["benchmarks"]["ga_evolve_vectorized"]["value"] == 2000.0


class TestSelectBenchmarks:
    """``--only SUBSTRING`` narrows the suite without running anything."""

    @staticmethod
    def names(specs):
        return [name for spec in specs for name in spec[0]]

    def test_no_filter_returns_everything(self):
        all_names = self.names(select_benchmarks(None))
        assert "ga_evolve_vectorized" in all_names
        assert "casestudy_wall" in all_names
        assert self.names(select_benchmarks([])) == all_names

    def test_vectorized_and_warmstart_in_suite(self):
        all_names = self.names(select_benchmarks(None))
        assert "ga_evolve_vectorized" in all_names
        assert "ga_warmstart_convergence" in all_names
        # One GA kernel: no derived ratio compares GA kernels any more.
        assert not any(name.startswith("ga_") for name in DERIVED_RATIOS)

    def test_ci_ga_group_gates_the_kernel(self):
        """CI's ``--only ga_`` smoke selects exactly the GA benchmarks."""
        selected = self.names(select_benchmarks(["ga_"]))
        assert selected == ["ga_evolve_vectorized", "ga_warmstart_convergence"]

    def test_substring_selects_matching_group(self):
        selected = self.names(select_benchmarks(["evaluate_"]))
        assert "evaluate_counts" in selected
        assert "evaluate_scalar" in selected  # same group, runs together
        assert "casestudy_wall" not in selected

    def test_multiple_substrings_union(self):
        selected = self.names(select_benchmarks(["casestudy", "warmstart"]))
        assert "casestudy_wall" in selected
        assert "ga_warmstart_convergence" in selected
        assert "sweep_speedup" not in selected

    def test_unmatched_filter_raises_before_running(self):
        with pytest.raises(ValueError, match="no benchmark"):
            run_suite(only=["no-such-benchmark"])


class TestRendering:
    def test_report_lists_every_benchmark(self):
        d = doc(throughput=(123.456, True), wall=(2.5, False))
        d["derived"] = {"speedup": 1.5}
        report = render_report(d)
        assert "throughput" in report
        assert "wall" in report
        assert "speedup" in report

    def test_bench_result_round_trip(self):
        result = BenchResult("x", 1.5, "s", False, "detail")
        as_json = result.to_json()
        assert as_json["value"] == 1.5
        assert as_json["higher_is_better"] is False

    def test_regression_describe_signs(self):
        regression = Regression("m", baseline=100.0, current=50.0, change=-0.5)
        assert "-50.0%" in regression.describe()
