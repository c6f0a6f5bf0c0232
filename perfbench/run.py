"""Run one benchmark workload end to end and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload casestudy_ga --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` times one panel member untraced and then with span wrappers
around every layer entry point, and reports the per-layer metrics.  The
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 only
when every output check passed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from spans import SpanRecorder, clock, grid_hook, layer_wrappers, patched
from speed import SpeedSampler, reference_interval

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"

#: Set-up is timed at least this often before the timed runs, and until
#: this much time went into it, and once more before every timed run, so
#: its median spans the whole invocation.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 0.5
SETUP_MAX_REPEATS = 25


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


class Bench:
    """One invocation: a workload, its seed, and the outcomes of its runs."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.setup_samples: List[float] = []

    def sample_setup(self) -> None:
        """Time input generation plus ``build_grid`` for member 0 once."""
        from repro.experiments.runner import build_grid
        from workloads import member_seed

        def setup() -> None:
            inputs = self.workload.inputs(member_seed(self.seed, 0))
            build_grid(inputs.config, inputs.topology)

        gc.collect()
        self.setup_samples.append(reference_interval(setup))

    def attempt(
        self, run, inputs, recorder=None, sampler=None
    ) -> Tuple[Optional[object], float]:
        """One simulation, checked; returns ``(outcome or None, wall seconds)``.

        With a *recorder* the layer entry points are wrapped in spans; with
        a *sampler* the outcome's ``ref_s`` is set.
        """
        from workloads import Capture, no_span

        capture = Capture()
        replacements = grid_hook(capture.on_build, recorder)
        span = no_span
        if recorder is not None:
            replacements += layer_wrappers(recorder)
            span = recorder.wrap
        gc.collect()
        self.attempted += 1
        try:
            with patched(replacements), sampler or nullcontext():
                t0 = clock()
                outcome = run(inputs, capture, span)
                wall = clock() - t0
        except Exception:  # a crashed run is a failed operation, not a crash
            traceback.print_exc()
            self.failed += 1
            return None, 0.0
        if sampler is not None:
            outcome.ref_s = sampler.reference_seconds(outcome.host_s, wall)
        self.check(outcome.errors)
        for defect in outcome.defects:
            print(f"KNOWN DEFECT [{self.workload.name} seed {self.seed}]: {defect}",
                  file=sys.stderr)
        return outcome, wall

    def check(self, errors: List[str]) -> None:
        if errors:
            self.failed += 1
            for error in errors[:20]:
                print(f"CHECK FAILED [{self.workload.name} seed {self.seed}]: {error}",
                      file=sys.stderr)

    def same(self, a, b, what: str) -> None:
        """Repeated runs of one seed must agree exactly."""
        if a is not None and b is not None and a.signature != b.signature:
            self.check([f"{what}: outputs differ between runs of the same seed"])


def end_to_end(bench: Bench, panel, untimed, seconds: float) -> Dict[str, float]:
    """Timed runs round-robin over *panel* until *seconds* are used.

    Every member runs at least once; without a reference run, member 0
    also runs a second time, so its seed is checked against a repeat.
    Throughput pools every timed run; the simulated metrics pool the
    first run of each member plus the *untimed* outcomes.  Set-up is
    sampled first and then before every timed run.
    """
    while len(bench.setup_samples) < SETUP_MIN_REPEATS or (
        sum(bench.setup_samples) < SETUP_MIN_SECONDS
        and len(bench.setup_samples) < SETUP_MAX_REPEATS
    ):
        bench.sample_setup()
    runs: List[object] = []
    least = len(panel) + (0 if bench.workload.has_reference else 1)
    t_start = clock()
    while True:
        k = len(runs) % len(panel)
        bench.sample_setup()
        outcome = bench.attempt(bench.workload.run, panel[k], sampler=SpeedSampler())[0]
        if outcome is None:
            return {}
        if len(runs) >= len(panel):
            bench.same(runs[k], outcome, f"member {k}")
        runs.append(outcome)
        elapsed = clock() - t_start
        if len(runs) >= least and elapsed + elapsed / len(runs) > seconds:
            break
    pooled = runs[: len(panel)] + untimed
    submitted = sum(o.submitted for o in pooled)
    responses = [r for o in pooled for r in o.responses]
    tasks = sum(o.n_tasks for o in pooled)
    return {
        "requests_per_ref_s": (
            sum(o.submitted for o in runs) / sum(o.ref_s for o in runs)
        ),
        "epsilon_s": sum(o.epsilon * o.n_tasks for o in pooled) / tasks,
        "utilisation": statistics.fmean(o.utilisation for o in pooled),
        "imbalance": statistics.fmean(o.imbalance for o in pooled),
        "deadline_met_frac": sum(o.deadline_met for o in pooled) / submitted,
        "succeeded_frac": sum(o.succeeded for o in pooled) / submitted,
        "sim_response_mean_s": statistics.fmean(responses),
        "sim_response_p90_s": percentile(responses, 90),
        "setup_s": statistics.median(bench.setup_samples),
    }


def layer_metrics(
    recorder, outcome, untraced, untraced_wall: float, traced_wall: float
):
    """Per-layer metrics of one traced run and its untraced twin."""
    own = recorder.self_times()

    def self_s(name: str) -> float:
        return own.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return own.get(name, (0.0, 0))[1]

    def total(*names: str) -> float:
        return float(sum(recorder.durations(n).sum() for n in names))

    evolve_ms = recorder.durations("scheduling.evolve") * 1000.0
    builds = recorder.durations("experiments.build_grid")
    covered = recorder.covered()
    metrics = {
        "scheduling.evolve_self_s": self_s("scheduling.evolve"),
        "scheduling.evolve_calls": calls("scheduling.evolve"),
        "scheduling.evolve_p50_ms": (
            float(np.percentile(evolve_ms, 50)) if evolve_ms.size else 0.0
        ),
        "scheduling.evolve_p90_ms": (
            float(np.percentile(evolve_ms, 90)) if evolve_ms.size else 0.0
        ),
        "scheduling.submit_self_s": self_s("scheduling.submit"),
        "pace.evaluate_self_s": self_s("pace.evaluate"),
        "pace.evaluate_calls": calls("pace.evaluate"),
        "sim.step_self_s": self_s("sim.step"),
        "net.send_self_s": self_s("net.send"),
        "agents.handle_self_s": self_s("agents.handle"),
        "agents.service_info_self_s": self_s("agents.service_info"),
        "agents.service_info_calls": calls("agents.service_info"),
        "metrics.compute_self_s": self_s("metrics.compute"),
        "experiments.driver_self_s": traced_wall - covered,
        "experiments.build_grid_s": float(builds[0]) if builds.size else 0.0,
        "obs.emit_self_s": self_s("obs.emit"),
        "obs.check_s": total("obs.check"),
        "checkpoint.write_s": total("checkpoint.write"),
        "checkpoint.restore_s": total("checkpoint.read", "checkpoint.restore_system"),
        "trace.coverage": covered / traced_wall,
        "trace.overhead": traced_wall / untraced_wall,
        "experiments.wall_requests_per_s": untraced.submitted / untraced.host_s,
    }
    metrics.update(outcome.counts)
    return metrics


def per_layer(bench: Bench, panel, seconds: float) -> Dict[str, float]:
    """Alternate untraced and traced runs of member 0; medians over the pairs."""
    inputs = panel[0]
    pairs: List[Dict[str, float]] = []
    recorder = None
    t_start = clock()
    while True:
        untraced, u_wall = bench.attempt(bench.workload.run, inputs)
        recorder = SpanRecorder()
        traced, t_wall = bench.attempt(bench.workload.run, inputs, recorder)
        if untraced is None or traced is None:
            return {}
        bench.same(untraced, traced, "traced run")
        pairs.append(layer_metrics(recorder, traced, untraced, u_wall, t_wall))
        elapsed = clock() - t_start
        if elapsed + elapsed / len(pairs) > seconds:
            break
    recorder.save(str(OUT_DIR / f"spans-{bench.workload.name}.npz"))
    return {name: statistics.median(pair[name] for pair in pairs) for name in pairs[0]}


def with_units(bench: Bench, values: Dict[str, float], declared) -> Dict[str, dict]:
    """*values* in the order and with the units ``BENCHMARK.json`` declares."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in declared})
    if missing or extra:
        bench.check([f"metrics not declared as in BENCHMARK.json: missing {missing}, "
                     f"undeclared {extra}"])
    return {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}",
              file=sys.stderr)
        return 2
    if Path(repro.__file__).resolve().parent.parent != src:
        print(f"perfbench: imported repro from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (choose from "
                     f"{', '.join(workloads.WORKLOADS)})")
    OUT_DIR.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](str(OUT_DIR))
    bench = Bench(workload, args.seed)

    panel = [
        workload.inputs(workloads.member_seed(args.seed, k))
        for k in range(workload.members)
    ]

    references = []
    if workload.has_reference:
        # A traced run times member 0 only, so only it needs a reference.
        for inputs in panel[:1] if args.trace else panel:
            references.append(bench.attempt(workload.reference, inputs)[0])
    timed = panel[: workload.timed_members]

    values: Dict[str, float] = {}
    if None not in references:
        if args.trace:
            values = per_layer(bench, timed, args.seconds)
        else:
            values = end_to_end(bench, timed, references[len(timed):], args.seconds)
            if values:
                values["peak_rss_mb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = with_units(
        bench, values, declared["per_layer" if args.trace else "end_to_end"]
    ) if values else {}
    correct = bench.failed == 0 and bool(values)
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
