"""The performance-regression harness behind ``BENCH_PERF.json``.

The suite times the hot kernels this codebase optimises:

* ``ga_evolve_vectorized`` — generations/second of
  :meth:`~repro.scheduling.ga.GAScheduler.evolve`, the GA kernel of
  :mod:`repro.scheduling.vectorized`, on a case-study-shaped population
  (12 tasks, 16 nodes, population 50).
* ``ga_warmstart_convergence`` — generation-budget saving of the
  list-scheduling warm start: how many fewer generations the seeded
  population needs to match a cold run's final best cost.
* ``evaluate_scalar`` / ``evaluate_counts`` — warm-cache evaluation
  calls/second of the per-count scalar loop versus the bulk
  :meth:`~repro.pace.evaluation.EvaluationEngine.evaluate_counts` path.
* ``casestudy_wall`` — wall seconds for experiments 1–3 over the scaled
  case-study workload (``REPRO_BENCH_REQUESTS``, default 120).
* ``sweep_speedup`` — parallel-over-sequential speedup of a four-seed
  :func:`~repro.experiments.sweep.run_seed_sweep` on the experiment
  fabric.
* ``engine_events_per_s`` — events/second of the lane-partitioned engine
  on a 1000-lane self-rescheduling timer workload (the event pattern a
  1000-agent grid produces).
* ``engine_event_alloc`` — Event+Message allocations/second, the
  ``__slots__`` hot-path win.
* ``scale_grid_1000`` — completed requests/second of a full generated
  1000-agent scenario (FIFO policy, Poisson arrivals) end to end through
  ``build_grid``/``run_experiment`` (``REPRO_BENCH_SCALE_REQUESTS``,
  default 200).

Results are written as JSON with machine info and the git SHA so numbers
are attributable; :func:`check_regression` compares two such documents
direction-aware (each benchmark declares whether higher is better) and
reports every metric that got more than ``threshold`` worse.
Parallelism-bound comparisons (``sweep_speedup``/``sweep_parallel_wall``)
are skipped — and reported as skipped — when the two documents were
measured on machines with different ``cpu_count``: a pool's speedup is a
property of the core count, not the code.

Entry points: ``python -m repro.cli perf [--only SUBSTRING]`` or
``python benchmarks/perf/run_perf.py``; see docs/performance.md.
"""

from __future__ import annotations

import gc
import json
import os
import platform as platform_module
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

__all__ = [
    "BenchResult",
    "Regression",
    "PARALLELISM_BENCHMARKS",
    "run_suite",
    "select_benchmarks",
    "merge_suite_doc",
    "check_regression",
    "render_report",
    "run_perf_cli",
]

#: Workload scale for the case-study and sweep benchmarks.
BENCH_REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", "120"))

#: Workload scale for the 1000-agent scenario benchmark.
BENCH_SCALE_REQUESTS = int(os.environ.get("REPRO_BENCH_SCALE_REQUESTS", "200"))

#: Regression threshold: a metric more than this fraction worse than the
#: committed baseline fails the run.
DEFAULT_THRESHOLD = 0.25

#: Benchmarks whose value measures the machine's parallelism rather than
#: the code: comparing them across documents with different
#: ``meta.machine.cpu_count`` gates on hardware, so the regression check
#: skips (and reports) them when core counts differ.
PARALLELISM_BENCHMARKS = frozenset({"sweep_speedup", "sweep_parallel_wall"})


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's outcome."""

    name: str
    value: float
    unit: str
    higher_is_better: bool
    detail: str = ""

    def to_json(self) -> Dict:
        return {
            "value": self.value,
            "unit": self.unit,
            "higher_is_better": self.higher_is_better,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Regression:
    """One metric that got worse than the threshold allows."""

    name: str
    baseline: float
    current: float
    change: float  # signed fraction; negative = worse

    def describe(self) -> str:
        return (
            f"{self.name}: {self.baseline:.4g} -> {self.current:.4g} "
            f"({self.change:+.1%})"
        )


# ------------------------------------------------------------------ kernels


def _make_ga(warmstart_count: Optional[int] = None):
    """A GA over the paper's applications, mirroring the case-study setup.

    12 tasks on a 16-node SGIOrigin2000, default ``GAConfig`` apart from
    *warmstart_count* when given.
    """
    from repro.pace.evaluation import EvaluationEngine
    from repro.pace.hardware import SGI_ORIGIN_2000
    from repro.pace.workloads import paper_applications
    from repro.scheduling.ga import GAConfig, GAScheduler

    engine = EvaluationEngine()
    models = list(paper_applications().values())
    rows = [
        engine.evaluate_counts(model, SGI_ORIGIN_2000, 16) for model in models
    ]
    config = (
        GAConfig()
        if warmstart_count is None
        else GAConfig(warmstart_count=warmstart_count)
    )
    ga = GAScheduler(
        16,
        lambda tid, k: float(rows[tid % len(rows)][k - 1]),
        np.random.default_rng(2003),
        config,
        duration_row=lambda tid: rows[tid % len(rows)],
    )
    for tid in range(12):
        ga.add_task(tid, deadline=600.0 + 40.0 * tid)
    return ga


def bench_ga_evolve(generations: int = 25, repeats: int = 5) -> BenchResult:
    """Generations/second of ``evolve``.

    Best-of-*repeats* chunks of *generations* each (generations are
    homogeneous in cost, so the fastest chunk is the least-noisy sample).
    The name keeps its historical ``_vectorized`` suffix so committed
    baselines stay comparable.
    """
    free = [0.0] * 16
    ga = _make_ga()
    ga.evolve(3, free, 0.0)  # warm-up: population allocation, caches
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        ga.evolve(generations, free, 0.0)
        best = min(best, time.perf_counter() - start)
    return BenchResult(
        name="ga_evolve_vectorized",
        value=generations / best,
        unit="generations/s",
        higher_is_better=True,
        detail=f"best of {repeats}x{generations} generations, "
        "12 tasks, 16 nodes, pop 50",
    )


def bench_ga_warmstart_convergence(generations: int = 25) -> BenchResult:
    """Generation-budget saving of the list-scheduling warm start.

    Two identical GAs (same seed, same tasks, same availability) differ
    only in ``warmstart_count``: the *cold* run (no seeds) evolves the
    full *generations* budget and its final best cost becomes the quality
    target; the *warm* run (default seeds) then evolves one generation at
    a time until it first matches that target.  The reported value is
    ``generations / generations_used`` — e.g. 5x means the seeded
    population reached the cold run's 25-gen quality in 5 generations.
    Fully seeded, so the number is deterministic on a given numpy
    version; 1.0 is the worst case (warm start never worse than cold
    under equal budgets is *not* implied — the floor simply means the
    whole budget was needed).
    """
    free = [0.0] * 16
    cold = _make_ga(warmstart_count=0)
    target = cold.evolve(generations, free, 0.0)
    warm = _make_ga()
    used = generations
    for generation in range(1, generations + 1):
        if warm.evolve(1, free, 0.0) <= target:
            used = generation
            break
    return BenchResult(
        name="ga_warmstart_convergence",
        value=generations / used,
        unit="x",
        higher_is_better=True,
        detail=f"warm start matched the cold {generations}-generation best "
        f"in {used} generations, 12 tasks, 16 nodes, pop 50",
    )


def bench_evaluate(repeats: int = 200) -> List[BenchResult]:
    """Warm-cache calls/second: scalar per-count loop vs ``evaluate_counts``."""
    from repro.pace.evaluation import EvaluationEngine
    from repro.pace.hardware import SGI_ORIGIN_2000
    from repro.pace.workloads import paper_applications

    engine = EvaluationEngine()
    models = list(paper_applications().values())
    max_nproc = 16
    for model in models:  # warm the cache: realistic steady state
        engine.evaluate_counts(model, SGI_ORIGIN_2000, max_nproc)

    start = time.perf_counter()
    for _ in range(repeats):
        for model in models:
            for k in range(1, max_nproc + 1):
                engine.evaluate_count(model, k, SGI_ORIGIN_2000)
    scalar_elapsed = time.perf_counter() - start
    n_calls = repeats * len(models) * max_nproc

    start = time.perf_counter()
    for _ in range(repeats):
        for model in models:
            engine.evaluate_counts(model, SGI_ORIGIN_2000, max_nproc)
    bulk_elapsed = time.perf_counter() - start

    detail = f"{len(models)} applications x {max_nproc} counts, warm cache"
    return [
        BenchResult("evaluate_scalar", n_calls / scalar_elapsed,
                    "evaluations/s", True, detail),
        BenchResult("evaluate_counts", n_calls / bulk_elapsed,
                    "evaluations/s", True, detail),
    ]


def bench_casestudy(requests: int) -> BenchResult:
    """Wall seconds for experiments 1–3 over one scaled workload."""
    from repro.experiments.tables import run_table3

    start = time.perf_counter()
    run_table3(request_count=requests)
    elapsed = time.perf_counter() - start
    return BenchResult(
        name="casestudy_wall",
        value=elapsed,
        unit="s",
        higher_is_better=False,
        detail=f"experiments 1-3, {requests} requests, seed 2003",
    )


def bench_sweep_speedup(requests: int, jobs: int = 4) -> List[BenchResult]:
    """Sequential and parallel wall time of a four-seed sweep; speedup."""
    from repro.experiments.sweep import run_seed_sweep

    seeds = [2003, 2004, 2005, 2006]
    start = time.perf_counter()
    run_seed_sweep(seeds, request_count=requests, jobs=1)
    sequential = time.perf_counter() - start
    start = time.perf_counter()
    run_seed_sweep(seeds, request_count=requests, jobs=jobs)
    parallel = time.perf_counter() - start
    detail = f"{len(seeds)} seeds x 3 experiments, {requests} requests, jobs={jobs}"
    return [
        BenchResult("sweep_sequential_wall", sequential, "s", False, detail),
        BenchResult("sweep_parallel_wall", parallel, "s", False, detail),
        BenchResult("sweep_speedup", sequential / parallel, "x", True, detail),
    ]


def bench_engine_events(
    n_lanes: int = 1000,
    arrivals_per_lane: int = 150,
    burst: int = 48,
    events: int = 250_000,
    warmup: int = 30_000,
    repeats: int = 6,
) -> BenchResult:
    """Events/second of the lane-partitioned engine on a 1000-lane workload.

    Per-lane request arrivals each fan out a same-instant burst of
    dispatch events.  That is the measured shape of the real simulator:
    transport latency defaults to 0.0 with asynchronous delivery, so an
    arrival's request/response/dispatch chain fires as one same-time
    cascade in the agent's lane (a probe of a generated 300-agent scenario
    put 75 % of fires inside same-``(time, lane)`` runs of ~1200 events;
    ``burst`` stays far below that, which is *conservative* — longer
    cascades favour the engine's carry path).  A ~2 % cross-lane stream
    rides in the shared default lane.  The engine pays C tuple comparisons
    on small per-lane heaps and skips the lane index entirely while a
    cascade holds the minimum; the best of ``repeats`` fresh engines is
    reported.
    """
    from repro.sim.engine import Engine
    from repro.sim.events import DEFAULT_LANE, Priority

    def noop() -> None:
        return None

    def build(engine) -> None:
        def make_arrival(view):
            sched = view.schedule

            def arrival(sched=sched, noop=noop, burst=burst):
                t = view.now
                for _ in range(burst):
                    sched(t, noop, Priority.SCHEDULING, "dispatch")

            return arrival

        for i in range(n_lanes):
            view = engine.lane_view(f"L{i:04d}")
            arrival = make_arrival(view)
            for j in range(arrivals_per_lane):
                view.schedule(
                    0.5 + j * 1.0 + (i % 97) / 97.0,
                    arrival, Priority.ARRIVAL, "arrival",
                )
        for i in range(max(1, n_lanes // 50)):
            view = engine.lane_view(DEFAULT_LANE)
            arrival = make_arrival(view)
            for j in range(40):
                view.schedule(
                    1.0 + j * 2.5 + (i % 13) / 13.0,
                    arrival, Priority.ARRIVAL, "cross",
                )

    def measure(engine) -> float:
        build(engine)
        engine.run(max_events=warmup)
        start = time.perf_counter()
        engine.run(max_events=events)
        return events / (time.perf_counter() - start)

    best = 0.0
    gc_was_enabled = gc.isenabled()
    gc.disable()  # collector pauses land unevenly across repeats
    try:
        for _ in range(repeats):
            best = max(best, measure(Engine()))
    finally:
        if gc_was_enabled:
            gc.enable()

    return BenchResult(
        "engine_events_per_s", best, "events/s", True,
        f"best of {repeats}, {events} events after {warmup} "
        f"warmup; {n_lanes} lanes x {arrivals_per_lane} arrivals, "
        f"burst {burst}, {max(1, n_lanes // 50)}x40 cross-lane",
    )


def bench_event_alloc(count: int = 200_000, repeats: int = 5) -> BenchResult:
    """Hot-path object allocations/second (the ``__slots__`` win).

    Constructs the two objects the simulator allocates per unit of work —
    an :class:`~repro.sim.events.Event` and a frozen
    :class:`~repro.net.message.Message` (endpoints interned once, as
    transports hold them) — in a tight loop.  ``__slots__`` halves the
    per-instance footprint (no ``__dict__``), the win that matters at
    1000-agent resident-heap scale; raw construction rate is about even,
    so this number is a *regression gate* on the hot allocation path
    (an accidental extra allocation or ``__post_init__`` shows up here).
    See ``benchmarks/perf/bench_alloc.py`` for the slotted-vs-dict
    side-by-side.
    """
    from repro.net.message import Endpoint, Message, MessageKind
    from repro.sim.events import Event

    def noop() -> None:
        return None

    sender = Endpoint("bench-a", 1)
    recipient = Endpoint("bench-b", 2)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for sequence in range(count):
            Event(1.0, 50, sequence, noop, "bench")
            Message(MessageKind.REQUEST, sender, recipient, None)
        best = min(best, time.perf_counter() - start)
    return BenchResult(
        name="engine_event_alloc",
        value=2 * count / best,
        unit="objects/s",
        higher_is_better=True,
        detail=f"best of {repeats}x{count} Event+Message pairs",
    )


def bench_scale_grid(requests: int = BENCH_SCALE_REQUESTS) -> BenchResult:
    """Completed requests/second of a full generated 1000-agent scenario.

    End to end: ``ScenarioSpec`` → topology + Poisson workload →
    ``build_grid`` → event loop to drain, FIFO policy on the partitioned
    engine.  The scale gate's integration number — it moves with engine
    throughput, transport lane routing, and scheduler bookkeeping,
    unlike ``engine_events_per_s`` which isolates the heap mechanics.
    """
    from repro.experiments.runner import run_experiment
    from repro.experiments.scenarios import ScenarioSpec, generate_scenario
    from repro.scheduling.scheduler import SchedulingPolicy

    spec = ScenarioSpec(
        name="bench-1000",
        agent_count=1000,
        request_count=requests,
        rate=2.0,
        arrival="poisson",
    )
    scenario = generate_scenario(spec)
    config = spec.config(policy=SchedulingPolicy.FIFO)
    start = time.perf_counter()
    result = run_experiment(
        config, scenario.topology, workload=list(scenario.workload)
    )
    elapsed = time.perf_counter() - start
    return BenchResult(
        name="scale_grid_1000",
        value=requests / elapsed,
        unit="requests/s",
        higher_is_better=True,
        detail=f"1000 agents, {requests} poisson requests (rate 2/s), FIFO, "
        f"{len(result.records)} completed, partitioned engine",
    )


# -------------------------------------------------------------------- suite


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except Exception:  # pragma: no cover - detached environments
        return "unknown"


def machine_info() -> Dict[str, object]:
    """Attribution block: where these numbers were measured."""
    return {
        "python": sys.version.split()[0],
        "platform": platform_module.platform(),
        "machine": platform_module.machine(),
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
    }


#: Derived ratios: name -> (numerator benchmark, denominator benchmark).
#: Computed only when both inputs were run (``--only`` subsets skip the
#: rest).
DERIVED_RATIOS = {
    "evaluate_bulk_speedup": ("evaluate_counts", "evaluate_scalar"),
}


def _suite_specs(requests: int, jobs: int):
    """(produced names, progress note, thunk) for every benchmark group."""
    return [
        (("ga_evolve_vectorized",), "GA evolve...",
         lambda: [bench_ga_evolve()]),
        (("ga_warmstart_convergence",), "GA warm-start convergence...",
         lambda: [bench_ga_warmstart_convergence()]),
        (("evaluate_scalar", "evaluate_counts"),
         "evaluation engine (scalar vs bulk)...", bench_evaluate),
        (("casestudy_wall",), f"case study wall time ({requests} requests)...",
         lambda: [bench_casestudy(requests)]),
        (("sweep_sequential_wall", "sweep_parallel_wall", "sweep_speedup"),
         f"sweep speedup (4 seeds, jobs={jobs})...",
         lambda: bench_sweep_speedup(requests, jobs=jobs)),
        (("engine_events_per_s",),
         "event engine throughput (1000 lanes)...",
         lambda: [bench_engine_events()]),
        (("engine_event_alloc",),
         "hot-path allocation (slotted Event + Message)...",
         lambda: [bench_event_alloc()]),
        (("scale_grid_1000",),
         f"1000-agent generated scenario ({BENCH_SCALE_REQUESTS} requests)...",
         lambda: [bench_scale_grid()]),
    ]


def select_benchmarks(only: Optional[List[str]], requests: int = BENCH_REQUESTS,
                      jobs: int = 4):
    """The suite specs whose produced benchmark names match *only*.

    *only* is a list of substrings (``None``/empty = everything); a spec
    runs when any produced name contains any of the substrings.
    """
    specs = _suite_specs(requests, jobs)
    if not only:
        return specs
    return [
        spec for spec in specs
        if any(sub in name for name in spec[0] for sub in only)
    ]


def run_suite(
    *,
    requests: int = BENCH_REQUESTS,
    jobs: int = 4,
    progress: Optional[Callable[[str], None]] = None,
    only: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Run the benchmarks (all, or the ``only`` subset); returns the doc."""

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    specs = select_benchmarks(only, requests, jobs)
    if only and not specs:
        raise ValueError(f"--only {only!r} matches no benchmark names")
    results: List[BenchResult] = []
    for _, message, thunk in specs:
        note(message)
        results.extend(thunk())

    by_name = {r.name: r for r in results}
    derived = {
        name: by_name[num].value / by_name[den].value
        for name, (num, den) in DERIVED_RATIOS.items()
        if num in by_name and den in by_name
    }
    return {
        "meta": {
            "git_sha": _git_sha(),
            "requests": requests,
            "jobs": jobs,
            "machine": machine_info(),
        },
        "benchmarks": {r.name: r.to_json() for r in results},
        "derived": {k: float(v) for k, v in derived.items()},
    }


def merge_suite_doc(existing: Optional[Dict], fresh: Dict) -> Dict:
    """Fold a (possibly partial) fresh run into an existing document.

    Benchmarks from *fresh* replace their namesakes in *existing*; every
    other committed benchmark is carried over untouched, and the derived
    ratios are recomputed from the merged set so a ``--only`` subset run
    can refresh e.g. ``evaluate_bulk_speedup`` without re-timing
    its denominator.  The ``meta`` block always comes from *fresh* — the
    attribution (git SHA, machine) must describe the newest numbers in
    the file, and carried-over entries keep their per-benchmark
    ``detail`` strings for provenance.
    """
    if not existing:
        return fresh
    benchmarks = dict(existing.get("benchmarks", {}))
    benchmarks.update(fresh.get("benchmarks", {}))
    derived = {
        name: float(benchmarks[num]["value"]) / float(benchmarks[den]["value"])
        for name, (num, den) in DERIVED_RATIOS.items()
        if num in benchmarks and den in benchmarks
        and float(benchmarks[den]["value"]) != 0
    }
    return {
        "meta": fresh["meta"],
        "benchmarks": benchmarks,
        "derived": derived,
    }


# --------------------------------------------------------------- regression


def _cpu_count(doc: Dict) -> Optional[int]:
    value = doc.get("meta", {}).get("machine", {}).get("cpu_count")
    return None if value is None else int(value)


def check_regression(
    current: Dict,
    baseline: Dict,
    threshold: float = DEFAULT_THRESHOLD,
    *,
    skipped: Optional[List[str]] = None,
) -> List[Regression]:
    """Direction-aware comparison of two BENCH_PERF documents.

    A benchmark regresses when it moves more than *threshold* in its bad
    direction (lower for throughput/speedup metrics, higher for wall
    times).  Benchmarks present in only one document are ignored, so the
    suite can grow without invalidating committed baselines.

    When the two documents were measured on machines with different
    ``meta.machine.cpu_count``, the :data:`PARALLELISM_BENCHMARKS`
    comparisons are skipped — a process pool's speedup is bounded by the
    core count, so e.g. a single-CPU CI container's ≲1x ``sweep_speedup``
    baseline would otherwise poison the gate on any other machine.
    Skipped names are appended to *skipped* when a list is supplied.
    """
    regressions: List[Regression] = []
    base_benchmarks = baseline.get("benchmarks", {})
    cpu_now, cpu_base = _cpu_count(current), _cpu_count(baseline)
    cores_differ = (
        cpu_now is not None and cpu_base is not None and cpu_now != cpu_base
    )
    for name, entry in current.get("benchmarks", {}).items():
        base = base_benchmarks.get(name)
        if base is None:
            continue
        if cores_differ and name in PARALLELISM_BENCHMARKS:
            if skipped is not None:
                skipped.append(name)
            continue
        base_value = float(base["value"])
        value = float(entry["value"])
        if base_value == 0:
            continue
        if entry.get("higher_is_better", True):
            change = (value - base_value) / base_value
        else:
            change = (base_value - value) / base_value
        if change < -threshold:
            regressions.append(Regression(name, base_value, value, change))
    return regressions


def render_report(doc: Dict) -> str:
    """Human-readable table of one BENCH_PERF document."""
    lines = [
        f"git {doc['meta']['git_sha'][:12]}  "
        f"requests={doc['meta']['requests']}  jobs={doc['meta']['jobs']}",
        "",
        f"{'benchmark':<24} {'value':>12} unit",
    ]
    for name, entry in doc["benchmarks"].items():
        lines.append(f"{name:<24} {entry['value']:>12.2f} {entry['unit']}")
    lines.append("")
    for name, value in doc.get("derived", {}).items():
        lines.append(f"{name:<24} {value:>12.2f} x")
    return "\n".join(lines)


def run_perf_cli(
    output: str = "BENCH_PERF.json",
    *,
    baseline: Optional[str] = None,
    jobs: int = 4,
    requests: int = BENCH_REQUESTS,
    only: Optional[List[str]] = None,
    update: bool = False,
) -> int:
    """Run the suite, write *output*, compare against *baseline* if present.

    Returns a process exit code: 0 on success, 1 when any benchmark
    regressed by more than 25 % against the baseline.  When *baseline* is
    ``None`` the pre-existing *output* file (the committed baseline)
    serves as the comparison point.  *only* restricts the run to
    benchmarks whose names contain any of the given substrings — note the
    written *output* then holds just that subset, so either point
    ``--output`` elsewhere when iterating against a committed full
    baseline, or pass *update* to rewrite the file in place: fresh
    results are merged over the existing document (untouched benchmarks
    carried over, derived ratios recomputed, ``meta`` refreshed with the
    current git SHA and machine), which is how a committed
    ``BENCH_PERF.json`` is re-baselined without re-running everything.
    """
    baseline_path = baseline if baseline is not None else output
    baseline_doc = None
    if baseline_path and os.path.exists(baseline_path):
        with open(baseline_path, "r", encoding="utf-8") as handle:
            baseline_doc = json.load(handle)

    doc = run_suite(
        requests=requests, jobs=jobs,
        progress=lambda msg: print(f"  {msg}", file=sys.stderr),
        only=only,
    )
    if update:
        existing = None
        if os.path.exists(output):
            with open(output, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
        doc = merge_suite_doc(existing, doc)
    with open(output, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(render_report(doc))
    print(f"\nwrote {output}", file=sys.stderr)

    if baseline_doc is None:
        print("no baseline to compare against", file=sys.stderr)
        return 0
    skipped: List[str] = []
    regressions = check_regression(doc, baseline_doc, skipped=skipped)
    if skipped:
        print(
            f"skipped cross-machine comparisons (cpu_count "
            f"{_cpu_count(doc)} vs baseline {_cpu_count(baseline_doc)}): "
            + ", ".join(skipped),
            file=sys.stderr,
        )
    if regressions:
        print("\nPERFORMANCE REGRESSIONS (>25% worse than baseline):")
        for regression in regressions:
            print(f"  {regression.describe()}")
        return 1
    print(f"no regressions vs {baseline_path}", file=sys.stderr)
    return 0
