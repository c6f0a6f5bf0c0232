"""Wall-clock spans around the calls into each layer, from outside ``src/``.

The benchmark never edits the program.  For a traced run it replaces a
fixed set of public callables (methods on the layer classes, and the
module-level names the experiment drivers call through) with thin
wrappers that record one span per call: name, start, end, parent span
and, where the call carries one, the request id.  Spans are kept in
flat arrays in memory and written out once, when the run ends.

A layer's self time is its spans' total duration minus the part covered
by their child spans; time inside the traced workload but outside every
span is the driver loop's own time.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from functools import wraps
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

clock = time.perf_counter


def _no_request(args) -> int:
    return -1


def _message_request(args) -> int:
    # A transport handler's only argument is the delivered message; REQUEST
    # envelopes and RESULT records both carry the portal's request id.
    return int(getattr(args[0].payload, "request_id", -1))


class SpanRecorder:
    """Flat in-memory span store with a parent stack."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(
        self,
        name: str,
        fn: Callable,
        request_of: Callable[[tuple], int] = _no_request,
    ) -> Callable:
        """*fn* with one span per call."""
        nid = self.intern(name)
        stack = self._stack
        name_id, parent, request = self.name_id, self.parent, self.request
        start, end = self.start, self.end

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            request.append(request_of(args))
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``name -> (self seconds, calls)`` over every recorded span."""
        if not len(self):
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = (float(own[mask].sum()), int(mask.sum()))
        return out

    def durations(self, name: str) -> np.ndarray:
        """Inclusive durations of every span called *name*."""
        if name not in self._ids:
            return np.zeros(0)
        mask = np.frombuffer(self.name_id, dtype=np.int32) == self._ids[name]
        return (
            np.frombuffer(self.end, dtype=np.float64)[mask]
            - np.frombuffer(self.start, dtype=np.float64)[mask]
        )

    def covered(self) -> float:
        """Seconds inside top-level spans (those without a parent)."""
        if not len(self):
            return 0.0
        top = np.frombuffer(self.parent, dtype=np.int32) < 0
        return float(
            (
                np.frombuffer(self.end, dtype=np.float64)[top]
                - np.frombuffer(self.start, dtype=np.float64)[top]
            ).sum()
        )

    def save(self, path: str) -> None:
        """Write every span to *path* (``.npz``: names + parallel arrays)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request_id=np.frombuffer(self.request, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


@contextmanager
def patched(replacements: List[Tuple[object, str, Callable]]) -> Iterator[None]:
    """Set ``owner.attr = make(original)`` for each entry; undo on exit."""
    originals = []
    try:
        for owner, attr, make in replacements:
            original = getattr(owner, attr)
            originals.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def layer_wrappers(recorder: SpanRecorder) -> List[Tuple[object, str, Callable]]:
    """The span wrappers of a traced run, one per public layer entry point."""
    from repro.agents.agent import Agent
    from repro.checkpoint import format as checkpoint_format
    from repro.checkpoint import snapshot as checkpoint_snapshot
    from repro.experiments import experiment4, runner
    from repro.net.transport import Transport
    from repro.obs.trace import Tracer
    from repro.pace.evaluation import EvaluationEngine
    from repro.scheduling.ga import GAScheduler
    from repro.scheduling.scheduler import LocalScheduler
    from repro.sim.engine import Engine

    def span(name: str, request_of: Callable[[tuple], int] = _no_request):
        return lambda fn: recorder.wrap(name, fn, request_of)

    def register(original):
        # Every agent and the portal bind their message handler through
        # Transport.register; the handler itself is what gets the span.
        @wraps(original)
        def traced_register(self, endpoint, handler):
            return original(
                self,
                endpoint,
                recorder.wrap("agents.handle", handler, _message_request),
            )

        return traced_register

    wrappers: List[Tuple[object, str, Callable]] = [
        (Engine, "step", span("sim.step")),
        (Transport, "send", span("net.send")),
        (Transport, "register", register),
        (Agent, "service_info", span("agents.service_info")),
        (LocalScheduler, "submit", span("scheduling.submit")),
        (GAScheduler, "evolve", span("scheduling.evolve")),
        (Tracer, "emit", span("obs.emit")),
        (checkpoint_format, "read_snapshot", span("checkpoint.read")),
        (checkpoint_snapshot, "restore_system", span("checkpoint.restore_system")),
    ]
    # evaluate_nodes and evaluate_on_resource delegate to evaluate_count, so
    # wrapping the two leaves counts every prediction exactly once.
    for method in ("evaluate_count", "evaluate_counts"):
        wrappers.append((EvaluationEngine, method, span("pace.evaluate")))
    # The drivers call these through their own module namespaces.
    for module in (runner, experiment4):
        wrappers.append((module, "compute_metrics", span("metrics.compute")))
    wrappers.append((experiment4, "write_checkpoint", span("checkpoint.write")))
    return wrappers


def grid_hook(
    on_build: Callable[[object, float], None],
    recorder: Optional[SpanRecorder] = None,
) -> List[Tuple[object, str, Callable]]:
    """Wrap ``build_grid`` so every grid a driver builds is handed to *on_build*.

    Always installed: the benchmark needs the built system to read the
    portal's per-request results, and the build time to keep set-up out
    of the measured throughput.  One call per run, so it costs nothing
    measurable.
    """
    from repro.experiments import experiment4, runner

    def make(original):
        timed = (
            recorder.wrap("experiments.build_grid", original)
            if recorder is not None
            else original
        )

        @wraps(original)
        def hooked(*args, **kwargs):
            t0 = clock()
            system = timed(*args, **kwargs)
            on_build(system, clock() - t0)
            return system

        return hooked

    return [(runner, "build_grid", make), (experiment4, "build_grid", make)]
