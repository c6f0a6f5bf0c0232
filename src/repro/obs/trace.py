"""Sinks and the :class:`Tracer` — how trace records leave the system.

Zero overhead when off
----------------------
Tracing is *opt-in per run*: every instrumented component takes an
optional ``tracer`` and guards each emission with a single
``if tracer is not None`` attribute test, so the tracing-off hot path
costs one predictable-branch pointer comparison per site (measured ≤ the
perf gate's noise floor on ``bench_ga_evolve`` — see
docs/observability.md for the methodology).  There is no global registry,
no environment-variable lookup, and no disabled-logger call overhead.

Sinks
-----
* :class:`MemorySink` — a ring buffer (unbounded by default) for tests,
  the golden-trace tier, and the CLI.  It retains each record as a row,
  the tuple ``(class index, *field values)``: a tuple of atomic values
  is untracked by CPython's cyclic collector, so a long trace costs the
  collector nothing while it grows;
* :class:`FileSink` — deterministic JSONL (sorted keys, sim-time stamps
  only) for offline diffing;
* :class:`TeeSink` — fan out to several sinks.
"""

from __future__ import annotations

import gc
import json
from collections import deque
from dataclasses import fields
from operator import attrgetter
from typing import IO, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.records import TraceRecord, record_to_dict

__all__ = ["TraceSink", "MemorySink", "FileSink", "TeeSink", "Tracer"]


class TraceSink:
    """Interface of a trace destination."""

    def emit(self, record: TraceRecord) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def emit_row(self, cls: type, *values: object) -> None:
        """Record one ``cls(*values)`` (default: build it and :meth:`emit`)."""
        self.emit(cls(*values))

    def close(self) -> None:
        """Release any resources (default: nothing to release)."""


# The row codec shared by every MemorySink: record class -> (row index,
# getter packing an instance's field values in field order), and row
# index -> class.  Classes register on first use, so any frozen
# TraceRecord subclass can be retained.
_ROW_CODEC: Dict[type, Tuple[int, Callable[[TraceRecord], tuple]]] = {}
_ROW_CLASSES: List[type] = []


def _row_codec(cls: type) -> Tuple[int, Callable[[TraceRecord], tuple]]:
    # Every record has ``t`` and at least one field, so the getter
    # always returns a tuple.
    getter = attrgetter(*(f.name for f in fields(cls)))
    codec = _ROW_CODEC[cls] = (len(_ROW_CLASSES), getter)
    _ROW_CLASSES.append(cls)
    return codec


class MemorySink(TraceSink):
    """Retains records in memory, optionally ring-buffered.

    Each record is kept as a row ``(class index, *field values)`` — the
    exact field objects, so a rebuilt record equals the emitted one and
    has its type.  Rows of atomic values are invisible to the cyclic
    collector; :attr:`records` rebuilds the frozen records on demand.

    Parameters
    ----------
    capacity:
        Maximum records retained (oldest evicted first); ``None`` keeps
        everything — the right setting for golden traces and assertions,
        while long interactive runs can bound their footprint.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValidationError(f"capacity must be >= 1, got {capacity}")
        self._rows: deque = deque(maxlen=capacity)
        self._emitted = 0

    @property
    def records(self) -> List[TraceRecord]:
        """The retained records, oldest first (rebuilt on every read).

        The collector is paused while the list is built: the rebuilt
        records are immutable and acyclic, so a collection pass over them
        could free nothing, and a long trace would otherwise trigger
        several full passes over its own half-built copy.
        """
        classes = _ROW_CLASSES
        enabled = gc.isenabled()
        gc.disable()
        try:
            return [classes[row[0]](*row[1:]) for row in self._rows]
        finally:
            if enabled:
                gc.enable()

    @property
    def emitted(self) -> int:
        """Total records ever emitted (including any evicted)."""
        return self._emitted

    def emit(self, record: TraceRecord) -> None:
        cls = record.__class__
        index, pack = _ROW_CODEC.get(cls) or _row_codec(cls)
        self._rows.append((index,) + pack(record))
        self._emitted += 1

    def emit_row(self, cls: type, *values: object) -> None:
        self._rows.append(((_ROW_CODEC.get(cls) or _row_codec(cls))[0],) + values)
        self._emitted += 1

    def clear(self) -> None:
        """Drop all retained records and zero the emitted count."""
        self._rows.clear()
        self._emitted = 0


class FileSink(TraceSink):
    """Writes one deterministic JSON object per record to a file."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._handle: Optional[IO[str]] = open(path, "w", encoding="utf-8")
        self._emitted = 0

    @property
    def path(self) -> str:
        """The output path."""
        return self._path

    @property
    def emitted(self) -> int:
        """Records written so far."""
        return self._emitted

    def emit(self, record: TraceRecord) -> None:
        if self._handle is None:
            raise ValidationError(f"file sink {self._path!r} already closed")
        self._handle.write(json.dumps(record_to_dict(record), sort_keys=True))
        self._handle.write("\n")
        self._emitted += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class TeeSink(TraceSink):
    """Forwards every record to several sinks."""

    def __init__(self, sinks: Sequence[TraceSink]) -> None:
        if not sinks:
            raise ValidationError("tee sink needs at least one sink")
        self._sinks = tuple(sinks)

    def emit(self, record: TraceRecord) -> None:
        for sink in self._sinks:
            sink.emit(record)

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()


class Tracer:
    """The handle instrumented components emit through.

    Couples a sink with a :class:`~repro.obs.metrics.MetricsRegistry`:
    every emission also bumps the ``records.<kind>`` counter, so a
    metrics snapshot summarises a trace without replaying it.  Emission
    never draws randomness and never mutates simulation state — with the
    same seed, a traced run's experiment outputs are byte-identical to an
    untraced run's (property-tested).
    """

    def __init__(
        self, sink: Optional[TraceSink] = None, *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._sink = sink if sink is not None else MemorySink()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # record class -> its ``records.<kind>`` counter (registry
        # instruments are never replaced, only zeroed).
        self._counters: Dict[type, Counter] = {}

    @property
    def sink(self) -> TraceSink:
        """The destination sink."""
        return self._sink

    @property
    def records(self) -> List[TraceRecord]:
        """The retained records, when the sink keeps them in memory.

        A :class:`MemorySink` rebuilds the list on every read: read it once
        and keep the list.
        """
        if not isinstance(self._sink, MemorySink):
            raise ValidationError(
                f"{type(self._sink).__name__} does not retain records; "
                "use a MemorySink"
            )
        return self._sink.records

    def _counter(self, cls: type) -> Counter:
        counter = self._counters[cls] = self.metrics.counter("records." + cls.kind)
        return counter

    def emit(self, record: TraceRecord) -> None:
        """Record one trace event."""
        cls = record.__class__
        counter = self._counters.get(cls) or self._counter(cls)
        counter.inc()
        self._sink.emit(record)

    def emit_row(self, cls: type, *values: object) -> None:
        """Record one ``cls(*values)`` — *values* in field order, ``t`` first.

        The bulk kinds (``sim.event``, ``net.send``, ``net.deliver``) are
        emitted this way, so a :class:`MemorySink` keeps them as rows
        without ever building the record object.
        """
        counter = self._counters.get(cls) or self._counter(cls)
        counter.inc()
        self._sink.emit_row(cls, *values)

    def close(self) -> None:
        """Close the underlying sink."""
        self._sink.close()
