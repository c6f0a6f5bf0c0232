"""Row storage in :class:`MemorySink` and the one-pass checker.

A memory sink keeps each record as the tuple ``(class index, *field
values)`` and rebuilds the frozen records when :attr:`MemorySink.records`
is read.  These tests pin the contract that storage must not move: every
record class round-trips equal and with its own type, through
``Tracer.emit`` and ``Tracer.emit_row`` alike; the ring buffer, ``emitted``
and ``clear`` behave as before; retained rows are invisible to the cyclic
collector; the rebuild leaves the collector's on/off state as it found it;
and ``check_trace`` reports the same violations whether or not the bulk
kinds it skips are interleaved.
"""

from __future__ import annotations

import gc
import inspect
import re
import typing
from dataclasses import fields

import pytest

import tests.obs.test_check as check_fixtures
from repro.obs.check import Violation, check_trace
from repro.obs.records import (
    EventFired,
    MessageDelivered,
    MessageDropped,
    MessageSent,
    TaskQueued,
    record_classes,
)
from repro.obs.trace import FileSink, MemorySink, TeeSink, Tracer

SAMPLES = {
    str: "S7",
    int: 11,
    float: 2.5,
    bool: True,
    typing.Optional[str]: None,
    typing.Tuple[int, ...]: (0, 3),
    typing.Tuple[float, ...]: (9.0, 4.5, 4.5),
}


def sample(cls, t: float = 1.25):
    """One instance of *cls* with a plausible value in every field."""
    hints = typing.get_type_hints(cls)
    values = {f.name: SAMPLES[hints[f.name]] for f in fields(cls)}
    values["t"] = t
    return cls(**values)


def values_of(record) -> tuple:
    return tuple(getattr(record, f.name) for f in fields(record))


ALL = [sample(cls, t=float(i)) for i, cls in enumerate(record_classes())]


class TestRoundTrip:
    def test_every_class_round_trips_through_emit(self):
        tracer = Tracer(MemorySink())
        for record in ALL:
            tracer.emit(record)
        back = tracer.records
        assert back == ALL
        assert [type(r) for r in back] == [type(r) for r in ALL]

    def test_every_class_round_trips_through_emit_row(self):
        tracer = Tracer(MemorySink())
        for record in ALL:
            tracer.emit_row(type(record), *values_of(record))
        back = tracer.records
        assert back == ALL
        assert [type(r) for r in back] == [type(r) for r in ALL]

    def test_both_paths_count_every_kind(self):
        tracer = Tracer(MemorySink())
        for record in ALL:
            tracer.emit(record)
            tracer.emit_row(type(record), *values_of(record))
        counters = tracer.metrics.snapshot()["counters"]
        assert counters == {"records." + r.kind: 2 for r in ALL}

    def test_field_objects_are_kept_exactly(self):
        sink = MemorySink()
        nan = float("nan")
        sink.emit(TaskQueued(t=-0.0, resource="S1", task_id=0))
        sink.emit_row(EventFired, nan, "tick", 0, 1)
        first, second = sink.records
        assert str(first.t) == "-0.0"
        assert second.t is nan

    def test_row_and_file_sinks_agree_through_a_tee(self, tmp_path):
        memory = MemorySink()
        path = tmp_path / "t.jsonl"
        tracer = Tracer(TeeSink([memory, FileSink(str(path))]))
        for record in ALL:
            tracer.emit_row(type(record), *values_of(record))
        tracer.close()
        assert memory.records == ALL
        assert len(path.read_text().splitlines()) == len(ALL)


class TestRingAndCounts:
    def test_ring_evicts_oldest_across_both_paths(self):
        sink = MemorySink(capacity=3)
        for i in range(7):
            if i % 2:
                sink.emit(EventFired(t=float(i), label="a", priority=0, seq=i))
            else:
                sink.emit_row(MessageSent, float(i), "pull", "a:1", "b:2", 0)
        assert [r.t for r in sink.records] == [4.0, 5.0, 6.0]
        assert [type(r) for r in sink.records] == [
            MessageSent, EventFired, MessageSent,
        ]
        assert sink.emitted == 7

    def test_clear_drops_rows_and_count(self):
        sink = MemorySink()
        sink.emit(ALL[0])
        sink.emit_row(EventFired, 0.0, "a", 0, 0)
        sink.clear()
        assert sink.records == []
        assert sink.emitted == 0
        sink.emit(ALL[1])
        assert sink.records == [ALL[1]] and sink.emitted == 1

    def test_records_is_a_fresh_list_each_read(self):
        sink = MemorySink()
        sink.emit(ALL[0])
        first = sink.records
        first.clear()
        assert sink.records == [ALL[0]]


class TestCollector:
    def test_rows_are_untracked_after_a_collection(self):
        sink = MemorySink()
        for record in ALL:
            sink.emit(record)
            sink.emit_row(type(record), *values_of(record))
        gc.collect()
        assert sink._rows  # noqa: SLF001 - storage under test
        assert not any(gc.is_tracked(row) for row in sink._rows)

    def test_rebuild_keeps_the_collector_disabled(self):
        sink = MemorySink()
        sink.emit(ALL[0])
        gc.disable()
        try:
            assert sink.records == [ALL[0]]
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_rebuild_reenables_the_collector(self):
        sink = MemorySink()
        sink.emit(ALL[0])
        assert gc.isenabled()
        assert sink.records == [ALL[0]]
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_survives_a_failing_rebuild(self, enabled):
        sink = MemorySink()
        sink.emit_row(EventFired, 0.0, "short")  # too few fields to rebuild
        if not enabled:
            gc.disable()
        try:
            with pytest.raises(TypeError):
                sink.records
            assert gc.isenabled() is enabled
        finally:
            gc.enable()


# -------------------------------------------------------- one-pass checker

BULK_PER_RECORD = 3


def interleaved(records):
    """*records* with a sim.event, net.deliver and net.drop after each one,
    stamped with the latest time so far (so the clock never moves back)."""
    out = []
    latest = None
    for i, record in enumerate(records):
        out.append(record)
        latest = record.t if latest is None else max(record.t, latest)
        out += [
            EventFired(t=latest, label=f"bulk-{i}", priority=50, seq=i),
            MessageDelivered(t=latest, msg="pull", sender="a.grid:1",
                             recipient="b.grid:2", hops=0),
            MessageDropped(t=latest, msg="heartbeat", sender="b.grid:2",
                           recipient="a.grid:1", hops=0, reason="loss"),
        ]
    return out


def shifted(violation: Violation) -> Violation:
    """*violation* as it reads on the interleaved trace."""
    step = BULK_PER_RECORD + 1
    return Violation(
        violation.rule,
        violation.t,
        violation.index * step,
        re.sub(r"#(\d+)", lambda m: f"#{int(m.group(1)) * step}", violation.message),
    )


def fixture_cases():
    """Every test_check.py test that runs the checker, one case per
    parametrised value."""
    for cls_name, cls in vars(check_fixtures).items():
        if not (isinstance(cls, type) and cls_name.startswith("Test")):
            continue
        for name, fn in vars(cls).items():
            if not name.startswith("test_") or "check_trace(" not in inspect.getsource(fn):
                continue
            marks = [m for m in getattr(fn, "pytestmark", []) if m.name == "parametrize"]
            if not marks:
                yield pytest.param(cls_name, name, {}, id=f"{cls_name}.{name}")
                continue
            (mark,) = marks
            argname, values = mark.args
            for value in values:
                yield pytest.param(
                    cls_name, name, {argname: value},
                    id=f"{cls_name}.{name}[{value}]",
                )


@pytest.mark.parametrize("cls_name,name,kwargs", list(fixture_cases()))
def test_bulk_kinds_leave_the_fixture_verdicts_alone(
    cls_name, name, kwargs, monkeypatch
):
    calls = []

    def checking(records):
        records = list(records)
        plain = check_trace(records)
        assert check_trace(interleaved(records)) == [shifted(v) for v in plain]
        calls.append(len(records))
        return plain

    monkeypatch.setattr(check_fixtures, "check_trace", checking)
    getattr(getattr(check_fixtures, cls_name)(), name)(**kwargs)
    assert calls
