"""Cells × contenders → points: the one harness behind Experiments 4–7.

An experiment here is a declaration, not a driver.  A :class:`Tournament`
names its CLI flags, builds its :class:`Cell` list (a configuration, a
topology, and the run options — workload or workflow stream — every
contender shares), enters each :class:`Contender` into every cell through
one :class:`~repro.experiments.runner.Run`, and reduces the outcome to
:class:`Point` s.  Rendering, JSON export, the ``--check`` verdict and the
``repro experimentN`` subcommand are shared; an experiment only declares
its columns and its invariant checks.

Within a cell every contender replays the identical inputs, so every
difference between two points of one cell is attributable to the
contender alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import repro.net.message as message_module
from repro.errors import ExperimentError, ValidationError
from repro.experiments.casestudy import GridTopology
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, Run
from repro.obs import MemorySink, Tracer
from repro.utils.tables import render_table

__all__ = [
    "Cell",
    "Contender",
    "Point",
    "Column",
    "Tournament",
    "TournamentResult",
    "report",
    "whole",
    "completed",
    "COMPLETED",
    "MET_DEADLINE",
    "UNRESOLVED",
    "EPSILON",
    "UPSILON",
    "BETA",
    "WALL",
]


def whole(value: float) -> Optional[int]:
    """*value* rounded for a table cell; ``None`` (blank) for NaN."""
    return round(value) if value == value else None


@dataclass(frozen=True)
class Cell:
    """One operating point every contender is entered into."""

    name: str
    config: ExperimentConfig
    topology: GridTopology
    #: The cell's coordinates, reported on every point and in the JSON.
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Extra :class:`~repro.experiments.runner.Run` keyword arguments —
    #: the shared ``workload`` or ``workflows`` stream, a release mode.
    run_options: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Contender:
    """One arm of the comparison: how it configures a cell, how it runs."""

    name: str
    #: The cell's configuration with this contender stamped in.
    enter: Callable[[Cell], ExperimentConfig]
    run_options: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class Point:
    """One (cell × contender) outcome."""

    cell: Cell
    contender: str
    result: ExperimentResult
    #: What the experiment's ``measure`` read off the finished run.
    extra: Mapping[str, Any] = field(default_factory=dict)
    #: The baseline contender's point in the same cell, if one ran.
    baseline: Optional["Point"] = None

    def __getitem__(self, key: str) -> Any:
        """A cell coordinate or a measured value, by name."""
        return self.cell.params[key] if key in self.cell.params else self.extra[key]

    def to_dict(self) -> Dict[str, Any]:
        """The point as one flat JSON-ready mapping (no records or workload)."""
        result, total = self.result, self.result.metrics.total
        return {
            "cell": self.cell.name,
            "contender": self.contender,
            **self.cell.params,
            **{k: v for k, v in vars(result).items() if isinstance(v, (int, float, str))},
            "epsilon": total.epsilon,
            "upsilon_percent": total.upsilon_percent,
            "beta_percent": total.beta_percent,
            "counters": asdict(result.counters),
            "membership": result.membership and asdict(result.membership),
            **self.extra,
        }


@dataclass(frozen=True)
class Column:
    """One rendered column: a header and the cell value of a point."""

    header: str
    value: Callable[[Point], Any]
    #: Shown only when rows carry a baseline point to compare against.
    paired: bool = False


@dataclass(frozen=True)
class Tournament:
    """A declared experiment: flags, cells, contenders, columns, checks."""

    #: The CLI subcommand, e.g. ``"experiment4"``.
    name: str
    help: str
    #: The table title, or a function of the result that builds it.
    title: Union[str, Callable[["TournamentResult"], str]]
    #: ``(flag, argparse keyword arguments)`` for every option; ``--check``
    #: (described by ``check_help``) and ``--json`` are added to all.
    flags: Sequence[Tuple[str, Mapping[str, Any]]]
    check_help: str
    cells: Callable[[Mapping[str, Any]], List[Cell]]
    contenders: Callable[[Mapping[str, Any]], List[Contender]]
    columns: Sequence[Column]
    #: The ``--check`` invariants: one message per failure.
    checks: Callable[["TournamentResult"], List[str]]
    #: The PASS line printed when every check holds.
    passed: str
    mode: str = "horizon"
    #: Whether, given the options, every point runs traced into memory
    #: (message ids from zero) for ``measure`` to read.
    traced: Callable[[Mapping[str, Any]], bool] = lambda options: False
    #: Extra per-point measurements read off the finished run.
    measure: Optional[Callable[[Run, Mapping[str, Any]], Dict[str, Any]]] = None
    #: The contender every other one is compared against in its row.
    baseline: Optional[str] = None

    def options(self, **given: Any) -> Dict[str, Any]:
        """*given* over the flag defaults; unknown names are refused."""
        parser = argparse.ArgumentParser(add_help=False)
        self._add_flags(parser)
        options = vars(parser.parse_args([]))
        unknown = sorted(set(given) - set(options))
        if unknown:
            raise ExperimentError(f"{self.name} has no options {unknown}")
        options.update(given)
        return options

    def play(self, **given: Any) -> "TournamentResult":
        """Enter every contender into every cell; one point each."""
        options = self.options(**given)
        contenders = self.contenders(options)
        points: List[Point] = []
        for cell in self.cells(options):
            baseline = None
            for contender in contenders:
                tracer = None
                if self.traced(options):
                    message_module.set_message_counter(0)
                    tracer = Tracer(MemorySink())
                run = Run(
                    contender.enter(cell),
                    cell.topology,
                    mode=self.mode,
                    tracer=tracer,
                    **cell.run_options,
                    **contender.run_options,
                )
                result = run.execute()
                extra = self.measure(run, options) if self.measure else {}
                point = Point(cell, contender.name, result, extra, baseline)
                if contender.name == self.baseline:
                    baseline = point
                points.append(point)
        return TournamentResult(self, options, points)

    def _add_flags(self, parser: argparse.ArgumentParser) -> None:
        for flag, kwargs in self.flags:
            parser.add_argument(flag, **kwargs)
        parser.add_argument("--check", action="store_true", help=self.check_help)

    def add_command(self, subparsers) -> None:
        """Register ``repro <name>`` with the declared flags."""
        command = subparsers.add_parser(self.name, help=self.help)
        self._add_flags(command)
        command.add_argument("--json", metavar="PATH",
                             help="also write every point as JSON")

    def main(self, args: argparse.Namespace) -> int:
        """The subcommand: run, print the table, export, check."""
        options = {name: getattr(args, name) for name in self.options()}
        print(f"Running {self.name} {options}...", file=sys.stderr)
        result = self.play(**options)
        print(result.render())
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(result.to_json())
            print(f"wrote {args.json}", file=sys.stderr)
        return report(result.failures(), self.passed) if options["check"] else 0


def report(failures: Sequence[object], passed: str) -> int:
    """Print a ``--check`` verdict (each failure, or the PASS line); exit code."""
    for failure in failures:
        print(f"  FAIL  {failure}")
    if not failures:
        print(f"  PASS  {passed}")
    return 1 if failures else 0


def completed(point: Point) -> str:
    """``succeeded/submitted (rate)`` of a point's requests."""
    r = point.result
    return f"{r.succeeded}/{r.submitted} ({r.completion_rate:.0%})"


#: Columns most experiments share.
COMPLETED = Column("completed", completed)
MET_DEADLINE = Column("met deadline", lambda p: f"{p.result.deadline_met_rate:.0%}")
UNRESOLVED = Column("unresolved", lambda p: p.result.unresolved)
EPSILON = Column("ε (s)", lambda p: whole(p.result.metrics.total.epsilon))
UPSILON = Column("υ (%)", lambda p: whole(p.result.metrics.total.upsilon_percent))
BETA = Column("β (%)", lambda p: whole(p.result.metrics.total.beta_percent))
WALL = Column("wall (s)", lambda p: f"{p.result.wall_seconds:.2f}")


@dataclass
class TournamentResult:
    """Every point of one tournament, with the options it ran under."""

    tournament: Tournament
    options: Dict[str, Any]
    points: List[Point]

    def select(self, **where: Any) -> List[Point]:
        """Points matching *where*: ``cell``, ``contender``, or a cell param."""

        def value(point: Point, key: str) -> Any:
            if key in ("cell", "contender"):
                return point.cell.name if key == "cell" else point.contender
            return point.cell.params.get(key)

        return [
            p for p in self.points if all(value(p, k) == v for k, v in where.items())
        ]

    def point(self, **where: Any) -> Point:
        """The one point matching *where*."""
        found = self.select(**where)
        if len(found) != 1:
            raise ExperimentError(f"no point at {where} ({len(found)} match)")
        return found[0]

    def render(self) -> str:
        """The monospace table: one row per point, baselines paired in."""
        t = self.tournament
        rows = [p for p in self.points if p.contender != t.baseline] or self.points
        if not rows:
            raise ValidationError(f"{t.name} result has no points")
        paired = all(p.baseline is not None for p in rows)
        columns = [c for c in t.columns if paired or not c.paired]
        return render_table(
            [c.header for c in columns],
            [[c.value(p) for c in columns] for p in rows],
            title=t.title if isinstance(t.title, str) else t.title(self),
        )

    def to_json(self) -> str:
        """``{"experiment": name, "points": [...]}``, one flat dict per point."""
        return json.dumps(
            {
                "experiment": self.tournament.name,
                "points": [p.to_dict() for p in self.points],
            },
            indent=2,
            default=str,
        )

    def failures(self) -> List[str]:
        """The ``--check`` verdict: empty when every invariant holds."""
        if not self.options["check"]:
            raise ExperimentError(f"{self.tournament.name} ran without check=True")
        return self.tournament.checks(self)
