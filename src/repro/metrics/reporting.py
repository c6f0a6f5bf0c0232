"""Rendering metric results in the paper's table and figure layouts.

Table 3 reports, for each experiment, the rows S1…S12 plus "Total", with
columns ε (s), υ (%), β (%).  Figures 8–10 plot one metric across the three
experiments, one series per agent plus the total.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.errors import ValidationError
from repro.metrics.balancing import GridMetrics
from repro.utils.tables import render_table

__all__ = [
    "table3_rows",
    "render_table3",
    "figure_series",
    "render_figure_series",
]


def table3_rows(
    results: Sequence[GridMetrics],
) -> List[Tuple[str, List[float]]]:
    """Table 3 rows across experiments: ``(name, [ε₁, υ₁, β₁, ε₂, ...])``.

    Every experiment must cover the same resources.
    """
    if not results:
        raise ValidationError("results must not be empty")
    names = list(results[0].per_resource)
    for gm in results[1:]:
        if list(gm.per_resource) != names:
            raise ValidationError("experiments cover different resources")
    rows: List[Tuple[str, List[float]]] = []
    for name in names:
        cells: List[float] = []
        for gm in results:
            m = gm.resource(name)
            cells.extend([m.epsilon, m.upsilon_percent, m.beta_percent])
        rows.append((name, cells))
    total_cells: List[float] = []
    for gm in results:
        total_cells.extend(
            [gm.total.epsilon, gm.total.upsilon_percent, gm.total.beta_percent]
        )
    rows.append((results[0].total.name, total_cells))
    return rows


def render_table3(results: Sequence[GridMetrics], *, title: str = "Table 3") -> str:
    """Monospace rendering of Table 3 for the given experiments."""
    rows = table3_rows(results)
    headers = [""]
    for i in range(len(results)):
        headers.extend([f"e{i + 1} ε(s)", f"e{i + 1} υ(%)", f"e{i + 1} β(%)"])
    data = [[name, *[round(c) if c == c else None for c in cells]] for name, cells in rows]
    return render_table(headers, data, title=title)


def figure_series(
    results: Sequence[GridMetrics], metric: str
) -> Dict[str, List[float]]:
    """One Fig. 8/9/10 dataset: per-agent series over experiment number.

    *metric* is ``"epsilon"`` (Fig. 8, seconds), ``"upsilon"`` (Fig. 9, %)
    or ``"beta"`` (Fig. 10, %).  The grid total appears under ``"Total"``.
    """
    if metric not in ("epsilon", "upsilon", "beta"):
        raise ValidationError(f"unknown metric {metric!r}")
    rows = table3_rows(results)
    offset = {"epsilon": 0, "upsilon": 1, "beta": 2}[metric]
    series: Dict[str, List[float]] = {}
    for name, cells in rows:
        series[name] = [cells[3 * i + offset] for i in range(len(results))]
    return series


def render_figure_series(
    results: Sequence[GridMetrics], metric: str, *, title: str
) -> str:
    """Monospace rendering of a Fig. 8/9/10 dataset."""
    series = figure_series(results, metric)
    headers = ["agent"] + [f"exp {i + 1}" for i in range(len(results))]
    data = [
        [name, *[round(v, 1) if v == v else None for v in values]]
        for name, values in series.items()
    ]
    return render_table(headers, data, title=title, precision=1)
