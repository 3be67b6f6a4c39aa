"""Figure 1: evolution of parameter counts in language models.

The paper plots the parameter counts of well-known language models over
their release years on a logarithmic y-axis. Here every point is
*computed* from the model's architecture via the same counting formulas
our own Transformer uses (see :mod:`repro.models.registry`), and the
figure is rendered as a log-scale ASCII scatter plot plus the underlying
data table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.models.registry import HISTORICAL_MODELS

#: plot area of :func:`render_figure1_ascii`, in characters
WIDTH, HEIGHT = 72, 18


@dataclass(frozen=True)
class FigurePoint:
    """One point of Figure 1."""

    name: str
    year: float
    estimated_params: int
    published_params: int
    relative_error: float


def figure1_points() -> List[FigurePoint]:
    """All models of Figure 1, parameter counts computed from architecture."""
    return [
        FigurePoint(
            name=model.name,
            year=model.year,
            estimated_params=model.estimated_params(),
            published_params=model.published_params,
            relative_error=model.relative_error(),
        )
        for model in HISTORICAL_MODELS
    ]


def growth_orders_of_magnitude() -> float:
    """log10 growth of parameter counts across the timeline."""
    points = figure1_points()
    return math.log10(
        max(p.estimated_params for p in points)
        / min(p.estimated_params for p in points)
    )


def render_figure1_ascii() -> str:
    """Render the figure as a log-scale ASCII scatter plot."""
    points = figure1_points()
    years = [p.year for p in points]
    logs = [math.log10(p.estimated_params) for p in points]
    year_min, year_max = min(years), max(years)
    log_min, log_max = math.floor(min(logs)), math.ceil(max(logs))

    grid = [[" "] * WIDTH for _ in range(HEIGHT)]
    labels: List[str] = []
    for index, point in enumerate(points):
        x = int((point.year - year_min) / (year_max - year_min) * (WIDTH - 1))
        y = int(
            (math.log10(point.estimated_params) - log_min)
            / (log_max - log_min)
            * (HEIGHT - 1)
        )
        row = HEIGHT - 1 - y
        marker = chr(ord("A") + index)
        grid[row][x] = marker
        labels.append(
            f"  {marker} = {point.name} ({point.year:.1f}, "
            f"{point.estimated_params / 1e9:.2f}B params)"
        )

    lines = ["Figure 1: Evolution of parameter counts in language models",
             f"y-axis: log10(parameters), {log_min} to {log_max} | "
             f"x-axis: year, {year_min:.0f} to {year_max:.0f}", ""]
    for row_index, row in enumerate(grid):
        log_label = log_max - (log_max - log_min) * row_index / (HEIGHT - 1)
        lines.append(f"10^{log_label:4.1f} |" + "".join(row))
    lines.append("       +" + "-" * WIDTH)
    lines.extend(labels)
    return "\n".join(lines)
