"""Drivers for Figures 1-3: discriminative power vs. length and support.

Figure 1: information gain of single features and frequent patterns,
grouped by pattern length — shows some patterns beat every single feature.

Figure 2: per-pattern (support, information gain) scatter plus the
theoretical upper bound curve ``IG_ub(theta)`` — every point must lie under
the curve, and the curve collapses at low and very high support.

Figure 3: the same with Fisher score and ``Fr_ub(theta)``.

Each driver returns plain data series (no plotting dependency); the
benchmarks render them as text and assert the containment/shape invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.transactions import TransactionDataset
from ..measures.contingency import ContingencyTables
from ..measures.vectorized import (
    fisher_score_batch,
    fisher_upper_bound_batch,
    ig_upper_bound_batch,
    information_gain_batch,
)
from ..mining.generation import mine_class_patterns
from ..mining.itemsets import MiningResult

__all__ = [
    "PatternPoint",
    "FigureData",
    "figure1_ig_vs_length",
    "figure2_ig_vs_support",
    "figure3_fisher_vs_support",
]


@dataclass(frozen=True)
class PatternPoint:
    """One scatter point: a pattern with its support and measure value."""

    items: tuple[int, ...]
    support: int
    length: int
    value: float


@dataclass
class FigureData:
    """One panel of a figure: scatter points plus an optional bound curve."""

    dataset: str
    measure: str
    points: list[PatternPoint]
    bound_thetas: list[float]
    bound_values: list[float]
    n_rows: int

    def max_by_length(self) -> dict[int, float]:
        """Best measure value at each pattern length (Figure 1's envelope)."""
        best: dict[int, float] = {}
        for point in self.points:
            best[point.length] = max(best.get(point.length, 0.0), point.value)
        return best

    def violations(self, tolerance: float = 1e-9) -> list[PatternPoint]:
        """Points above the bound curve (must be empty; used by tests).

        Bound values are looked up at each point's exact support via
        interpolation over the sampled curve.
        """
        if not self.bound_thetas:
            return []
        thetas = np.asarray(self.bound_thetas)
        values = np.asarray(self.bound_values)
        bad = []
        for point in self.points:
            theta = point.support / self.n_rows
            bound = float(np.interp(theta, thetas, values))
            if point.value > bound + tolerance:
                bad.append(point)
        return bad

    def ascii_plot(self, width: int = 72, height: int = 20) -> str:
        """Text rendering of the figure: '·' scatter points under a '─'
        bound curve (matplotlib-free; mirrors the paper's Figures 2-3)."""
        if not self.points:
            return "(no patterns to plot)"
        grid = [[" "] * width for _ in range(height)]
        finite_bounds = [v for v in self.bound_values if np.isfinite(v)]
        y_max = max(
            [p.value for p in self.points] + finite_bounds + [1e-12]
        )

        def place(theta: float, value: float, mark: str) -> None:
            column = min(width - 1, max(0, int(theta * (width - 1))))
            row = min(
                height - 1,
                max(0, int((1.0 - value / y_max) * (height - 1))),
            )
            if grid[row][column] == " " or mark == "·":
                grid[row][column] = mark

        for theta, value in zip(self.bound_thetas, self.bound_values):
            if np.isfinite(value):
                place(theta, min(value, y_max), "─")
        for point in self.points:
            place(point.support / self.n_rows, min(point.value, y_max), "·")

        lines = [
            f"{self.dataset}: {self.measure} vs relative support "
            f"(y max = {y_max:.3f}; '─' bound, '·' patterns)"
        ]
        lines.extend("|" + "".join(row) + "|" for row in grid)
        lines.append("+" + "-" * width + "+")
        lines.append(" 0" + " " * (width - 3) + "1")
        return "\n".join(lines)

    def render(self, max_rows: int = 20) -> str:
        lines = [
            f"{self.dataset}: {self.measure} vs support "
            f"({len(self.points)} patterns, n={self.n_rows})"
        ]
        envelope = self.max_by_length()
        lines.append(
            "max by length: "
            + ", ".join(f"L{k}={v:.3f}" for k, v in sorted(envelope.items()))
        )
        shown = sorted(self.points, key=lambda p: -p.value)[:max_rows]
        for point in shown:
            lines.append(
                f"  support={point.support:5d} length={point.length}"
                f" {self.measure}={point.value:.4f}"
            )
        return "\n".join(lines)


def _mine_with_singles(
    data: TransactionDataset, min_support: float, max_length: int | None
) -> MiningResult:
    """Frequent patterns *including* single items (figures plot both)."""
    mined = mine_class_patterns(
        data,
        min_support=min_support,
        miner="closed",
        min_length=2,
        max_length=max_length,
    )
    singles = MiningResult.counted([(i,) for i in range(data.n_items)], data)
    frequent = singles.supports >= max(1, int(min_support * data.n_rows / 2))
    singles = singles.take(np.flatnonzero(frequent))
    return MiningResult.from_counts(
        singles.itemsets + mined.itemsets,
        np.concatenate([singles.counts, mined.counts]),
        mined.min_support,
        data.n_rows,
        mined.class_totals,
    )


def _measure_panel(
    data: TransactionDataset,
    measure_name: str,
    min_support: float,
    max_length: int | None,
    bound_mode: str,
    bound_samples: int,
    fisher_cap: float,
) -> FigureData:
    candidates = _mine_with_singles(data, min_support, max_length)
    tables = ContingencyTables.of(candidates)

    if data.n_classes != 2:
        raise ValueError(
            "the paper's bound analysis is binary; figures use 2-class data"
        )
    prior = float(data.class_counts()[1]) / data.n_rows

    # Whole scatter panel in one vectorized pass per measure.
    if measure_name == "information_gain":
        values = information_gain_batch(tables.present, tables.absent)
    else:
        values = np.minimum(
            fisher_cap, fisher_score_batch(tables.present, tables.absent)
        )
    supports = tables.supports
    points = [
        PatternPoint(
            items=items,
            support=int(supports[index]),
            length=len(items),
            value=float(values[index]),
        )
        for index, items in enumerate(candidates.itemsets)
    ]

    # The bound curve over the whole support grid in one call.
    thetas = np.linspace(1.0 / data.n_rows, 1.0 - 1.0 / data.n_rows, bound_samples)
    if measure_name == "information_gain":
        bound_array = ig_upper_bound_batch(thetas, prior, mode=bound_mode)
    else:
        bound_array = np.minimum(
            fisher_cap, fisher_upper_bound_batch(thetas, prior, mode=bound_mode)
        )
    bound_values = [float(v) for v in bound_array]
    return FigureData(
        dataset=data.name,
        measure=measure_name,
        points=points,
        bound_thetas=[float(t) for t in thetas],
        bound_values=bound_values,
        n_rows=data.n_rows,
    )


def figure1_ig_vs_length(
    data: TransactionDataset,
    min_support: float = 0.1,
    max_length: int | None = 6,
) -> FigureData:
    """Figure 1 panel: IG of single features and patterns (group by length)."""
    panel = _measure_panel(
        data,
        "information_gain",
        min_support,
        max_length,
        bound_mode="exact",
        bound_samples=0,
        fisher_cap=float("inf"),
    )
    return panel


def figure2_ig_vs_support(
    data: TransactionDataset,
    min_support: float = 0.05,
    max_length: int | None = 5,
    bound_mode: str = "exact",
    bound_samples: int = 200,
) -> FigureData:
    """Figure 2 panel: (support, IG) scatter + IG_ub(theta) curve."""
    return _measure_panel(
        data,
        "information_gain",
        min_support,
        max_length,
        bound_mode=bound_mode,
        bound_samples=bound_samples,
        fisher_cap=float("inf"),
    )


def figure3_fisher_vs_support(
    data: TransactionDataset,
    min_support: float = 0.05,
    max_length: int | None = 5,
    bound_mode: str = "exact",
    bound_samples: int = 200,
    fisher_cap: float = 50.0,
) -> FigureData:
    """Figure 3 panel: (support, Fisher) scatter + Fr_ub(theta) curve.

    The bound diverges at theta = p, so values are capped for rendering —
    the paper likewise "only plot[s] a portion of the curve".
    """
    return _measure_panel(
        data,
        "fisher",
        min_support,
        max_length,
        bound_mode=bound_mode,
        bound_samples=bound_samples,
        fisher_cap=fisher_cap,
    )
