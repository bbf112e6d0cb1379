"""Paper-vs-measured report generation (writes EXPERIMENTS.md content).

Runs every experiment at a configurable scale and renders a markdown report
that places each measured number next to the value the paper publishes,
with the qualitative checks ("shape holds?") called out per experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..datasets.transactions import TransactionDataset
from ..datasets.uci import UCI_SPECS, load_uci
from .paper_values import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    PaperScalabilityRow,
)
from .scalability import (
    SCALABILITY_GRIDS,
    ScalabilityTable,
    grid_supports,
    run_scalability_table,
)
from .tables import AccuracyTable, run_accuracy_table

__all__ = ["ReportConfig", "generate_report"]


@dataclass(frozen=True)
class ReportConfig:
    """Scale/effort knobs for a report run."""

    scale: float = 0.5
    n_folds: int = 3
    seed: int = 0
    scalability_scales: tuple[float, float, float] = (0.25, 0.15, 0.05)
    pattern_budget: int = 150_000
    datasets: tuple[str, ...] | None = None
    include_scalability: bool = True


def _accuracy_section(
    title: str,
    measured: AccuracyTable,
    paper: dict[str, dict[str, float]],
) -> list[str]:
    lines = [f"## {title}", ""]
    variants = measured.variants
    header = "| dataset | " + " | ".join(
        f"{v} (paper / ours)" for v in variants
    ) + " |"
    lines.append(header)
    lines.append("|" + "---|" * (len(variants) + 1))
    for row in measured.rows:
        cells = []
        for variant in variants:
            paper_value = paper.get(row.dataset, {}).get(variant)
            ours = row.accuracies.get(variant, float("nan"))
            paper_text = f"{paper_value:.2f}" if paper_value is not None else "—"
            cells.append(f"{paper_text} / {ours:.2f}")
        lines.append(f"| {row.dataset} | " + " | ".join(cells) + " |")

    n = len(measured.rows)
    means = {
        v: sum(r.accuracies[v] for r in measured.rows) / n for v in variants
    }
    paper_means = {
        v: sum(row[v] for row in paper.values()) / len(paper)
        for v in variants
        if all(v in row for row in paper.values())
    }
    lines.append(
        "| **mean** | "
        + " | ".join(
            f"{paper_means.get(v, float('nan')):.2f} / {means[v]:.2f}"
            for v in variants
        )
        + " |"
    )
    lines.append("")
    ordered = sorted(means, key=means.__getitem__)
    lines.append(
        f"Measured column ordering (worst → best): {' < '.join(ordered)}; "
        f"Pat_FS wins {measured.wins_for('Pat_FS')}/{n} datasets outright."
    )
    lines.append("")
    return lines


def _scalability_section(
    title: str,
    measured: ScalabilityTable,
    paper_rows: tuple[PaperScalabilityRow, ...],
    n_rows_ours: int,
    n_rows_paper: int,
) -> list[str]:
    lines = [
        f"## {title}",
        "",
        f"Paper scale: {n_rows_paper} rows; measured at {n_rows_ours} rows "
        "(relative min_sup grid preserved).",
        "",
        "Paper:",
        "",
        "| min_sup | #patterns | time (s) | SVM % | C4.5 % |",
        "|---|---|---|---|---|",
    ]
    for row in paper_rows:

        def cell(value, fmt="{}"):
            return fmt.format(value) if value is not None else "N/A"

        lines.append(
            f"| {row.min_support} | {cell(row.n_patterns)} | "
            f"{cell(row.time_seconds)} | {cell(row.svm_percent)} | "
            f"{cell(row.c45_percent)} |"
        )
    lines += ["", "Measured:", "", "```", measured.render(), "```", ""]
    return lines


def generate_report(config: ReportConfig = ReportConfig()) -> str:
    """Run everything and return the markdown report body."""
    started = time.perf_counter()
    sections: list[str] = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `repro.experiments.report.generate_report` "
        f"(scale={config.scale}, folds={config.n_folds}, "
        f"seed={config.seed}).",
        "",
        "Datasets are seeded synthetic stand-ins (DESIGN.md §4), so the",
        "comparison target is the *shape* of each result, not its absolute",
        "value.",
        "",
    ]

    datasets = (
        list(config.datasets) if config.datasets is not None else list(UCI_SPECS)
    )
    table1 = run_accuracy_table(
        datasets, model="svm", n_folds=config.n_folds,
        scale=config.scale, seed=config.seed,
    )
    sections += _accuracy_section(
        "Table 1 — accuracy by SVM", table1, PAPER_TABLE1
    )

    table2 = run_accuracy_table(
        datasets, model="c45", n_folds=config.n_folds,
        scale=config.scale, seed=config.seed,
    )
    sections += _accuracy_section(
        "Table 2 — accuracy by C4.5", table2, PAPER_TABLE2
    )

    scalability = [] if not config.include_scalability else [
        (3, "Table 3 — Chess", PAPER_TABLE3, 3196,
         config.scalability_scales[0], 150_000),
        (4, "Table 4 — Waveform", PAPER_TABLE4, 5000,
         config.scalability_scales[1], 150_000),
        (5, "Table 5 — Letter", PAPER_TABLE5, 20000,
         config.scalability_scales[2], 50_000),
    ]
    for number, title, paper_rows, paper_n, scale, budget in scalability:
        name, _ = SCALABILITY_GRIDS[number]
        data = TransactionDataset.from_dataset(load_uci(name, scale=scale))
        measured = run_scalability_table(
            data,
            absolute_supports=grid_supports(number, data.n_rows),
            title=title,
            pattern_budget=min(budget, config.pattern_budget),
            seed=config.seed,
        )
        sections += _scalability_section(
            title, measured, paper_rows, data.n_rows, paper_n
        )

    sections.append(
        f"_Report wall time: {time.perf_counter() - started:.0f}s._"
    )
    return "\n".join(sections)
