"""Experiment drivers: one module per paper table/figure family."""

from .ablations import (
    AblationPoint,
    AblationResult,
    compare_miners,
    compare_relevance_measures,
    compare_selection_strategies,
    sweep_delta,
    sweep_min_support,
)
from .comparison import VariantComparison, compare_variants
from .figures import (
    FigureData,
    PatternPoint,
    figure1_ig_vs_length,
    figure2_ig_vs_support,
    figure3_fisher_vs_support,
)
from .paper_values import (
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    PAPER_TABLE4,
    PAPER_TABLE5,
    PaperScalabilityRow,
    paper_pat_fs_gain,
)
from .registry import DATASET_CONFIGS, ExperimentConfig, config_for
from .report import ReportConfig, generate_report
from .scalability import (
    SCALABILITY_GRIDS,
    ScalabilityRow,
    ScalabilityTable,
    grid_supports,
    run_scalability_table,
)
from .tables import (
    C45_VARIANTS,
    SVM_VARIANTS,
    AccuracyRow,
    AccuracyTable,
    make_variant,
    run_accuracy_table,
)

__all__ = [
    "ExperimentConfig",
    "DATASET_CONFIGS",
    "config_for",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "PAPER_TABLE3",
    "PAPER_TABLE4",
    "PAPER_TABLE5",
    "PaperScalabilityRow",
    "paper_pat_fs_gain",
    "ReportConfig",
    "generate_report",
    "VariantComparison",
    "compare_variants",
    "SVM_VARIANTS",
    "C45_VARIANTS",
    "AccuracyRow",
    "AccuracyTable",
    "make_variant",
    "run_accuracy_table",
    "SCALABILITY_GRIDS",
    "ScalabilityRow",
    "ScalabilityTable",
    "grid_supports",
    "run_scalability_table",
    "PatternPoint",
    "FigureData",
    "figure1_ig_vs_length",
    "figure2_ig_vs_support",
    "figure3_fisher_vs_support",
    "AblationPoint",
    "AblationResult",
    "sweep_min_support",
    "compare_selection_strategies",
    "sweep_delta",
    "compare_miners",
    "compare_relevance_measures",
]
