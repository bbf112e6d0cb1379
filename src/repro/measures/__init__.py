"""Discriminative measures and the support-vs-power theory of the paper."""

from .bounds import (
    feasible_q_interval,
    fisher_upper_bound,
    h_lower_bound,
    ig_upper_bound,
    theta_star,
)
from .contingency import (
    ContingencyTables,
    batch_contingency_tables,
    PatternStats,
)
from .entropy import binary_entropy, conditional_entropy_binary, entropy
from .fisher import fisher_score, fisher_score_binary, fisher_score_from_counts
from .information_gain import information_gain, information_gain_from_counts
from .vectorized import (
    chi2_batch,
    fisher_score_batch,
    fisher_upper_bound_batch,
    ig_upper_bound_batch,
    information_gain_batch,
)

__all__ = [
    "entropy",
    "binary_entropy",
    "conditional_entropy_binary",
    "PatternStats",
    "ContingencyTables",
    "batch_contingency_tables",
    "information_gain_batch",
    "fisher_score_batch",
    "chi2_batch",
    "ig_upper_bound_batch",
    "fisher_upper_bound_batch",
    "information_gain",
    "information_gain_from_counts",
    "fisher_score",
    "fisher_score_from_counts",
    "fisher_score_binary",
    "feasible_q_interval",
    "h_lower_bound",
    "ig_upper_bound",
    "fisher_upper_bound",
    "theta_star",
]
