"""Discriminative measures and the support-vs-power theory of the paper."""

from .bounds import (
    feasible_q_interval,
    fisher_score_binary,
    fisher_upper_bound,
    h_lower_bound,
    ig_upper_bound,
    theta_star,
)
from .contingency import ContingencyTables, batch_contingency_tables
from .entropy import binary_entropy, conditional_entropy_binary, entropy
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
    "ContingencyTables",
    "batch_contingency_tables",
    "information_gain_batch",
    "fisher_score_batch",
    "chi2_batch",
    "ig_upper_bound_batch",
    "fisher_upper_bound_batch",
    "fisher_score_binary",
    "feasible_q_interval",
    "h_lower_bound",
    "ig_upper_bound",
    "fisher_upper_bound",
    "theta_star",
]
