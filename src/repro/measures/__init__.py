"""Discriminative measures and the support-vs-power theory of the paper."""

from .bounds import fisher_upper_bound, ig_upper_bound, theta_star
from .contingency import ContingencyTables, batch_contingency_tables
from .entropy import binary_entropy, entropy
from .vectorized import chi2_batch, fisher_score_batch, information_gain_batch

__all__ = [
    "entropy",
    "binary_entropy",
    "ContingencyTables",
    "batch_contingency_tables",
    "information_gain_batch",
    "fisher_score_batch",
    "chi2_batch",
    "ig_upper_bound",
    "fisher_upper_bound",
    "theta_star",
]
