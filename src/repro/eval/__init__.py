"""Evaluation harness: metrics, stratified CV, inner model selection."""

from .cross_validation import (
    CVReport,
    FoldScore,
    cross_validate_pipeline,
    stratified_kfold,
)
from .metrics import (
    accuracy,
    confusion_matrix,
    error_rate,
    macro_f1,
    per_class_accuracy,
)
from .model_selection import CandidateScore, select_best_classifier, svm_c_grid
from .significance import TestResult, mcnemar_test, paired_t_test, sign_test

__all__ = [
    "accuracy",
    "error_rate",
    "confusion_matrix",
    "per_class_accuracy",
    "macro_f1",
    "stratified_kfold",
    "FoldScore",
    "CVReport",
    "cross_validate_pipeline",
    "CandidateScore",
    "select_best_classifier",
    "svm_c_grid",
    "TestResult",
    "paired_t_test",
    "sign_test",
    "mcnemar_test",
]
