"""Classifier substrate: SVM (SMO + linear DCD), C4.5 tree, logistic, NB."""

from .base import Classifier, validate_inputs
from .decision_tree import DecisionTree, TreeNode
from .kernels import get_kernel, linear_kernel, rbf_kernel
from .linear_svm import LinearSVM
from .logistic import LogisticRegression
from .naive_bayes import BernoulliNaiveBayes
from .svm import KernelSVM

__all__ = [
    "Classifier",
    "validate_inputs",
    "LinearSVM",
    "LogisticRegression",
    "KernelSVM",
    "DecisionTree",
    "TreeNode",
    "BernoulliNaiveBayes",
    "linear_kernel",
    "rbf_kernel",
    "get_kernel",
]
