"""repro: Discriminative Frequent Pattern Analysis for Effective Classification.

A from-scratch Python reproduction of Cheng, Yan, Han & Hsu (ICDE 2007):
frequent pattern-based classification with the support-vs-discriminative-power
theory, the min_sup setting strategy, and the MMRFS feature selection
algorithm — plus every substrate the paper's evaluation depends on (frequent/
closed itemset miners, SVM and C4.5 classifiers, associative-classification
baselines, UCI-shaped benchmark data and an evaluation harness).

Quick start::

    from repro import FrequentPatternClassifier, load_uci, TransactionDataset

    data = TransactionDataset.from_dataset(load_uci("austral"))
    model = FrequentPatternClassifier(min_support=0.1, delta=3)
    model.fit(data)
    print(model.score(data))

Package map:

* ``repro.core``       — the paper-facing API in one import.
* ``repro.datasets``   — schema, transaction encoding, benchmark generators.
* ``repro.discretize`` — equal-width/equal-frequency/MDLP discretization.
* ``repro.mining``     — all-frequent and LCM-style closed itemset miners.
* ``repro.measures``   — entropy, IG, Fisher score, the support bounds.
* ``repro.selection``  — MMRFS (Algorithm 1) and the min_sup strategy.
* ``repro.features``   — the B^d -> B^d' mapping and the full pipeline.
* ``repro.classifiers``— SVM (SMO + linear DCD), C4.5, naive Bayes, logistic.
* ``repro.baselines``  — CBA, CMAR, HARMONY associative classifiers.
* ``repro.eval``       — stratified CV, metrics, model selection.
* ``repro.experiments``— drivers regenerating every paper table and figure.
"""

from .classifiers import DecisionTree, KernelSVM, LinearSVM
from .datasets import Dataset, TransactionDataset, available_datasets, load_uci
from .features import FrequentPatternClassifier, PatternFeaturizer
from .measures import fisher_upper_bound, ig_upper_bound, theta_star
from .mining import closed_fpgrowth, frequent_itemsets, mine_class_patterns
from .selection import mmrfs, suggest_min_support

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "FrequentPatternClassifier",
    "PatternFeaturizer",
    "Dataset",
    "TransactionDataset",
    "load_uci",
    "available_datasets",
    "LinearSVM",
    "KernelSVM",
    "DecisionTree",
    "frequent_itemsets",
    "closed_fpgrowth",
    "mine_class_patterns",
    "mmrfs",
    "suggest_min_support",
    "ig_upper_bound",
    "fisher_upper_bound",
    "theta_star",
]
