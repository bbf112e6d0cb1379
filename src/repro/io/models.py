"""JSON persistence for fitted models and the full pipeline.

Ships a trained :class:`~repro.features.pipeline.FrequentPatternClassifier`
as a single JSON artifact: the selected patterns, the item-space size, the
item-selection mask and the fitted learner's parameters.  Supported
learners: LinearSVM, LogisticRegression, BernoulliNaiveBayes and
DecisionTree (the models whose state is a handful of arrays / a tree).
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from ..classifiers.base import Classifier
from ..classifiers.decision_tree import DecisionTree, TreeNode
from ..classifiers.linear_svm import LinearSVM
from ..classifiers.logistic import LogisticRegression
from ..classifiers.naive_bayes import BernoulliNaiveBayes
from ..features.pipeline import FrequentPatternClassifier
from ..features.transformer import PatternFeaturizer
from ..mining.itemsets import Pattern

__all__ = [
    "save_pipeline",
    "load_pipeline",
    "model_to_json",
    "model_from_json",
    "pipeline_to_payload",
    "pipeline_from_payload",
]

_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Per-classifier (de)serialization
# ----------------------------------------------------------------------
def _tree_node_to_json(node: TreeNode) -> dict:
    payload: dict = {
        "prediction": int(node.prediction),
        "counts": [int(c) for c in node.counts],
    }
    if not node.is_leaf:
        payload.update(
            feature=int(node.feature),
            threshold=float(node.threshold),
            left=_tree_node_to_json(node.left),
            right=_tree_node_to_json(node.right),
        )
    return payload


def _tree_node_from_json(payload: dict) -> TreeNode:
    node = TreeNode(
        prediction=int(payload["prediction"]),
        counts=np.asarray(payload["counts"], dtype=np.int64),
    )
    if "feature" in payload:
        node.feature = int(payload["feature"])
        node.threshold = float(payload["threshold"])
        node.left = _tree_node_from_json(payload["left"])
        node.right = _tree_node_from_json(payload["right"])
    return node


def model_to_json(model: Classifier) -> dict:
    """Serialize a fitted classifier to a JSON-ready dict."""
    if isinstance(model, LinearSVM):
        return {
            "kind": "linear_svm",
            "params": model._params,
            "classes": model.classes_.tolist(),
            "weights": model.weights_.tolist(),
        }
    if isinstance(model, LogisticRegression):
        return {
            "kind": "logistic",
            "params": model._params,
            "classes": model.classes_.tolist(),
            "weights": model.weights_.tolist(),
        }
    if isinstance(model, BernoulliNaiveBayes):
        return {
            "kind": "naive_bayes",
            "params": model._params,
            "classes": model.classes_.tolist(),
            "log_prior": model.log_prior_.tolist(),
            "log_theta": model.log_theta_.tolist(),
            "log_one_minus_theta": model.log_one_minus_theta_.tolist(),
        }
    if isinstance(model, DecisionTree):
        return {
            "kind": "decision_tree",
            "params": model._params,
            "n_classes": model.n_classes_,
            "root": _tree_node_to_json(model.root_),
        }
    raise TypeError(
        f"{type(model).__name__} is not JSON-serializable "
        "(supported: LinearSVM, LogisticRegression, BernoulliNaiveBayes, "
        "DecisionTree)"
    )


def model_from_json(payload: dict) -> Classifier:
    """Inverse of :func:`model_to_json`."""
    kind = payload.get("kind")
    if kind == "linear_svm":
        model = LinearSVM(**payload["params"])
        model.classes_ = np.asarray(payload["classes"], dtype=np.int64)
        model.weights_ = np.asarray(payload["weights"], dtype=float)
        model._fitted = True
        return model
    if kind == "logistic":
        model = LogisticRegression(**payload["params"])
        model.classes_ = np.asarray(payload["classes"], dtype=np.int64)
        model.weights_ = np.asarray(payload["weights"], dtype=float)
        model._fitted = True
        return model
    if kind == "naive_bayes":
        model = BernoulliNaiveBayes(**payload["params"])
        model.classes_ = np.asarray(payload["classes"], dtype=np.int64)
        model.log_prior_ = np.asarray(payload["log_prior"], dtype=float)
        model.log_theta_ = np.asarray(payload["log_theta"], dtype=float)
        model.log_one_minus_theta_ = np.asarray(
            payload["log_one_minus_theta"], dtype=float
        )
        model._fitted = True
        return model
    if kind == "decision_tree":
        model = DecisionTree(**payload["params"])
        model.n_classes_ = int(payload["n_classes"])
        model.root_ = _tree_node_from_json(payload["root"])
        model._fitted = True
        return model
    raise ValueError(f"unknown model kind {kind!r}")


# ----------------------------------------------------------------------
# Pipeline persistence
# ----------------------------------------------------------------------
def pipeline_to_payload(pipeline: FrequentPatternClassifier) -> dict:
    """JSON-ready payload of a *fitted* pipeline (patterns + mask + learner).

    This is the canonical serialized form shared by :func:`save_pipeline`
    and the serving model registry (:mod:`repro.serving.registry`), which
    content-addresses exactly this payload.
    """
    if not pipeline._fitted:
        raise ValueError("only fitted pipelines can be saved")
    assert pipeline.featurizer_ is not None and pipeline.model_ is not None
    return {
        "format_version": _FORMAT_VERSION,
        "n_items": pipeline.featurizer_.n_items,
        "include_items": pipeline.featurizer_.include_items,
        "patterns": [
            {"items": list(p.items), "support": p.support}
            for p in pipeline.featurizer_.patterns
        ],
        "item_mask": (
            pipeline.item_mask_.tolist()
            if pipeline.item_mask_ is not None
            else None
        ),
        "model": model_to_json(pipeline.model_),
    }


def pipeline_from_payload(payload: dict) -> FrequentPatternClassifier:
    """Inverse of :func:`pipeline_to_payload`: a pipeline ready to predict."""
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported pipeline format version: {version}")

    mask = payload.get("item_mask")
    pipeline = FrequentPatternClassifier()
    pipeline.featurizer_ = PatternFeaturizer(
        n_items=int(payload["n_items"]),
        patterns=[
            Pattern(items=tuple(entry["items"]), support=int(entry["support"]))
            for entry in payload["patterns"]
        ],
        include_items=bool(payload["include_items"]),
        item_mask=np.asarray(mask, dtype=bool) if mask is not None else None,
    )
    pipeline.model_ = model_from_json(payload["model"])
    pipeline._compile()
    return pipeline


def save_pipeline(
    pipeline: FrequentPatternClassifier,
    target: str | Path | io.TextIOBase,
) -> None:
    """Persist a *fitted* pipeline (patterns + item mask + learner)."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            save_pipeline(pipeline, handle)
            return
    json.dump(pipeline_to_payload(pipeline), target, indent=1)


def load_pipeline(
    source: str | Path | io.TextIOBase,
) -> FrequentPatternClassifier:
    """Load a pipeline saved by :func:`save_pipeline`, ready to predict."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_pipeline(handle)
    return pipeline_from_payload(json.load(source))
