"""Linear SVM trained by dual coordinate descent (Hsieh et al., ICML 2008).

The fast path for the paper's Table 1/2 experiments, where four of the five
SVM variants use a linear kernel.  Solves the L1-loss soft-margin dual

    min_a  1/2 a^T Q a - e^T a,   0 <= a_i <= C,  Q_ij = y_i y_j x_i^T x_j

maintaining the primal vector w = sum_i a_i y_i x_i so each coordinate step
is O(n_features).  The solver is LIBLINEAR's ``solve_l2r_l1l2_svc`` for the
L1 loss (Fan et al., JMLR 2008): shrinking plus the stopping rule
PGmax - PGmin <= tolerance.  The bias is handled by augmenting every row
with a constant feature.  Multiclass uses one-vs-rest with decision-value
argmax.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..obs import core as _obs
from .base import Classifier, check_fitted, validate_inputs

__all__ = ["LinearSVM"]

#: LIBLINEAR skips a coordinate whose projected gradient is this small.
_PG_EPSILON = 1e-12


class _DualSolution(NamedTuple):
    weights: np.ndarray
    epochs: int
    #: PGmax - PGmin over every row with a nonzero norm, at ``weights``.
    violation: float
    alphas: list[float]


def _full_violation(
    signed: np.ndarray, rows: list[int], weights: np.ndarray, alphas: list[float], c: float
) -> float:
    """PGmax - PGmin over ``rows``, computed from scratch at ``weights``."""
    if not rows:
        return 0.0
    gradient = (signed @ weights)[rows] - 1.0
    alpha = np.asarray(alphas)[rows]
    projected = np.where(
        alpha == 0.0,
        np.minimum(gradient, 0.0),
        np.where(alpha == c, np.maximum(gradient, 0.0), gradient),
    )
    return float(projected.max() - projected.min())


def _dcd_binary(
    signed: np.ndarray,
    c: float,
    max_epochs: int,
    tolerance: float,
    rng: np.random.Generator,
) -> _DualSolution:
    """Dual coordinate descent with shrinking for one binary problem.

    ``signed`` is the C-ordered design with every row multiplied by its
    label's sign (+-1), so the gradient of row i is ``signed[i] @ w - 1``.
    Rows with a zero norm cannot move w and are left out of the problem.

    Each epoch visits a seeded permutation of the active rows.  A row at
    a = 0 whose gradient exceeds the previous epoch's PGmax, or at a = C
    whose gradient is below its PGmin, leaves the active set.  When an
    epoch's PGmax - PGmin meets ``tolerance``, the rule is checked again
    on every row at the current w; the solver stops if it holds there,
    and otherwise restores every row and resets the extremes to +-inf.
    ``violation`` is that full-set PGmax - PGmin at the returned w, so
    the problem converged exactly when ``violation <= tolerance``.
    """
    n_rows, n_features = signed.shape
    weights = np.zeros(n_features)
    alphas = [0.0] * n_rows
    q_diagonal = np.einsum("ij,ij->i", signed, signed).tolist()
    rows = list(signed)
    problem = [i for i in range(n_rows) if q_diagonal[i] > 0.0]
    active = problem
    pg_max_old, pg_min_old = np.inf, -np.inf
    epochs = 0
    while epochs < max_epochs:
        epochs += 1
        pg_max, pg_min = -np.inf, np.inf
        kept = []
        for j in rng.permutation(len(active)).tolist():
            i = active[j]
            row = rows[i]
            gradient = float(row.dot(weights)) - 1.0
            alpha = alphas[i]
            if alpha == 0.0:
                if gradient > pg_max_old:
                    continue
                projected = min(gradient, 0.0)
            elif alpha == c:
                if gradient < pg_min_old:
                    continue
                projected = max(gradient, 0.0)
            else:
                projected = gradient
            kept.append(i)
            if projected > pg_max:
                pg_max = projected
            if projected < pg_min:
                pg_min = projected
            if abs(projected) > _PG_EPSILON:
                new_alpha = min(max(alpha - gradient / q_diagonal[i], 0.0), c)
                weights += (new_alpha - alpha) * row
                alphas[i] = new_alpha
        active = kept
        if pg_max - pg_min <= tolerance:
            violation = _full_violation(signed, problem, weights, alphas, c)
            if violation <= tolerance:
                return _DualSolution(weights, epochs, violation, alphas)
            active = problem
            pg_max_old, pg_min_old = np.inf, -np.inf
            continue
        pg_max_old = pg_max if pg_max > 0.0 else np.inf
        pg_min_old = pg_min if pg_min < 0.0 else -np.inf
    violation = _full_violation(signed, problem, weights, alphas, c)
    return _DualSolution(weights, epochs, violation, alphas)


class LinearSVM(Classifier):
    """L1-loss linear SVM with one-vs-rest multiclass.

    Each binary problem is solved by LIBLINEAR's dual coordinate descent
    with shrinking.  Training stops when PGmax - PGmin, the spread of the
    projected gradients over every row, is at most ``tolerance``.  A
    problem that ``max_epochs`` stops first raises an ``obs.warn``; every
    problem's epochs and final violation go to the active ``ObsSession``.

    Parameters
    ----------
    c:
        Soft-margin penalty (LIBSVM's C).
    max_epochs:
        Upper bound on passes over the active rows per binary problem
        (LIBLINEAR's ``max_iter``).
    tolerance:
        Stop when PGmax - PGmin over every row is at most this (LIBLINEAR's
        ε for dual solvers; see docs/THEORY.md for the choice of 0.1).
    fit_bias:
        Augment features with a constant column so the separator need not
        pass through the origin.
    seed:
        Seed for the coordinate-order permutations (training is then
        deterministic, and independent of the input's memory layout).
    """

    def __init__(
        self,
        c: float = 1.0,
        max_epochs: int = 1000,
        tolerance: float = 0.1,
        fit_bias: bool = True,
        seed: int = 0,
    ) -> None:
        if c <= 0:
            raise ValueError("c must be positive")
        self.c = c
        self.max_epochs = max_epochs
        self.tolerance = tolerance
        self.fit_bias = fit_bias
        self.seed = seed
        self._params = dict(
            c=c,
            max_epochs=max_epochs,
            tolerance=tolerance,
            fit_bias=fit_bias,
            seed=seed,
        )
        self.classes_: np.ndarray | None = None
        self.weights_: np.ndarray | None = None  # (n_classifiers, n_features+?)

    # ------------------------------------------------------------------
    def _augment(self, features: np.ndarray) -> np.ndarray:
        if not self.fit_bias:
            return features
        ones = np.ones((features.shape[0], 1))
        return np.hstack([features, ones])

    def _solve(
        self, block: np.ndarray, signs: np.ndarray, label: int, rng: np.random.Generator
    ) -> np.ndarray:
        """One binary problem on ``block``, signed in place and restored."""
        block *= signs[:, np.newaxis]
        solution = _dcd_binary(block, self.c, self.max_epochs, self.tolerance, rng)
        block *= signs[:, np.newaxis]
        _obs.add("classifiers.linear_svm.problems")
        _obs.add("classifiers.linear_svm.epochs", solution.epochs)
        _obs.observe("classifiers.linear_svm.violation", solution.violation)
        if solution.violation > self.tolerance:
            _obs.add("classifiers.linear_svm.not_converged")
            _obs.warn(
                f"LinearSVM class {label}: max_epochs={self.max_epochs} stopped "
                f"the solver after {solution.epochs} epochs with violation "
                f"{solution.violation:.4g} > tolerance {self.tolerance:g}",
                label=label,
                epochs=solution.epochs,
                violation=solution.violation,
                tolerance=self.tolerance,
            )
        return solution.weights

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LinearSVM":
        features, labels = validate_inputs(features, labels)
        assert labels is not None
        n_rows, n_features = features.shape
        # One C-ordered copy whatever the input's layout: each row is then
        # contiguous, and the arithmetic (so the weights) does not depend
        # on the layout.
        block = np.empty((n_rows, n_features + int(self.fit_bias)))
        block[:, :n_features] = features
        if self.fit_bias:
            block[:, n_features] = 1.0
        self.classes_ = np.unique(labels)
        rng = np.random.default_rng(self.seed)

        if len(self.classes_) < 2:
            # Degenerate single-class training set: always predict it.
            self.weights_ = np.zeros((1, block.shape[1]))
            self._fitted = True
            return self

        # Binary trains one problem for classes_[1]; more classes train
        # one-vs-rest, one problem per class.
        positives = self.classes_[1:] if len(self.classes_) == 2 else self.classes_
        self.weights_ = np.stack([
            self._solve(block, np.where(labels == label, 1.0, -1.0), int(label), rng)
            for label in positives
        ])
        self._fitted = True
        return self

    # ------------------------------------------------------------------
    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw margins: (n_rows,) for binary, (n_rows, n_classes) for OvR."""
        check_fitted(self)
        features, _ = validate_inputs(features)
        augmented = self._augment(features)
        scores = augmented @ self.weights_.T
        if scores.shape[1] == 1:
            return scores[:, 0]
        return scores

    def predict(self, features: np.ndarray) -> np.ndarray:
        check_fitted(self)
        assert self.classes_ is not None
        scores = self.decision_function(features)
        if len(self.classes_) == 1:
            return np.full(len(features), self.classes_[0], dtype=np.int32)
        if scores.ndim == 1:
            chosen = (scores > 0).astype(int)
            return self.classes_[chosen].astype(np.int32)
        return self.classes_[np.argmax(scores, axis=1)].astype(np.int32)
