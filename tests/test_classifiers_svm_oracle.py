"""Differential suite: the shrinking dual coordinate descent solver against
the unshrunk one-sweep-per-epoch oracle (``tests/oracles/linear_svm_dcd.py``).

Designs are small, binary or real-valued, with duplicated rows (whose
duals are not unique, so alphas are not compared), and zero rows when the
bias column is off.  Both solvers run to a tight tolerance; the weights,
which are unique, and the dual objectives must agree.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers.linear_svm import LinearSVM, _dcd_binary
from tests.oracles.linear_svm_dcd import dcd_binary

TOLERANCE = 1e-6
MAX_EPOCHS = 100_000


@st.composite
def problems(draw):
    n_distinct = draw(st.integers(2, 12))
    n_features = draw(st.integers(1, 5))
    if draw(st.booleans()):
        values = st.sampled_from([0.0, 1.0])
    else:
        values = st.integers(-8, 8).map(lambda v: v / 4)
    distinct = np.array(
        draw(
            st.lists(
                st.lists(values, min_size=n_features, max_size=n_features),
                min_size=n_distinct,
                max_size=n_distinct,
            )
        )
    )
    repeats = draw(st.lists(st.integers(0, n_distinct - 1), max_size=8))
    features = np.vstack([distinct, distinct[repeats]])
    n_classes = draw(st.sampled_from([2, 3]))
    labels = np.array(
        draw(
            st.lists(
                st.integers(0, n_classes - 1),
                min_size=len(features),
                max_size=len(features),
            )
        )
    )
    c = draw(st.sampled_from([0.25, 1.0, 4.0]))
    return features, labels, c, draw(st.booleans())


def _dual_objective(signed, alphas):
    weights = signed.T @ alphas
    return 0.5 * weights @ weights - alphas.sum()


@settings(max_examples=80, deadline=None)
@given(problems())
def test_shrinking_solver_matches_unshrunk_oracle(problem):
    features, labels, c, fit_bias = problem
    model = LinearSVM(
        c=c, tolerance=TOLERANCE, max_epochs=MAX_EPOCHS, fit_bias=fit_bias
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model.fit(features, labels)
    if len(model.classes_) < 2:
        return
    design = model._augment(features.astype(float))
    positives = model.classes_[1:] if len(model.classes_) == 2 else model.classes_
    # The model's problems in fit's order, sharing fit's generator.
    rng = np.random.default_rng(model.seed)
    for k, label in enumerate(positives):
        signs = np.where(labels == label, 1.0, -1.0)
        signed = design * signs[:, np.newaxis]
        solution = _dcd_binary(signed.copy(), c, MAX_EPOCHS, TOLERANCE, rng)
        assert np.array_equal(solution.weights, model.weights_[k])
        alphas = np.asarray(solution.alphas)
        assert ((alphas >= 0.0) & (alphas <= c)).all()
        assert np.allclose(signed.T @ alphas, solution.weights, atol=1e-9)

        # Convergence, recomputed from scratch over the rows that can move w.
        rows = (signed * signed).sum(axis=1) > 0
        gradient = (signed @ solution.weights)[rows] - 1.0
        alpha = alphas[rows]
        projected = np.where(
            alpha == 0.0,
            np.minimum(gradient, 0.0),
            np.where(alpha == c, np.maximum(gradient, 0.0), gradient),
        )
        violation = projected.max() - projected.min() if rows.any() else 0.0
        assert violation == solution.violation
        assert solution.violation <= TOLERANCE

        oracle_weights, oracle_alphas = dcd_binary(
            design, signs, c, MAX_EPOCHS, TOLERANCE, np.random.default_rng(0)
        )
        assert np.allclose(model.weights_[k], oracle_weights, atol=1e-4)
        assert np.isclose(
            _dual_objective(signed, alphas),
            _dual_objective(signed, oracle_alphas),
            rtol=1e-6,
            atol=1e-6,
        )
