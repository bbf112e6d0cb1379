"""Tests for the SVM implementations (SMO kernel SVM + DCD linear SVM)."""

import warnings

import numpy as np
import pytest

from repro import obs
from repro.classifiers import KernelSVM, LinearSVM, linear_kernel, rbf_kernel
from repro.classifiers.kernels import get_kernel


def _linearly_separable(rng, n=120, d=6, margin=0.5):
    features = rng.normal(size=(n, d))
    weights = rng.normal(size=d)
    scores = features @ weights
    keep = np.abs(scores) > margin
    features, scores = features[keep], scores[keep]
    return features, (scores > 0).astype(int)


def _xor_data(rng, n=200, noise=0.05):
    bits = rng.integers(0, 2, size=(n, 2))
    labels = (bits[:, 0] ^ bits[:, 1]).astype(int)
    features = bits + rng.normal(scale=noise, size=bits.shape)
    return features, labels


class TestKernels:
    def test_linear_kernel_is_dot(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(5, 4))
        assert np.allclose(linear_kernel(a, b), a @ b.T)

    def test_rbf_diagonal_ones(self, rng):
        a = rng.normal(size=(6, 3))
        gram = rbf_kernel(a, a, gamma=0.7)
        assert np.allclose(np.diag(gram), 1.0)

    def test_rbf_symmetric_psd(self, rng):
        a = rng.normal(size=(10, 3))
        gram = rbf_kernel(a, a, gamma=1.3)
        assert np.allclose(gram, gram.T)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() > -1e-8

    def test_get_kernel_unknown(self):
        with pytest.raises(KeyError):
            get_kernel("poly")


class TestLinearSVM:
    def test_separable_data_perfect_train(self, rng):
        features, labels = _linearly_separable(rng)
        model = LinearSVM(c=10.0).fit(features, labels)
        assert model.score(features, labels) >= 0.98

    def test_binary_decision_function_sign(self, rng):
        features, labels = _linearly_separable(rng)
        model = LinearSVM(c=10.0).fit(features, labels)
        decisions = model.decision_function(features)
        predictions = model.predict(features)
        assert ((decisions > 0) == (predictions == model.classes_[1])).all()

    def test_multiclass_one_vs_rest(self, rng):
        centers = np.array([[4, 0], [0, 4], [-4, -4]])
        features = np.vstack([
            rng.normal(size=(40, 2)) + c for c in centers
        ])
        labels = np.repeat([0, 1, 2], 40)
        model = LinearSVM(c=1.0).fit(features, labels)
        assert model.score(features, labels) > 0.95

    def test_single_class_degenerate(self):
        model = LinearSVM().fit(np.zeros((5, 2)), np.full(5, 3))
        assert (model.predict(np.zeros((2, 2))) == 3).all()

    def test_deterministic(self, rng):
        features, labels = _linearly_separable(rng)
        a = LinearSVM(seed=1).fit(features, labels).weights_
        b = LinearSVM(seed=1).fit(features, labels).weights_
        assert np.array_equal(a, b)

    def test_weights_independent_of_memory_layout(self, rng):
        """The solver works on its own C-ordered copy, so a C- and an
        F-ordered design give byte-identical weights."""
        features = (rng.random((150, 12)) < 0.4).astype(float)
        labels = rng.integers(0, 3, size=150)
        c_ordered = LinearSVM().fit(np.ascontiguousarray(features), labels)
        f_ordered = LinearSVM().fit(np.asfortranarray(features), labels)
        assert np.array_equal(c_ordered.weights_, f_ordered.weights_)

    def test_max_epochs_stop_warns_and_counts(self, rng):
        """A fit that max_epochs stops short of the tolerance says so."""
        features, labels = _xor_data(rng)
        with obs.session() as session:
            with pytest.warns(RuntimeWarning, match="max_epochs=1") as caught:
                LinearSVM(max_epochs=1).fit(features, labels)
        assert len(caught) == 1
        counters = session.counters
        assert counters["classifiers.linear_svm.problems"] == 1
        assert counters["classifiers.linear_svm.epochs"] == 1
        assert counters["classifiers.linear_svm.not_converged"] == 1
        violation = session.histograms["classifiers.linear_svm.violation"]
        assert violation.count == 1 and violation.max > 0.1
        [event] = [e for e in session.events if e["kind"] == "warning"]
        assert event["attrs"]["epochs"] == 1
        assert event["attrs"]["label"] == 1

    def test_converged_fit_neither_warns_nor_counts(self, rng):
        features, labels = _linearly_separable(rng)
        labels = labels + 2 * (features[:, 0] > 1.0)  # three classes
        with obs.session() as session:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                model = LinearSVM().fit(features, labels)
        counters = session.counters
        assert counters["classifiers.linear_svm.problems"] == len(model.classes_)
        assert 0 < counters["classifiers.linear_svm.epochs"] < 3 * model.max_epochs
        assert "classifiers.linear_svm.not_converged" not in counters
        violation = session.histograms["classifiers.linear_svm.violation"]
        assert violation.count == len(model.classes_)
        assert violation.max <= model.tolerance
        assert not [e for e in session.events if e["kind"] == "warning"]

    def test_clone_unfitted(self):
        model = LinearSVM(c=3.0)
        clone = model.clone()
        assert clone is not model
        assert clone.c == 3.0

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            LinearSVM().predict(np.zeros((1, 2)))

    def test_invalid_c(self):
        with pytest.raises(ValueError):
            LinearSVM(c=0.0)

    def test_dual_feasibility_kkt(self, rng):
        """Weights must be expressible with box-constrained duals: check
        the primal-side KKT surrogate — no margin violation exceeds what C
        permits (hinge subgradient bounded)."""
        features, labels = _linearly_separable(rng, margin=1.0)
        c = 1.0
        model = LinearSVM(c=c, tolerance=1e-4, max_epochs=500).fit(
            features, labels
        )
        signs = np.where(labels == model.classes_[1], 1.0, -1.0)
        augmented = np.hstack([features, np.ones((len(features), 1))])
        margins = signs * (augmented @ model.weights_[0])
        # With a separable set and moderate C, most points clear margin ~1.
        assert (margins > 0.9).mean() > 0.9


class TestKernelSVM:
    def test_linear_kernel_separable(self, rng):
        features, labels = _linearly_separable(rng)
        model = KernelSVM(c=10.0, kernel="linear").fit(features, labels)
        assert model.score(features, labels) >= 0.98

    def test_rbf_solves_xor(self, rng):
        """The kernel trick's canonical case — and the paper's B^3 example."""
        features, labels = _xor_data(rng)
        model = KernelSVM(c=10.0, kernel="rbf", gamma=2.0).fit(features, labels)
        assert model.score(features, labels) > 0.95

    def test_linear_cannot_solve_xor(self, rng):
        features, labels = _xor_data(rng)
        linear = LinearSVM(c=10.0).fit(features, labels)
        assert linear.score(features, labels) < 0.8

    def test_multiclass_one_vs_one(self, rng):
        centers = np.array([[4, 0], [0, 4], [-4, -4], [4, 4]])
        features = np.vstack([rng.normal(size=(30, 2)) + c for c in centers])
        labels = np.repeat([0, 1, 2, 3], 30)
        model = KernelSVM(kernel="rbf", c=10.0).fit(features, labels)
        assert model.score(features, labels) > 0.95

    def test_gamma_scale_resolution(self, rng):
        features, labels = _linearly_separable(rng)
        model = KernelSVM(kernel="rbf", gamma="scale").fit(features, labels)
        assert model.score(features, labels) > 0.8

    def test_agreement_with_linear_dcd(self, rng):
        """Two independent solvers of the same problem mostly agree."""
        features, labels = _linearly_separable(rng)
        smo = KernelSVM(c=1.0, kernel="linear").fit(features, labels)
        dcd = LinearSVM(c=1.0).fit(features, labels)
        agreement = (smo.predict(features) == dcd.predict(features)).mean()
        assert agreement > 0.95

    def test_single_class(self):
        model = KernelSVM().fit(np.zeros((4, 2)), np.full(4, 1))
        assert (model.predict(np.zeros((3, 2))) == 1).all()

    def test_smo_kkt_conditions(self, rng):
        """Post-hoc KKT check on the binary SMO solution."""
        features, labels = _linearly_separable(rng, n=80)
        c = 1.0
        model = KernelSVM(c=c, kernel="linear", tolerance=1e-4)
        model.fit(features, labels)
        _, _, machine, indices, signs = model._machines[0]
        gram = features[indices] @ features[indices].T
        alphas = machine.alphas
        decision = gram @ (alphas * signs) + machine.bias
        margins = signs * decision
        tolerance = 0.05
        free = (alphas > 1e-6) & (alphas < c - 1e-6)
        assert np.all(np.abs(margins[free] - 1.0) < tolerance)
        at_zero = alphas <= 1e-6
        assert np.all(margins[at_zero] >= 1.0 - tolerance)
        at_c = alphas >= c - 1e-6
        assert np.all(margins[at_c] <= 1.0 + tolerance)
