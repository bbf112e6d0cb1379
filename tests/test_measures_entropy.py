"""Tests for entropy primitives and the conditional-entropy expansion.

H(C|X) at a (p, q, theta) triple is a private step of the library's bound
kernels; its scalar expansion is checked here on the oracle in
``tests/oracles/bounds.py``, which the bound kernels are pinned to.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measures import binary_entropy, entropy
from tests.oracles.bounds import conditional_entropy_binary

unit = st.floats(0.0, 1.0, allow_nan=False)


class TestEntropy:
    def test_uniform_binary_is_one_bit(self):
        assert entropy([0.5, 0.5]) == pytest.approx(1.0)

    def test_deterministic_is_zero(self):
        assert entropy([1.0, 0.0]) == 0.0

    def test_counts_normalized(self):
        assert entropy([10, 10]) == pytest.approx(1.0)

    def test_uniform_k_classes(self):
        assert entropy([1] * 8) == pytest.approx(3.0)

    def test_zero_vector(self):
        assert entropy([0, 0]) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            entropy([-1, 2])

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            entropy(np.ones((2, 2)))


class TestBinaryEntropy:
    def test_extremes(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_symmetry(self):
        assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)
        with pytest.raises(ValueError):
            binary_entropy(np.array([0.5, -0.1]))

    def test_array_matches_elementwise(self):
        values = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
        grid = binary_entropy(values)
        assert grid.shape == values.shape
        assert grid.tolist() == [binary_entropy(float(v)) for v in values]

    def test_float_returns_positive_zero_at_extremes(self):
        for p in (0.0, 1.0):
            value = binary_entropy(p)
            assert isinstance(value, float)
            assert math.copysign(1.0, value) == 1.0


class TestConditionalEntropyBinary:
    def test_independent_feature_keeps_entropy(self):
        # q == p means X tells nothing: H(C|X) = H(C).
        p = 0.4
        assert conditional_entropy_binary(p, p, 0.5) == pytest.approx(
            binary_entropy(p)
        )

    def test_perfect_feature_zero_entropy(self):
        # theta == p, q == 1: X identifies class 1 exactly.
        assert conditional_entropy_binary(0.4, 1.0, 0.4) == pytest.approx(0.0)

    def test_matches_direct_computation(self):
        p, q, theta = 0.45, 0.7, 0.3
        r = (p - theta * q) / (1 - theta)
        expected = theta * binary_entropy(q) + (1 - theta) * binary_entropy(r)
        assert conditional_entropy_binary(p, q, theta) == pytest.approx(expected)

    def test_infeasible_rejected(self):
        # theta*q > p is impossible.
        with pytest.raises(ValueError, match="infeasible"):
            conditional_entropy_binary(0.1, 0.9, 0.5)

    def test_theta_zero_returns_prior_entropy(self):
        assert conditional_entropy_binary(0.3, 0.0, 0.0) == pytest.approx(
            binary_entropy(0.3)
        )

    @settings(max_examples=100, deadline=None)
    @given(p=unit, q=unit, theta=unit)
    def test_never_exceeds_class_entropy(self, p, q, theta):
        """Conditioning cannot increase entropy: H(C|X) <= H(C)."""
        if theta * q > p or theta * (1 - q) > 1 - p:
            return  # infeasible triple
        value = conditional_entropy_binary(p, q, theta)
        assert value <= binary_entropy(p) + 1e-9
        assert value >= -1e-12

    @settings(max_examples=60, deadline=None)
    @given(p=st.floats(0.05, 0.95), theta=st.floats(0.05, 0.95))
    def test_concavity_in_q_at_midpoint(self, p, theta):
        """H(C|X) concave in q: midpoint above chord endpoints' mean."""
        q_low = max(0.0, (p + theta - 1.0) / theta)
        q_high = min(1.0, p / theta)
        if q_high - q_low < 1e-6:
            return
        mid = (q_low + q_high) / 2
        h_mid = conditional_entropy_binary(p, mid, theta)
        h_ends = (
            conditional_entropy_binary(p, q_low, theta)
            + conditional_entropy_binary(p, q_high, theta)
        ) / 2
        assert h_mid >= h_ends - 1e-9
