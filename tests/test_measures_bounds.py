"""Tests for the support-vs-discriminative-power bounds (paper §3.1.2, §3.2).

These are the paper's central theoretical claims, checked as properties:

* every feasible (p, q, theta) configuration has IG below IG_ub(theta, p)
  and Fisher score below Fr_ub(theta, p);
* the IG bound is monotone nondecreasing on theta in (0, p];
* theta_star is the generalized inverse of IG_ub on that branch;
* empirical patterns mined from data always sit under the curves
  (Figures 2-3 as assertions).

The feasible-q interval, H(C|X) at a (p, q, theta) triple and the Eq. 5
closed form are private steps of the library's bound kernels; their
scalar definitions in ``tests/oracles/bounds.py`` generate the feasible
configurations the bounds are checked against.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.measures import (
    binary_entropy,
    fisher_upper_bound,
    ig_upper_bound,
    theta_star,
)
from tests.oracles.bounds import (
    conditional_entropy_binary,
    feasible_q_interval,
    fisher_score_binary,
)
from tests.oracles.scoring import batch_pattern_stats, fisher_score, information_gain

probability = st.floats(0.02, 0.98)


class TestFeasibleInterval:
    def test_small_theta_full_interval(self):
        low, high = feasible_q_interval(0.1, 0.5)
        assert low == 0.0
        assert high == 1.0

    def test_large_theta_narrow_interval(self):
        low, high = feasible_q_interval(0.9, 0.5)
        assert low == pytest.approx((0.5 + 0.9 - 1.0) / 0.9)
        assert high == pytest.approx(0.5 / 0.9)

    @settings(max_examples=60, deadline=None)
    @given(theta=probability, p=probability)
    def test_interval_is_valid(self, theta, p):
        low, high = feasible_q_interval(theta, p)
        assert 0.0 <= low <= high <= 1.0


class TestIGUpperBound:
    def test_zero_at_tiny_support(self):
        assert ig_upper_bound(1e-9, 0.5) < 1e-6

    def test_maximal_at_theta_equals_p(self):
        p = 0.4
        assert ig_upper_bound(p, p) == pytest.approx(binary_entropy(p), abs=1e-9)

    def test_small_at_very_high_support(self):
        assert ig_upper_bound(0.999, 0.5, mode="exact") < 0.02

    def test_paper_mode_matches_q1_branch(self):
        # For theta <= p the paper evaluates H_lb at q = 1 exactly.
        p, theta = 0.6, 0.3
        expected = binary_entropy(p) - conditional_entropy_binary(p, 1.0, theta)
        assert ig_upper_bound(theta, p, mode="paper") == pytest.approx(expected)

    def test_exact_no_larger_than_paper_on_low_branch(self):
        for theta in (0.05, 0.15, 0.3):
            assert ig_upper_bound(theta, 0.5, mode="exact") <= ig_upper_bound(
                theta, 0.5, mode="paper"
            ) + 1e-12

    @settings(max_examples=120, deadline=None)
    @given(p=probability, q=probability, theta=probability)
    def test_every_feasible_ig_is_bounded(self, p, q, theta):
        if theta * q > p or theta * (1 - q) > 1 - p:
            return
        gain = binary_entropy(p) - conditional_entropy_binary(p, q, theta)
        assert gain <= ig_upper_bound(theta, p, mode="exact") + 1e-9

    @settings(max_examples=40, deadline=None)
    @given(p=probability)
    def test_monotone_on_low_support_branch(self, p):
        thetas = np.linspace(1e-4, p, 30)
        values = [ig_upper_bound(float(t), p) for t in thetas]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


class TestFisherUpperBound:
    def test_eq6_low_branch(self):
        # Fr_ub|q=1 = theta (1-p) / (p - theta) for theta <= p (Eq. 6).
        p, theta = 0.5, 0.2
        assert fisher_upper_bound(theta, p) == pytest.approx(
            theta * (1 - p) / (p - theta)
        )

    def test_symmetric_high_branch(self):
        # For theta > p the bound is p (1-theta) / (theta - p).
        p, theta = 0.3, 0.7
        assert fisher_upper_bound(theta, p) == pytest.approx(
            p * (1 - theta) / (theta - p)
        )

    def test_divergence_at_theta_equals_p(self):
        assert fisher_upper_bound(0.4, 0.4) == float("inf")

    def test_monotone_increasing_toward_p(self):
        p = 0.5
        values = [fisher_upper_bound(t, p) for t in (0.1, 0.2, 0.3, 0.4)]
        assert all(b > a for a, b in zip(values, values[1:]))

    @settings(max_examples=120, deadline=None)
    @given(p=probability, q=probability, theta=probability)
    def test_every_feasible_fisher_is_bounded(self, p, q, theta):
        if theta * q > p or theta * (1 - q) > 1 - p:
            return
        score = fisher_score_binary(p, q, theta)
        bound = fisher_upper_bound(theta, p, mode="exact")
        if bound == float("inf"):
            return
        assert score <= bound + 1e-6


class TestThetaStar:
    def test_inverse_property(self):
        p = 0.5
        for ig0 in (0.01, 0.05, 0.1, 0.3):
            theta = theta_star(ig0, p)
            assert ig_upper_bound(theta, p) <= ig0 + 1e-6
            stepped = min(p, theta + 1e-4)
            if stepped < p:
                assert ig_upper_bound(stepped, p) >= ig0 - 1e-6

    def test_threshold_above_entropy_returns_p(self):
        p = 0.3
        assert theta_star(2.0, p) == p

    def test_zero_threshold(self):
        assert theta_star(0.0, 0.5) == 0.0

    def test_degenerate_prior(self):
        assert theta_star(0.1, 0.0) == 0.0
        assert theta_star(0.1, 1.0) == 1.0

    def test_monotone_in_ig0(self):
        p = 0.4
        thetas = [theta_star(ig0, p) for ig0 in (0.01, 0.05, 0.1, 0.2)]
        assert all(b >= a for a, b in zip(thetas, thetas[1:]))

    @settings(max_examples=40, deadline=None)
    @given(p=probability, ig0=st.floats(0.001, 0.9))
    def test_soundness_no_good_feature_below_theta_star(self, p, ig0):
        """Any feature with support below theta* has IG below ig0."""
        theta = theta_star(ig0, p)
        if theta <= 1e-6:
            return
        probe = theta * 0.9
        assert ig_upper_bound(probe, p) <= ig0 + 1e-6


class TestEmpiricalContainment:
    def test_all_mined_patterns_under_both_bounds(self, planted_transactions):
        """Figures 2-3 as an assertion: scatter sits under the curve."""
        from repro.mining import mine_class_patterns

        data = planted_transactions
        prior = float(data.class_counts()[1]) / data.n_rows
        mined = mine_class_patterns(data, min_support=0.15, min_length=1)
        stats = batch_pattern_stats(mined.patterns, data)
        for stat in stats:
            if stat.support in (0, data.n_rows):
                continue
            gain = information_gain(stat)
            assert gain <= ig_upper_bound(stat.theta, prior, mode="exact") + 1e-9
            score = fisher_score(stat)
            bound = fisher_upper_bound(stat.theta, prior, mode="exact")
            if bound != float("inf"):
                assert score <= bound + 1e-6
