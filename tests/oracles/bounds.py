"""Scalar support bounds: one (theta, p) evaluation per Python call.

The reference the library's numpy bound kernels in
:mod:`repro.measures.bounds` are tested against.  Each formula of the
paper's Section 3.1.2 is written out on floats, one step per function:
the feasible posterior interval, the conditional entropy H(C|X) at a
``(p, q, theta)`` triple, its lower bound ``H_lb`` (Eq. 3), ``IG_ub``
(Eq. 2), the closed-form Fisher score (Eq. 5), ``Fr_ub`` (Eq. 6) and the
``theta*`` bisection (Eq. 8).  The Jaccard redundancy of Eq. 9 is here
too, as the one-pair reference of
:func:`repro.selection.redundancy.batch_redundancy_packed`.

Every function validates its inputs (feasibility included), so a test
that feeds the oracle an impossible triple fails loudly instead of
comparing against a meaningless number.
"""

from __future__ import annotations

import math

import numpy as np

BOUND_MODES = ("paper", "exact")

#: Width at which :func:`theta_star` stops bisecting (the library's too).
THETA_TOLERANCE = 1e-9


def _check_unit(name: str, value: float, open_left: bool = False) -> None:
    low_ok = value > 0.0 if open_left else value >= 0.0
    if not (low_ok and value <= 1.0):
        interval = "(0, 1]" if open_left else "[0, 1]"
        raise ValueError(f"{name} must be in {interval}, got {value}")


def _check_feasible(p: float, q: float, theta: float) -> None:
    for name, value in (("p", p), ("q", q), ("theta", theta)):
        _check_unit(name, value)
    tolerance = 1e-12
    if theta * q > p + tolerance or theta * (1 - q) > (1 - p) + tolerance:
        raise ValueError(
            f"infeasible (p={p}, q={q}, theta={theta}): "
            "P(c|x=0) would fall outside [0, 1]"
        )


def _plogp(x: float) -> float:
    """x * log2(x) with the 0 log 0 = 0 convention (x clipped at 0)."""
    if x <= 0.0:
        return 0.0
    return x * float(np.log2(x))


def binary_entropy(p: float) -> float:
    """H(p) for a Bernoulli(p) class variable, in bits."""
    _check_unit("p", p)
    return -_plogp(p) - _plogp(1 - p)


def conditional_entropy_binary(p: float, q: float, theta: float) -> float:
    """H(C|X) for binary class and binary feature, per the paper's expansion.

    ``theta`` = P(x = 1), ``p`` = P(c = 1), ``q`` = P(c = 1 | x = 1); the
    triple must be feasible (``theta * q <= p`` and
    ``theta * (1 - q) <= 1 - p``).
    """
    _check_feasible(p, q, theta)
    if theta == 0.0:
        return binary_entropy(p)
    if theta == 1.0:
        return binary_entropy(q)
    # x = 1 branch.
    h_x1 = -_plogp(q) - _plogp(1 - q)
    # x = 0 branch: P(c=1|x=0) = (p - theta*q) / (1 - theta).
    r = (p - theta * q) / (1 - theta)
    r = min(1.0, max(0.0, r))
    h_x0 = -_plogp(r) - _plogp(1 - r)
    return theta * h_x1 + (1 - theta) * h_x0


def fisher_score_binary(p: float, q: float, theta: float) -> float:
    """Closed-form Fisher score for binary class/feature (paper Eq. 5).

    Fr = Z / (Y - Z) with Y = p(1-p)(1-theta) and Z = theta (p-q)^2;
    Fr = 0 when Y = 0 and ``inf`` when Y <= Z.
    """
    _check_feasible(p, q, theta)
    y = p * (1.0 - p) * (1.0 - theta)
    # Squared by a multiply, as numpy squares an array: ``** 2`` on a
    # float calls the C library's pow(), which is not correctly rounded
    # on every platform and left ~0.1% of bound values 1 ulp off.
    z = theta * ((p - q) * (p - q))
    if y <= 0.0:
        return 0.0
    denominator = y - z
    if denominator <= 0.0:
        return math.inf
    return z / denominator


def feasible_q_interval(theta: float, p: float) -> tuple[float, float]:
    """The interval of feasible posteriors q = P(c=1 | x=1).

    ``q in [max(0, (p + theta - 1)/theta), min(1, p/theta)]``; the lower
    end is clamped at 1.0, because the subtraction cancels for p near 1
    at tiny theta and can land 1 ulp above it.
    """
    _check_unit("theta", theta, open_left=True)
    _check_unit("p", p)
    q_low = min(1.0, max(0.0, (p + theta - 1.0) / theta))
    q_high = min(1.0, p / theta)
    return q_low, q_high


def _check_mode(mode: str) -> None:
    if mode not in BOUND_MODES:
        raise ValueError(f"unknown mode {mode!r}")


def h_lower_bound(theta: float, p: float, mode: str = "paper") -> float:
    """Lower bound of H(C|X) over feasible q (Eq. 3 and its symmetric case).

    ``"paper"`` evaluates q = 1 for theta <= p and q = p/theta above it;
    ``"exact"`` takes the minimum over both feasible endpoints.
    """
    q_low, q_high = feasible_q_interval(theta, p)
    _check_mode(mode)
    h_high = conditional_entropy_binary(p, q_high, theta)
    if mode == "paper":
        return h_high
    return min(conditional_entropy_binary(p, q_low, theta), h_high)


def ig_upper_bound(theta: float, p: float, mode: str = "paper") -> float:
    """IG_ub(theta) = H(C) - H_lb(C|X) (paper Eq. 2)."""
    return max(0.0, binary_entropy(p) - h_lower_bound(theta, p, mode))


def fisher_upper_bound(theta: float, p: float, mode: str = "paper") -> float:
    """Fr_ub(theta) (paper Eq. 6 and its symmetric case).

    ``inf`` at theta = p; 0 for a degenerate prior; ``"exact"`` maximizes
    over both feasible endpoints.
    """
    q_low, q_high = feasible_q_interval(theta, p)
    _check_mode(mode)
    if p in (0.0, 1.0):
        return 0.0
    if abs(theta - p) < 1e-15:
        return math.inf
    score = fisher_score_binary(p, q_high, theta)
    if mode == "paper":
        return score
    return max(fisher_score_binary(p, q_low, theta), score)


def theta_star(ig0: float, p: float, mode: str = "paper") -> float:
    """theta* = argmax_theta { IG_ub(theta) <= ig0 } on (0, p] (Eq. 8).

    Bisection on the scalar :func:`ig_upper_bound`, with the library's
    edge cases: a degenerate prior returns ``p``, ``ig0 <= 0`` returns 0
    and ``ig0 >= H(p)`` returns ``p``.
    """
    _check_unit("p", p)
    if not p or p == 1.0:
        return p
    if ig0 <= 0.0:
        return 0.0
    if ig0 >= binary_entropy(p):
        return p
    low, high = 0.0, p
    while high - low > THETA_TOLERANCE:
        middle = (low + high) / 2.0
        if middle in (low, high):
            break
        if ig_upper_bound(middle, p, mode) <= ig0:
            low = middle
        else:
            high = middle
    return low


def jaccard(count_a: int, count_b: int, count_both: int) -> float:
    """Jaccard coefficient of two coverages, from absolute counts."""
    if count_both < 0 or count_a < count_both or count_b < count_both:
        raise ValueError(
            f"inconsistent counts: |a|={count_a}, |b|={count_b}, "
            f"|a∩b|={count_both}"
        )
    union = count_a + count_b - count_both
    if union == 0:
        return 0.0
    return count_both / union


def weighted_jaccard_redundancy(
    count_a: int,
    count_b: int,
    count_both: int,
    relevance_a: float,
    relevance_b: float,
) -> float:
    """R(alpha, beta) of Eq. 9, from counts and the two relevances."""
    return jaccard(count_a, count_b, count_both) * min(relevance_a, relevance_b)
