"""Theoretical bounds tying discriminative power to pattern support.

This module is the analytical heart of the paper (Section 3.1.2 and 3.2):

* ``ig_upper_bound(theta, p)`` — the information gain upper bound
  ``IG_ub(C|X) = H(C) - H_lb(C|X)`` at relative support ``theta`` and class
  prior ``p`` (Eqs. 2-3).  The paper evaluates ``H_lb`` at the boundary
  posterior ``q = 1`` when ``theta <= p`` and ``q = p / theta`` otherwise;
  mode ``"exact"`` instead minimizes H(C|X) over *both* feasible endpoints
  of q (H is concave in q, so its minimum over the feasible interval is at
  an endpoint), which is a valid — and slightly tighter on one side — bound.

* ``fisher_score_binary(p, q, theta)`` — Eq. 5, the closed-form Fisher
  score of a binary feature on a binary class that Eq. 6 maximizes.

* ``fisher_upper_bound(theta, p)`` — Eq. 6: ``theta (1-p) / (p - theta)``
  for ``theta <= p`` (→ ∞ as theta → p) and the symmetric
  ``p (1-theta) / (theta - p)`` for ``theta > p``.

* ``theta_star(ig0, p)`` — the min_sup setting strategy of Section 3.2
  (Eq. 8): the largest support threshold whose IG upper bound is still
  <= ``ig0``, found by bisection on the monotone low-support branch.
"""

from __future__ import annotations

from typing import Literal

from .entropy import binary_entropy, conditional_entropy_binary

__all__ = [
    "fisher_score_binary",
    "feasible_q_interval",
    "h_lower_bound",
    "ig_upper_bound",
    "fisher_upper_bound",
    "theta_star",
]

BoundMode = Literal["paper", "exact"]


def _check_unit(name: str, value: float, open_left: bool = False) -> None:
    low_ok = value > 0.0 if open_left else value >= 0.0
    if not (low_ok and value <= 1.0):
        interval = "(0, 1]" if open_left else "[0, 1]"
        raise ValueError(f"{name} must be in {interval}, got {value}")


def fisher_score_binary(p: float, q: float, theta: float) -> float:
    """Closed-form Fisher score for binary class/feature (paper Eq. 5).

    Uses the (p, q, theta) parameterization: Fr = Z / (Y - Z) with
    Y = p(1-p)(1-theta) and Z = theta (p-q)^2; Fr = 0 when Y = 0.
    Raises ``ValueError`` on infeasible parameter triples.
    """
    for name, value in (("p", p), ("q", q), ("theta", theta)):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")
    tolerance = 1e-12
    if theta * q > p + tolerance or theta * (1 - q) > (1 - p) + tolerance:
        raise ValueError(
            f"infeasible (p={p}, q={q}, theta={theta}): "
            "P(c|x=0) would fall outside [0, 1]"
        )
    y = p * (1.0 - p) * (1.0 - theta)
    z = theta * (p - q) ** 2
    if y <= 0.0:
        return 0.0
    denominator = y - z
    if denominator <= 0.0:
        return float("inf")
    return z / denominator


def feasible_q_interval(theta: float, p: float) -> tuple[float, float]:
    """The interval of feasible posteriors q = P(c=1 | x=1).

    Feasibility requires the x=0 branch's conditional probability
    ``(p - theta q) / (1 - theta)`` to lie in [0, 1], i.e.
    ``q in [max(0, (p + theta - 1)/theta), min(1, p/theta)]``.
    """
    _check_unit("theta", theta, open_left=True)
    _check_unit("p", p)
    # Mathematically (p + theta - 1)/theta <= 1 whenever p <= 1, but the
    # subtraction cancels catastrophically for p near 1 at tiny theta and
    # can land 1 ulp above 1.0 — clamp so downstream entropy evaluation
    # never sees an infeasible q.
    q_low = min(1.0, max(0.0, (p + theta - 1.0) / theta))
    q_high = min(1.0, p / theta)
    return q_low, q_high


def h_lower_bound(theta: float, p: float, mode: BoundMode = "paper") -> float:
    """Lower bound of H(C|X) over feasible q, for fixed theta and p.

    ``mode="paper"`` evaluates the endpoint the paper uses (q = 1 for
    theta <= p, q = p/theta for theta > p — Eq. 3 and its symmetric case);
    ``mode="exact"`` takes the minimum over both feasible endpoints.
    """
    q_low, q_high = feasible_q_interval(theta, p)
    if mode == "paper":
        return conditional_entropy_binary(p, q_high, theta)
    if mode == "exact":
        return min(
            conditional_entropy_binary(p, q_low, theta),
            conditional_entropy_binary(p, q_high, theta),
        )
    raise ValueError(f"unknown mode {mode!r}")


def ig_upper_bound(theta: float, p: float, mode: BoundMode = "paper") -> float:
    """IG_ub(theta) = H(C) - H_lb(C|X) (paper Eq. 2).

    Every binary feature with relative support ``theta`` on a dataset with
    class prior ``p`` has information gain <= this value.
    """
    return max(0.0, binary_entropy(p) - h_lower_bound(theta, p, mode=mode))


def fisher_upper_bound(theta: float, p: float, mode: BoundMode = "paper") -> float:
    """Fisher score upper bound at support theta (paper Eq. 6 + symmetric).

    Returns ``inf`` at theta = p (a perfectly class-aligned feature is
    feasible there).  ``mode`` mirrors :func:`ig_upper_bound`: "paper" uses
    the q = 1 / q = p/theta endpoint, "exact" maximizes over both feasible
    endpoints (Fr is monotone in (p - q)^2, so its maximum over q is at an
    endpoint too).
    """
    q_low, q_high = feasible_q_interval(theta, p)
    if p in (0.0, 1.0):
        return 0.0
    if abs(theta - p) < 1e-15:
        return float("inf")
    if mode == "paper":
        return fisher_score_binary(p, q_high, theta)
    if mode == "exact":
        return max(
            fisher_score_binary(p, q_low, theta),
            fisher_score_binary(p, q_high, theta),
        )
    raise ValueError(f"unknown mode {mode!r}")


def theta_star(
    ig0: float,
    p: float,
    mode: BoundMode = "paper",
    tolerance: float = 1e-9,
) -> float:
    """The min_sup setting strategy (paper Section 3.2, Eq. 8).

    Returns ``theta* = argmax_theta { IG_ub(theta) <= ig0 }`` on the
    low-support branch ``theta in (0, p]``, where ``IG_ub`` is monotonically
    nondecreasing.  Mining with ``min_sup = theta*`` cannot skip any feature
    whose information gain passes the filter threshold ``ig0``.

    Edge cases: ``ig0 >= H(p)`` returns ``p`` (the bound never exceeds
    H(C)); ``ig0 <= 0`` returns 0.0 (every positive support can beat a
    non-positive threshold).
    """
    _check_unit("p", p)
    if not p or p == 1.0:
        # Degenerate prior: H(C) = 0, every feature has IG 0 <= any ig0 >= 0.
        return p
    if ig0 <= 0.0:
        return 0.0
    if ig0 >= binary_entropy(p):
        return p  # the bound maxes out at H(C), reached at theta = p
    low, high = 0.0, p
    # Invariant: IG_ub(low) <= ig0 < IG_ub(high) (IG_ub(0+) = 0).
    while high - low > tolerance:
        middle = (low + high) / 2.0
        if middle in (low, high):  # float exhaustion
            break
        if ig_upper_bound(middle, p, mode=mode) <= ig0:
            low = middle
        else:
            high = middle
    return low
