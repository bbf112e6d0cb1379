"""Theoretical bounds tying discriminative power to pattern support.

This module is the analytical heart of the paper (Section 3.1.2 and 3.2):

* ``ig_upper_bound(theta, p)`` — the information gain upper bound
  ``IG_ub(C|X) = H(C) - H_lb(C|X)`` at relative support ``theta`` and class
  prior ``p`` (Eqs. 2-3).  The paper evaluates ``H_lb`` at the boundary
  posterior ``q = 1`` when ``theta <= p`` and ``q = p / theta`` otherwise;
  mode ``"exact"`` instead minimizes H(C|X) over *both* feasible endpoints
  of q (H is concave in q, so its minimum over the feasible interval is at
  an endpoint), which is a valid — and slightly tighter on one side — bound.

* ``fisher_upper_bound(theta, p)`` — Eq. 6: the closed-form Fisher score
  of Eq. 5 at the same endpoint, ``theta (1-p) / (p - theta)`` for
  ``theta <= p`` (→ ∞ as theta → p) and the symmetric
  ``p (1-theta) / (theta - p)`` for ``theta > p``.

* ``theta_star(ig0, p)`` — the min_sup setting strategy of Section 3.2
  (Eq. 8): the largest support threshold whose IG upper bound is still
  <= ``ig0``, found by bisection on the monotone low-support branch.

Both bounds take a float or an array of supports: a float returns a numpy
``float64`` (a ``float`` subclass), an array evaluates a whole support grid
— the Figure 2/3 curves — in one numpy pass.  The feasible-q interval, the
conditional entropy at a ``(p, q, theta)`` triple and the Eq. 5 closed form
are private steps of the two kernels.  Their scalar, one-theta-at-a-time
definitions live with the tests in ``tests/oracles/bounds.py``, the
differential reference.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .entropy import binary_entropy

__all__ = [
    "ig_upper_bound",
    "fisher_upper_bound",
    "theta_star",
]

BoundMode = Literal["paper", "exact"]

#: Width of the support bracket at which :func:`theta_star` stops.
_THETA_TOLERANCE = 1e-9


def _check_inputs(theta, p: float, mode: str) -> tuple[np.ndarray, float]:
    thetas = np.asarray(theta, dtype=float)
    if thetas.size and not ((thetas > 0.0) & (thetas <= 1.0)).all():
        raise ValueError("theta must be in (0, 1]")
    return thetas, _check_prior(p, mode)


def _check_prior(p: float, mode: str) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if mode not in ("paper", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    return float(p)


def _feasible_q(thetas: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Ends of the feasible posteriors ``q = P(c=1 | x=1)`` at each theta.

    Feasibility requires the x=0 branch's ``(p - theta q) / (1 - theta)``
    to lie in [0, 1], i.e.
    ``q in [max(0, (p + theta - 1)/theta), min(1, p/theta)]``.
    """
    # Mathematically (p + theta - 1)/theta <= 1 whenever p <= 1, but the
    # subtraction cancels catastrophically for p near 1 at tiny theta and
    # can land 1 ulp above 1.0 — clamp so the entropy never sees an
    # infeasible q.
    q_low = np.minimum(1.0, np.maximum(0.0, (p + thetas - 1.0) / thetas))
    q_high = np.minimum(1.0, p / thetas)
    return q_low, q_high


def _conditional_entropy(p: float, q: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """H(C|X) at feasible (p, q, theta): ``theta h(q) + (1-theta) h(r)``.

    ``r = (p - theta q)/(1 - theta)`` is P(c=1 | x=0); at theta = 1 its
    branch weight is 0, which zeroes the (clamped, finite) term.
    """
    r = (p - thetas * q) / np.where(thetas < 1.0, 1.0 - thetas, 1.0)
    h_x0 = binary_entropy(np.clip(r, 0.0, 1.0))
    return thetas * binary_entropy(q) + (1.0 - thetas) * h_x0


def _fisher_score(p: float, q: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """Closed-form Fisher score (paper Eq. 5) at feasible triples.

    ``Fr = Z / (Y - Z)`` with ``Y = p(1-p)(1-theta)`` and
    ``Z = theta (p-q)^2``; 0 where ``Y = 0`` and ``inf`` where ``Y <= Z``.
    """
    y = p * (1.0 - p) * (1.0 - thetas)
    # np.square multiplies; ``** 2`` on a numpy scalar calls pow(), which
    # can round differently, so a float theta would disagree with an array.
    z = thetas * np.square(p - q)
    denominator = y - z
    scores = np.where(
        denominator > 0.0, z / np.where(denominator > 0.0, denominator, 1.0), np.inf
    )
    return np.where(y <= 0.0, 0.0, scores)


def ig_upper_bound(theta, p: float, mode: BoundMode = "paper"):
    """IG_ub(theta) = H(C) - H_lb(C|X) (paper Eq. 2).

    Every binary feature with relative support ``theta`` on a dataset with
    class prior ``p`` has information gain <= this value.  ``theta`` is a
    float in (0, 1] or an array of them; the result has its shape.
    """
    thetas, p = _check_inputs(theta, p, mode)
    q_low, q_high = _feasible_q(thetas, p)
    h_lb = _conditional_entropy(p, q_high, thetas)
    if mode == "exact":
        h_lb = np.minimum(h_lb, _conditional_entropy(p, q_low, thetas))
    return np.maximum(0.0, binary_entropy(p) - h_lb)[()]


def fisher_upper_bound(theta, p: float, mode: BoundMode = "paper"):
    """Fisher score upper bound at support theta (paper Eq. 6 + symmetric).

    Returns ``inf`` at theta = p (a perfectly class-aligned feature is
    feasible there) and 0 for a degenerate prior.  ``mode`` mirrors
    :func:`ig_upper_bound`: "paper" uses the q = 1 / q = p/theta endpoint,
    "exact" maximizes over both feasible endpoints (Fr is monotone in
    (p - q)^2, so its maximum over q is at an endpoint too).
    """
    thetas, p = _check_inputs(theta, p, mode)
    if p in (0.0, 1.0):
        return np.zeros_like(thetas)[()]
    q_low, q_high = _feasible_q(thetas, p)
    scores = _fisher_score(p, q_high, thetas)
    if mode == "exact":
        scores = np.maximum(scores, _fisher_score(p, q_low, thetas))
    return np.where(np.abs(thetas - p) < 1e-15, np.inf, scores)[()]


def theta_star(ig0: float, p: float, mode: BoundMode = "paper") -> float:
    """The min_sup setting strategy (paper Section 3.2, Eq. 8).

    Returns ``theta* = argmax_theta { IG_ub(theta) <= ig0 }`` on the
    low-support branch ``theta in (0, p]``, where ``IG_ub`` is monotonically
    nondecreasing.  Mining with ``min_sup = theta*`` cannot skip any feature
    whose information gain passes the filter threshold ``ig0``.

    Edge cases: ``ig0 >= H(p)`` returns ``p`` (the bound never exceeds
    H(C)); ``ig0 <= 0`` returns 0.0 (every positive support can beat a
    non-positive threshold).
    """
    p = _check_prior(p, mode)
    if not p or p == 1.0:
        # Degenerate prior: H(C) = 0, every feature has IG 0 <= any ig0 >= 0.
        return p
    if ig0 <= 0.0:
        return 0.0
    if ig0 >= binary_entropy(p):
        return p  # the bound maxes out at H(C), reached at theta = p
    low, high = 0.0, p
    # Invariant: IG_ub(low) <= ig0 < IG_ub(high) (IG_ub(0+) = 0).
    while high - low > _THETA_TOLERANCE:
        middle = (low + high) / 2.0
        if middle in (low, high):  # float exhaustion
            break
        if ig_upper_bound(middle, p, mode) <= ig0:
            low = middle
        else:
            high = middle
    return low
