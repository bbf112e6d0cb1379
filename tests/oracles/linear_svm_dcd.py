"""Unshrunk dual coordinate descent: one full sweep per epoch.

The reference the shrinking solver in :mod:`repro.classifiers.linear_svm`
is tested against.  Every epoch visits every row with a nonzero norm in a
seeded order and stops once the largest projected-gradient magnitude of
an epoch falls below ``tolerance``.
"""

from __future__ import annotations

import numpy as np


def dcd_binary(
    features: np.ndarray,
    signs: np.ndarray,
    c: float,
    max_epochs: int,
    tolerance: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Dual coordinate descent for one binary problem; returns (w, alphas).

    ``signs`` is +-1.
    """
    n_rows, n_features = features.shape
    alphas = np.zeros(n_rows)
    weights = np.zeros(n_features)
    q_diagonal = (features * features).sum(axis=1)
    active = q_diagonal > 0

    for _ in range(max_epochs):
        order = rng.permutation(n_rows)
        max_violation = 0.0
        for i in order:
            if not active[i]:
                continue
            gradient = signs[i] * (features[i] @ weights) - 1.0
            alpha = alphas[i]
            if alpha == 0.0:
                projected = min(gradient, 0.0)
            elif alpha == c:
                projected = max(gradient, 0.0)
            else:
                projected = gradient
            max_violation = max(max_violation, abs(projected))
            if projected == 0.0:
                continue
            new_alpha = min(max(alpha - gradient / q_diagonal[i], 0.0), c)
            if new_alpha != alpha:
                weights += (new_alpha - alpha) * signs[i] * features[i]
                alphas[i] = new_alpha
        if max_violation < tolerance:
            break
    return weights, alphas
