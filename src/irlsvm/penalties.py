"""The engine's per-pass penalty terms and the full surrogate penalty that
verification evaluates; the leaf definitions are in tests/risk_reference.py.

A penalty is lam * beta.beta + mu * sum |beta_j|: the constants alone say
which parts it has. A part whose constant is 0 is not evaluated, so it
contributes exactly +0.0 even where its sums would overflow.
"""

from __future__ import annotations

import numpy as np


def _penalty_terms(beta: np.ndarray, lam: float, mu: float, epsilon: float):
    """The engine's once-per-pass penalty terms at beta: (the exact penalty,
    the smoothed penalty, the diagonal of the quadratic surrogate anchored
    at beta without its intercept entry), the last two from one sqrt. The
    diagonal is a scalar when there is no 1-norm part."""
    exact = smoothed = 0.0
    diag = 0.0
    if lam:
        ridge = lam * float(beta @ beta)
        exact += ridge
        smoothed += ridge
        diag = lam
    if mu:
        root = np.sqrt(beta * beta + epsilon)
        exact += mu * float(np.abs(beta).sum())
        smoothed += mu * float(root.sum())
        diag = diag + 0.5 * mu / root
    return exact, smoothed, diag


def penalty_majorizer_value(beta, beta_ref, lam: float, mu: float, epsilon: float) -> float:
    """Full surrogate penalty value (constants included) anchored at beta_ref.

    Per coordinate the 1-norm part is (mu/2)(beta_j^2 + v_j^2 + 2 eps) /
    sqrt(v_j^2 + eps), the tangent-line surrogate of sqrt(.) applied at
    beta_j^2 + eps; it touches the smoothed penalty at beta = beta_ref and
    dominates it everywhere. The 2-norm part majorizes itself.
    """
    beta = np.asarray(beta, dtype=float).ravel()
    v = np.asarray(beta_ref, dtype=float).ravel()
    value = 0.0
    if lam:
        value += lam * float(beta @ beta)
    if mu:
        g = np.sqrt(v * v + epsilon)
        value += 0.5 * mu * float(((beta * beta + v * v + 2.0 * epsilon) / g).sum())
    return value
