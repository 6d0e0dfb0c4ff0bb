"""Penalty evaluation (exact and smoothed), the reciprocal-magnitude diagonal
used by the 1-norm surrogate, and the per-iteration quadratic penalty terms.
"""

from __future__ import annotations

import numpy as np

from .core import Penalty


def penalty_value(kind: Penalty, beta, lam: float, mu: float) -> float:
    """lam * beta.beta, mu * sum |beta_j|, or their sum for the elastic net."""
    if lam < 0 or mu < 0:
        raise ValueError("penalty constants must be >= 0")
    beta = np.asarray(beta, dtype=float).ravel()
    value = 0.0
    if kind in (Penalty.L2, Penalty.ELASTIC_NET):
        value += lam * float(beta @ beta)
    if kind in (Penalty.L1, Penalty.ELASTIC_NET):
        value += mu * float(np.abs(beta).sum())
    return value


def smoothed_penalty_value(kind: Penalty, beta, lam: float, mu: float, epsilon: float) -> float:
    """Penalty with each |beta_j| replaced by sqrt(beta_j^2 + epsilon)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    beta = np.asarray(beta, dtype=float).ravel()
    value = 0.0
    if kind in (Penalty.L2, Penalty.ELASTIC_NET):
        value += lam * float(beta @ beta)
    if kind in (Penalty.L1, Penalty.ELASTIC_NET):
        value += mu * float(np.sqrt(beta * beta + epsilon).sum())
    return value


def _penalty_terms(kind: Penalty, beta: np.ndarray, lam: float, mu: float, epsilon: float):
    """The engine's once-per-pass penalty terms at beta: (penalty_value,
    smoothed_penalty_value, penalty_quadratic without its intercept entry),
    the last two from one sqrt. The diagonal is a scalar when it does not
    vary over beta's entries."""
    exact = smoothed = 0.0
    diag = 0.0
    if kind in (Penalty.L2, Penalty.ELASTIC_NET):
        ridge = lam * float(beta @ beta)
        exact += ridge
        smoothed += ridge
        diag = lam
    if kind in (Penalty.L1, Penalty.ELASTIC_NET):
        root = np.sqrt(beta * beta + epsilon)
        exact += mu * float(np.abs(beta).sum())
        smoothed += mu * float(root.sum())
        diag = diag + 0.5 * mu / root
    return exact, smoothed, diag


def omega_diagonal(beta_ref, epsilon: float) -> np.ndarray:
    """Length-(q+1) diagonal (0, 1/sqrt(v_1^2+eps), ..., 1/sqrt(v_q^2+eps))."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    v = np.asarray(beta_ref, dtype=float).ravel()
    out = np.empty(v.shape[0] + 1)
    out[0] = 0.0
    out[1:] = 1.0 / np.sqrt(v * v + epsilon)
    return out


def penalty_quadratic(kind: Penalty, beta_ref, lam: float, mu: float, epsilon: float) -> np.ndarray:
    """Diagonal of the quadratic penalty surrogate anchored at beta_ref:
    lam * (0, 1, ..., 1) for the 2-norm part plus (mu/2) * the
    reciprocal-magnitude diagonal for the 1-norm part.

    The first entry is 0 (the intercept is never penalized). The diagonal
    is unscaled by n or by any loss-specific constant; the engine applies
    those. Constant terms of the surrogate are dropped here (they do not
    move the argmin); penalty_majorizer_value keeps them for verification.
    """
    v = np.asarray(beta_ref, dtype=float).ravel()
    diag = np.zeros(v.shape[0] + 1)
    if kind in (Penalty.L2, Penalty.ELASTIC_NET):
        diag[1:] = lam
    if kind in (Penalty.L1, Penalty.ELASTIC_NET):
        diag += 0.5 * mu * omega_diagonal(v, epsilon)
    return diag


def penalty_majorizer_value(kind: Penalty, beta, beta_ref, lam: float, mu: float, epsilon: float) -> float:
    """Full surrogate penalty value (constants included) anchored at beta_ref.

    Per coordinate the 1-norm part is (mu/2)(beta_j^2 + v_j^2 + 2 eps) /
    sqrt(v_j^2 + eps), the tangent-line surrogate of sqrt(.) applied at
    beta_j^2 + eps; it touches the smoothed penalty at beta = beta_ref and
    dominates it everywhere. The 2-norm part majorizes itself.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    beta = np.asarray(beta, dtype=float).ravel()
    v = np.asarray(beta_ref, dtype=float).ravel()
    if beta.shape != v.shape:
        raise ValueError("beta and beta_ref must have equal length")
    value = 0.0
    if kind in (Penalty.L2, Penalty.ELASTIC_NET):
        value += lam * float(beta @ beta)
    if kind in (Penalty.L1, Penalty.ELASTIC_NET):
        g = np.sqrt(v * v + epsilon)
        value += 0.5 * mu * float(((beta * beta + v * v + 2.0 * epsilon) / g).sum())
    return value
