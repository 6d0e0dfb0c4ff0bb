"""Penalty evaluation (exact and smoothed), the reciprocal-magnitude diagonal
used by the 1-norm surrogate, and the per-iteration quadratic penalty terms.

A penalty is lam * beta.beta + mu * sum |beta_j|: the constants alone say
which parts it has. A part whose constant is 0 is not evaluated, so it
contributes exactly +0.0 even where its sums would overflow.
"""

from __future__ import annotations

import math

import numpy as np


# RiskSpec's rules for the constants, which NaN fails
def _check_constants(lam: float, mu: float) -> None:
    if not (0 <= lam < math.inf and 0 <= mu < math.inf):
        raise ValueError("penalty constants must be >= 0 and finite")


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be > 0 and finite")


def penalty_value(beta, lam: float, mu: float) -> float:
    """lam * beta.beta + mu * sum |beta_j|."""
    _check_constants(lam, mu)
    beta = np.asarray(beta, dtype=float).ravel()
    value = 0.0
    if lam:
        value += lam * float(beta @ beta)
    if mu:
        value += mu * float(np.abs(beta).sum())
    return value


def smoothed_penalty_value(beta, lam: float, mu: float, epsilon: float) -> float:
    """Penalty with each |beta_j| replaced by sqrt(beta_j^2 + epsilon)."""
    _check_constants(lam, mu)
    _check_epsilon(epsilon)
    beta = np.asarray(beta, dtype=float).ravel()
    value = 0.0
    if lam:
        value += lam * float(beta @ beta)
    if mu:
        value += mu * float(np.sqrt(beta * beta + epsilon).sum())
    return value


def _penalty_terms(beta: np.ndarray, lam: float, mu: float, epsilon: float):
    """The engine's once-per-pass penalty terms at beta: (penalty_value,
    smoothed_penalty_value, penalty_quadratic without its intercept entry),
    the last two from one sqrt. The diagonal is a scalar when there is no
    1-norm part."""
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


def omega_diagonal(beta_ref, epsilon: float) -> np.ndarray:
    """Length-(q+1) diagonal (0, 1/sqrt(v_1^2+eps), ..., 1/sqrt(v_q^2+eps))."""
    _check_epsilon(epsilon)
    v = np.asarray(beta_ref, dtype=float).ravel()
    out = np.empty(v.shape[0] + 1)
    out[0] = 0.0
    out[1:] = 1.0 / np.sqrt(v * v + epsilon)
    return out


def penalty_quadratic(beta_ref, lam: float, mu: float, epsilon: float) -> np.ndarray:
    """Diagonal of the quadratic penalty surrogate anchored at beta_ref:
    lam * (0, 1, ..., 1) for the 2-norm part plus (mu/2) * the
    reciprocal-magnitude diagonal for the 1-norm part.

    The first entry is 0 (the intercept is never penalized). The diagonal
    is unscaled by n or by any loss-specific constant; the engine applies
    those. Constant terms of the surrogate are dropped here (they do not
    move the argmin); penalty_majorizer_value keeps them for verification.
    """
    _check_constants(lam, mu)
    _check_epsilon(epsilon)
    v = np.asarray(beta_ref, dtype=float).ravel()
    diag = np.zeros(v.shape[0] + 1)
    if lam:
        diag[1:] = lam
    if mu:
        diag += 0.5 * mu * omega_diagonal(v, epsilon)
    return diag


def penalty_majorizer_value(beta, beta_ref, lam: float, mu: float, epsilon: float) -> float:
    """Full surrogate penalty value (constants included) anchored at beta_ref.

    Per coordinate the 1-norm part is (mu/2)(beta_j^2 + v_j^2 + 2 eps) /
    sqrt(v_j^2 + eps), the tangent-line surrogate of sqrt(.) applied at
    beta_j^2 + eps; it touches the smoothed penalty at beta = beta_ref and
    dominates it everywhere. The 2-norm part majorizes itself.
    """
    _check_constants(lam, mu)
    _check_epsilon(epsilon)
    beta = np.asarray(beta, dtype=float).ravel()
    v = np.asarray(beta_ref, dtype=float).ravel()
    if beta.shape != v.shape:
        raise ValueError("beta and beta_ref must have equal length")
    value = 0.0
    if lam:
        value += lam * float(beta @ beta)
    if mu:
        g = np.sqrt(v * v + epsilon)
        value += 0.5 * mu * float(((beta * beta + v * v + 2.0 * epsilon) / g).sum())
    return value
