"""The loss and penalty leaves, one value per function call, as the package
defined them before its passes fused them. Kept as the specification that
losses._block_terms, penalties._penalty_terms and the fused evaluators of the
reference minimizer in oracle.py are pinned to; the package itself calls
none of them.

A penalty is lam * beta.beta + mu * sum |beta_j|: a part whose constant is 0
is not evaluated, so it contributes exactly +0.0 even where its sums would
overflow.
"""

import math

import numpy as np

from irlsvm import Loss
from irlsvm.losses import _hinge_gamma, loss_value


# RiskSpec's rules for the constants and the smoothing value, which NaN fails
def _check_constants(lam: float, mu: float) -> None:
    if not (0 <= lam < math.inf and 0 <= mu < math.inf):
        raise ValueError("penalty constants must be >= 0 and finite")


def _check_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be > 0 and finite")


def smoothed_loss_value(kind: Loss, m, epsilon: float):
    """Loss with every absolute value replaced by sqrt(u^2 + epsilon).

    Only the hinge contains an absolute value (max(0,u) = |u|/2 + u/2); the
    other losses are returned unchanged.
    """
    _check_epsilon(epsilon)
    if kind is not Loss.HINGE:
        return loss_value(kind, m)
    u = 1.0 - np.asarray(m, dtype=float)
    out = (_hinge_gamma(u, epsilon, np.empty_like(u)) + u) * 0.5
    return out if out.ndim else float(out)


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
