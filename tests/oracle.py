"""Independent reference minimizer and derivative checks, test code beside
risk_reference.py: the package never imports this module, so only the test
extra needs the scipy it runs on.

The minimizer shares no solver code with the engine; the objective it
minimizes is the smoothed risk the leaf functions of risk_reference.py define
(the fused evaluators below exist for speed and are pinned to those functions
by test_oracle.py).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.optimize import minimize
from scipy.special import expit

from irlsvm import Dataset, Loss, ModelParams, RiskSpec

# L-BFGS-B stopping rule: no stop on a small relative decrease (ftol), a
# projected-gradient stop far below the agreement tolerances the tests set,
# and an evaluation budget the smoothed risks of well-posed data never reach.
_FTOL = 0.0
_GTOL = 1e-12
_MAXCOR = 20
_MAXITER = 100_000


def _margin_path(kind: Loss, epsilon: float):
    """Fused (mean smoothed loss, d loss / d margin) evaluator for one loss kind."""
    if kind is Loss.HINGE:

        def path(m):
            u = 1.0 - m
            g = np.sqrt(u * u + epsilon)
            slope = u / g
            slope += 1.0
            slope *= -0.5
            return 0.5 * float((g + u).mean()), slope

    elif kind is Loss.LEAST_SQUARES:

        def path(m):
            u = 1.0 - m
            return float((u * u).mean()), -2.0 * u

    elif kind is Loss.SQUARED_HINGE:

        def path(m):
            up = np.maximum(0.0, 1.0 - m)
            return float((up * up).mean()), -2.0 * up

    else:

        def path(m):
            p = expit(-m)
            return float(np.logaddexp(0.0, -m).mean()), -p

    return path


def _penalty_path(lam: float, mu: float, epsilon: float):
    """Fused (smoothed penalty value, gradient w.r.t. beta) evaluator of
    lam * beta.beta + mu * sum sqrt(beta_j^2 + epsilon); a part whose
    constant is 0 is left out."""

    def path(beta):
        value = 0.0
        grad = np.zeros_like(beta)
        if lam:
            value += lam * float(beta @ beta)
            grad += 2.0 * lam * beta
        if mu:
            s = np.sqrt(beta * beta + epsilon)
            value += mu * float(s.sum())
            grad += mu * (beta / s)
        return value, grad

    return path


def reference_minimize(spec: RiskSpec, dataset: Dataset) -> ModelParams:
    """Minimizer of the smoothed risk by L-BFGS-B (Byrd, Lu, Nocedal & Zhu
    1995), started from zero.

    The smoothed risk is the risk fit's descent guarantee covers for every
    combination: where the monitor is the exact risk, the two are the same
    number. The final point is returned even when the line search stops at
    the floating-point precision floor before the gradient test is met.
    """
    loss_path = _margin_path(spec.loss, spec.epsilon)
    penalty_path = _penalty_path(spec.lam, spec.mu, spec.epsilon)
    y = dataset.labels
    rows = np.hstack([y[:, None], y[:, None] * dataset.features])
    inv_n = 1.0 / dataset.n

    def objective(theta):
        loss_val, slope = loss_path(rows @ theta)
        pen_val, pen_grad = penalty_path(theta[1:])
        grad = slope @ rows
        grad *= inv_n
        grad[1:] += pen_grad
        return loss_val + pen_val, grad

    options = {"ftol": _FTOL, "gtol": _GTOL, "maxcor": _MAXCOR, "maxiter": _MAXITER, "maxfun": _MAXITER}
    result = minimize(objective, np.zeros(dataset.q + 1), jac=True, method="L-BFGS-B", options=options)
    return ModelParams.from_vector(result.x)


def finite_diff_gradient(objective: Callable[[np.ndarray], float], theta: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient with per-coordinate step h * (1 + |theta_j|)."""
    if h <= 0:
        raise ValueError("h must be > 0")
    theta = np.asarray(theta, dtype=float).ravel()
    grad = np.empty_like(theta)
    for j in range(theta.shape[0]):
        step = h * (1.0 + abs(theta[j]))
        up = theta.copy()
        down = theta.copy()
        up[j] += step
        down[j] -= step
        grad[j] = (objective(up) - objective(down)) / (2.0 * step)
    return grad
