"""Independent reference minimizer and derivative checks, used only for
verification. The descent path shares nothing with the engine; the objective
it tracks is the same risk the leaf loss/penalty functions define (the fused
evaluators below exist for loop speed and are pinned to those functions by
the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

from .core import Dataset, Loss, ModelParams, Monitor, Penalty, RiskSpec, monitor_kind


@dataclass(frozen=True)
class OracleOptions:
    """Subgradient-descent controls.

    Step k uses initial_step / sqrt(k+1). objective=None selects the risk the
    engine's descent guarantee monitors for the given combination
    (monitor_kind).
    """

    iterations: int = 200_000
    initial_step: float = 1.0
    objective: Monitor | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.initial_step <= 0:
            raise ValueError("initial_step must be > 0")


def _margin_path(kind: Loss, smoothed: bool, epsilon: float):
    """Fused (mean loss, d loss / d margin) evaluator for one loss kind.

    At the hinge kink the inactive branch's subgradient 0 is used, keeping
    the exact-risk path deterministic.
    """
    if kind is Loss.HINGE and smoothed:

        def path(m):
            u = 1.0 - m
            g = np.sqrt(u * u + epsilon)
            slope = u / g
            slope += 1.0
            slope *= -0.5
            return 0.5 * float((g + u).mean()), slope

    elif kind is Loss.HINGE:

        def path(m):
            u = 1.0 - m
            return float(np.maximum(0.0, u).mean()), -(u > 0).astype(float)

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


def _penalty_path(kind: Penalty, lam: float, mu: float, smoothed: bool, epsilon: float):
    """Fused (penalty value, gradient w.r.t. beta) evaluator.

    The subgradient of |beta_j| at 0 is taken as 0.
    """
    with_l2 = kind in (Penalty.L2, Penalty.ELASTIC_NET)
    with_l1 = kind in (Penalty.L1, Penalty.ELASTIC_NET)

    def path(beta):
        value = 0.0
        grad = np.zeros_like(beta)
        if with_l2:
            value += lam * float(beta @ beta)
            grad += 2.0 * lam * beta
        if with_l1:
            if smoothed:
                s = np.sqrt(beta * beta + epsilon)
                value += mu * float(s.sum())
                grad += mu * (beta / s)
            else:
                value += mu * float(np.abs(beta).sum())
                grad += mu * np.sign(beta)
        return value, grad

    return path


def subgradient_minimize(spec: RiskSpec, dataset: Dataset, options: OracleOptions | None = None) -> ModelParams:
    """Best-so-far iterate of subgradient descent on the selected risk, with
    the diminishing step schedule a0/sqrt(k+1), started from zero."""
    options = options or OracleOptions()
    smoothed = (options.objective or monitor_kind(spec)) is Monitor.SMOOTHED
    loss_path = _margin_path(spec.loss, smoothed, spec.epsilon)
    penalty_path = _penalty_path(spec.penalty, spec.lam, spec.mu, smoothed, spec.epsilon)

    y = dataset.labels
    rows = np.hstack([y[:, None], y[:, None] * dataset.features])
    rows_t = np.ascontiguousarray(rows.T)
    inv_n = 1.0 / dataset.n

    # steps precomputed once; the loop below runs options.iterations times
    steps = options.initial_step / np.sqrt(np.arange(1.0, options.iterations + 1.0))

    theta = np.zeros(dataset.q + 1)
    loss_val, slope = loss_path(rows @ theta)
    pen_val, pen_grad = penalty_path(theta[1:])
    best_value = loss_val + pen_val
    best = theta.copy()
    for k in range(options.iterations):
        grad = rows_t @ slope
        grad *= inv_n
        grad[1:] += pen_grad
        grad *= steps[k]
        theta = theta - grad
        loss_val, slope = loss_path(rows @ theta)
        pen_val, pen_grad = penalty_path(theta[1:])
        value = loss_val + pen_val
        if value < best_value:
            best_value = value
            best = theta.copy()
    return ModelParams.from_vector(best)


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
