"""Margin losses, their smoothed variants, scalar majorizers, and the
per-iteration terms each loss feeds into the reweighted normal equations.

Every public function accepts scalars or numpy arrays of margins and is
pure. Each formula is written once, in a private function that fills a
given array; the public functions apply it to a whole margin vector and
the engine's blocked pass to one row block at a time (_block_terms).
"""

from __future__ import annotations

import numpy as np

from .core import Loss


def _loss_into(kind: Loss, m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Per-sample loss at margins m, written into out."""
    if kind is Loss.HINGE:
        np.subtract(1.0, m, out=out)
        np.maximum(out, 0.0, out=out)
    elif kind is Loss.LEAST_SQUARES:
        np.subtract(1.0, m, out=out)
        np.square(out, out=out)
    elif kind is Loss.SQUARED_HINGE:
        np.subtract(1.0, m, out=out)
        np.maximum(out, 0.0, out=out)
        np.square(out, out=out)
    elif kind is Loss.LOGISTIC:
        # log(1 + exp(-m)) = max(-m, 0) + log1p(exp(-|m|)), without overflow
        # for large |m|
        np.abs(m, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        np.log1p(out, out=out)
        out -= np.minimum(m, 0.0)
    else:
        raise ValueError(f"unknown loss {kind}")
    return out


def _hinge_gamma(m: np.ndarray, epsilon: float, out: np.ndarray) -> np.ndarray:
    """gamma = sqrt((1 - m)^2 + eps), the smoothed |1 - m|, written into out."""
    np.subtract(1.0, m, out=out)
    np.multiply(out, out, out=out)
    out += epsilon
    return np.sqrt(out, out=out)


def _smoothed_hinge_into(m: np.ndarray, gamma: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Smoothed hinge (gamma + 1 - m)/2, i.e. max(0, u) = (|u| + u)/2 with
    u = 1 - m and |u| smoothed to gamma, written into out (which may be gamma)."""
    np.add(gamma, 1.0, out=out)
    out -= m
    out *= 0.5
    return out


_UNIT_OPEN = (np.finfo(float).tiny, 1.0 - 2.0**-53)


def _logistic_pi(m: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sigmoid pi = 1/(1 + exp(m)), kept strictly inside (0, 1), written into out."""
    # past m ~ 709 exp overflows to inf and pi to 0, which the clip lifts
    with np.errstate(over="ignore"):
        np.exp(m, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)
    return np.clip(out, *_UNIT_OPEN, out=out)


def _reweight(kind: Loss, m: np.ndarray, gamma: np.ndarray | None, weights, targets: np.ndarray):
    """Weights and targets of the update at margins m, written into weights
    and targets; returns the weights, or None for W = I. gamma must hold
    _hinge_gamma at m for the hinge and is unused otherwise."""
    if kind is Loss.HINGE:
        np.divide(0.25, gamma, out=weights)
        np.add(gamma, 1.0, out=targets)
        return weights
    if kind is Loss.LEAST_SQUARES:
        targets.fill(1.0)
    elif kind is Loss.SQUARED_HINGE:
        np.maximum(m, 1.0, out=targets)
    else:
        # m + 4 pi: the logistic surrogate's curvature bound is 1/4
        np.multiply(_logistic_pi(m, targets), 4.0, out=targets)
        targets += m
    return None


def _penalty_scale(kind: Loss) -> float:
    """Factor of n on the penalty diagonals in the normal equations: the
    logistic surrogate carries a 1/(8n) quadratic coefficient, so clearing
    it scales them by 8n; the other losses' by n."""
    return 8.0 if kind is Loss.LOGISTIC else 1.0


def _block_terms(kind: Loss, m: np.ndarray, epsilon: float, scratch, update: bool):
    """One row block's share of a pass at its margins m: (sum of the exact
    losses, sum of the smoothed losses, weights, targets). With update False
    weights and targets are None; otherwise weights is None for W = I.
    scratch holds four arrays of m's shape, which the results occupy."""
    values, gamma, weights, targets = scratch
    loss_sum = float(_loss_into(kind, m, values).sum())
    smoothed_sum = loss_sum
    if kind is Loss.HINGE:
        _hinge_gamma(m, epsilon, gamma)
        smoothed_sum = float(_smoothed_hinge_into(m, gamma, values).sum())
    if not update:
        return loss_sum, smoothed_sum, None, None
    return loss_sum, smoothed_sum, _reweight(kind, m, gamma, weights, targets), targets


def loss_value(kind: Loss, m):
    """Per-sample loss as a function of the margin m."""
    m = np.asarray(m, dtype=float)
    out = _loss_into(kind, m, np.empty_like(m))  # a 0-d out stays 0-d
    return out if out.ndim else float(out)


def smoothed_loss_value(kind: Loss, m, epsilon: float):
    """Loss with every absolute value replaced by sqrt(u^2 + epsilon).

    Only the hinge contains an absolute value (max(0,u) = |u|/2 + u/2); the
    other losses are returned unchanged.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if kind is not Loss.HINGE:
        return loss_value(kind, m)
    m = np.asarray(m, dtype=float)
    out = _smoothed_hinge_into(m, _hinge_gamma(m, epsilon, np.empty_like(m)), np.empty_like(m))
    return out if out.ndim else float(out)


def majorizer_value(kind: Loss, m, m_ref, epsilon: float):
    """Value at margin m of the quadratic surrogate anchored at m_ref.

    The surrogate touches the loss at m = m_ref and dominates it everywhere
    (for the hinge, both statements hold against the smoothed loss with the
    same epsilon; as epsilon -> 0 they hold against the plain hinge).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    m = np.asarray(m, dtype=float)
    m_ref = np.asarray(m_ref, dtype=float)
    u = 1.0 - m
    v = 1.0 - m_ref
    if kind is Loss.HINGE:
        gamma = _hinge_gamma(m_ref, epsilon, np.empty_like(m_ref))
        # ((u + gamma)^2 + eps) / (4 gamma): the anchor constant eps/(4 gamma)
        # makes the surrogate exactly tangent to the smoothed hinge
        out = ((u + gamma) ** 2 + epsilon) / (4.0 * gamma)
    elif kind is Loss.LEAST_SQUARES:
        out = u * u
    elif kind is Loss.SQUARED_HINGE:
        out = np.where(v >= 0.0, u * u, (u - v) ** 2)
    elif kind is Loss.LOGISTIC:
        # curvature bound 1/4 on the logistic second derivative
        d = m - m_ref
        out = loss_value(Loss.LOGISTIC, m_ref) - _logistic_pi(m_ref, np.empty_like(m_ref)) * d + d * d / 8.0
    else:
        raise ValueError(f"unknown loss {kind}")
    return out if out.ndim else float(out)
